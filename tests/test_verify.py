"""The battery's own runs: each check frees the run it made, and a [flow]
t_final that the theta run cannot reach, or would take more than MAX_STEPS
steps to reach, is refused before any phase."""

import dataclasses
import gc
import os
import weakref

from singflow import verify
from singflow.cli import main
from singflow.config import parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ACCEPTANCE = os.path.join(ROOT, "configs", "acceptance.cfg")


def test_standard_run_frees_its_weight_when_its_checks_end(monkeypatch):
    weights = []
    build_problem = verify.build_problem

    def recording(cfg, *args, **kwargs):
        w = build_problem(cfg, *args, **kwargs)
        weights.append(weakref.ref(w))
        return w

    monkeypatch.setattr(verify, "build_problem", recording)
    cfg = dataclasses.replace(parse_config(ACCEPTANCE), t_final=0.01, snapshot_interval=0.005)
    out = verify.check_standard_run(cfg)
    assert [v["check_name"] for v in out] == [
        "hyperbolic_distance_bound",
        "phi2_uniform_bound",
        "phi1_vanishing_slope",
        "grad_phi2_slope",
    ]
    gc.collect()
    assert len(weights) == 1
    assert weights[0]() is None  # and with it the weight's output arrays


def test_t_final_off_the_theta_step_exit_2(tmp_path, capsys, monkeypatch):
    # 51 steps of [flow] dt = 2e-4, but 10.2 of the theta run's dt = 1e-3
    def no_phase(cfg):
        raise AssertionError("a battery phase ran")

    monkeypatch.setattr(verify, "check_operator_linearization", no_phase)
    p = tmp_path / "short.cfg"
    p.write_text("[grid]\nn = 16\n[flow]\ndt = 2e-4\nt_final = 0.0102\nsnapshot_interval = 2e-4\n")
    out = tmp_path / "o"
    assert main(["verify", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: [flow] t_final = 0.0102: the battery's theta run" in err
    assert "dt = 0.001" in err
    assert not out.exists()


def test_theta_run_over_max_steps_exit_2(tmp_path, capsys, monkeypatch):
    # 2e4 steps of [flow] dt = 1 pass the config, but the theta run would take 2e7
    def no_phase(cfg):
        raise AssertionError("a battery phase ran")

    monkeypatch.setattr(verify, "check_operator_linearization", no_phase)
    p = tmp_path / "long.cfg"
    p.write_text("[grid]\nn = 16\n[flow]\ndt = 1\nt_final = 2e4\nsnapshot_interval = 1\n")
    out = tmp_path / "o"
    assert main(["verify", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (
        "config error: [flow] t_final = 20000.0: the battery's theta run would take 20000000 "
        "steps of THETA_DT = 0.001, more than MAX_STEPS = 10000000"
    ) in err
    assert not out.exists()
