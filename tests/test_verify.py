"""The battery's own runs: each check frees the run it made, and a [flow]
t_final that the theta run cannot reach is refused before any phase."""

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
