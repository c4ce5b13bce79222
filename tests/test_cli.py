import json
import os
import subprocess
import sys

import numpy as np
import pytest

from singflow.cli import cmd_analyze, cmd_galerkin, cmd_run, main
from singflow.config import ConfigError, RunConfig, parse_config_text
from singflow.snapshots import Snapshot, SnapshotFormatError, read_snapshot, write_snapshot

MINIMAL = """
[grid]
n = 16

[flow]
family = zero
t_final = 0.01
dt = 1e-3
snapshot_interval = 5e-3
"""


class TestConfigParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.n == 16
        assert cfg.alpha == 1.5
        assert cfg.curve_kind == "axis_line"
        echoed = json.loads(cfg.to_json())
        assert echoed["galerkin_N"] == 8

    def test_alpha_constraint_message(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + "\n[weight]\nalpha = 0.5\n")
        assert any("alpha must exceed 1" in e for e in err.value.errors)

    def test_solver_tol_reported_under_weight(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + "\n[weight]\nsolver_tol = 0\n")
        assert err.value.errors == ["[weight] solver_tol = 0.0: must be positive"]

    def test_duplicate_key_reports_both_lines(self):
        text = "[grid]\nn = 16\nn = 32\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        msg = next(e for e in err.value.errors if "duplicate" in e)
        assert ":3:" in msg and "line 2" in msg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("[grid]\nn = 16\nresolution = 4\n")
        assert any("unknown key 'resolution'" in e for e in err.value.errors)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("[mesh]\nn = 16\n")
        assert any("unknown section [mesh]" in e for e in err.value.errors)

    def test_all_errors_reported_at_once(self):
        text = "[grid]\nn = -2\nbogus = 1\n[weight]\nalpha = 0.5\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert len(err.value.errors) >= 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SINGFLOW_FLOW__DT", "5e-4")
        cfg = parse_config_text(MINIMAL)
        assert cfg.dt == 5e-4

    def test_unparseable_value(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("[grid]\nn = many\n")
        assert any("cannot parse" in e for e in err.value.errors)


class TestSnapshots:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        snap = Snapshot(
            n=(6, 6, 6),
            length=1.0,
            alpha=1.5,
            t=0.375,
            fields={"phi1": rng.normal(size=(6, 6, 6)), "phi2": rng.normal(size=(6, 6, 6))},
        )
        p1 = tmp_path / "a.sgf"
        p2 = tmp_path / "b.sgf"
        write_snapshot(str(p1), snap)
        loaded = read_snapshot(str(p1))
        assert loaded.t == snap.t and loaded.alpha == snap.alpha
        assert np.array_equal(loaded.fields["phi1"], snap.fields["phi1"])
        write_snapshot(str(p2), loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.sgf"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot(str(p))

    def test_truncated_payload_rejected(self, tmp_path):
        snap = Snapshot(n=(4, 4, 4), length=1.0, alpha=1.5, t=0.0,
                        fields={"phi1": np.zeros((4, 4, 4))})
        p = tmp_path / "t.sgf"
        write_snapshot(str(p), snap)
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(SnapshotFormatError, match="payload"):
            read_snapshot(str(p))


class TestCmdRun:
    def test_zero_data_writes_zero_series(self, tmp_path):
        cfg = parse_config_text(MINIMAL)
        out = tmp_path / "run0"
        assert cmd_run(cfg, str(out)) == 0
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert lines[0] == "t,H,theta_l2,max_abs_phi2,hyp_dist_to_init,residual1,residual2"
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")[1:]]
            assert all(v == 0.0 for v in vals)
        assert (out / "summary.json").exists()
        assert (out / "convergence.csv").exists()

    def test_determinism_byte_identical(self, tmp_path):
        text = MINIMAL.replace("family = zero", "family = poly_cutoff+trig\nc = 0.1\na = 0.05\nb = 0.05")
        cfg = parse_config_text(text)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cmd_run(cfg, str(out1))
        cmd_run(cfg, str(out2))
        for name in ("timeseries.csv", "series_aux.csv", "convergence.csv", "snap_00000.sgf", "snap_00002.sgf"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_snapshot_headers_match_config(self, tmp_path):
        cfg = parse_config_text(MINIMAL)
        out = tmp_path / "run"
        cmd_run(cfg, str(out))
        snap = read_snapshot(str(out / "snap_00000.sgf"))
        assert snap.n == (16, 16, 16)
        assert snap.alpha == 1.5
        assert set(snap.fields) == {"phi1", "phi2", "dphi1_dt", "dphi2_dt"}


class TestCmdAnalyze:
    def test_trajectory_uses_dt_of_the_run(self, tmp_path, monkeypatch):
        import singflow.analysis

        text = MINIMAL.replace("family = zero", "family = trig\na = 0.1\ndt_policy = cfl")
        cfg = parse_config_text(text)
        out = tmp_path / "run"
        assert cmd_run(cfg, str(out)) == 0
        dt_used = json.loads((out / "summary.json").read_text())["dt_used"]
        assert dt_used < cfg.dt

        seen = []
        check = singflow.analysis.check_max_principle

        def spy(traj, w):
            seen.append(traj)
            return check(traj, w)

        monkeypatch.setattr(singflow.analysis, "check_max_principle", spy)
        assert cmd_analyze(str(out)) == 0
        assert [traj.dt for traj in seen] == [dt_used]


class TestCmdGalerkin:
    def test_writes_matrices_and_report(self, tmp_path):
        text = MINIMAL + "\n[galerkin]\nN = 3\ndt = 1e-3\nt_final = 0.05\n"
        cfg = parse_config_text(text)
        out = tmp_path / "gal"
        assert cmd_galerkin(cfg, str(out)) == 0
        lines = (out / "matrix_A.csv").read_text().splitlines()
        assert lines[0] == "m,l,value"
        assert len(lines) == 1 + 9
        report = json.loads((out / "weak_residual.json").read_text())
        assert report["passed"] is True
        coeffs = (out / "coefficients.csv").read_text().splitlines()
        assert coeffs[0] == "t,c1_0,c1_1,c1_2,c2_0,c2_1,c2_2"


class TestCircleCurve:
    def test_circle_problem_end_to_end(self, tmp_path):
        # the circle branch exercises the sampled distance, ridge detector,
        # and a genuinely nontrivial weight solve
        text = (
            "[grid]\nn = 16\n"
            "[curve]\nkind = circle\ncenter = 0.5,0.5,0.5\nradius = 0.2\n"
            "normal_axis = 2\nsamples = 128\n"
            "[flow]\nfamily = trig\na = 0.1\nb = 0.1\nt_final = 0.01\ndt = 1e-3\n"
            "snapshot_interval = 5e-3\n"
        )
        cfg = parse_config_text(text)
        out = tmp_path / "circle_run"
        assert cmd_run(cfg, str(out)) == 0
        from singflow.config import build_problem

        _, _, rho, w = build_problem(cfg)
        assert np.max(np.abs(w.u)) < 1.0
        assert np.all(np.isfinite(w.grad_log_h))


class TestMainEntry:
    def test_analyze_missing_dir_exit_2(self, capsys):
        rc = main(["analyze", "/nonexistent/run/dir"])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[weight]\nalpha = 0.2\n")
        rc = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "alpha must exceed 1" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_run_then_analyze_in_subprocess(self, tmp_path):
        p = tmp_path / "small.cfg"
        p.write_text(
            "[grid]\nn = 16\n[flow]\nfamily = poly_cutoff+trig\nc = 0.1\na = 0.05\nb = 0.05\n"
            "t_final = 0.02\ndt = 1e-3\nsnapshot_interval = 5e-3\n"
            "[analysis]\nholder_pairs = 2000\n"
        )
        out = tmp_path / "rundir"
        env = dict(os.environ, PYTHONPATH="src")
        rc = subprocess.run(
            [sys.executable, "-m", "singflow.cli", "run", "--config", str(p), "--out", str(out)],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
        ).returncode
        assert rc == 0
        rc = subprocess.run(
            [sys.executable, "-m", "singflow.cli", "analyze", str(out)],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
        ).returncode
        assert rc == 0
        reports = json.loads((out / "analysis.json").read_text())
        assert "bounds" in reports and len(reports["bounds"]) == 2
