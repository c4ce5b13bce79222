import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singflow.cli import cmd_galerkin, cmd_run, main
from singflow.config import _SCHEMA, ConfigError, RunConfig, parse_config_text
from singflow.snapshots import Snapshot, SnapshotFormatError, read_snapshot, write_snapshot

_CONFIG_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(min_value=-(10**9), max_value=10**9).map(str),
    st.sampled_from(["axis_line", "circle", "cfl", "trig", "0.5, 0.5, 0.5", "1, inf, 2", "1e-320"]),
    st.text(st.characters(blacklist_characters="\n\r#", blacklist_categories=("Cs",)), max_size=8),
)
# a known key under its own section, an unknown section or key, or a line of any text
_CONFIG_ENTRIES = st.one_of(
    st.tuples(st.sampled_from(sorted(_SCHEMA)), _CONFIG_VALUES).map(
        lambda e: f"[{e[0][0]}]\n{e[0][1]} = {e[1]}"
    ),
    st.sampled_from(["[mesh]", "[grid]\nbogus = 1"]),
    st.text(st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)), max_size=12),
)

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
        echoed = json.loads(json.dumps(cfg.as_dict()))
        assert echoed["galerkin_N"] == 8

    def test_alpha_constraint_message(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + "\n[weight]\nalpha = 0.5\n")
        assert any("alpha must exceed 1" in e for e in err.value.errors)

    def test_solver_tol_reported_under_weight(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + "\n[weight]\nsolver_tol = 0\n")
        assert err.value.errors == ["[weight] solver_tol = 0.0: must be positive"]

    def test_galerkin_t_final_must_be_a_multiple_of_dt(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + "\n[galerkin]\ndt = 0.1\nt_final = 0.25\n")
        assert err.value.errors == [
            "[galerkin] t_final = 0.25: must be a whole multiple of dt = 0.1 (t_final/dt = 2.5)"
        ]
        # quotients a rounding error away from a whole number are accepted
        for dt, t_final in ((2e-4, 0.3), (2e-4, 0.06), (1e-3, 0.1)):
            cfg = parse_config_text(MINIMAL + f"\n[galerkin]\ndt = {dt}\nt_final = {t_final}\n")
            assert cfg.galerkin_t_final == t_final

    def test_flow_t_final_must_be_a_multiple_of_fixed_dt(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL.replace("t_final = 0.01", "t_final = 0.0105"))
        assert err.value.errors == [
            "[flow] t_final = 0.0105: must be a whole multiple of dt = 0.001 (t_final/dt = 10.5)"
        ]

    def test_flow_snapshot_interval_must_be_a_multiple_of_fixed_dt(self):
        for interval, ratio in (("2.5e-3", "2.5"), ("5e-4", "0.5")):
            text = MINIMAL.replace("snapshot_interval = 5e-3", f"snapshot_interval = {interval}")
            with pytest.raises(ConfigError) as err:
                parse_config_text(text)
            assert err.value.errors == [
                f"[flow] snapshot_interval = {float(interval)}: must be a whole multiple "
                f"of dt = 0.001 (snapshot_interval/dt = {ratio})"
            ]

    @pytest.mark.parametrize("section", ["flow", "galerkin"])
    def test_step_count_above_max_steps_rejected(self, section):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"[{section}]\nt_final = 1e300\ndt = 1e-3\n")
        assert err.value.errors == [
            f"[{section}] t_final = 1e+300: 1e+303 steps of dt = 0.001 exceed MAX_STEPS = 10000000"
        ]
        # MAX_STEPS = 10^7 steps pass; one more does not
        parse_config_text(f"[{section}]\nt_final = 10000.0\ndt = 1e-3\n")
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"[{section}]\nt_final = 10000.001\ndt = 1e-3\n")
        assert err.value.errors == [
            f"[{section}] t_final = 10000.001: 1e+07 steps of dt = 0.001 exceed MAX_STEPS = 10000000"
        ]

    def test_duplicate_key_reports_both_lines(self):
        text = "[grid]\nn = 16\nn = 32\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        msg = next(e for e in err.value.errors if "duplicate" in e)
        assert ":3:" in msg and "line 2" in msg

    def test_unknown_galerkin_forcing_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + "\n[galerkin]\nforcing = bogus\n")
        assert err.value.errors == ["[galerkin] forcing = 'bogus': must be trig_damped or zero"]

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

    @pytest.mark.parametrize(
        "env, key, section",
        [
            ("SINGFLOW_FLOW__DTT", "dtt", "flow"),
            ("SINGFLOW_FLOW__DT_POLICY", "dt_policy", "flow"),
            ("SINGFLOW_FLOW__CFL_FACTOR", "cfl_factor", "flow"),
            ("SINGFLOW_MESH__N", "n", "mesh"),
            ("SINGFLOW_flow__dt", "dt", "flow"),
        ],
    )
    def test_unknown_env_key_rejected(self, monkeypatch, env, key, section):
        monkeypatch.setenv(env, "1e-3")
        # the upper-cased schema pairs, the seed and names without a section stay valid
        monkeypatch.setenv("SINGFLOW_GALERKIN__N", "3")
        monkeypatch.setenv("SINGFLOW_SEED", "7")
        monkeypatch.setenv("SINGFLOW_NOTE", "no section: not an override")
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL)
        assert err.value.errors == [f"environment {env}: unknown key {key!r} in section [{section}]"]
        monkeypatch.delenv(env)
        cfg = parse_config_text(MINIMAL)
        assert (cfg.galerkin_N, cfg.seed) == (3, 7)

    def test_unparseable_value(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("[grid]\nn = many\n")
        assert any("cannot parse" in e for e in err.value.errors)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("flow", "t_final", "inf"),
            ("galerkin", "t_final", "inf"),
            ("flow", "t_final", "nan"),
            ("flow", "dt", "nan"),
            ("weight", "alpha", "nan"),
            ("grid", "length", "nan"),
            ("curve", "center", "0.5, nan, 0.5"),
            ("curve", "center", "0.5, 0.5, -inf"),
        ],
    )
    def test_non_finite_numbers_rejected(self, monkeypatch, section, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"[{section}]\n{key} = {value}\n")
        assert [e for e in err.value.errors if f"cannot parse {key} = " in e], err.value.errors
        # the same value given as an environment override
        monkeypatch.setenv(f"SINGFLOW_{section.upper()}__{key.upper()}", value)
        with pytest.raises(ConfigError) as err:
            parse_config_text("")
        assert [e for e in err.value.errors if f"[{section}] {key}" in e], err.value.errors

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_CONFIG_ENTRIES, max_size=8))
    def test_any_text_parses_or_raises_config_error(self, entries):
        try:
            cfg = parse_config_text("\n".join(entries))
        except ConfigError as err:
            assert err.errors
        else:
            assert isinstance(cfg, RunConfig)


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

    @pytest.mark.parametrize("size", [4, 6, 20, 47])
    def test_truncated_header_rejected(self, tmp_path, size):
        snap = Snapshot(n=(2, 2, 2), length=1.0, alpha=1.5, t=0.0,
                        fields={"phi1": np.zeros((2, 2, 2))})
        p = tmp_path / "h.sgf"
        write_snapshot(str(p), snap)
        p.write_bytes(p.read_bytes()[:size])
        with pytest.raises(SnapshotFormatError, match="header"):
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

    def test_loads_sampled_at_every_ode_step_time(self, tmp_path, monkeypatch):
        # t_final / dt = 1499.99999925 is accepted as 1500 steps; the loads must
        # reach the last of the 1501 step times instead of stopping at 0.2998
        import singflow.cli

        seen = []
        integrate = singflow.cli.integrate_ode

        def spy(system):
            seen.append(integrate(system))
            return seen[-1]

        monkeypatch.setattr(singflow.cli, "integrate_ode", spy)
        cfg = parse_config_text(MINIMAL + "\n[galerkin]\nN = 3\ndt = 2e-4\nt_final = 0.29999999985\n")
        assert cmd_galerkin(cfg, str(tmp_path / "gal")) == 0
        [system] = seen
        assert len(system.times) == 1501
        assert system.F1.shape[0] == system.F2.shape[0] == 1501
        assert system.C1.shape[0] == system.C2.shape[0] == 1501

    def test_one_and_two_lanes_write_the_same_bytes(self, tmp_path, monkeypatch):
        # each cmd_galerkin builds its weight, whose workspace reads LANES
        from singflow import flow

        cfg = parse_config_text(MINIMAL + "\n[galerkin]\nN = 7\ndt = 1e-3\nt_final = 0.02\n")
        for lanes in (1, 2):
            monkeypatch.setattr(flow, "LANES", lanes)
            assert cmd_galerkin(cfg, str(tmp_path / f"lanes{lanes}")) == 0
        names = sorted(os.listdir(tmp_path / "lanes1"))
        assert names == sorted(os.listdir(tmp_path / "lanes2"))
        assert "matrix_D.csv" in names and "coefficients.csv" in names
        for name in names:
            one, two = (tmp_path / f"lanes{lanes}" / name for lanes in (1, 2))
            assert one.read_bytes() == two.read_bytes(), name


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

        w = build_problem(cfg)
        assert np.max(np.abs(w.log_h - np.log(w.rho.rho))) < 1.0
        assert np.all(np.isfinite(w.grad_log_h))


def _edit_snapshot(out, edit):
    path = str(out / "snap_00001.sgf")
    snap = read_snapshot(path)
    edit(snap)
    write_snapshot(path, snap)


def _coarsen(snap):
    snap.n = (8, 8, 8)
    snap.fields = {name: f[::2, ::2, ::2] for name, f in snap.fields.items()}


def _poison_phi2(snap):
    snap.fields["phi2"] = snap.fields["phi2"].copy()
    snap.fields["phi2"][1, 2, 3] = np.nan


# data whose flow turns non-finite at step 4 (t = 0.04)
BLOWUP = (
    "[grid]\nn = 16\n[flow]\nfamily = poly_cutoff+trig\nc = 1e4\na = 50\nb = 50\n"
    "dt = 1e-2\nt_final = 1.0\nsnapshot_interval = 0.5\n"
)


def _assert_rejected_leaves_out(tmp_path, capsys, command, text, existed, message):
    """`command` on the config `text` exits 2 with `message` on stderr and leaves `--out` as it was.

    Returns the stderr text.
    """
    p = tmp_path / "rejected.cfg"
    p.write_text(text)
    out = tmp_path / "o"
    if existed:
        out.mkdir()
        (out / "kept.txt").write_text("earlier output")
    assert main([command, "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert out.exists() == existed
    if existed:
        assert [f.name for f in out.iterdir()] == ["kept.txt"]
        assert (out / "kept.txt").read_text() == "earlier output"
    return err


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

    def test_huge_galerkin_t_final_exit_2(self, tmp_path, capsys):
        p = tmp_path / "long.cfg"
        p.write_text("[grid]\nn = 8\n[galerkin]\nN = 2\ndt = 1e-3\nt_final = 1e250\n")
        rc = main(["galerkin", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "[galerkin] t_final = 1e+250: 1e+253 steps" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_grid_inside_the_exclusion_ring_exit_2(self, tmp_path, capsys):
        # at n = 3 every node lies within 2 spacings of the default axis line
        p = tmp_path / "coarse.cfg"
        p.write_text("[grid]\nn = 3\n[flow]\nfamily = trig\nt_final = 2e-3\ndt = 1e-3\n")
        rc = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "[grid] n = 3: every node lies within the exclusion ring" in err
        assert "radius 2 * spacing = 0.666667" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "galerkin", "verify"])
    @pytest.mark.parametrize("existed", [False, True], ids=["new_out", "existing_out"])
    def test_rejected_grid_leaves_out_as_it_was(self, tmp_path, capsys, command, existed):
        text = "[grid]\nn = 3\n[flow]\nfamily = trig\nt_final = 2e-3\ndt = 1e-3\n"
        message = "every node lies within the exclusion ring"
        _assert_rejected_leaves_out(tmp_path, capsys, command, text, existed, message)

    @pytest.mark.parametrize(
        "n, curve, reason",
        [
            (16, "normal_axis = 5", "normal_axis = 5, samples = 256): normal_axis must be 0, 1 or 2"),
            (16, "samples = 2", "normal_axis = 2, samples = 2): circle needs at least 3 samples"),
            (
                32,
                "samples = 16",
                "normal_axis = 2, samples = 16): "
                "circle sample spacing 0.09817 exceeds grid spacing 0.03125",
            ),
        ],
        ids=["normal_axis", "too_few_samples", "samples_coarser_than_grid"],
    )
    @pytest.mark.parametrize("command", ["run", "galerkin", "verify"])
    @pytest.mark.parametrize("existed", [False, True], ids=["new_out", "existing_out"])
    def test_rejected_circle_leaves_out_as_it_was(
        self, tmp_path, capsys, command, existed, n, curve, reason
    ):
        text = (
            f"[grid]\nn = {n}\n[curve]\nkind = circle\n{curve}\n"
            "[flow]\nfamily = trig\nt_final = 2e-3\ndt = 1e-3\n"
        )
        message = f"config error: [curve] kind = circle (radius = 0.25, {reason}\n"
        _assert_rejected_leaves_out(tmp_path, capsys, command, text, existed, message)

    @pytest.mark.parametrize(
        "galerkin, message",
        [
            ("forcing = bogus", "config error: [galerkin] forcing = 'bogus': must be trig_damped or zero\n"),
            (
                "N = 400",
                "config error: [galerkin] N = 400: "
                "basis includes modes at or above the grid Nyquist wavenumber\n",
            ),
        ],
        ids=["unknown_forcing", "N_above_nyquist"],
    )
    @pytest.mark.parametrize("existed", [False, True], ids=["new_out", "existing_out"])
    def test_rejected_galerkin_leaves_out_as_it_was(
        self, tmp_path, capsys, existed, galerkin, message
    ):
        text = f"[grid]\nn = 8\n[galerkin]\n{galerkin}\n"
        _assert_rejected_leaves_out(tmp_path, capsys, "galerkin", text, existed, message)

    @pytest.mark.parametrize(
        "edit, messages",
        [
            (lambda out: (out / "snap_00009.sgf").write_bytes(b"SGF1\x01\x00"), ["snap_00009.sgf"]),
            (
                lambda out: (out / "snap_00000.sgf").write_bytes(b"NOPE" + b"\x00" * 64),
                ["snap_00000.sgf"],
            ),
            (
                lambda out: [p.unlink() for p in out.glob("*.sgf")],
                ["malformed run directory", "no .sgf snapshot"],
            ),
            (
                lambda out: _edit_snapshot(out, lambda snap: snap.fields.pop("dphi2_dt")),
                ["malformed run directory", "snap_00001.sgf", "['dphi1_dt', 'phi1', 'phi2']"],
            ),
            (
                lambda out: _edit_snapshot(out, _coarsen),
                ["malformed run directory", "snap_00001.sgf", "(8, 8, 8)"],
            ),
            (
                lambda out: _edit_snapshot(out, _poison_phi2),
                ["malformed run directory", "snap_00001.sgf has non-finite values in phi2"],
            ),
        ],
        ids=[
            "short_header", "bad_magic", "no_snapshots", "missing_field", "coarser_grid", "nan_field"
        ],
    )
    def test_analyze_bad_snapshot_exit_2(self, tmp_path, capsys, edit, messages):
        out = tmp_path / "run"
        assert cmd_run(parse_config_text(MINIMAL), str(out)) == 0
        edit(out)
        assert main(["analyze", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(m in err for m in messages), err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c.update(scheme="imex"), "summary.json config: unknown key 'scheme'"),
            (lambda c: c.pop("seed"), "summary.json config: missing key 'seed'"),
            (lambda c: c.update(alpha=0.5), "alpha must exceed 1"),
            (lambda c: c.update(curve_a="x"), "config: curve_a = 'x': expected a number"),
            (lambda c: c.update(n=32.5), "config: n = 32.5: expected an integer"),
            (lambda c: c.update(n=True), "config: n = True: expected an integer"),
            (lambda c: c.update(dt=float("nan")), "dt = nan: nan is not a finite number"),
            (lambda c: c.update(circle_center=[0.5, 0.5]), "expected a list of three numbers"),
            (lambda c: c.update(family=0), "config: family = 0: expected a string"),
            (lambda c: c.update(seed=-1), "config: [analysis] seed = -1: must be non-negative"),
        ],
        ids=[
            "unknown_key", "missing_key", "alpha_below_one", "str_for_float", "float_for_int",
            "bool_for_int", "nan_float", "short_vec3", "int_for_str", "negative_seed",
        ],
    )
    def test_analyze_bad_config_echo_exit_2(self, tmp_path, capsys, edit, message):
        # the echoed config is held to the parser's rules
        out = tmp_path / "run"
        assert cmd_run(parse_config_text(MINIMAL), str(out)) == 0
        path = out / "summary.json"
        summary = json.loads(path.read_text())
        edit(summary["config"])
        path.write_text(json.dumps(summary))
        assert main(["analyze", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    def test_analyze_bad_summary_json_exit_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cmd_run(parse_config_text(MINIMAL), str(out)) == 0
        (out / "summary.json").write_text('{"config": ')
        assert main(["analyze", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed run directory") and "JSONDecodeError" in err

    def test_analyze_non_numeric_series_cell_exit_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cmd_run(parse_config_text(MINIMAL), str(out)) == 0
        path = out / "timeseries.csv"
        lines = path.read_text().splitlines()
        lines[2] = "oops" + lines[2][lines[2].index(","):]
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed run directory") and "timeseries.csv" in err
        assert "'oops'" in err

    @pytest.mark.parametrize("extra", [-1, 1], ids=["one_value_short", "one_value_over"])
    def test_analyze_series_row_of_wrong_length_exit_2(self, tmp_path, capsys, extra):
        # zip would drop the missing or extra value and leave columns of different lengths
        out = tmp_path / "run"
        assert cmd_run(parse_config_text(MINIMAL), str(out)) == 0
        path = out / "series_aux.csv"
        lines = path.read_text().splitlines()
        fields = lines[-1].split(",")
        lines[-1] = ",".join(fields[:-1] if extra < 0 else fields + ["0.0"])
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed run directory"), err
        where = f"series_aux.csv, line {len(lines)}: "
        assert where + f"{len(fields) + extra} fields where the header has {len(fields)}" in err

    def test_flow_blowup_exit_2(self, tmp_path, capsys):
        # the last finite states overflow in their diagnostics rows; with warnings
        # raised as errors, any that got out would end the run before its error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = _assert_rejected_leaves_out(tmp_path, capsys, "run", BLOWUP, False, "")
        assert err.startswith("error: non-finite field values at step 4; last finite state at t = 0.03")
        assert err.count("\n") == 1, err
        # the same data stopped before the blow-up completes, and keeps its rows' warnings
        text = BLOWUP.replace("t_final = 1.0", "t_final = 0.01")
        text = text.replace("snapshot_interval = 0.5", "snapshot_interval = 0.01")
        with pytest.warns(RuntimeWarning) as caught:
            assert cmd_run(parse_config_text(text), str(tmp_path / "done")) == 0
        assert ("overflow encountered in exp", "flow.py") in {
            (str(w.message), os.path.basename(w.filename)) for w in caught
        }

    @pytest.mark.parametrize("existed", [False, True], ids=["new_out", "existing_out"])
    def test_a_run_whose_last_states_overflow_exit_2(self, tmp_path, capsys, existed):
        # the run completes at its last finite state, but the cstar2 distance
        # of its initial snapshot to that final one is not finite
        text = BLOWUP.replace("t_final = 1.0", "t_final = 0.03")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = _assert_rejected_leaves_out(tmp_path, capsys, "run", text, existed, "")
        assert err == (
            "error: the run reached t = 0.03, but its last states overflow: "
            "norm cstar2 must be finite and nonnegative\n"
        )

    def test_flow_blowup_leaves_an_existing_out_as_it_was(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_rejected_leaves_out(tmp_path, capsys, "run", BLOWUP, True, "error: non-finite")

    def test_unknown_env_key_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SINGFLOW_FLOW__DT_POLICY", "cfl")
        message = (
            "config error: environment SINGFLOW_FLOW__DT_POLICY: "
            "unknown key 'dt_policy' in section [flow]\n"
        )
        _assert_rejected_leaves_out(tmp_path, capsys, "run", MINIMAL, False, message)

    def test_galerkin_blowup_exit_2(self, tmp_path, capsys, monkeypatch):
        from singflow import cli
        from singflow.spectral import OdeBlowupError

        def integrate_ode(system):
            raise OdeBlowupError(7, float("inf"))

        monkeypatch.setattr(cli, "integrate_ode", integrate_ode)
        p = tmp_path / "small.cfg"
        p.write_text("[grid]\nn = 8\n[galerkin]\nN = 2\ndt = 1e-3\nt_final = 2e-3\n")
        rc = main(["galerkin", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: non-finite Galerkin coefficient at step 7 (max |C| = inf)\n"

    @pytest.mark.parametrize("existed", [False, True], ids=["new_out", "existing_out"])
    def test_negative_seed_in_config_exit_2(self, tmp_path, capsys, existed):
        text = MINIMAL + "[analysis]\nseed = -1\n"
        message = "config error: [analysis] seed = -1: must be non-negative\n"
        _assert_rejected_leaves_out(tmp_path, capsys, "run", text, existed, message)

    @pytest.mark.parametrize("env", ["SINGFLOW_SEED", "SINGFLOW_ANALYSIS__SEED"])
    def test_negative_seed_from_environment_exit_2(self, tmp_path, capsys, monkeypatch, env):
        monkeypatch.setenv(env, "-1")
        _assert_rejected_leaves_out(
            tmp_path, capsys, "run", MINIMAL, False, "[analysis] seed = -1: must be non-negative"
        )

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_negative_seed_flag_exit_2(self, tmp_path, capsys, command):
        p = tmp_path / "ok.cfg"
        p.write_text(MINIMAL)
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: --seed: [analysis] seed = -1: must be non-negative\n"
        assert not out.exists()

    def test_seed_flag_sets_the_echoed_seed(self, tmp_path):
        p = tmp_path / "ok.cfg"
        p.write_text(MINIMAL)
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out), "--seed", "7"]) == 0
        echo = json.loads((out / "summary.json").read_text())["config"]
        assert echo == {**parse_config_text(MINIMAL).as_dict(), "seed": 7}

    def test_galerkin_takes_no_seed_flag(self, tmp_path, capsys):
        p = tmp_path / "ok.cfg"
        p.write_text(MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main(["galerkin", "--config", str(p), "--out", str(tmp_path / "o"), "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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


class TestThreadCountDeterminism:
    """Outputs keep their bytes whether BLAS runs on one thread or two."""

    def _outputs(self, tmp_path, command, threads):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = tmp_path / f"{command}_{threads}"
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(repo, "src"),
            OPENBLAS_NUM_THREADS=str(threads),
            OMP_NUM_THREADS=str(threads),
            SINGFLOW_FLOW__T_FINAL="0.01",
            SINGFLOW_FLOW__SNAPSHOT_INTERVAL="0.005",
            SINGFLOW_GALERKIN__T_FINAL="0.06",
        )
        config = os.path.join(repo, "configs", "acceptance.cfg")
        subprocess.run(
            [sys.executable, "-m", "singflow.cli", command, "--config", config, "--out", str(out)],
            cwd=repo,
            env=env,
            check=True,
        )
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("command", ["galerkin", "run"])
    def test_one_and_two_threads_write_identical_files(self, tmp_path, command):
        one = self._outputs(tmp_path, command, 1)
        two = self._outputs(tmp_path, command, 2)
        assert len(one) >= 3
        assert one.keys() == two.keys()
        for name in one:
            assert one[name] == two[name], name
