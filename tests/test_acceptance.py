"""Acceptance suite: runs the shipped verification battery once and asserts
every criterion at its stated tolerance, one test (and one printed line) per
criterion. The battery integrates the standard nonlinear run to t = 5 at
n = 32, so this module is the long pole of the test suite (several minutes).
"""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(REPO, "configs", "acceptance.cfg")

CRITERIA = {
    "1_operator_consistency": ["operator_gateaux_order"],
    "2_galerkin_oracle_equivalence": [
        "galerkin_matrix_oracle",
        "galerkin_ode_vs_rk4",
        "galerkin_weak_residual",
    ],
    "3_energy_estimate_constant": ["energy_estimate_spread"],
    "4_maximum_principle": ["hyperbolic_distance_bound", "phi2_uniform_bound"],
    "5_bochner_monotonicity": [
        "bochner_violation",
        "bochner_violation_refined",
        "bochner_bound_shrink",
    ],
    "6_theta_decay": [
        "theta_l2_monotone",
        "theta_l2_integral_rate",
        "theta_l2_integral_r2",
        "weighted_dt_sup_rate",
        "weighted_dt_sup_r2",
    ],
    "7_convergence_to_singular_map": [
        "cstar2_convergence_rate",
        "cstar2_convergence_r2",
        "steady_residual_vs_theta",
    ],
    "8_vanishing_order_exponents": ["phi1_vanishing_slope", "grad_phi2_slope"],
    "9_epsilon_regularity": ["local_energy_slope_final", "local_energy_sigma_x"],
    "10_weight_construction": ["weight_residual_order", "weight_log_asymptotics"],
    "11_infrastructure": ["snapshot_roundtrip_bytes", "pipeline_determinism"],
}


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "singflow.cli",
            "verify",
            "--config",
            CONFIG,
            "--out",
            str(out),
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=1800,
    )
    verdict_path = out / "verdicts.json"
    assert verdict_path.exists(), f"verify produced no verdicts; stderr:\n{proc.stderr}"
    with open(verdict_path) as fh:
        payload = json.load(fh)
    names = [v["check_name"] for v in payload["verdicts"]]
    verdicts = {v["check_name"]: v for v in payload["verdicts"]}
    return {"exit_code": proc.returncode, "names": names, "verdicts": verdicts, "stdout": proc.stdout}


def _assert_criterion(battery, key):
    rows = [battery["verdicts"][name] for name in CRITERIA[key]]
    ok = all(r["pass"] for r in rows)
    details = "; ".join(
        f"{r['check_name']}: measured={r['measured']:.6g} reference={r['reference']:.6g}"
        for r in rows
    )
    print(f"ACCEPTANCE {key}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, details


@pytest.mark.parametrize("key", sorted(CRITERIA, key=lambda k: int(k.split('_')[0])))
def test_criterion(battery, key):
    _assert_criterion(battery, key)


def test_all_checks_present(battery):
    # every criterion's verdicts and no other, each exactly once
    expected = [name for names in CRITERIA.values() for name in names]
    assert len(expected) == len(set(expected)) == 26
    assert sorted(battery["names"]) == sorted(expected)


def test_verdict_order(battery):
    # verdicts.json lists the checks in the battery's phase order, and its bytes depend on it
    assert battery["names"] == [
        "operator_gateaux_order",
        "galerkin_matrix_oracle",
        "galerkin_ode_vs_rk4",
        "galerkin_weak_residual",
        "energy_estimate_spread",
        "hyperbolic_distance_bound",
        "phi2_uniform_bound",
        "phi1_vanishing_slope",
        "grad_phi2_slope",
        "bochner_violation",
        "bochner_violation_refined",
        "bochner_bound_shrink",
        "theta_l2_monotone",
        "theta_l2_integral_rate",
        "theta_l2_integral_r2",
        "weighted_dt_sup_rate",
        "weighted_dt_sup_r2",
        "cstar2_convergence_rate",
        "cstar2_convergence_r2",
        "steady_residual_vs_theta",
        "local_energy_slope_final",
        "local_energy_sigma_x",
        "weight_residual_order",
        "weight_log_asymptotics",
        "snapshot_roundtrip_bytes",
        "pipeline_determinism",
    ]


def test_cmd_verify_exit_code_zero(battery):
    print(f"ACCEPTANCE 11b_cmd_verify_exit: {'PASS' if battery['exit_code'] == 0 else 'FAIL'}")
    assert battery["exit_code"] == 0
    assert "overall: PASS" in battery["stdout"]
