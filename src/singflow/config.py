"""Run configuration: sectioned key = value files, validated with full error lists.

The format is a flat INI-like text file with sections [grid], [curve],
[weight], [flow], [analysis], [galerkin]. Every key has a default, unknown
keys and sections are rejected, and parsing reports all problems at once
(line numbers included for duplicates) rather than stopping at the first.
Environment variables SINGFLOW_<SECTION>__<KEY> override file values.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields

from singflow.flow import INITIAL_FAMILIES
from singflow.geometry import CURVE_KINDS, CurveGamma, TorusGrid, distance_to_curve
from singflow.spectral import FORCING_PRESETS
from singflow.weight import build_weight


class ConfigError(Exception):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class RunConfig:
    # [grid]
    n: int = 32
    length: float = 1.0
    # [curve]
    curve_kind: str = "axis_line"
    curve_a: float = 0.5
    curve_b: float = 0.5
    circle_center: tuple[float, float, float] = (0.5, 0.5, 0.5)
    circle_radius: float = 0.25
    circle_normal_axis: int = 2
    circle_samples: int = 256
    # [weight]
    alpha: float = 1.5
    solver_tol: float = 1e-10
    exclusion_radius: float = 0.15
    # [flow]
    family: str = "zero"
    family_c: float = 1.0
    family_a: float = 0.0
    family_b: float = 0.0
    dt_policy: str = "fixed"
    dt: float = 1e-4
    cfl_factor: float = 0.25
    t_final: float = 1.0
    snapshot_interval: float = 0.25
    # [analysis]
    seed: int = 20240808
    holder_pairs: int = 100000
    fit_window_start: float = 1.0
    fit_window_end: float = 5.0
    rate_slack: float = 0.8
    r2_min: float = 0.9
    shell_lo: float = 0.125
    shell_hi: float = 0.25
    # [galerkin]
    galerkin_N: int = 8
    galerkin_dt: float = 1e-3
    galerkin_t_final: float = 0.3
    galerkin_forcing: str = "trig_damped"

    @property
    def family_params(self) -> dict:
        """[flow] amplitudes (c, a, b) keyed as the initial-data families read them."""
        return {"c": self.family_c, "a": self.family_a, "b": self.family_b}

    def as_dict(self) -> dict:
        d = asdict(self)
        d["circle_center"] = list(d["circle_center"])
        return d

    @classmethod
    def from_dict(cls, d: dict, source: str) -> "RunConfig":
        """The config that `as_dict` wrote, held to the parser's rules; raises ConfigError."""
        names = {f.name for f in fields(cls)}
        errors = [f"unknown key {k!r}" for k in sorted(d.keys() - names)]
        errors += [f"missing key {k!r}" for k in sorted(names - d.keys())]
        if not errors:
            kinds = dict(_SCHEMA.values())
            values = {}
            for key, value in d.items():
                try:
                    values[key] = _check_kind(value, kinds[key])
                except ValueError as exc:
                    errors.append(f"{key} = {value!r}: {exc}")
        if not errors:
            cfg = cls(**values)
            _validate(cfg, errors)
        if errors:
            raise ConfigError([f"{source}: {e}" for e in errors])
        return cfg


# (section, key) -> (attribute, converter)
_SCHEMA: dict[tuple[str, str], tuple[str, str]] = {
    ("grid", "n"): ("n", "int"),
    ("grid", "length"): ("length", "float"),
    ("curve", "kind"): ("curve_kind", "str"),
    ("curve", "a"): ("curve_a", "float"),
    ("curve", "b"): ("curve_b", "float"),
    ("curve", "center"): ("circle_center", "vec3"),
    ("curve", "radius"): ("circle_radius", "float"),
    ("curve", "normal_axis"): ("circle_normal_axis", "int"),
    ("curve", "samples"): ("circle_samples", "int"),
    ("weight", "alpha"): ("alpha", "float"),
    ("weight", "solver_tol"): ("solver_tol", "float"),
    ("weight", "exclusion_radius"): ("exclusion_radius", "float"),
    ("flow", "family"): ("family", "str"),
    ("flow", "c"): ("family_c", "float"),
    ("flow", "a"): ("family_a", "float"),
    ("flow", "b"): ("family_b", "float"),
    ("flow", "dt_policy"): ("dt_policy", "str"),
    ("flow", "dt"): ("dt", "float"),
    ("flow", "cfl_factor"): ("cfl_factor", "float"),
    ("flow", "t_final"): ("t_final", "float"),
    ("flow", "snapshot_interval"): ("snapshot_interval", "float"),
    ("analysis", "seed"): ("seed", "int"),
    ("analysis", "holder_pairs"): ("holder_pairs", "int"),
    ("analysis", "fit_window_start"): ("fit_window_start", "float"),
    ("analysis", "fit_window_end"): ("fit_window_end", "float"),
    ("analysis", "rate_slack"): ("rate_slack", "float"),
    ("analysis", "r2_min"): ("r2_min", "float"),
    ("analysis", "shell_lo"): ("shell_lo", "float"),
    ("analysis", "shell_hi"): ("shell_hi", "float"),
    ("galerkin", "N"): ("galerkin_N", "int"),
    ("galerkin", "dt"): ("galerkin_dt", "float"),
    ("galerkin", "t_final"): ("galerkin_t_final", "float"),
    ("galerkin", "forcing"): ("galerkin_forcing", "str"),
}

_SECTIONS = ("grid", "curve", "weight", "flow", "analysis", "galerkin")

MAX_STEPS = 10**7  # most steps a run may take: 400 times the battery's longest run


def _finite(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not a finite number")
    return value


def _convert(raw: str, kind: str):
    if kind == "int":
        return int(raw)
    if kind == "float":
        return _finite(raw)
    if kind == "vec3":
        parts = [_finite(p) for p in raw.split(",")]
        if len(parts) != 3:
            raise ValueError("expected three comma-separated components")
        return tuple(parts)
    return raw


def _check_kind(value, kind: str):
    """A value read back from JSON, as `_convert` of its kind would have given it."""
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError("expected an integer")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError("expected a number")
        return _finite(value)
    if kind == "vec3":
        if not isinstance(value, list) or len(value) != 3:
            raise ValueError("expected a list of three numbers")
        return tuple(_check_kind(v, "float") for v in value)
    if not isinstance(value, str):
        raise ValueError("expected a string")
    return value


def whole_steps(t_final: float, dt: float) -> int | None:
    """round(t_final / dt) when t_final is a whole multiple of dt (relative
    tolerance 1e-9), else None. The steppers take round(t_final / dt) steps
    and snapshot every round(snapshot_interval / dt) steps, so a remainder
    would end them, or space their snapshots, off the requested times."""
    ratio = t_final / dt
    if not math.isfinite(ratio):  # overflowed: no whole number of steps
        return None
    steps = round(ratio)
    return steps if steps >= 1 and abs(ratio - steps) <= 1e-9 * steps else None


def _off_grid(section: str, key: str, value: float, dt: float) -> str:
    return (
        f"[{section}] {key} = {value}: must be a whole multiple "
        f"of dt = {dt} ({key}/dt = {value / dt:.6g})"
    )


def _validate(cfg: RunConfig, errors: list[str]):
    if cfg.alpha <= 1.0:
        errors.append(f"[weight] alpha = {cfg.alpha}: alpha must exceed 1 (weight regime alpha > 1)")
    if cfg.n <= 0:
        errors.append(f"[grid] n = {cfg.n}: must be a positive integer")
    if cfg.length <= 0:
        errors.append(f"[grid] length = {cfg.length}: must be positive")
    if cfg.curve_kind not in CURVE_KINDS:
        errors.append(f"[curve] kind = {cfg.curve_kind!r}: must be {' or '.join(CURVE_KINDS)}")
    if cfg.curve_kind == "circle" and not (0 < cfg.circle_radius < cfg.length / 2):
        errors.append(
            f"[curve] radius = {cfg.circle_radius}: must lie in (0, length/2) under periodicity"
        )
    if cfg.family not in INITIAL_FAMILIES:
        errors.append(f"[flow] family = {cfg.family!r}: unknown initial-data family")
    if cfg.dt_policy not in ("fixed", "cfl"):
        errors.append(f"[flow] dt_policy = {cfg.dt_policy!r}: must be fixed or cfl")
    for name in ("dt", "t_final", "snapshot_interval", "cfl_factor"):
        if getattr(cfg, name) <= 0:
            errors.append(f"[flow] {name} = {getattr(cfg, name)}: must be positive")
    if cfg.dt_policy == "fixed" and cfg.dt > 0:
        for name in ("t_final", "snapshot_interval"):
            value = getattr(cfg, name)
            if value > 0 and whole_steps(value, cfg.dt) is None:
                errors.append(_off_grid("flow", name, value, cfg.dt))
    if cfg.solver_tol <= 0:
        errors.append(f"[weight] solver_tol = {cfg.solver_tol}: must be positive")
    if cfg.galerkin_forcing not in FORCING_PRESETS:
        errors.append(
            f"[galerkin] forcing = {cfg.galerkin_forcing!r}: must be {' or '.join(FORCING_PRESETS)}"
        )
    if cfg.galerkin_N < 1:
        errors.append(f"[galerkin] N = {cfg.galerkin_N}: must be at least 1")
    if cfg.galerkin_dt <= 0 or cfg.galerkin_t_final <= 0:
        errors.append("[galerkin] dt and t_final must be positive")
    elif whole_steps(cfg.galerkin_t_final, cfg.galerkin_dt) is None:
        errors.append(_off_grid("galerkin", "t_final", cfg.galerkin_t_final, cfg.galerkin_dt))
    for section, t_final, dt in (
        ("flow", cfg.t_final, cfg.dt),
        ("galerkin", cfg.galerkin_t_final, cfg.galerkin_dt),
    ):
        steps = t_final / dt if dt > 0 else 0.0
        if steps > MAX_STEPS + 0.5:  # round(steps) > MAX_STEPS, and no OverflowError at inf
            errors.append(
                f"[{section}] t_final = {t_final}: {steps:.6g} steps of dt = {dt} "
                f"exceed MAX_STEPS = {MAX_STEPS}"
            )
    if cfg.holder_pairs < 1:
        errors.append(f"[analysis] holder_pairs = {cfg.holder_pairs}: must be positive")
    if cfg.seed < 0:  # np.random.default_rng takes no negative seed
        errors.append(f"[analysis] seed = {cfg.seed}: must be non-negative")
    if not (0 < cfg.rate_slack <= 1):
        errors.append(f"[analysis] rate_slack = {cfg.rate_slack}: must lie in (0, 1]")


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    errors: list[str] = []
    seen: dict[tuple[str, str], int] = {}
    values: dict[str, object] = {}

    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                errors.append(f"{source}:{lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            errors.append(f"{source}:{lineno}: expected 'key = value', got {line!r}")
            continue
        if section is None:
            errors.append(f"{source}:{lineno}: key outside of any known section")
            continue
        key, raw_val = (part.strip() for part in line.split("=", 1))
        entry = _SCHEMA.get((section, key))
        if entry is None:
            errors.append(f"{source}:{lineno}: unknown key {key!r} in section [{section}]")
            continue
        if (section, key) in seen:
            errors.append(
                f"{source}:{lineno}: duplicate key {key!r} in [{section}] "
                f"(first defined on line {seen[(section, key)]})"
            )
            continue
        seen[(section, key)] = lineno
        attr, kind = entry
        try:
            values[attr] = _convert(raw_val, kind)
        except ValueError as exc:
            errors.append(f"{source}:{lineno}: cannot parse {key} = {raw_val!r} ({exc})")

    cfg = RunConfig(**values)
    _apply_env_overrides(cfg, errors)
    _validate(cfg, errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def _apply_env_overrides(cfg: RunConfig, errors: list[str]):
    for (section, key), (attr, kind) in _SCHEMA.items():
        env_name = f"SINGFLOW_{section.upper()}__{key.upper()}"
        if env_name in os.environ:
            raw = os.environ[env_name]
            try:
                setattr(cfg, attr, _convert(raw, kind))
            except ValueError as exc:
                errors.append(
                    f"environment {env_name}: cannot parse [{section}] {key} = {raw!r} ({exc})"
                )
    if "SINGFLOW_SEED" in os.environ:
        try:
            cfg.seed = int(os.environ["SINGFLOW_SEED"])
        except ValueError:
            errors.append("environment SINGFLOW_SEED: expected an integer")


def parse_config(path: str) -> RunConfig:
    """Parse and validate a config file; raises ConfigError listing all problems."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    return parse_config_text(text, source=path)


def build_problem(cfg: RunConfig, near_radius: float | None = None):
    """The weight field of a config, with its grid and distance field.

    near_radius, when given, replaces the distance field's default near-curve
    radius. A grid with no node outside the curve's exclusion ring (radius
    2 * spacing) is rejected, since the sup-type norms read only those nodes.
    So is a circle that `geometry` rejects for its normal axis, its sample
    count, or its sample spacing against the grid's.
    """
    grid = TorusGrid(cfg.n, cfg.length)
    if cfg.curve_kind == "axis_line":
        gamma = CurveGamma.axis_line(cfg.curve_a, cfg.curve_b)
    else:
        try:
            gamma = CurveGamma.circle(
                cfg.circle_center, cfg.circle_radius, cfg.circle_normal_axis, cfg.circle_samples
            )
            gamma.validate_resolution(grid)
        except ValueError as exc:
            raise ConfigError([
                f"[curve] kind = circle (radius = {cfg.circle_radius}, normal_axis = "
                f"{cfg.circle_normal_axis}, samples = {cfg.circle_samples}): {exc}"
            ]) from None
    rho = distance_to_curve(grid, gamma, near_radius=near_radius)
    if not rho.outside_ring.any():
        raise ConfigError(
            [
                f"[grid] n = {cfg.n}: every node lies within the exclusion ring "
                f"(radius 2 * spacing = {2.0 * grid.spacing:.6g}) of the curve; use a finer grid"
            ]
        )
    return build_weight(rho, alpha=cfg.alpha, tol=cfg.solver_tol)
