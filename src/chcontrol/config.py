"""Line-oriented run configuration: ``section.key = value`` entries.

``#`` starts a comment, blank lines are ignored, unknown or duplicated keys
are hard errors (typo safety), and every key has a default so a minimal
file needs only the grid, the time window, and the cost weights.  Field
valued entries use preset expressions, e.g.

    init.phi0 = tanh_ball center=4.0 radius=1.5 width=0.35
    init.sigma0 = constant value=0.0
    target.phi_q = file path=targets/phi_q_{n}.csv

No key sets the well (quartic), the line search's constants or the
``filtered_noise`` smoother (it takes only ``seed`` and ``amplitude``).

``echo_text`` renders the effective configuration canonically; parsing the
echo and echoing again is byte-identical.

Validation builds the grid, the well, the sigmoid law, a ``ModelParams``
without fields, ``Numerics`` and ``OptimOptions``, so each rule lives in its
constructor; a ``ParameterError`` names the key ending in the parameter's
name (``model.k``, ``model.p_floor``, ``solver.cg_maxit`` for ``steepness``,
``floor``, ``cg_max_iter``).  Checked here is only what no constructor checks:
the value budget, the phase symbol, ``opt.max_iters``, ``io.snapshot_every``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import _VALUE_BUDGET, Field, Grid, ParameterError
from .model import (ModelParams, Numerics, QuadraticProliferation, QuarticDoubleWell,
                    SigmoidProliferation, preset_field, step_count)
from .forward import ControlSchedule, phase_symbol
from .optimize import OptimOptions
from .snapshots import read_snapshot

__all__ = ["ConfigError", "FieldExpr", "RunConfig", "parse_config", "echo_text",
           "apply_overrides", "build_grid", "build_params", "build_initial_control",
           "build_options"]


class ConfigError(ValueError):
    """Configuration problem; remembers the offending line and key."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        place = []
        if line is not None:
            place.append(f"line {line}")
        if key is not None:
            place.append(f"key {key}")
        prefix = f"config error ({', '.join(place)}): " if place else "config error: "
        super().__init__(prefix + message)
        self.line = line
        self.key = key


# Preset kind -> argument -> type; a trailing "?" marks an optional argument.
_EXPR_KINDS = {
    "constant": {"value": "float"},
    "tanh_ball": {"center": "floats", "radius": "float", "width": "float"},
    "filtered_noise": {"seed": "int", "amplitude": "float?"},
    "file": {"path": "str"},
}

# Argument type -> (parse the text, render the parsed value canonically).
_ARG_TYPES = {
    "float": (float, repr),
    "int": (int, repr),
    "floats": (lambda text: tuple(float(v) for v in text.split(",")),
               lambda values: ",".join(map(repr, values))),
    "str": (str, str),
}


@dataclass(frozen=True)
class FieldExpr:
    """Parsed preset expression: a kind plus normalized key=value arguments."""

    kind: str
    args: tuple

    @classmethod
    def parse(cls, text: str) -> "FieldExpr":
        parts = text.split()
        if not parts:
            raise ValueError("empty field expression")
        kind = parts[0]
        if kind not in _EXPR_KINDS:
            raise ValueError(f"unknown preset {kind!r} (expected one of {sorted(_EXPR_KINDS)})")
        spec = _EXPR_KINDS[kind]
        args = {}
        for token in parts[1:]:
            if "=" not in token:
                raise ValueError(f"malformed argument {token!r} (expected key=value)")
            key, value = token.split("=", 1)
            if key not in spec:
                raise ValueError(f"preset {kind!r} does not take argument {key!r}")
            if key in args:
                raise ValueError(f"duplicate argument {key!r}")
            parse, render = _ARG_TYPES[spec[key].rstrip("?")]
            args[key] = render(parse(value))
        for key, kind_spec in spec.items():
            if not kind_spec.endswith("?") and key not in args:
                raise ValueError(f"preset {kind!r} requires argument {key!r}")
        return cls(kind=kind, args=tuple(sorted(args.items())))

    def canonical(self) -> str:
        rendered = [self.kind] + [f"{k}={v}" for k, v in self.args]
        return " ".join(rendered)

    def arg(self, name: str, default=None):
        for key, value in self.args:
            if key == name:
                return value
        return default

    def with_seed(self, seed: int) -> "FieldExpr":
        if self.arg("seed") is None:
            return self
        args = tuple((k, repr(int(seed)) if k == "seed" else v) for k, v in self.args)
        return FieldExpr(kind=self.kind, args=args)

    def is_time_varying(self) -> bool:
        return self.kind == "file" and "{n}" in str(self.arg("path", ""))

    def build(self, grid: Grid, level: int | None = None) -> Field:
        if self.kind == "file":
            path = str(self.arg("path"))
            if "{n}" in path:
                if level is None:
                    raise ValueError(f"{path!r} is per-level; a level index is required")
                path = path.replace("{n}", str(level))
            return read_snapshot(path, grid)
        spec = _EXPR_KINDS[self.kind]
        args = {key: _ARG_TYPES[spec[key].rstrip("?")][0](value) for key, value in self.args}
        return preset_field(self.kind, grid, **args)


# (key, type, default); types: int, float, choice:<a|b>, expr, float_or_expr, auto_or_float, str
_SCHEMA = [
    ("grid.dim", "int", "1"),
    ("grid.nx", "int", "64"),
    ("grid.ny", "int", "1"),
    ("grid.lx", "float", "8.0"),
    ("grid.ly", "float", "1.0"),
    ("time.t_final", "float", "0.1"),
    ("time.tau", "float", "0.001"),
    ("model.well_scale", "float", "1.0"),
    ("model.proliferation", "choice:quadratic|sigmoid", "quadratic"),
    ("model.p0", "float", "0.5"),
    ("model.k", "float", "1.0"),
    ("model.p_floor", "float", "0.0"),
    ("model.stabilization", "auto_or_float", "auto"),
    ("model.beta_q", "float", "0.0"),
    ("model.beta_omega", "float", "0.0"),
    ("model.beta_u", "float", "1.0"),
    ("model.u_min", "float_or_expr", "-1.0"),
    ("model.u_max", "float_or_expr", "1.0"),
    ("init.phi0", "expr", "constant value=0.0"),
    ("init.sigma0", "expr", "constant value=0.0"),
    ("target.phi_q", "expr", "constant value=0.0"),
    ("target.phi_omega", "expr", "constant value=0.0"),
    ("solver.cg_tol", "float", "1e-12"),
    ("solver.cg_maxit", "int", "20000"),
    ("solver.overflow_guard", "float", "1e6"),
    ("opt.max_iters", "int", "100"),
    ("opt.tol", "float", "1e-6"),
    ("opt.alpha0", "float", "1.0"),
    ("opt.u0", "expr", "constant value=0.0"),
    ("io.outdir", "str", "out"),
    ("io.snapshot_every", "int", "50"),
]
_TYPES = {key: kind for key, kind, _ in _SCHEMA}
_ORDER = [key for key, _, _ in _SCHEMA]
# Constructor parameter name -> the key that sets it (builders read each
# argument from it, and a ParameterError names it).
_KEY_OF = {key.split(".", 1)[1]: key for key in _ORDER}
_KEY_OF.update(steepness="model.k", floor="model.p_floor", cg_max_iter="solver.cg_maxit")


def _args(cfg, *names) -> dict:
    return {name: cfg[_KEY_OF[name]] for name in names}


def _parse_value(kind: str, raw: str):
    if kind == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(f"expected an integer, got {raw!r}") from exc
    if kind in ("float", "float_or_expr", "auto_or_float"):
        if kind == "auto_or_float" and raw == "auto":
            return None
        try:
            value = float(raw)
        except ValueError as exc:
            if kind == "float_or_expr":
                return FieldExpr.parse(raw)
            expected = "a number" if kind == "float" else "'auto' or a number"
            raise ValueError(f"expected {expected}, got {raw!r}") from exc
        if not math.isfinite(value):  # float() accepts nan and inf; no run can use them
            raise ValueError(f"expected a finite number, got {raw!r}")
        return value
    if kind.startswith("choice:"):
        options = kind.split(":", 1)[1].split("|")
        if raw not in options:
            raise ValueError(f"expected one of {options}, got {raw!r}")
        return raw
    if kind == "expr":
        return FieldExpr.parse(raw)
    if kind == "str":
        return raw
    raise AssertionError(f"unhandled schema type {kind}")


def _format_value(kind: str, value) -> str:
    if kind == "int":
        return str(int(value))
    if kind == "float":
        return repr(float(value))
    if kind == "expr":
        return value.canonical()
    if kind == "float_or_expr":
        return repr(float(value)) if not isinstance(value, FieldExpr) else value.canonical()
    if kind == "auto_or_float":
        return "auto" if value is None else repr(float(value))
    return str(value)


@dataclass
class RunConfig:
    """Typed effective configuration (defaults merged, invariants checked)."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def n_steps(self) -> int:
        return step_count(self["time.t_final"], self["time.tau"])


def parse_config(text: str) -> RunConfig:
    values: dict = {}
    lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"expected 'section.key = value', got {raw.strip()!r}", line=lineno)
        key, raw_value = (part.strip() for part in body.split("=", 1))
        if key not in _TYPES:
            raise ConfigError("unknown key", line=lineno, key=key)
        if key in values:
            raise ConfigError(f"duplicate key (first set on line {lines[key]})",
                              line=lineno, key=key)
        try:
            values[key] = _parse_value(_TYPES[key], raw_value)
        except ValueError as exc:
            raise ConfigError(str(exc), line=lineno, key=key) from exc
        lines[key] = lineno
    for key, kind, default in _SCHEMA:
        if key not in values:
            values[key] = _parse_value(kind, default)
    cfg = RunConfig(values=values)
    _validate(cfg, lines)
    return cfg


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply ``section.key=value`` tokens on top of a parsed configuration."""
    values = dict(cfg.values)
    for token in overrides:
        if "=" not in token:
            raise ConfigError(f"override {token!r} is not of the form key=value")
        key, raw_value = (part.strip() for part in token.split("=", 1))
        if key not in _TYPES:
            raise ConfigError("unknown key", key=key)
        try:
            values[key] = _parse_value(_TYPES[key], raw_value)
        except ValueError as exc:
            raise ConfigError(str(exc), key=key) from exc
    out = RunConfig(values=values)
    _validate(out, {})
    return out


def _fail(lines: dict, key: str, message: str):
    raise ConfigError(message, line=lines.get(key), key=key)


def _validate(cfg: RunConfig, lines: dict) -> None:
    v = cfg.values
    for count in ("grid.nx", "grid.ny"):  # before Grid, whose l/n overflows for a huge n
        if v[count] ** 2 > _VALUE_BUDGET:
            _fail(lines, count, f"the {v[count]}^2 values of the axis's DCT matrix exceed "
                                f"the value budget of {_VALUE_BUDGET}")
    # A field bound is ordered cellwise when build_params builds it.
    bounds = [v[key] if not isinstance(v[key], FieldExpr) else default for key, default
              in (("model.u_min", -math.inf), ("model.u_max", math.inf))]
    try:
        grid = build_grid(cfg)
        # The sigmoid law checks model.k and model.p_floor, whatever the law.
        SigmoidProliferation(**_args(cfg, "p0", "steepness", "floor"))
        params = _model_params(cfg, u_min=bounds[0], u_max=bounds[1])
        build_options(cfg)
    except ParameterError as exc:
        _fail(lines, _KEY_OF[exc.name], str(exc))
    if (params.n_steps + 1) * grid.n_cells > _VALUE_BUDGET:
        _fail(lines, "time.tau", f"a level array of {v['time.t_final'] / v['time.tau']!r} "
                                 f"steps of {grid.n_cells} cells exceeds the value budget "
                                 f"of {_VALUE_BUDGET}")
    _check_phase_symbol(v, grid, params.stabilization, lines)
    for key in ("opt.max_iters", "io.snapshot_every"):
        if v[key] < 1:
            _fail(lines, key, f"{key.split('.')[1]} must be at least 1")


def _check_phase_symbol(v: dict, grid: Grid, s_const: float, lines: dict) -> None:
    """``forward.phase_symbol`` must be finite at ``mu``, the active axes' sum of
    ``4/h^2``, finite on each axis; else name the spacing, S (or well_scale) or tau."""
    scales = {key: 4.0 / (h * h) for key, h in zip(("grid.lx", "grid.ly"), grid.spacing)}
    mu = sum(list(scales.values())[:grid.dim])
    s_key = "model.stabilization" if v["model.stabilization"] is not None else "model.well_scale"
    for key, term in ((max(scales, key=scales.get), max(mu * mu, *scales.values())),
                      (s_key, s_const * mu),
                      ("time.tau", phase_symbol(mu, v["time.tau"], s_const))):
        if not math.isfinite(term):
            _fail(lines, key, f"the phase symbol 1 + tau*(mu^2 + S*mu) is not finite for "
                              f"4/h^2 = {tuple(scales.values())!r}, S = {s_const!r}, "
                              f"tau = {v['time.tau']!r}")


def echo_text(cfg: RunConfig) -> str:
    """Canonical rendering of the effective configuration."""
    out = []
    for key in _ORDER:
        out.append(f"{key} = {_format_value(_TYPES[key], cfg.values[key])}")
    return "\n".join(out) + "\n"


def build_grid(cfg: RunConfig) -> Grid:
    return Grid(cfg["grid.dim"], (cfg["grid.nx"], cfg["grid.ny"]),
                (cfg["grid.lx"], cfg["grid.ly"]))


def _build_field(cfg: RunConfig, key: str, grid: Grid, level: int | None = None):
    """The field of ``key`` on ``grid`` (a number stays a float); a bad preset
    argument or an unreadable file becomes a ConfigError naming the key."""
    value = cfg[key]
    if not isinstance(value, FieldExpr):
        return float(value)
    try:
        return value.build(grid, level)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc), key=key) from exc


def _model_params(cfg: RunConfig, **fields) -> ModelParams:
    return ModelParams(
        potential=QuarticDoubleWell(**_args(cfg, "well_scale")),
        numerics=Numerics(**_args(cfg, "cg_tol", "cg_max_iter", "overflow_guard")),
        **_args(cfg, "beta_q", "beta_omega", "beta_u", "t_final", "tau", "stabilization"),
        **fields)


def build_params(cfg: RunConfig, grid: Grid) -> ModelParams:
    """Materialize fields and assemble the parameter record for a grid; a
    rule broken only cellwise (the box) raises a ConfigError naming its key."""
    if cfg["model.proliferation"] == "quadratic":
        proliferation = QuadraticProliferation(**_args(cfg, "p0"))
    else:
        proliferation = SigmoidProliferation(**_args(cfg, "p0", "steepness", "floor"))
    if cfg["target.phi_q"].is_time_varying():
        phi_q = [_build_field(cfg, "target.phi_q", grid, level=max(n, 1))
                 for n in range(cfg.n_steps + 1)]
    else:
        phi_q = _build_field(cfg, "target.phi_q", grid)
    fields = {name: _build_field(cfg, _KEY_OF[name], grid)
              for name in ("u_min", "u_max", "phi_omega", "phi0", "sigma0")}
    try:
        return _model_params(cfg, proliferation=proliferation, phi_q=phi_q, **fields)
    except ParameterError as exc:
        _fail({}, _KEY_OF[exc.name], str(exc))


def build_options(cfg: RunConfig) -> OptimOptions:
    """The optimizer's options, one per ``opt.*`` key but ``opt.u0``."""
    return OptimOptions(**_args(cfg, "max_iters", "tol", "alpha0"))


def build_initial_control(cfg: RunConfig, grid: Grid, params: ModelParams) -> ControlSchedule:
    return ControlSchedule.constant(grid, params.n_steps,
                                    _build_field(cfg, "opt.u0", grid).values)
