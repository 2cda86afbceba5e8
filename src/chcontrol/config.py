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

Each value is parsed once, into its typed form, by one table of value types
(int, float, floats, str) that keys and preset arguments share: a float is a
finite number wherever it appears.  ``echo_text`` renders the effective
configuration canonically; parsing the echo and echoing again is byte-identical.

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

import numpy as np

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


def _number(text: str, convert=float, expected: str = "a number"):
    try:
        value = convert(text)
    except ValueError as exc:
        raise ValueError(f"expected {expected}, got {text!r}") from exc
    if convert is float and not math.isfinite(value):  # float() accepts nan and inf
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


# Value type -> (parse the text, render the parsed value canonically).
_TYPES = {
    "int": (lambda text: _number(text, int, "an integer"), repr),
    "float": (_number, repr),
    "floats": (lambda text: tuple(map(_number, text.split(","))),
               lambda values: ",".join(map(repr, values))),
    "str": (str, str),
}

# Preset kind -> argument -> value type; a trailing "?" marks an optional argument.
_EXPR_KINDS = {
    "constant": {"value": "float"},
    "tanh_ball": {"center": "floats", "radius": "float", "width": "float"},
    "filtered_noise": {"seed": "int", "amplitude": "float?"},
    "file": {"path": "str"},
}


def _arg_type(kind: str, name: str) -> tuple:
    return _TYPES[_EXPR_KINDS[kind][name].rstrip("?")]


@dataclass(frozen=True)
class FieldExpr:
    """Parsed preset expression: a kind plus its arguments as sorted
    ``(name, value)`` pairs, each value parsed by its type; ``canonical``
    renders them and ``build`` hands them to ``preset_field`` as they are."""

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
            try:
                args[key] = _arg_type(kind, key)[0](value)
            except ValueError as exc:
                raise ValueError(f"argument {key!r}: {exc}") from exc
        for key, kind_spec in spec.items():
            if not kind_spec.endswith("?") and key not in args:
                raise ValueError(f"preset {kind!r} requires argument {key!r}")
        return cls(kind=kind, args=tuple(sorted(args.items())))

    def canonical(self) -> str:
        return " ".join([self.kind] + [f"{k}={_arg_type(self.kind, k)[1](v)}"
                                       for k, v in self.args])

    def arg(self, name: str, default=None):
        return dict(self.args).get(name, default)

    def with_seed(self, seed: int) -> "FieldExpr":
        if self.arg("seed") is None:
            return self
        args = tuple((k, int(seed) if k == "seed" else v) for k, v in self.args)
        return FieldExpr(kind=self.kind, args=args)

    def is_time_varying(self) -> bool:
        return self.kind == "file" and "{n}" in self.arg("path")

    def build(self, grid: Grid, level: int | None = None) -> Field:
        if self.kind != "file":
            return preset_field(self.kind, grid, **dict(self.args))
        path = self.arg("path")
        if "{n}" in path:
            if level is None:
                raise ValueError(f"{path!r} is per-level; a level index is required")
            path = path.replace("{n}", str(level))
        return read_snapshot(path, grid)


def _number_or_expr(text: str):
    try:
        float(text)
    except ValueError:  # not a number at all: a preset expression
        return FieldExpr.parse(text)
    return _number(text)


def _choice(kind: str) -> tuple:
    options = kind.split(":", 1)[1].split("|")

    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text
    return parse, str


# Schema type -> (parse, render): the value types and the kinds built on them;
# ``_choice`` builds a ``choice:a|b`` type, one of the listed words.
_KINDS = {
    **_TYPES,
    "expr": (FieldExpr.parse, FieldExpr.canonical),
    "float_or_expr": (_number_or_expr, lambda value: value.canonical()
                      if isinstance(value, FieldExpr) else repr(value)),
    "auto_or_float": (lambda text: None if text == "auto"
                      else _number(text, expected="'auto' or a number"),
                      lambda value: "auto" if value is None else repr(value)),
}

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
# Key -> (parse, render), in the schema's order.
_KIND_OF = {key: _choice(kind) if kind.startswith("choice:") else _KINDS[kind]
            for key, kind, _ in _SCHEMA}
_DEFAULTS = {key: _KIND_OF[key][0](default) for key, _, default in _SCHEMA}
# Constructor parameter name -> the key that sets it (builders read each
# argument from it, and a ParameterError names it).
_KEY_OF = {key.split(".", 1)[1]: key for key in _KIND_OF}
_KEY_OF.update(steepness="model.k", floor="model.p_floor", cg_max_iter="solver.cg_maxit")


def _args(cfg, *names) -> dict:
    return {name: cfg[_KEY_OF[name]] for name in names}


@dataclass
class RunConfig:
    """Typed effective configuration (defaults merged, invariants checked)."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def n_steps(self) -> int:
        return step_count(self["time.t_final"], self["time.tau"])


def _assign(values: dict, entry: str, line: int | None = None) -> str:
    """Parse one ``section.key = value`` entry into ``values`` and return its
    key; a malformed entry, an unknown key or a bad value raises a ConfigError
    carrying ``line`` and the key."""
    if "=" not in entry:
        raise ConfigError(f"expected 'section.key = value', got {entry!r}", line=line)
    key, raw = (part.strip() for part in entry.split("=", 1))
    if key not in _KIND_OF:
        raise ConfigError("unknown key", line=line, key=key)
    try:
        values[key] = _KIND_OF[key][0](raw)
    except ValueError as exc:
        raise ConfigError(str(exc), line=line, key=key) from exc
    return key


def parse_config(text: str) -> RunConfig:
    values, lines = dict(_DEFAULTS), {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        key = _assign(values, body, lineno)
        if key in lines:
            raise ConfigError(f"duplicate key (first set on line {lines[key]})",
                              line=lineno, key=key)
        lines[key] = lineno
    cfg = RunConfig(values=values)
    _validate(cfg, lines)
    return cfg


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply ``section.key=value`` tokens on top of a parsed configuration."""
    values = dict(cfg.values)
    for token in overrides:
        _assign(values, token)
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
    return "".join(f"{key} = {render(cfg[key])}\n" for key, (_, render) in _KIND_OF.items())


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
        phi_q = np.empty((cfg.n_steps,) + grid.shape)  # row n - 1 is level n's target
        for n in range(1, cfg.n_steps + 1):
            phi_q[n - 1] = _build_field(cfg, "target.phi_q", grid, level=n).values
        phi_q.flags.writeable = False
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
