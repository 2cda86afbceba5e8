"""Model ingredients: double-well free energy, proliferation laws, the run
parameter record, smooth field presets, and an executable report on the
structural assumptions the solver leans on.

The free energy density is the quartic double well (the only one, so no
configuration key selects it)

    F(s) = w * (s^2 - 1)^2 / 4,

split into a convex part F0(s) = w*(s^4/4 + s^2/2) and a bounded-curvature
part F1(s) = w*(-s^2 + 1/4); the split reproduces F exactly and F0'' grows
quartically (exponent 4, inside the admissible [2, 6) window).  Two
proliferation laws ship: the strictly positive quadratic p0*(1 + s^2)
(derivative growth exponent 2) and a bounded sigmoid (exponent 1).

``check_hypotheses`` samples a bounded range and reports the constants it
finds (positivity of P, derivative growth bound, curvature bound of F1,
two-sided quartic sandwich for F0'', linear coercivity of F, sign and
ordering conditions on weights and control bounds).  Constants are sampled,
not proved; the forward solver monitors that trajectories stay in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .grid import Field, Grid, GridMismatchError, _require, spectral_inverse

__all__ = [
    "QuarticDoubleWell",
    "QuadraticProliferation",
    "SigmoidProliferation",
    "Numerics",
    "ModelParams",
    "step_count",
    "HypothesisReport",
    "f_deriv",
    "f0_deriv",
    "f1_deriv",
    "p_deriv",
    "check_hypotheses",
    "preset_field",
    "default_stabilization",
]


@dataclass(frozen=True)
class QuarticDoubleWell:
    """Quartic double well w*(s^2-1)^2/4 with minima at s = +-1; w =
    ``well_scale`` must be positive."""

    well_scale: float = 1.0
    growth_exponent: ClassVar[int] = 4  # exponent of the convex part's curvature growth

    def __post_init__(self):
        _require(self.well_scale > 0, "well_scale", "well_scale must be positive")


def f_deriv(spec: QuarticDoubleWell, order: int, s):
    """Evaluate F, F', F'' or F''' of the double well (scalar or array)."""
    w = spec.well_scale
    s = np.asarray(s, dtype=float) if not np.isscalar(s) else s
    if order == 0:
        return w * (s * s - 1.0) ** 2 / 4.0
    if order == 1:
        return w * (s * s - 1.0) * s
    if order == 2:
        return w * (3.0 * s * s - 1.0)
    if order == 3:
        return w * 6.0 * s
    raise ValueError(f"derivative order must be in 0..3, got {order}")


def f0_deriv(spec: QuarticDoubleWell, order: int, s):
    """Convex split part F0 = w*(s^4/4 + s^2/2) and derivatives (order 0..2)."""
    w = spec.well_scale
    if order == 0:
        return w * (s ** 4 / 4.0 + s * s / 2.0)
    if order == 1:
        return w * (s ** 3 + s)
    if order == 2:
        return w * (3.0 * s * s + 1.0)
    raise ValueError(f"derivative order must be in 0..2, got {order}")


def f1_deriv(spec: QuarticDoubleWell, order: int, s):
    """Bounded-curvature split part F1 = w*(-s^2 + 1/4) and derivatives."""
    w = spec.well_scale
    if order == 0:
        return w * (0.25 - s * s)
    if order == 1:
        return w * (-2.0 * s)
    if order == 2:
        return w * (-2.0) * np.ones_like(np.asarray(s, dtype=float))
    raise ValueError(f"derivative order must be in 0..2, got {order}")


@dataclass(frozen=True)
class QuadraticProliferation:
    """P(s) = p0*(1 + s^2), p0 > 0: strictly positive, derivative grows linearly."""

    p0: float = 0.5
    growth_exponent: ClassVar[int] = 2

    def __post_init__(self):
        _require(self.p0 > 0, "p0", "p0 must be positive")

    def value(self, s):
        return self.p0 * (1.0 + np.square(s))

    def deriv(self, s):
        return 2.0 * self.p0 * np.asarray(s, dtype=float)


@dataclass(frozen=True)
class SigmoidProliferation:
    """P(s) = p0*(1 + tanh(k*s))/2 + floor: bounded, nonnegative rate; ``p0``
    and ``steepness`` k must be positive and ``floor`` nonnegative."""

    p0: float = 1.0
    steepness: float = 1.0
    floor: float = 0.0
    growth_exponent: ClassVar[int] = 1

    def __post_init__(self):
        for name in ("p0", "steepness"):
            _require(getattr(self, name) > 0, name, f"{name} must be positive")
        _require(self.floor >= 0, "floor", "floor must be nonnegative")

    def value(self, s):
        return self.p0 * (1.0 + np.tanh(self.steepness * np.asarray(s, dtype=float))) / 2.0 + self.floor

    def deriv(self, s):
        ks = self.steepness * np.asarray(s, dtype=float)
        return self.p0 * self.steepness / 2.0 / np.cosh(ks) ** 2


def p_deriv(spec, order: int, s):
    """Evaluate the proliferation law P (order 0) or P' (order 1)."""
    if order == 0:
        return spec.value(s)
    if order == 1:
        return spec.deriv(s)
    raise ValueError(f"derivative order must be 0 or 1, got {order}")


@dataclass(frozen=True)
class Numerics:
    """Linear-solver and robustness knobs shared by the time steppers;
    ``cg_tol`` at least the machine epsilon 2^-52 (the relative-residual
    test cannot be met below it), ``overflow_guard`` positive, ``cg_max_iter``
    at least 1."""

    cg_tol: float = 1e-12
    cg_max_iter: int = 20000
    overflow_guard: float = 1e6

    def __post_init__(self):
        _require(self.cg_tol >= 2.0 ** -52, "cg_tol",
                 f"cg_tol must be at least 2^-52 (machine epsilon), got {self.cg_tol!r}")
        _require(self.overflow_guard > 0, "overflow_guard", "overflow_guard must be positive")
        _require(self.cg_max_iter >= 1, "cg_max_iter", "cg_max_iter must be at least 1")


def step_count(t_final: float, tau: float) -> int:
    """``int(round(t_final / tau))``, at least 1, from positive ``t_final``
    and ``tau`` with a finite ratio; else ParameterError naming one of them."""
    _require(tau > 0, "tau", "tau must be positive")
    _require(t_final > 0, "t_final", "t_final must be positive")
    ratio = t_final / tau
    _require(math.isfinite(ratio), "tau", f"t_final/tau = {ratio!r} is not a finite step count")
    n_steps = int(round(ratio))
    _require(n_steps >= 1, "t_final", "t_final/tau must round to at least one step")
    return n_steps


def default_stabilization(potential: QuarticDoubleWell, phi_max: float = 1.5) -> float:
    """Stabilization constant covering the well curvature on |s| <= phi_max."""
    return potential.well_scale * max(2.0, 3.0 * phi_max * phi_max - 1.0)


def _bound_values(bound, grid: Grid | None = None):
    """A control bound, a number or a Field, as a float or the Field's values;
    a Field on another ``grid`` than the one given raises GridMismatchError."""
    if not isinstance(bound, Field):
        return float(bound)
    if grid is not None and bound.grid != grid:
        raise GridMismatchError("bound field on a different grid")
    return bound.values


@dataclass
class ModelParams:
    """Everything a run needs besides the control itself.

    ``stabilization=None`` resolves to the default curvature bound.  The
    tracking target ``phi_q`` may be a single field (constant in time) or an
    ``(n_steps, *grid.shape)`` level array whose row n - 1 is the target at
    level n.  Weights must be nonnegative and not all zero (named ``beta_u``)
    and S nonnegative; ``n_steps`` is ``step_count``'s.
    ``u_min``/``u_max`` (numbers or Fields, ordered cellwise, else ``u_min``
    is named) are the problem's box, the one home of the admissible set.
    """

    potential: QuarticDoubleWell = field(default_factory=QuarticDoubleWell)
    proliferation: object = field(default_factory=QuadraticProliferation)
    beta_q: float = 0.0
    beta_omega: float = 0.0
    beta_u: float = 1.0
    t_final: float = 0.1
    tau: float = 1e-3
    stabilization: float | None = None
    u_min: float | Field = -1.0
    u_max: float | Field = 1.0
    phi_q: Field | np.ndarray | None = None
    phi_omega: Field | None = None
    phi0: Field | None = None
    sigma0: Field | None = None
    numerics: Numerics = field(default_factory=Numerics)
    n_steps: int = field(init=False)

    def __post_init__(self):
        for name in ("beta_q", "beta_omega", "beta_u"):
            _require(getattr(self, name) >= 0, name, "cost weights must be nonnegative")
        _require(any((self.beta_q, self.beta_omega, self.beta_u)), "beta_u",
                 "cost weights must not all be zero")
        self.n_steps = step_count(self.t_final, self.tau)
        if self.stabilization is None:
            self.stabilization = default_stabilization(self.potential)
        _require(self.stabilization >= 0, "stabilization", "stabilization must be nonnegative")
        _require(not np.any(_bound_values(self.u_min) > _bound_values(self.u_max)), "u_min",
                 "u_min must not exceed u_max anywhere")


@dataclass
class HypothesisReport:
    """Pass/fail per structural check plus the constants found by sampling."""

    checks: dict
    constants: dict
    notes: list

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def lines(self) -> list[str]:
        out = []
        for name, ok in self.checks.items():
            out.append(f"check={name} pass={'true' if ok else 'false'}")
        for name, val in self.constants.items():
            out.append(f"constant={name} value={val!r}")
        for note in self.notes:
            out.append(f"note={note}")
        out.append(f"all_pass={'true' if self.passed else 'false'}")
        return out


def check_hypotheses(params: ModelParams) -> HypothesisReport:
    """Sample the nonlinearities and report the structural constants.

    The samples are 2001 equispaced points of [-5, 5] plus s = 0, which pins
    the minimum of the curvature sandwich ratio for the quartic split.
    """
    s = np.sort(np.append(np.linspace(-5.0, 5.0, 2001), 0.0))

    pot = params.potential
    prol = params.proliferation
    checks: dict = {}
    constants: dict = {}
    notes: list = []

    betas = (params.beta_q, params.beta_omega, params.beta_u)
    checks["weights_nonnegative_not_all_zero"] = bool(
        all(b >= 0 for b in betas) and any(b > 0 for b in betas))
    checks["control_bounds_ordered"] = bool(
        np.all(_bound_values(params.u_min) <= _bound_values(params.u_max)))

    p_vals = np.asarray(p_deriv(prol, 0, s), dtype=float)
    p_der = np.asarray(p_deriv(prol, 1, s), dtype=float)
    checks["proliferation_nonnegative"] = bool(np.min(p_vals) >= 0.0)
    q = prol.growth_exponent
    alpha1 = float(np.max(np.abs(p_der) / (1.0 + np.abs(s) ** (q - 1))))
    constants["alpha1"] = alpha1
    checks["proliferation_derivative_growth"] = bool(np.isfinite(alpha1))

    alpha2 = float(np.max(np.abs(f1_deriv(pot, 2, s))))
    constants["alpha2"] = alpha2
    checks["concave_part_bounded_curvature"] = bool(np.isfinite(alpha2))

    split_gap = float(np.max(np.abs(
        f0_deriv(pot, 0, s) + f1_deriv(pot, 0, s) - f_deriv(pot, 0, s))))
    f_scale = 1.0 + float(np.max(np.abs(f_deriv(pot, 0, s))))
    checks["split_reproduces_well"] = bool(split_gap <= 1e-12 * f_scale)

    weight = 1.0 + np.abs(s) ** (pot.growth_exponent - 2)
    ratios = np.asarray(f0_deriv(pot, 2, s), dtype=float) / weight
    constants["alpha3"] = float(np.min(ratios))
    constants["alpha4"] = float(np.max(ratios))
    checks["convex_part_sandwich"] = bool(
        constants["alpha3"] > 0.0 and np.isfinite(constants["alpha4"]))

    # Linear coercivity: slope well_scale always admits a finite offset for a
    # quartic well; report the smallest offset seen on the sampled range.
    alpha5 = pot.well_scale
    deficit = alpha5 * np.abs(s) - np.asarray(f_deriv(pot, 0, s), dtype=float)
    constants["alpha5"] = float(alpha5)
    constants["alpha6"] = float(max(0.0, np.max(deficit)))
    checks["well_linearly_coercive"] = bool(np.isfinite(constants["alpha6"]))

    notes.append("initial-data regularity and the bounded-control neighborhood "
                 "are not sampleable; the shipped presets honor them")
    return HypothesisReport(checks=checks, constants=constants, notes=notes)


_SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(seed: int, n: int) -> np.ndarray:
    """The first ``n`` words of the SplitMix64 stream of ``seed`` (Steele, Lea
    and Flood, OOPSLA 2014), as uint64: word ``i`` is the finalizer ``mix``
    of ``seed + (i + 1) * gamma``, all arithmetic wrapping modulo 2^64."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(_SPLITMIX64_GAMMA)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _splitmix64_uniform(seed: int, shape) -> np.ndarray:
    """Uniform samples on [-1, 1) of the grid ``shape``, in C order, from the
    top 53 bits of each SplitMix64 word."""
    words = _splitmix64(seed, math.prod(shape))
    return ((words >> np.uint64(11)) * 2.0 ** -52 - 1.0).reshape(shape)


def preset_field(name: str, grid: Grid, **args) -> Field:
    """Build a named initial/target field on the grid.

    constant:       value
    tanh_ball:      center (scalar or (cx, cy)), radius, width
                    tanh((radius - |x - center|) / (sqrt(2)*width))
    filtered_noise: seed, amplitude=1.0
                    seeded uniform noise on [-amplitude, amplitude) from a
                    SplitMix64 stream, smoothed by two exact implicit
                    diffusion solves (I - kappa*lap)^{-1}, kappa = (2h)^2 for
                    the coarser spacing h, each applied as one spectral
                    transform; deterministic per seed, and the smoothing
                    keeps the field's integral to roundoff
    """
    if name == "constant":
        return Field.full(grid, float(args["value"]))

    if name == "tanh_ball":
        radius = float(args["radius"])
        width = float(args["width"])
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        if width <= 0:
            raise ValueError("width must be positive")
        center = args["center"]
        mesh = grid.center_mesh()
        if grid.dim == 1:
            c = float(center[0]) if isinstance(center, (tuple, list, np.ndarray)) else float(center)
            dist = np.abs(mesh[0] - c)
        else:
            if not isinstance(center, (tuple, list, np.ndarray)) or len(center) != 2:
                raise ValueError("2D tanh_ball needs center=(cx, cy)")
            cx, cy = float(center[0]), float(center[1])
            dist = np.sqrt((mesh[0] - cx) ** 2 + (mesh[1] - cy) ** 2)
        values = np.tanh((radius - dist) / (math.sqrt(2.0) * width))
    elif name == "filtered_noise":
        seed = int(args["seed"])
        amplitude = float(args.get("amplitude", 1.0))
        h = max(grid.spacing[: grid.dim])
        # 1 + (2h)^2*mu, formed so that (2h)^2 cannot overflow where h*h does not.
        smoother = spectral_inverse(grid, lambda mu: 1.0 + 4.0 * ((h * h) * mu))
        with np.errstate(over="ignore", invalid="ignore"):  # Field rejects an overflow, unwarned
            values = smoother(smoother(amplitude * _splitmix64_uniform(seed, grid.shape)))
    else:
        raise ValueError(f"unknown preset '{name}'")
    return Field._wrap(grid, values)
