"""Forward time integration of the coupled phase-field/nutrient system.

One step advances (phi, sigma) with two symmetric positive-definite solves,
each written once here and shared with the linearized and adjoint steps.
The phase solve (``_phase_solve``) starts at its exact spectral inverse
applied to the right-hand side, also its preconditioner, so it usually ends
after one check of the true residual (on 2D grids the start's roundoff can
miss the tolerance, and one PCG iteration follows); the nutrient solve
(``_diffusion_solve``) is plain CG started at the old level.  Both read
their operators, the solver tolerance and the iteration budget from a
``StepPlan``.
The chemical potential is evaluated explicitly at the old level,
``mu_t = -lap(phi) + F'(phi)``, and the exchange term
``R = P(phi) * (sigma - mu_t)`` is frozen over the step.  The phase update
solves

    (I + tau*(lap^2 - S*lap)) phi_next
        = phi + tau*lap(F'(phi) - S*phi) + tau*R,

so the fourth-order diffusion is implicit and stabilized by S while the
nonlinearity stays explicit; eliminating the operator shows the step
realizes the potential ``mu_next = -lap(phi_next) + F'(phi) +
S*(phi_next - phi)``.  The nutrient update solves

    (I - tau*lap) sigma_next = sigma + tau*(u - R),

with the control sampled at the left endpoint of the step.  Keeping the
exchange term explicit makes the one-step map a smooth function of
(phi, sigma, u), which the sensitivity module differentiates exactly.

Adding the two updates and integrating cancels the exchange term and all
fluxes, so the combined mass obeys

    integrate(phi_next + sigma_next) = integrate(phi + sigma) + tau*integrate(u)

up to the linear-solver tolerance; the trajectory reports the per-step
defect.  The diagnostic energy ``E = grad_sq(phi)/2 + integrate(F(phi)) +
norm_h(sigma)^2/2`` decreases along unforced runs when S dominates the well
curvature over the range the trajectory visits; the default S covers
|phi| <= 1.5 and ``simulate`` warns when a run leaves that range.

Each sweep (``simulate`` here, ``solve_linearized`` and ``solve_adjoint`` in
the sensitivity module) builds one ``StepPlan``, which holds the operators
every step reads, so each operator is built once per sweep.

The stepping core works on arrays.  ``step`` takes a plan and arrays of its
grid's shape and returns new arrays, checking its two outputs once (finite
and within the overflow guard).  ``simulate`` validates only what its caller
hands in (the grids of the ``phi0``/``sigma0`` Fields and the schedule) and
fills one ``(n_steps + 1, *grid.shape)`` level array per field, row by row.
The level masses, mass defects and energies are computed from those rows on
first access, so a caller that never reads them (the optimizer) never pays
for them.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (Field, Grid, GridMismatchError, _grad_sq, _volume_sum, cg_solve,
                   implicit_operator, laplacian_values, level_inner_products,
                   spectral_inverse)
from .model import ModelParams, default_stabilization, f_deriv, p_deriv

__all__ = [
    "DivergenceError",
    "ControlSchedule",
    "StateTrajectory",
    "StabilityReport",
    "ProbeRow",
    "StepPlan",
    "step",
    "simulate",
    "energy",
    "lipschitz_probe",
    "l2q_inner",
    "l2q_norm",
    "phase_operator",
    "phase_preconditioner",
    "phase_symbol",
    "diffusion_operator",
]


_FLOAT_MAX = sys.float_info.max


class DivergenceError(RuntimeError):
    """A field left the overflow guard; carries the offending step index."""

    def __init__(self, message: str, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class ControlSchedule:
    """Piecewise-constant-in-time control: one ``(n_steps, *grid.shape)`` array
    of values.

    Row n acts on [t_n, t_{n+1}) and ``u[n]`` returns it as a Field.  The
    constructor copies the values (any array-like, e.g. a list of per-step
    arrays) and checks once that there is at least one step, that each row
    has the grid's shape and that every value is finite; the stored array is
    read-only (``constant`` stores its one row as a stride-0 view).  A
    schedule carries values only: the box constraint belongs to the problem
    (its bounds live on ``ModelParams``), so controls, directions and trial
    points are all plain schedules.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        arr = np.array(values, dtype=float)
        if arr.size == 0:
            raise ValueError("schedule needs at least one step")
        if arr.shape[1:] != grid.shape:
            raise GridMismatchError(
                f"schedule values have shape {arr.shape}, grid expects (n_steps, *{grid.shape})")
        if not np.isfinite(arr).all():
            raise ValueError("schedule contains non-finite values")
        arr.setflags(write=False)
        self.grid = grid
        self.values = arr

    @classmethod
    def constant(cls, grid: Grid, n_steps: int, value=0.0) -> "ControlSchedule":
        """The same row at every step: ``value`` is a number or a grid-shaped
        array.  The row is checked once and stored once; ``values`` is a
        read-only view of it with stride 0 along the step axis."""
        n_steps = int(n_steps)
        if n_steps < 1:
            raise ValueError("schedule needs at least one step")
        row = np.array(value, dtype=float)
        if row.ndim == 0:
            row = np.full(grid.shape, row)
        sched = cls(grid, row[np.newaxis])
        sched.values = np.broadcast_to(sched.values, (n_steps,) + grid.shape)
        return sched

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> Field:
        return Field._wrap(self.grid, self.values[n])

    def with_values(self, values) -> "ControlSchedule":
        return ControlSchedule(self.grid, values)

    def _other_values(self, other: "ControlSchedule") -> np.ndarray:
        if len(other) != len(self) or other.grid != self.grid:
            raise GridMismatchError("schedules differ in grid or length")
        return other.values

    def __add__(self, other: "ControlSchedule") -> "ControlSchedule":
        return self.with_values(self.values + self._other_values(other))

    def __sub__(self, other: "ControlSchedule") -> "ControlSchedule":
        return self.with_values(self.values - self._other_values(other))

    def scaled(self, a: float) -> "ControlSchedule":
        return self.with_values(float(a) * self.values)

    def level_inner_products(self, other: "ControlSchedule") -> list[float]:
        """``inner_product(self[n], other[n])`` for every step n, each summed
        exactly like ``inner_product``."""
        return level_inner_products(self.grid, self.values, self._other_values(other))


def l2q_inner(tau: float, a: ControlSchedule, b: ControlSchedule) -> float:
    """tau-weighted space-time inner product of two schedules."""
    return math.fsum(tau * ip for ip in a.level_inner_products(b))


def l2q_norm(tau: float, a: ControlSchedule) -> float:
    return math.sqrt(max(l2q_inner(tau, a, a), 0.0))


def _phase_increment(params: ModelParams, grid: Grid):
    """The stencil map v -> tau*(lap(lap v) - S*lap v)."""
    tau = params.tau
    s_const = params.stabilization

    def increment(v: np.ndarray) -> np.ndarray:
        # In place on fresh temporaries, in the order of tau*(lap(lap) - S*lap).
        lap = laplacian_values(grid, v)
        out = laplacian_values(grid, lap)
        lap *= s_const
        out -= lap
        out *= tau
        return out

    return increment


def _diffusion_increment(params: ModelParams, grid: Grid):
    """The stencil map v -> -tau*lap v."""
    tau = params.tau
    return lambda v: -tau * laplacian_values(grid, v)


def phase_operator(params: ModelParams, grid: Grid):
    """Array map v -> v + tau*(lap(lap v) - S*lap v); symmetric positive definite."""
    return implicit_operator(grid, _phase_increment(params, grid))


def phase_symbol(mu, tau: float, s_const: float):
    """The eigenvalue ``1 + tau*(mu^2 + S*mu)`` of the phase operator at the
    laplacian's eigenvalue magnitude ``mu`` (a number or an array)."""
    return 1.0 + tau * (mu * mu + s_const * mu)


def phase_preconditioner(params: ModelParams, grid: Grid):
    """The exact inverse of ``phase_operator``, from its ``phase_symbol`` in
    the laplacian's eigenvalue magnitudes mu."""
    tau = params.tau
    s_const = params.stabilization
    return spectral_inverse(grid, lambda mu: phase_symbol(mu, tau, s_const))


def diffusion_operator(params: ModelParams, grid: Grid):
    """Array map v -> v - tau*lap v; symmetric positive definite."""
    return implicit_operator(grid, _diffusion_increment(params, grid))


class StepPlan:
    """What every step of one sweep on one grid reads: the implicit operators
    ``phase`` and ``diffusion``, ``phase_inverse`` (``phase_preconditioner``),
    and ``tau``, ``s_const`` (S), the CG settings and the overflow ``guard``."""

    __slots__ = ("params", "grid", "tau", "s_const", "phase", "phase_inverse", "diffusion",
                 "cg_tol", "cg_max_iter", "guard")

    def __init__(self, params: ModelParams, grid: Grid):
        num = params.numerics
        self.params, self.grid = params, grid
        self.tau, self.s_const = params.tau, params.stabilization
        self.phase = phase_operator(params, grid)
        self.phase_inverse = phase_preconditioner(params, grid)
        self.diffusion = diffusion_operator(params, grid)
        self.cg_tol, self.cg_max_iter = num.cg_tol, num.cg_max_iter
        self.guard = num.overflow_guard


def _phase_solve(plan: StepPlan, rhs: np.ndarray) -> np.ndarray:
    """Solve ``plan.phase(x) = rhs`` from ``M(rhs)``, with ``M =
    plan.phase_inverse`` as the preconditioner; the phase solve of all steps."""
    precond = plan.phase_inverse
    return cg_solve(plan.phase, rhs, plan.grid, tol=plan.cg_tol, max_iter=plan.cg_max_iter,
                    x0=precond(rhs), precond=precond)


def _diffusion_solve(plan: StepPlan, rhs: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Solve ``plan.diffusion(x) = rhs`` by plain CG from ``x0`` (the old
    level); the nutrient solve of all steps."""
    return cg_solve(plan.diffusion, rhs, plan.grid, tol=plan.cg_tol,
                    max_iter=plan.cg_max_iter, x0=x0)


def _require_grid_shape(grid: Grid, *arrays: np.ndarray) -> None:
    shape = grid.shape
    for a in arrays:
        if a.shape != shape:
            raise GridMismatchError(f"step inputs must have the grid's shape {grid.shape}")


def _check_outputs(a: np.ndarray, b: np.ndarray, guard: float, step_index,
                   name: str = "step") -> None:
    """Raise DivergenceError unless both outputs of a step are finite and at
    most ``guard`` in magnitude (``guard=math.inf`` checks finiteness only);
    the message names the step."""
    # A NaN fails every comparison, and the clamp makes an inf fail too.
    limit = guard if guard < math.inf else _FLOAT_MAX
    worst_a = abs(a).max()
    worst_b = abs(b).max()
    if worst_a <= limit and worst_b <= limit:
        return
    worst = float(np.maximum(worst_a, worst_b))  # a NaN propagates
    where = f"unknown {name}" if step_index is None else f"{name} {step_index}"
    if math.isfinite(worst):
        message = (f"solution magnitude {worst:.3e} exceeded the overflow guard "
                   f"{guard:.3e} at {where}")
    else:
        message = f"non-finite solution at {where}"
    raise DivergenceError(message, step_index=step_index)


def step(plan: StepPlan, phi: np.ndarray, sigma: np.ndarray, u: np.ndarray,
         step_index=None) -> tuple[np.ndarray, np.ndarray]:
    """One stabilized implicit-explicit step on arrays of the plan's grid's
    shape; returns new arrays (phi_next, sigma_next).

    The inputs are checked for their shape only (``GridMismatchError``) and
    are not modified.  The two outputs are checked once: a non-finite value,
    or one above the overflow guard, raises DivergenceError naming the step.
    CG non-convergence propagates.
    """
    grid = plan.grid
    _require_grid_shape(grid, phi, sigma, u)
    params = plan.params
    tau = plan.tau

    fp = f_deriv(params.potential, 1, phi)
    mu_t = -laplacian_values(grid, phi) + fp
    react = p_deriv(params.proliferation, 0, phi) * (sigma - mu_t)

    rhs_a = phi + tau * laplacian_values(grid, fp - plan.s_const * phi) + tau * react
    phi_next = _phase_solve(plan, rhs_a)

    rhs_b = sigma + tau * (u - react)
    sigma_next = _diffusion_solve(plan, rhs_b, sigma)

    _check_outputs(phi_next, sigma_next, plan.guard, step_index)
    return phi_next, sigma_next


class StateTrajectory:
    """The (phi, sigma) levels of one run and the schedule ``u`` that drove it.

    ``phi`` and ``sigma`` are read-only ``(n_steps + 1, *grid.shape)`` arrays;
    row n is level n.  The diagnostics are computed on first access and then
    kept: ``masses[n]`` is the combined mass ``integrate(phi_n) +
    integrate(sigma_n)`` of level n, ``mass_residuals[n]`` the defect of the
    combined-mass identity over step n, ``energies[n]`` the diagnostic energy
    at level n.
    """

    __slots__ = ("params", "grid", "phi", "sigma", "u", "_masses", "_mass_residuals",
                 "_energies")

    def __init__(self, params: ModelParams, grid: Grid, phi: np.ndarray, sigma: np.ndarray,
                 u: ControlSchedule):
        phi.setflags(write=False)
        sigma.setflags(write=False)
        self.params = params
        self.grid = grid
        self.phi = phi
        self.sigma = sigma
        self.u = u
        self._masses = None
        self._mass_residuals = None
        self._energies = None

    @property
    def n_steps(self) -> int:
        return len(self.phi) - 1

    def time(self, n: int) -> float:
        return n * self.params.tau

    def max_abs_phi(self) -> float:
        return float(max(self.phi.max(), -self.phi.min()))  # no full-size temporary

    @property
    def energies(self) -> np.ndarray:
        if self._energies is None:
            self._energies = np.asarray(
                [_level_energy(self.params, self.grid, self.phi[n], self.sigma[n])
                 for n in range(self.n_steps + 1)], dtype=float)
        return self._energies

    @property
    def masses(self) -> np.ndarray:
        if self._masses is None:
            grid = self.grid
            self._masses = np.asarray(
                [_volume_sum(grid, self.phi[n]) + _volume_sum(grid, self.sigma[n])
                 for n in range(self.n_steps + 1)], dtype=float)
        return self._masses

    @property
    def mass_residuals(self) -> np.ndarray:
        if self._mass_residuals is None:
            tau = self.params.tau
            mass = self.masses.tolist()
            self._mass_residuals = np.asarray(
                [mass[n + 1] - mass[n] - tau * _volume_sum(self.grid, self.u.values[n])
                 for n in range(self.n_steps)], dtype=float)
        return self._mass_residuals


def _level_energy(params: ModelParams, grid: Grid, phi: np.ndarray,
                  sigma: np.ndarray) -> float:
    """``energy`` of one level given as arrays of the grid's shape."""
    well = np.asarray(f_deriv(params.potential, 0, phi))
    sigma_norm = math.sqrt(max(_volume_sum(grid, sigma * sigma), 0.0))
    return 0.5 * _grad_sq(grid, phi) + _volume_sum(grid, well) + 0.5 * sigma_norm ** 2


def energy(params: ModelParams, phi: Field, sigma: Field) -> float:
    """Diagnostic energy grad_sq(phi)/2 + integral of F(phi) + |sigma|^2/2."""
    if sigma.grid != phi.grid:
        raise GridMismatchError("phi and sigma must share one grid")
    return _level_energy(params, phi.grid, phi.values, sigma.values)


def simulate(params: ModelParams, u: ControlSchedule,
             phi0: Field | None = None, sigma0: Field | None = None) -> StateTrajectory:
    """March the schedule from (phi0, sigma0), recording every level.

    Initial fields default to the ones stored on ``params``.  Step errors
    propagate with their step index attached; a warning is emitted when the
    trajectory leaves the range covered by the stabilization constant.
    """
    phi0 = phi0 if phi0 is not None else params.phi0
    sigma0 = sigma0 if sigma0 is not None else params.sigma0
    if phi0 is None or sigma0 is None:
        raise ValueError("initial fields are required (arguments or params.phi0/sigma0)")
    grid = phi0.grid
    if sigma0.grid != grid or u.grid != grid:
        raise GridMismatchError("initial fields and schedule must share one grid")

    n_steps = len(u)
    phi = np.empty((n_steps + 1,) + grid.shape)  # filled row by row
    sigma = np.empty((n_steps + 1,) + grid.shape)
    phi[0] = phi0.values
    sigma[0] = sigma0.values
    plan = StepPlan(params, grid)
    for n in range(n_steps):
        phi[n + 1], sigma[n + 1] = step(plan, phi[n], sigma[n], u.values[n], step_index=n)

    traj = StateTrajectory(params, grid, phi, sigma, u)
    peak = traj.max_abs_phi()
    needed = default_stabilization(params.potential, peak)
    if params.stabilization < needed * (1.0 - 1e-12):
        warnings.warn(
            f"stabilization {params.stabilization:.3g} is below the curvature bound "
            f"{needed:.3g} for the visited range |phi| <= {peak:.3g}; energy decay "
            f"is not guaranteed", RuntimeWarning, stacklevel=2)
    return traj


@dataclass
class ProbeRow:
    """Difference norms and ratios for one perturbation size."""

    eps: float
    du_l2q: float
    phi_linf_h: float
    phi_l2v: float
    sigma_linf_h: float
    sigma_l2v: float

    def ratios(self) -> dict:
        d = self.du_l2q
        if d == 0.0:
            return {"phi_linf_h": 0.0, "phi_l2v": 0.0, "sigma_linf_h": 0.0, "sigma_l2v": 0.0}
        return {"phi_linf_h": self.phi_linf_h / d, "phi_l2v": self.phi_l2v / d,
                "sigma_linf_h": self.sigma_linf_h / d, "sigma_l2v": self.sigma_l2v / d}


@dataclass
class StabilityReport:
    """Rows of ``lipschitz_probe``, one per perturbation size."""

    rows: list

    def ratio_table(self) -> dict:
        out = {}
        for key in ("phi_linf_h", "phi_l2v", "sigma_linf_h", "sigma_l2v"):
            out[key] = [row.ratios()[key] for row in self.rows]
        return out


def _traj_diff_norms(tau: float, base: StateTrajectory, other: StateTrajectory):
    grid = base.grid
    dphi = base.phi - other.phi
    dsig = base.sigma - other.sigma
    dphi_sq = level_inner_products(grid, dphi, dphi)
    dsig_sq = level_inner_products(grid, dsig, dsig)
    linf_phi = l2v_phi = linf_sig = l2v_sig = 0.0
    for n in range(base.n_steps + 1):
        linf_phi = max(linf_phi, math.sqrt(max(dphi_sq[n], 0.0)))
        linf_sig = max(linf_sig, math.sqrt(max(dsig_sq[n], 0.0)))
        if n >= 1:
            l2v_phi += tau * (dphi_sq[n] + _grad_sq(grid, dphi[n]))
            l2v_sig += tau * (dsig_sq[n] + _grad_sq(grid, dsig[n]))
    return linf_phi, math.sqrt(l2v_phi), linf_sig, math.sqrt(l2v_sig)


def lipschitz_probe(params: ModelParams, u1: ControlSchedule, u2: ControlSchedule,
                    eps_values=(1e-1, 1e-2, 1e-3, 1e-4)) -> StabilityReport:
    """Measure state-difference-to-control-difference ratios.

    Simulates ``u1`` and the shrinking family ``u1 + eps*(u2 - u1)`` and
    reports, per eps, the trajectory difference in the max-in-time H norm
    and the time-integrated V norm, for both fields, against the L2-in-time
    control difference.  Ratios are reported as 0 when the perturbation is
    identically zero.
    """
    if len(u1) != len(u2) or u1.grid != u2.grid:
        raise GridMismatchError("schedules differ in grid or length")
    base = simulate(params, u1)
    h = u2 - u1
    tau = params.tau
    rows = []
    for eps in eps_values:
        u_eps = u1 + h.scaled(float(eps))
        other = simulate(params, u_eps)
        linf_phi, l2v_phi, linf_sig, l2v_sig = _traj_diff_norms(tau, base, other)
        rows.append(ProbeRow(eps=float(eps), du_l2q=l2q_norm(tau, u_eps - u1),
                             phi_linf_h=linf_phi, phi_l2v=l2v_phi,
                             sigma_linf_h=linf_sig, sigma_l2v=l2v_sig))
    return StabilityReport(rows=rows)
