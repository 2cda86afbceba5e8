"""Forward time integration of the coupled phase-field/nutrient system.

One step advances (phi, sigma) with two symmetric positive-definite solves.
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

up to the linear-solver tolerance; ``simulate`` records the per-step defect.
The diagnostic energy ``E = grad_sq(phi)/2 + integrate(F(phi)) +
norm_h(sigma)^2/2`` decreases along unforced runs when S dominates the well
curvature over the range the trajectory visits; the default S covers
|phi| <= 1.5 and ``simulate`` warns when a run leaves that range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (Field, Grid, GridMismatchError, cg_solve, grad_sq_integral,
                   inner_product, integrate, laplacian_values, norm_h)
from .model import ModelParams, default_stabilization, f_deriv, p_deriv

__all__ = [
    "DivergenceError",
    "ControlSchedule",
    "StateTrajectory",
    "StabilityReport",
    "ProbeRow",
    "chemical_potential",
    "step",
    "simulate",
    "energy",
    "lipschitz_probe",
    "phase_operator",
    "diffusion_operator",
]


class DivergenceError(RuntimeError):
    """A field left the overflow guard; carries the offending step index."""

    def __init__(self, message: str, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class ControlSchedule:
    """Piecewise-constant-in-time control: one field per step, plus bounds.

    The field at index n acts on [t_n, t_{n+1}).  Bounds are optional; a
    schedule is admissible when they are present and hold cellwise.
    Arithmetic keeps the left operand's bounds, so directions and trial
    points can be formed without losing the constraint data.
    """

    __slots__ = ("grid", "fields", "u_min", "u_max")

    def __init__(self, grid: Grid, fields: Sequence[Field],
                 u_min: float | Field | None = None,
                 u_max: float | Field | None = None):
        fields = list(fields)
        if not fields:
            raise ValueError("schedule needs at least one field")
        for f in fields:
            if f.grid != grid:
                raise GridMismatchError("schedule field on a different grid")
        for b in (u_min, u_max):
            if isinstance(b, Field) and b.grid != grid:
                raise GridMismatchError("bound field on a different grid")
        self.grid = grid
        self.fields = fields
        self.u_min = u_min
        self.u_max = u_max

    @classmethod
    def constant(cls, grid: Grid, n_steps: int, value: float = 0.0,
                 u_min=None, u_max=None) -> "ControlSchedule":
        f = Field.full(grid, value)
        return cls(grid, [f] * int(n_steps), u_min=u_min, u_max=u_max)

    @classmethod
    def from_field(cls, field: Field, n_steps: int, u_min=None, u_max=None) -> "ControlSchedule":
        return cls(field.grid, [field] * int(n_steps), u_min=u_min, u_max=u_max)

    def __len__(self) -> int:
        return len(self.fields)

    def __getitem__(self, n: int) -> Field:
        return self.fields[n]

    def with_fields(self, fields: Sequence[Field]) -> "ControlSchedule":
        return ControlSchedule(self.grid, fields, u_min=self.u_min, u_max=self.u_max)

    def has_bounds(self) -> bool:
        return self.u_min is not None and self.u_max is not None

    def bound_arrays(self):
        lo = self.u_min.values if isinstance(self.u_min, Field) else self.u_min
        hi = self.u_max.values if isinstance(self.u_max, Field) else self.u_max
        return lo, hi

    def is_admissible(self, atol: float = 0.0) -> bool:
        if not self.has_bounds():
            return False
        lo, hi = self.bound_arrays()
        for f in self.fields:
            if np.any(f.values < lo - atol) or np.any(f.values > hi + atol):
                return False
        return True

    def _combine(self, other: "ControlSchedule", sign: float) -> "ControlSchedule":
        if len(other) != len(self) or other.grid != self.grid:
            raise GridMismatchError("schedules differ in grid or length")
        fields = [Field._wrap(self.grid, a.values + sign * b.values)
                  for a, b in zip(self.fields, other.fields)]
        return self.with_fields(fields)

    def __add__(self, other: "ControlSchedule") -> "ControlSchedule":
        return self._combine(other, 1.0)

    def __sub__(self, other: "ControlSchedule") -> "ControlSchedule":
        return self._combine(other, -1.0)

    def scaled(self, a: float) -> "ControlSchedule":
        return self.with_fields([Field._wrap(self.grid, float(a) * f.values)
                                 for f in self.fields])


def phase_operator(params: ModelParams, grid: Grid):
    """Array map v -> v + tau*(lap(lap v) - S*lap v); symmetric positive definite."""
    tau = params.tau
    s_const = params.stabilization

    def apply(v: np.ndarray) -> np.ndarray:
        lap = laplacian_values(grid, v)
        return v + tau * (laplacian_values(grid, lap) - s_const * lap)

    return apply


def diffusion_operator(params: ModelParams, grid: Grid):
    """Array map v -> v - tau*lap v; symmetric positive definite."""
    tau = params.tau

    def apply(v: np.ndarray) -> np.ndarray:
        return v - tau * laplacian_values(grid, v)

    return apply


def chemical_potential(params: ModelParams, phi: Field) -> Field:
    """mu = -lap(phi) + F'(phi), the variational derivative of the well energy."""
    return Field._wrap(phi.grid, -laplacian_values(phi.grid, phi.values)
                       + f_deriv(params.potential, 1, phi.values))


def step(params: ModelParams, phi: Field, sigma: Field, u: Field,
         step_index=None) -> tuple[Field, Field]:
    """One stabilized implicit-explicit step; returns (phi_next, sigma_next).

    Raises DivergenceError when either output exceeds the overflow guard,
    naming the step, and propagates CG non-convergence.
    """
    grid = phi.grid
    if sigma.grid != grid or u.grid != grid:
        raise GridMismatchError("state and control must share one grid")
    tau = params.tau
    s_const = params.stabilization
    num = params.numerics

    pv, sv, uv = phi.values, sigma.values, u.values
    fp = f_deriv(params.potential, 1, pv)
    mu_t = -laplacian_values(grid, pv) + fp
    react = p_deriv(params.proliferation, 0, pv) * (sv - mu_t)

    rhs_a = pv + tau * laplacian_values(grid, fp - s_const * pv) + tau * react
    phi_next = cg_solve(phase_operator(params, grid), Field._wrap(grid, rhs_a),
                        tol=num.cg_tol, max_iter=num.cg_max_iter, x0=phi)

    rhs_b = sv + tau * (uv - react)
    sigma_next = cg_solve(diffusion_operator(params, grid), Field._wrap(grid, rhs_b),
                          tol=num.cg_tol, max_iter=num.cg_max_iter, x0=sigma)

    worst = max(phi_next.max_abs(), sigma_next.max_abs())
    if worst > num.overflow_guard:
        where = "unknown step" if step_index is None else f"step {step_index}"
        raise DivergenceError(
            f"solution magnitude {worst:.3e} exceeded the overflow guard "
            f"{num.overflow_guard:.3e} at {where}", step_index=step_index)
    return phi_next, sigma_next


class StateTrajectory:
    """Time-indexed (phi, sigma) levels with per-step diagnostics.

    ``mass_residuals[n]`` is the defect of the combined-mass identity over
    step n; ``energies[n]`` is the diagnostic energy at level n.  The
    potential at a level is derived on demand via ``mu(n)``.
    """

    __slots__ = ("params", "grid", "phi", "sigma", "mass_residuals", "energies", "_mu_cache")

    def __init__(self, params, grid, phi, sigma, mass_residuals, energies):
        self.params = params
        self.grid = grid
        self.phi = list(phi)
        self.sigma = list(sigma)
        self.mass_residuals = np.asarray(mass_residuals, dtype=float)
        self.energies = np.asarray(energies, dtype=float)
        self._mu_cache = {}

    @property
    def n_steps(self) -> int:
        return len(self.phi) - 1

    def time(self, n: int) -> float:
        return n * self.params.tau

    def mu(self, n: int) -> Field:
        if n not in self._mu_cache:
            self._mu_cache[n] = chemical_potential(self.params, self.phi[n])
        return self._mu_cache[n]

    def max_abs_phi(self) -> float:
        return max(f.max_abs() for f in self.phi)


def energy(params: ModelParams, phi: Field, sigma: Field) -> float:
    """Diagnostic energy grad_sq(phi)/2 + integral of F(phi) + |sigma|^2/2."""
    well = Field._wrap(phi.grid, np.asarray(f_deriv(params.potential, 0, phi.values)))
    return 0.5 * grad_sq_integral(phi) + integrate(well) + 0.5 * norm_h(sigma) ** 2


def simulate(params: ModelParams, u: ControlSchedule,
             phi0: Field | None = None, sigma0: Field | None = None) -> StateTrajectory:
    """March the schedule from (phi0, sigma0), recording every level.

    Initial fields default to the ones stored on ``params``.  Step errors
    propagate with their step index attached; a warning is emitted when the
    trajectory leaves the range covered by the stabilization constant.
    """
    phi = phi0 if phi0 is not None else params.phi0
    sigma = sigma0 if sigma0 is not None else params.sigma0
    if phi is None or sigma is None:
        raise ValueError("initial fields are required (arguments or params.phi0/sigma0)")
    grid = phi.grid
    if sigma.grid != grid or u.grid != grid:
        raise GridMismatchError("initial fields and schedule must share one grid")

    phis = [phi]
    sigmas = [sigma]
    energies = [energy(params, phi, sigma)]
    mass_res = []
    mass_prev = integrate(phi) + integrate(sigma)
    for n in range(len(u)):
        phi, sigma = step(params, phi, sigma, u[n], step_index=n)
        phis.append(phi)
        sigmas.append(sigma)
        energies.append(energy(params, phi, sigma))
        mass_now = integrate(phi) + integrate(sigma)
        mass_res.append(mass_now - mass_prev - params.tau * integrate(u[n]))
        mass_prev = mass_now

    traj = StateTrajectory(params, grid, phis, sigmas, mass_res, energies)
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
    linf_phi = 0.0
    l2v_phi = 0.0
    linf_sig = 0.0
    l2v_sig = 0.0
    n_levels = len(base.phi)
    for n in range(n_levels):
        dphi = base.phi[n] - other.phi[n]
        dsig = base.sigma[n] - other.sigma[n]
        linf_phi = max(linf_phi, norm_h(dphi))
        linf_sig = max(linf_sig, norm_h(dsig))
        if n >= 1:
            l2v_phi += tau * (inner_product(dphi, dphi) + grad_sq_integral(dphi))
            l2v_sig += tau * (inner_product(dsig, dsig) + grad_sq_integral(dsig))
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
        du_sq = math.fsum(tau * inner_product(a - b, a - b)
                          for a, b in zip(u_eps.fields, u1.fields))
        linf_phi, l2v_phi, linf_sig, l2v_sig = _traj_diff_norms(tau, base, other)
        rows.append(ProbeRow(eps=float(eps), du_l2q=math.sqrt(du_sq),
                             phi_linf_h=linf_phi, phi_l2v=l2v_phi,
                             sigma_linf_h=linf_sig, sigma_l2v=l2v_sig))
    return StabilityReport(rows=rows)
