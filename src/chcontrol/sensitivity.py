"""Exact linearization of the time stepper and its exact transpose.

The one-step update of the forward module is a smooth map
``(phi, sigma, u) -> (phi_next, sigma_next)``.  ``linearized_step`` applies
its Jacobian at a base level to a direction ``(xi, rho, h)``: the potential
perturbation is the derived field ``eta = -lap(xi) + F''(phi)*xi`` and the
exchange perturbation is ``P'(phi)*(sigma - mu)*xi + P(phi)*(rho - eta)``,
after which the same two implicit solves advance the direction.

``adjoint_step`` applies the transpose of that Jacobian with respect to the
cell-volume weighted inner product.  The transpose is derived mechanically:
both implicit operators are symmetric, so their inverses appear unchanged;
cellwise multiplications transpose to themselves; compositions reverse
order (multiplication-then-laplacian becomes laplacian-then-multiplication).
Stepped backward in time the recursion is, term for term, an
implicit-explicit discretization of the PDE system adjoint to the forward
model: the ``p`` channel is adjoint to the phase field, ``r`` to the
nutrient, and the derived ``q = lap(p) - P(phi)*(p - r)`` to the chemical
potential.  The tracking misfit enters the ``p`` channel scaled by tau at
the right endpoint of each step, matching the cost quadrature, and the
terminal data are ``p(T) = beta_omega*(phi(T) - phi_omega)``, ``r(T) = 0``.

The control multiplies the nutrient equation only, so the cost gradient in
the tau-weighted L2 pairing over space-time is

    g_n = beta_u * u_n + lift_n,   lift_n = (I - tau*lap)^{-1} r_{n+1},

where ``lift_n`` is computed anyway during the backward step n+1 -> n and
is recorded on the adjoint trajectory.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .grid import Field, Grid, cg_solve, inner_product, laplacian_values, norm_h
from .forward import (ControlSchedule, StateTrajectory, diffusion_operator,
                      phase_operator, simulate)
from .model import ModelParams, f_deriv, p_deriv, preset_field

__all__ = [
    "LinearizedTrajectory",
    "AdjointTrajectory",
    "linearized_step",
    "solve_linearized",
    "adjoint_step",
    "solve_adjoint",
    "reduced_gradient",
    "dot_product_test",
    "frechet_remainder_sweep",
    "fit_loglog_slope",
]


def _level_coefficients(params: ModelParams, phi_b: Field, sigma_b: Field):
    """Frozen cellwise coefficients of the Jacobian at one base level.

    Returns (curvature, rate, rate_slope): F''(phi), P(phi), and
    P'(phi)*(sigma - mu) with mu the explicit potential of the base level.
    """
    grid = phi_b.grid
    pv = phi_b.values
    curvature = np.asarray(f_deriv(params.potential, 2, pv), dtype=float)
    mu_t = -laplacian_values(grid, pv) + f_deriv(params.potential, 1, pv)
    rate = np.asarray(p_deriv(params.proliferation, 0, pv), dtype=float)
    rate_slope = np.asarray(p_deriv(params.proliferation, 1, pv), dtype=float) \
        * (sigma_b.values - mu_t)
    return curvature, rate, rate_slope


def linearized_step(params: ModelParams, phi_b: Field, sigma_b: Field,
                    xi: Field, rho: Field, h: Field) -> tuple[Field, Field]:
    """Apply the exact Jacobian of one forward step to (xi, rho, h)."""
    grid = phi_b.grid
    tau = params.tau
    s_const = params.stabilization
    num = params.numerics
    curvature, rate, rate_slope = _level_coefficients(params, phi_b, sigma_b)

    xv, rv = xi.values, rho.values
    eta = -laplacian_values(grid, xv) + curvature * xv
    d_react = rate_slope * xv + rate * (rv - eta)

    rhs_a = xv + tau * laplacian_values(grid, (curvature - s_const) * xv) + tau * d_react
    xi_next = cg_solve(phase_operator(params, grid), Field._wrap(grid, rhs_a),
                       tol=num.cg_tol, max_iter=num.cg_max_iter, x0=xi)

    rhs_b = rv + tau * (h.values - d_react)
    rho_next = cg_solve(diffusion_operator(params, grid), Field._wrap(grid, rhs_b),
                        tol=num.cg_tol, max_iter=num.cg_max_iter, x0=rho)
    return xi_next, rho_next


def adjoint_step(params: ModelParams, phi_b: Field, sigma_b: Field,
                 p_next: Field, r_next: Field,
                 source: Field | None = None) -> tuple[Field, Field, Field]:
    """Apply the transpose of one step's Jacobian to the incoming co-state.

    ``source`` (the tracking misfit at the arrival level, already scaled by
    tau) is added to the incoming ``p`` channel before transposing, which
    places it at the right endpoint of the step.  Returns ``(p_n, r_n,
    lift_n)`` where ``lift_n`` is the diffusion-solve of ``r_next`` that
    also multiplies the control in the gradient.
    """
    grid = phi_b.grid
    tau = params.tau
    s_const = params.stabilization
    num = params.numerics
    curvature, rate, rate_slope = _level_coefficients(params, phi_b, sigma_b)

    p_hat = p_next if source is None else p_next + source
    p1 = cg_solve(phase_operator(params, grid), p_hat,
                  tol=num.cg_tol, max_iter=num.cg_max_iter, x0=p_next)
    r1 = cg_solve(diffusion_operator(params, grid), r_next,
                  tol=num.cg_tol, max_iter=num.cg_max_iter, x0=r_next)

    diff = p1.values - r1.values
    rate_diff = rate * diff
    p_n = p1.values + tau * (curvature - s_const) * laplacian_values(grid, p1.values) \
        + tau * (rate_slope * diff + laplacian_values(grid, rate_diff) - curvature * rate_diff)
    r_n = r1.values + tau * rate_diff
    return Field._wrap(grid, p_n), Field._wrap(grid, r_n), r1


class LinearizedTrajectory:
    """Direction fields (xi, rho) per level, started from zero data.

    The potential direction ``eta(n) = -lap(xi_n) + F''(phi_n)*xi_n`` is
    derived on demand from the stored base trajectory.
    """

    __slots__ = ("base", "xi", "rho")

    def __init__(self, base: StateTrajectory, xi, rho):
        self.base = base
        self.xi = list(xi)
        self.rho = list(rho)

    @property
    def n_steps(self) -> int:
        return len(self.xi) - 1

    def eta(self, n: int) -> Field:
        grid = self.base.grid
        curvature = np.asarray(
            f_deriv(self.base.params.potential, 2, self.base.phi[n].values), dtype=float)
        return Field._wrap(grid, -laplacian_values(grid, self.xi[n].values)
                           + curvature * self.xi[n].values)


class AdjointTrajectory:
    """Co-state fields (p, r) per level plus the per-step gradient lift.

    ``q(n) = lap(p_n) - P(phi_n)*(p_n - r_n)`` is derived on demand;
    ``r_lift[n]`` multiplies the control of step n in the reduced gradient.
    """

    __slots__ = ("base", "p", "r", "r_lift")

    def __init__(self, base: StateTrajectory, p, r, r_lift):
        self.base = base
        self.p = list(p)
        self.r = list(r)
        self.r_lift = list(r_lift)

    @property
    def n_steps(self) -> int:
        return len(self.p) - 1

    def q(self, n: int) -> Field:
        grid = self.base.grid
        rate = np.asarray(
            p_deriv(self.base.params.proliferation, 0, self.base.phi[n].values), dtype=float)
        return Field._wrap(grid, laplacian_values(grid, self.p[n].values)
                           - rate * (self.p[n].values - self.r[n].values))


def solve_linearized(params: ModelParams, base: StateTrajectory, h) -> LinearizedTrajectory:
    """Propagate a control direction through the exact Jacobian chain.

    ``h`` is a ControlSchedule (or sequence of fields) with one entry per
    base step; the direction starts from zero initial data and the output
    is linear in ``h``.
    """
    n_steps = base.n_steps
    if len(h) != n_steps:
        raise ValueError(f"direction has {len(h)} entries, base has {n_steps} steps")
    grid = base.grid
    xi = Field.zeros(grid)
    rho = Field.zeros(grid)
    xis = [xi]
    rhos = [rho]
    for n in range(n_steps):
        xi, rho = linearized_step(params, base.phi[n], base.sigma[n], xi, rho, h[n])
        xis.append(xi)
        rhos.append(rho)
    return LinearizedTrajectory(base, xis, rhos)


def _default_terminal(params: ModelParams, base: StateTrajectory) -> Field:
    n_final = base.n_steps
    if params.beta_omega == 0.0:
        return Field.zeros(base.grid)
    if params.phi_omega is None:
        raise ValueError("phi_omega is required when beta_omega > 0")
    return Field._wrap(base.grid,
                       params.beta_omega * (base.phi[n_final].values - params.phi_omega.values))


def _default_source(params: ModelParams, base: StateTrajectory, level: int) -> Field | None:
    if params.beta_q == 0.0:
        return None
    target = params.phi_q_at(level)
    return Field._wrap(base.grid,
                       params.tau * params.beta_q * (base.phi[level].values - target.values))


def solve_adjoint(params: ModelParams, base: StateTrajectory,
                  terminal_p: Field | None = None,
                  sources: Callable[[int], Field | None] | None = None) -> AdjointTrajectory:
    """Sweep the transposed chain backward from the terminal co-state.

    Defaults reproduce the tracking cost: terminal
    ``p_N = beta_omega*(phi_N - phi_omega)``, ``r_N = 0``, and per-level
    sources ``tau*beta_q*(phi_n - target_n)`` for n = 1..N.  Passing
    ``terminal_p`` and/or ``sources`` (a callable of the level) reuses the
    sweep for arbitrary linear functionals of the trajectory.
    """
    n_steps = base.n_steps
    grid = base.grid
    p_terminal = terminal_p if terminal_p is not None else _default_terminal(params, base)
    if p_terminal.grid != grid:
        raise ValueError("terminal co-state lives on the wrong grid")
    src = sources if sources is not None else (lambda lvl: _default_source(params, base, lvl))

    p = [None] * (n_steps + 1)
    r = [None] * (n_steps + 1)
    lift = [None] * n_steps
    p[n_steps] = p_terminal
    r[n_steps] = Field.zeros(grid)
    for n in range(n_steps - 1, -1, -1):
        p[n], r[n], lift[n] = adjoint_step(
            params, base.phi[n], base.sigma[n], p[n + 1], r[n + 1], source=src(n + 1))
    return AdjointTrajectory(base, p, r, lift)


def reduced_gradient(params: ModelParams, u: ControlSchedule,
                     adjoint: AdjointTrajectory) -> ControlSchedule:
    """Cost gradient g_n = beta_u*u_n + lift_n in the tau-weighted L2 pairing.

    The adjoint must come from the trajectory generated by ``u``.  The
    result is a bound-free schedule (a direction, not a control).
    """
    if adjoint.n_steps != len(u):
        raise ValueError("adjoint and control disagree on the number of steps")
    fields = [Field._wrap(u.grid, params.beta_u * u[n].values + adjoint.r_lift[n].values)
              for n in range(len(u))]
    return ControlSchedule(u.grid, fields)


def fit_loglog_slope(pairs) -> float:
    """Least-squares slope of log(value) against log(eps)."""
    eps = np.array([p[0] for p in pairs], dtype=float)
    val = np.array([p[1] for p in pairs], dtype=float)
    if np.any(val <= 0.0):
        raise ValueError("all values must be positive for a log-log fit")
    return float(np.polyfit(np.log(eps), np.log(val), 1)[0])


def frechet_remainder_sweep(params: ModelParams, u: ControlSchedule, h: ControlSchedule,
                            eps_values=(1e-1, 3e-2, 1e-2, 3e-3),
                            phi0: Field | None = None,
                            sigma0: Field | None = None):
    """Remainder of the state linearization for shrinking perturbations.

    Returns rows ``(eps, max-in-time H norm of phi(u + eps*h) - phi(u) -
    eps*xi)``; second-order decay of the rows is the differentiability
    signature of the control-to-state map.
    """
    base = simulate(params, u, phi0=phi0, sigma0=sigma0)
    lin = solve_linearized(params, base, h)
    rows = []
    for eps in eps_values:
        eps = float(eps)
        traj = simulate(params, u + h.scaled(eps), phi0=phi0, sigma0=sigma0)
        rem = 0.0
        for n in range(base.n_steps + 1):
            defect = Field._wrap(base.grid, traj.phi[n].values - base.phi[n].values
                                 - eps * lin.xi[n].values)
            rem = max(rem, norm_h(defect))
        rows.append((eps, rem))
    return rows


def _relative_gap(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


def dot_product_test(params: ModelParams, grid: Grid, n_steps: int, seed: int) -> float:
    """Worst relative defect of the transpose identities on seeded data.

    Runs the single-step identity <J x, y> = <x, J^T y> and the
    full-horizon identity (random linear functional of the linearized
    trajectory against the gradient lift of the generalized adjoint) with
    smooth random fields, and returns the larger relative discrepancy.
    """
    tau = params.tau

    def smooth(k: int, amplitude: float) -> Field:
        return preset_field("filtered_noise", grid, seed=seed * 997 + k, amplitude=amplitude)

    phi0 = smooth(1, 0.8)
    sigma0 = smooth(2, 0.5)
    u_bar = ControlSchedule(grid, [smooth(100 + n, 0.5) for n in range(n_steps)])
    h = ControlSchedule(grid, [smooth(200 + n, 1.0) for n in range(n_steps)])

    # Single-step identity at the initial level.
    xi0, rho0 = smooth(3, 1.0), smooth(4, 1.0)
    p_in, r_in = smooth(5, 1.0), smooth(6, 1.0)
    xi1, rho1 = linearized_step(params, phi0, sigma0, xi0, rho0, h[0])
    p_out, r_out, lift = adjoint_step(params, phi0, sigma0, p_in, r_in, source=None)
    lhs = inner_product(xi1, p_in) + inner_product(rho1, r_in)
    rhs = inner_product(xi0, p_out) + inner_product(rho0, r_out) \
        + tau * inner_product(h[0], lift)
    worst = _relative_gap(lhs, rhs)

    # Full-horizon identity against a random linear functional.
    base = simulate(params, u_bar, phi0=phi0, sigma0=sigma0)
    lin = solve_linearized(params, base, h)
    weights = {lvl: smooth(300 + lvl, 1.0) for lvl in range(1, n_steps + 1)}
    terminal = smooth(7, 1.0)
    functional = inner_product(terminal, lin.xi[n_steps]) + math.fsum(
        tau * inner_product(weights[lvl], lin.xi[lvl]) for lvl in range(1, n_steps + 1))
    adj = solve_adjoint(params, base, terminal_p=terminal,
                        sources=lambda lvl: Field._wrap(grid, tau * weights[lvl].values))
    paired = math.fsum(tau * inner_product(adj.r_lift[n], h[n]) for n in range(n_steps))
    worst = max(worst, _relative_gap(functional, paired))
    return worst
