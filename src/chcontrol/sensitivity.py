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

Like ``forward.step``, both steps take a ``StepPlan`` plus arrays of its
grid's shape and return new arrays, checking their outputs for finiteness
only (they are linear in their direction).  In place of the base state they
take the Jacobian's frozen cellwise coefficients of their base level,
``level_coefficients``.  ``solve_linearized`` and ``solve_adjoint`` build one
plan and the coefficients of all levels (three ``(n_steps, *grid.shape)``
arrays, from one laplacian call per block of levels) once per sweep, and
fill one ``(n_steps + 1, *grid.shape)`` level array per channel, row by row.
The two implicit solves are the forward step's own, ``_phase_solve`` and
``_diffusion_solve``.  The tracking misfits are computed once, by
``_tracking_misfits``, for the adjoint's default data and for the reduced
cost in ``optimize``.  ``frechet_remainder_sweep``, like ``optimize``, runs
from the initial data of ``params``.  ``solve_adjoint`` checks the shapes
of the arrays a caller hands it once, at entry.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import (Field, Grid, GridMismatchError, _level_blocks, inner_product,
                   laplacian_values, level_inner_products)
from .forward import (ControlSchedule, StateTrajectory, StepPlan, _check_outputs,
                      _diffusion_solve, _phase_solve, _require_grid_shape, l2q_inner, simulate)
from .model import ModelParams, f_deriv, p_deriv, preset_field

__all__ = [
    "LinearizedTrajectory",
    "AdjointTrajectory",
    "level_coefficients",
    "linearized_step",
    "solve_linearized",
    "adjoint_step",
    "solve_adjoint",
    "reduced_gradient",
    "dot_product_test",
    "frechet_remainder_sweep",
    "fit_loglog_slope",
]


Coefficients = tuple[np.ndarray, np.ndarray, np.ndarray]  # (curvature, rate, rate_slope)


def level_coefficients(params: ModelParams, grid: Grid, phi: np.ndarray,
                       sigma: np.ndarray) -> Coefficients:
    """Frozen cellwise coefficients of the Jacobian at base levels.

    ``phi`` and ``sigma`` are one level (the grid's shape) or a stack of
    levels (``(levels, *grid.shape)``), ``GridMismatchError`` otherwise.
    Returns (curvature, rate, rate_slope) of the same shape: F''(phi),
    P(phi), and P'(phi)*(sigma - mu) with mu the explicit potential of each
    level.  The laplacian takes one ``grid._level_blocks`` block of levels
    per call, on its leading batch axis (a 1D control sweep is one block).
    The arithmetic is cellwise, so every level is bitwise what a call on that
    level alone gives.
    """
    if phi.shape[phi.ndim - grid.dim:] != grid.shape or phi.ndim > grid.dim + 1 \
            or sigma.shape != phi.shape:
        raise GridMismatchError(f"base levels of shapes {phi.shape} and {sigma.shape} "
                                f"on a {grid.shape} grid")
    stack = phi.reshape((-1,) + grid.shape)
    # mu = -lap(phi) + F'(phi) is formed as F'(phi) - lap(phi), bit for bit the
    # same, in one buffer that then holds sigma - mu and the rate slope, so a
    # stack of levels makes few temporaries.
    mu = np.asarray(f_deriv(params.potential, 1, phi), dtype=float)
    mu_stack = mu.reshape(stack.shape)  # a view: mu is fresh and of phi's shape
    for blk in _level_blocks(len(stack), grid.n_cells):
        mu_stack[blk] -= laplacian_values(grid, stack[blk])
    rate_slope = np.subtract(sigma, mu, out=mu)
    np.multiply(p_deriv(params.proliferation, 1, phi), rate_slope, out=rate_slope)
    curvature = np.asarray(f_deriv(params.potential, 2, phi), dtype=float)
    rate = np.asarray(p_deriv(params.proliferation, 0, phi), dtype=float)
    return curvature, rate, rate_slope


def linearized_step(plan: StepPlan, coefficients: Coefficients, xi: np.ndarray,
                    rho: np.ndarray, h: np.ndarray,
                    step_index=None) -> tuple[np.ndarray, np.ndarray]:
    """Apply the exact Jacobian of one forward step to (xi, rho, h).

    ``coefficients`` is ``level_coefficients`` of the step's base level.
    Arrays of the plan's grid's shape in (``GridMismatchError`` otherwise),
    new arrays out; a non-finite output raises DivergenceError naming the
    step.
    """
    grid = plan.grid
    curvature, rate, rate_slope = coefficients
    _require_grid_shape(grid, curvature, rate, rate_slope, xi, rho, h)
    tau = plan.tau

    eta = -laplacian_values(grid, xi) + curvature * xi
    d_react = rate_slope * xi + rate * (rho - eta)

    rhs_a = xi + tau * laplacian_values(grid, (curvature - plan.s_const) * xi) + tau * d_react
    xi_next = _phase_solve(plan, rhs_a)

    rhs_b = rho + tau * (h - d_react)
    rho_next = _diffusion_solve(plan, rhs_b, rho)
    # Linear in the direction, so only finiteness is checked, not the guard.
    _check_outputs(xi_next, rho_next, math.inf, step_index, "linearized step")
    return xi_next, rho_next


def adjoint_step(plan: StepPlan, coefficients: Coefficients, p_next: np.ndarray,
                 r_next: np.ndarray, source: np.ndarray | None = None,
                 step_index=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the transpose of one step's Jacobian to the incoming co-state.

    ``coefficients`` is ``level_coefficients`` of the step's base level.
    ``source`` (the tracking misfit at the arrival level, already scaled by
    tau) is added to the incoming ``p`` channel before transposing, which
    places it at the right endpoint of the step.  Returns new arrays
    ``(p_n, r_n, lift_n)`` where ``lift_n`` is the diffusion-solve of
    ``r_next`` that also multiplies the control in the gradient.  Inputs are
    checked for their shape only; a non-finite ``p_n`` or ``r_n`` raises
    DivergenceError naming the step.
    """
    grid = plan.grid
    curvature, rate, rate_slope = coefficients
    _require_grid_shape(grid, curvature, rate, rate_slope, p_next, r_next)
    if source is not None:
        _require_grid_shape(grid, source)
    tau = plan.tau
    s_const = plan.s_const

    p_hat = p_next if source is None else p_next + source
    p1 = _phase_solve(plan, p_hat)
    r1 = _diffusion_solve(plan, r_next, r_next)

    diff = p1 - r1
    rate_diff = rate * diff
    p_n = p1 + tau * (curvature - s_const) * laplacian_values(grid, p1) \
        + tau * (rate_slope * diff + laplacian_values(grid, rate_diff) - curvature * rate_diff)
    r_n = r1 + tau * rate_diff
    _check_outputs(p_n, r_n, math.inf, step_index, "adjoint step")
    return p_n, r_n, r1


class LinearizedTrajectory:
    """Direction levels (xi, rho), started from zero data.

    ``xi`` and ``rho`` are read-only ``(n_steps + 1, *grid.shape)`` arrays;
    row n is level n.  The potential direction ``eta(n) = -lap(xi_n) +
    F''(phi_n)*xi_n`` is derived on demand from the stored base trajectory.
    """

    __slots__ = ("base", "xi", "rho")

    def __init__(self, base: StateTrajectory, xi: np.ndarray, rho: np.ndarray):
        xi.setflags(write=False)
        rho.setflags(write=False)
        self.base = base
        self.xi = xi
        self.rho = rho

    @property
    def n_steps(self) -> int:
        return len(self.xi) - 1

    def eta(self, n: int) -> Field:
        grid = self.base.grid
        curvature = np.asarray(
            f_deriv(self.base.params.potential, 2, self.base.phi[n]), dtype=float)
        return Field._wrap(grid, -laplacian_values(grid, self.xi[n]) + curvature * self.xi[n])


class AdjointTrajectory:
    """Co-state levels (p, r) plus the per-step gradient lift.

    ``p`` and ``r`` are read-only ``(n_steps + 1, *grid.shape)`` arrays; row n
    is level n.  ``q(n) = lap(p_n) - P(phi_n)*(p_n - r_n)`` is derived on
    demand; ``r_lift`` is one ``(n_steps, *grid.shape)`` array whose row n
    multiplies the control of step n in the reduced gradient.
    """

    __slots__ = ("base", "p", "r", "r_lift")

    def __init__(self, base: StateTrajectory, p: np.ndarray, r: np.ndarray,
                 r_lift: np.ndarray):
        for arr in (p, r, r_lift):
            arr.setflags(write=False)
        self.base = base
        self.p = p
        self.r = r
        self.r_lift = r_lift

    @property
    def n_steps(self) -> int:
        return len(self.p) - 1

    def q(self, n: int) -> Field:
        grid = self.base.grid
        rate = np.asarray(
            p_deriv(self.base.params.proliferation, 0, self.base.phi[n]), dtype=float)
        return Field._wrap(grid, laplacian_values(grid, self.p[n])
                           - rate * (self.p[n] - self.r[n]))


def solve_linearized(params: ModelParams, base: StateTrajectory,
                     h: ControlSchedule) -> LinearizedTrajectory:
    """Propagate a control direction through the exact Jacobian chain.

    ``h`` is a ControlSchedule with one row per base step; the direction
    starts from zero initial data and the output is linear in ``h``.
    """
    n_steps = base.n_steps
    if len(h) != n_steps:
        raise ValueError(f"direction has {len(h)} entries, base has {n_steps} steps")
    grid = base.grid
    if h.grid != grid:
        raise GridMismatchError("direction and base trajectory must share one grid")
    xi = np.empty((n_steps + 1,) + grid.shape)
    rho = np.empty((n_steps + 1,) + grid.shape)
    xi[0] = 0.0
    rho[0] = 0.0
    curvature, rate, rate_slope = level_coefficients(params, grid, base.phi[:-1],
                                                     base.sigma[:-1])
    plan = StepPlan(params, grid)
    for n in range(n_steps):
        xi[n + 1], rho[n + 1] = linearized_step(plan, (curvature[n], rate[n], rate_slope[n]),
                                                xi[n], rho[n], h.values[n], step_index=n)
    return LinearizedTrajectory(base, xi, rho)


def _tracking_misfits(params: ModelParams, phi: np.ndarray, tracking: bool = True,
                      terminal: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The misfits of the tracking cost on the level array ``phi``.

    Returns ``(phi_n - target_n for n = 1..N, phi_N - phi_omega)``: an
    ``(N, *grid.shape)`` array and one of the grid's shape.  A part is None
    when its weight is zero or it is not asked for (``tracking``,
    ``terminal``).  A time-constant target broadcasts over the levels; only
    a per-level sequence is stacked.
    """
    level_misfit = final_misfit = None
    if tracking and params.beta_q > 0.0:
        if isinstance(params.phi_q, Field):
            target = params.phi_q.values
        else:
            target = np.array([params.phi_q_at(n).values for n in range(1, len(phi))])
        level_misfit = phi[1:] - target
    if terminal and params.beta_omega > 0.0:
        if params.phi_omega is None:
            raise ValueError("phi_omega is required when beta_omega > 0")
        final_misfit = phi[-1] - params.phi_omega.values
    return level_misfit, final_misfit


def solve_adjoint(params: ModelParams, base: StateTrajectory,
                  terminal_p: np.ndarray | None = None,
                  sources: np.ndarray | None = None) -> AdjointTrajectory:
    """Sweep the transposed chain backward from the terminal co-state.

    Defaults reproduce the tracking cost: terminal
    ``p_N = beta_omega*(phi_N - phi_omega)``, ``r_N = 0``, and per-level
    sources ``tau*beta_q*(phi_n - target_n)`` for n = 1..N.  Handing in
    ``terminal_p`` (of the grid's shape) and/or ``sources`` (``(N, *shape)``,
    row n the source at level n + 1) reuses the sweep for any linear
    functional of the trajectory.  Only their shapes are checked, once, before
    the first step (``GridMismatchError``); they are not modified, and a
    non-finite value fails the first solve that reads it (``CgNonConvergenceError``).
    """
    n_steps = base.n_steps
    grid = base.grid
    for data, shape in ((terminal_p, grid.shape), (sources, (n_steps,) + grid.shape)):
        if data is not None and np.shape(data) != shape:
            raise GridMismatchError(f"handed-in data of shape {np.shape(data)}, expected {shape}")
    level_misfit, final_misfit = _tracking_misfits(
        params, base.phi, tracking=sources is None, terminal=terminal_p is None)
    if terminal_p is not None:
        p_terminal = terminal_p
    elif final_misfit is None:
        p_terminal = 0.0
    else:
        p_terminal = params.beta_omega * final_misfit

    # Row n of lift first holds the source of step n, at level n + 1; the
    # step reads it before its lift overwrites it.
    has_sources = sources is not None or level_misfit is not None
    if sources is not None:
        lift = np.array(sources, dtype=float)
    elif level_misfit is not None:
        lift = level_misfit
        lift *= params.tau * params.beta_q
    else:
        lift = np.empty((n_steps,) + grid.shape)

    p = np.empty((n_steps + 1,) + grid.shape)
    r = np.empty((n_steps + 1,) + grid.shape)
    p[n_steps] = p_terminal
    r[n_steps] = 0.0
    curvature, rate, rate_slope = level_coefficients(params, grid, base.phi[:-1],
                                                     base.sigma[:-1])
    plan = StepPlan(params, grid)
    for n in range(n_steps - 1, -1, -1):
        p[n], r[n], lift[n] = adjoint_step(plan, (curvature[n], rate[n], rate_slope[n]),
                                           p[n + 1], r[n + 1],
                                           source=lift[n] if has_sources else None,
                                           step_index=n)
    return AdjointTrajectory(base, p, r, lift)


def reduced_gradient(params: ModelParams, u: ControlSchedule,
                     adjoint: AdjointTrajectory) -> ControlSchedule:
    """Cost gradient g_n = beta_u*u_n + lift_n in the tau-weighted L2 pairing.

    The adjoint must come from the trajectory generated by ``u``.  The
    result is a direction, not a control.
    """
    if adjoint.n_steps != len(u):
        raise ValueError("adjoint and control disagree on the number of steps")
    return ControlSchedule(u.grid, params.beta_u * u.values + adjoint.r_lift)


def fit_loglog_slope(pairs) -> float:
    """Least-squares slope of log(value) against log(eps); nan unless every
    value is positive (a zero remainder has no logarithm)."""
    eps = np.array([p[0] for p in pairs], dtype=float)
    val = np.array([p[1] for p in pairs], dtype=float)
    if not np.all(val > 0.0):
        return math.nan
    return float(np.polyfit(np.log(eps), np.log(val), 1)[0])


def frechet_remainder_sweep(params: ModelParams, u: ControlSchedule, h: ControlSchedule,
                            eps_values=(1e-1, 3e-2, 1e-2, 3e-3)):
    """Remainder of the state linearization for shrinking perturbations.

    Returns rows ``(eps, max-in-time H norm of phi(u + eps*h) - phi(u) -
    eps*xi)``; second-order decay of the rows is the differentiability
    signature of the control-to-state map.
    """
    base = simulate(params, u)
    lin = solve_linearized(params, base, h)
    rows = []
    for eps in eps_values:
        eps = float(eps)
        traj = simulate(params, u + h.scaled(eps))
        defect = traj.phi - base.phi - eps * lin.xi
        rem = 0.0
        for sq in level_inner_products(base.grid, defect, defect):
            rem = max(rem, math.sqrt(max(sq, 0.0)))
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

    def field(values: np.ndarray) -> Field:
        return Field._wrap(grid, values)

    phi0 = smooth(1, 0.8)
    sigma0 = smooth(2, 0.5)
    u_bar = ControlSchedule(grid, [smooth(100 + n, 0.5).values for n in range(n_steps)])
    h = ControlSchedule(grid, [smooth(200 + n, 1.0).values for n in range(n_steps)])

    # Single-step identity at the initial level.
    xi0, rho0 = smooth(3, 1.0), smooth(4, 1.0)
    p_in, r_in = smooth(5, 1.0), smooth(6, 1.0)
    coefficients = level_coefficients(params, grid, phi0.values, sigma0.values)
    plan = StepPlan(params, grid)
    xi1, rho1 = linearized_step(plan, coefficients, xi0.values, rho0.values, h.values[0])
    p_out, r_out, lift = adjoint_step(plan, coefficients, p_in.values, r_in.values)
    lhs = inner_product(field(xi1), p_in) + inner_product(field(rho1), r_in)
    rhs = inner_product(xi0, field(p_out)) + inner_product(rho0, field(r_out)) \
        + tau * inner_product(h[0], field(lift))
    worst = _relative_gap(lhs, rhs)

    # Full-horizon identity against a random linear functional.
    base = simulate(params, u_bar, phi0=phi0, sigma0=sigma0)
    lin = solve_linearized(params, base, h)
    weights = np.array([smooth(300 + lvl, 1.0).values for lvl in range(1, n_steps + 1)])
    terminal = smooth(7, 1.0)
    level_terms = level_inner_products(grid, weights, lin.xi[1:])
    functional = inner_product(terminal, field(lin.xi[n_steps])) + math.fsum(
        tau * term for term in level_terms)
    adj = solve_adjoint(params, base, terminal_p=terminal.values, sources=tau * weights)
    paired = l2q_inner(tau, ControlSchedule(grid, adj.r_lift), h)
    worst = max(worst, _relative_gap(functional, paired))
    return worst
