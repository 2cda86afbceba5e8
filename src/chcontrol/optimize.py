"""Reduced tracking cost, box projection, projected gradient descent, and
first-order optimality reporting.

The reduced cost eliminates the state through the forward solver:

    J(u) = sum_{n=1..N} tau*(beta_q/2)*|phi_n - target_n|^2
         + (beta_omega/2)*|phi_N - phi_omega|^2
         + sum_{n=0..N-1} tau*(beta_u/2)*|u_n|^2,

with right-endpoint quadrature for the tracking term and left-endpoint for
the control term, matching how the control is sampled in time.  The descent
iteration is ``u+ = project(u - alpha*g)`` with Armijo backtracking on the
projection arc; the stopping measure ``|u - project(u - g)|`` vanishes
exactly at stationary points, where the clamp formula
``u = clamp(-lift/beta_u, u_min, u_max)`` holds cellwise for beta_u > 0.
The box ``[u_min, u_max]`` is the problem's: ``project`` and ``kkt_report``
read it from ``ModelParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import _require, level_inner_products
from .forward import ControlSchedule, StateTrajectory, l2q_inner, l2q_norm, simulate
from .model import ModelParams, _bound_values
from .sensitivity import (AdjointTrajectory, _tracking_misfits, fit_loglog_slope,
                          reduced_gradient, solve_adjoint)

__all__ = [
    "OptimOptions",
    "OptimResult",
    "KktReport",
    "reduced_cost",
    "project",
    "projected_gradient",
    "kkt_report",
    "l2q_inner",
    "l2q_norm",
    "cost_taylor_sweep",
    "directional_derivative_check",
]

_ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search
_ALPHA_SHRINK = 0.5  # factor per backtrack
_MAX_BACKTRACKS = 60  # step shrinks per line search before it fails


def _tracking_cost(traj: StateTrajectory) -> float:
    params, grid, u = traj.params, traj.grid, traj.u
    tau = params.tau
    level_misfit, final_misfit = _tracking_misfits(params, traj.phi)
    terms = []
    if level_misfit is not None:
        terms.extend(tau * 0.5 * params.beta_q * ip
                     for ip in level_inner_products(grid, level_misfit, level_misfit))
    if final_misfit is not None:
        final = final_misfit[np.newaxis]
        terms.extend(0.5 * params.beta_omega * ip
                     for ip in level_inner_products(grid, final, final))
    if params.beta_u > 0.0:
        terms.extend(tau * 0.5 * params.beta_u * ip for ip in u.level_inner_products(u))
    return math.fsum(terms)


def _evaluate(params: ModelParams, u: ControlSchedule) -> tuple[float, StateTrajectory]:
    traj = simulate(params, u)
    return _tracking_cost(traj), traj


def reduced_cost(params: ModelParams, u: ControlSchedule) -> float:
    """Tracking cost of the trajectory generated by ``u`` (any schedule,
    admissible or not; feasibility is the optimizer's business)."""
    return _evaluate(params, u)[0]


def project(params: ModelParams, u: ControlSchedule) -> ControlSchedule:
    """Cellwise clamp onto the box ``[params.u_min, params.u_max]``;
    idempotent.  A Field bound off ``u``'s grid raises GridMismatchError."""
    lo, hi = (_bound_values(b, u.grid) for b in (params.u_min, params.u_max))
    return u.with_values(np.clip(u.values, lo, hi))


@dataclass
class OptimOptions:
    """Projected-gradient knobs, one per ``opt.*`` key; defaults are standard
    choices.  ``tol`` and ``alpha0`` must be positive; a bad one raises
    ParameterError naming it.  The Armijo constant and the backtracking
    factor are the module constants ``_ARMIJO_C`` and ``_ALPHA_SHRINK``."""

    max_iters: int = 100
    tol: float = 1e-6
    alpha0: float = 1.0

    def __post_init__(self):
        for name in ("tol", "alpha0"):
            _require(getattr(self, name) > 0, name, f"{name} must be positive")


@dataclass
class OptimResult:
    """Final control and its adjoint, per-iterate histories and the stopping
    diagnosis."""

    control: ControlSchedule
    adjoint: AdjointTrajectory
    cost_history: list
    gradient_norm_history: list
    kkt_residual: float
    iterations: int
    termination_reason: str  # tolerance_met | max_iters | line_search_failed


def projected_gradient(params: ModelParams, u0: ControlSchedule,
                       options: OptimOptions | None = None) -> OptimResult:
    """Minimize the reduced cost over the box of ``params`` by projected gradient descent.

    Each iterate re-simulates, solves the adjoint, and backtracks along the
    projection arc until ``J(u+) <= J(u) - (c/alpha)*|u+ - u|^2``, ``c =
    _ARMIJO_C``, halving the step (``_ALPHA_SHRINK``) up to ``_MAX_BACKTRACKS``
    times.  The step is warm-started from the previously accepted one (allowed
    to grow back by one shrink factor, capped at alpha0).  Terminates when the
    stationarity measure ``|u - project(u - g)|`` drops below ``tol``, the
    iteration budget runs out, or the line search fails; the last is a
    recorded outcome, not an exception.  The result carries the adjoint of
    the final control, computed from the trajectory already at hand.
    """
    opts = options or OptimOptions()
    tau = params.tau
    u = project(params, u0)
    cost, traj = _evaluate(params, u)
    cost_history = [cost]
    grad_history = []
    stationarity = math.inf
    alpha = opts.alpha0
    iterations = 0
    reason = "max_iters"
    for _ in range(opts.max_iters):
        adjoint = solve_adjoint(traj)
        grad = reduced_gradient(params, u, adjoint)
        grad_history.append(l2q_norm(tau, grad))
        stationarity = l2q_norm(tau, u - project(params, u - grad))
        if stationarity <= opts.tol:
            reason = "tolerance_met"
            break
        alpha_try = min(opts.alpha0, alpha / _ALPHA_SHRINK)
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            trial = project(params, u - grad.scaled(alpha_try))
            move = trial - u
            move_sq = l2q_inner(tau, move, move)
            if move_sq == 0.0:
                break  # projection arc pinned; stationary up to roundoff
            trial_cost, trial_traj = _evaluate(params, trial)
            if trial_cost <= cost - (_ARMIJO_C / alpha_try) * move_sq:
                u, cost, traj = trial, trial_cost, trial_traj
                cost_history.append(cost)
                alpha = alpha_try
                accepted = True
                break
            alpha_try *= _ALPHA_SHRINK
        if not accepted:
            reason = "line_search_failed"
            break
        iterations += 1
    else:
        adjoint = solve_adjoint(traj)  # budget spent after an accepted step
    return OptimResult(control=u, adjoint=adjoint, cost_history=cost_history,
                       gradient_norm_history=grad_history,
                       kkt_residual=stationarity, iterations=iterations,
                       termination_reason=reason)


@dataclass
class KktReport:
    """Pointwise first-order optimality audit of a control/adjoint pair."""

    n_interior: int
    n_lower: int
    n_upper: int
    violations: int
    worst_violation: float
    stationarity: float
    projection_gap: float | None
    note: str = ""


def kkt_report(params: ModelParams, u: ControlSchedule,
               adjoint: AdjointTrajectory, tol: float = 1e-5) -> KktReport:
    """Classify every (cell, level) against the variational inequality.

    Interior cells need ``|beta_u*u + lift| <= tol``; cells at the lower
    bound need the gradient >= -tol, at the upper bound <= tol (cells
    sitting exactly on a bound count as bound cells).  When beta_u > 0 the
    clamp-formula gap ``max |u - clamp(-lift/beta_u)|`` is reported too;
    with beta_u = 0 that check is skipped with a note.
    """
    grad = reduced_gradient(params, u, adjoint)
    lo, hi = (_bound_values(b, u.grid) for b in (params.u_min, params.u_max))
    uv, gv = u.values, grad.values
    at_lower = uv <= lo
    at_upper = uv >= hi
    interior = ~(at_lower | at_upper)
    bad_interior = np.abs(gv) * interior
    bad_lower = np.maximum(-gv, 0.0) * at_lower
    bad_upper = np.maximum(gv, 0.0) * at_upper
    bad = np.maximum(bad_interior, np.maximum(bad_lower, bad_upper))
    projection_gap = None
    note = ""
    if params.beta_u > 0.0:
        clamp = np.clip(-adjoint.r_lift / params.beta_u, lo, hi)
        projection_gap = float(np.max(np.abs(uv - clamp)))
    else:
        note = "clamp-formula check skipped: control weight beta_u is zero"
    stationarity = l2q_norm(params.tau, u - project(params, u - grad))
    return KktReport(n_interior=int(np.count_nonzero(interior)),
                     n_lower=int(np.count_nonzero(at_lower)),
                     n_upper=int(np.count_nonzero(at_upper)),
                     violations=int(np.count_nonzero(bad > tol)),
                     worst_violation=max(0.0, float(bad.max())),
                     stationarity=stationarity, projection_gap=projection_gap,
                     note=note)


def _cost_and_pairing(params: ModelParams, u: ControlSchedule,
                      h: ControlSchedule) -> tuple[float, float]:
    """The reduced cost at ``u`` and the adjoint pairing ``<g, h>`` of its
    gradient with the direction ``h``."""
    cost, traj = _evaluate(params, u)
    grad = reduced_gradient(params, u, solve_adjoint(traj))
    return cost, l2q_inner(params.tau, grad, h)


def cost_taylor_sweep(params: ModelParams, u: ControlSchedule, h: ControlSchedule,
                      eps_values=(1e-2, 1e-3, 1e-4, 1e-5)):
    """First-order Taylor remainders of the reduced cost along ``h``.

    Returns ``(rows, slope, pairing)`` where rows are
    ``(eps, |J(u + eps*h) - J(u) - eps*<g, h>|)`` and slope is the log-log
    fit; a slope near 2 certifies the adjoint gradient.
    """
    cost0, pairing = _cost_and_pairing(params, u, h)
    rows = []
    for eps in eps_values:
        eps = float(eps)
        cost_eps = reduced_cost(params, u + h.scaled(eps))
        rows.append((eps, abs(cost_eps - cost0 - eps * pairing)))
    return rows, fit_loglog_slope(rows), pairing


def directional_derivative_check(params: ModelParams, u: ControlSchedule,
                                 h: ControlSchedule, eps: float = 1e-3) -> float:
    """Relative gap between the adjoint pairing <g, h> and a centered
    finite-difference directional derivative of the reduced cost."""
    _, pairing = _cost_and_pairing(params, u, h)
    plus = reduced_cost(params, u + h.scaled(eps))
    minus = reduced_cost(params, u + h.scaled(-eps))
    fd = (plus - minus) / (2.0 * eps)
    return abs(fd - pairing) / max(abs(pairing), 1e-300)
