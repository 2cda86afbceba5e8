"""Shared oracles for the test suite: grid strategies, dense operator
assembly, hand stencils, stencil-only step operators and their dense-path
matrices, the Field-level solve (the plain CG loop without a
preconditioner) and steps, the per-column snapshot formatter, a per-level
KKT audit, tracking cost, stability probe and state remainder sweep, a
pure-Python copy of numpy's pairwise sum, an adaptive ODE reference for
spatially constant runs, instance builders tied to the shipped
configuration files, the key sweeps' override values, and a CLI runner in a
memory-limited subprocess."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

import numpy as np
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from chcontrol import (CgNonConvergenceError, ControlSchedule, DivergenceError, Field, Grid,
                       GridMismatchError, ModelParams, f_deriv, p_deriv, preset_field)
from chcontrol.config import build_grid, build_initial_control, build_params, parse_config
from chcontrol.forward import (diffusion_operator, phase_operator, phase_preconditioner,
                               phase_symbol)
from chcontrol.grid import DENSE_MAX_CELLS, _spectral_basis, laplacian_values

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# Values every schema key is overridden with by the key sweeps: each override
# must give a valid configuration or a ConfigError naming a key, and every
# valid one must run each subcommand to a documented exit code.
SWEEP_VALUES = ["0", "-1", "1e-300", "1e300", "nan", "inf", str(2 ** 63), "word"]


def run_cli_limited(argv, timeout=60, address_space=1 << 30):
    """``python -m chcontrol *argv`` in a subprocess whose address space is
    capped (``RLIMIT_AS``, 1 GiB by default) before the package is imported,
    and which is killed after ``timeout`` seconds, so an input that escapes
    its check fails the test instead of exhausting the machine.  Returns the
    text-mode CompletedProcess."""
    code = ("import resource, runpy; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space})); "
            "runpy.run_module('chcontrol', run_name='__main__')")
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC_DIR)), capture_output=True,
                          text=True, timeout=timeout)


def load_instance(name, overrides=()):
    """(cfg, grid, params, u0) from a shipped config file."""
    from chcontrol.config import apply_overrides

    cfg = parse_config((CONFIG_DIR / name).read_text())
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    grid = build_grid(cfg)
    params = build_params(cfg, grid)
    u0 = build_initial_control(cfg, grid, params)
    return cfg, grid, params, u0


@st.composite
def grids(draw, min_cells, max_cells):
    """1D lines and 2D boxes with min_cells..max_cells cells, down to 4-cell
    axes, with unequal side lengths."""
    lengths = st.floats(0.5, 10.0)
    if draw(st.booleans()):
        return Grid.line(draw(st.integers(max(4, min_cells), max_cells)), draw(lengths))
    nx = draw(st.integers(4, max_cells // 4))
    ny = draw(st.integers(max(4, -(-min_cells // nx)), max_cells // nx))
    return Grid.box(nx, ny, draw(lengths), draw(lengths))


# 1D lines on the dense operator path.
dense_lines = st.builds(Grid.line, st.integers(4, DENSE_MAX_CELLS), st.floats(0.5, 10.0))


def assemble_operator(op, grid):
    """Dense matrix of an array -> array linear map via unit vectors."""
    n = grid.n_cells
    cols = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols[:, j] = op(e.reshape(grid.shape)).ravel()
    return cols


def mirror_ghost_laplacian_1d(vals, h):
    """Reference 3-point stencil with mirrored ghost values."""
    ext = np.concatenate([[vals[0]], vals, [vals[-1]]])
    return (ext[:-2] - 2.0 * ext[1:-1] + ext[2:]) / (h * h)


def padded_flux_second_difference(arr, axis, h):
    """Reference flux-form second difference along one axis.

    Face fluxes are differences of neighbours, padded with zero flux on the
    two boundary faces, then differenced again.
    """
    d = np.diff(arr, axis=axis)
    pad = [(0, 0)] * arr.ndim
    pad[axis] = (1, 1)
    d = np.pad(d, pad)
    return np.diff(d, axis=axis) / (h * h)


def padded_flux_laplacian(grid, vals):
    """Reference zero-flux laplacian summed over the grid's active axes, the
    trailing ``grid.dim`` axes of ``vals`` (any leading axes are a batch)."""
    first = vals.ndim - grid.dim
    out = padded_flux_second_difference(vals, first, grid.spacing[0])
    if grid.dim == 2:
        out = out + padded_flux_second_difference(vals, first + 1, grid.spacing[1])
    return out


def reference_dense_increments(params, grid):
    """The dense-path matrices of the phase and diffusion increments on a 1D
    grid, by name, assembled with ``padded_flux_laplacian``."""
    tau, s_const = params.tau, params.stabilization
    lap = padded_flux_laplacian(grid, np.eye(grid.n_cells))
    return {"phase": tau * (padded_flux_laplacian(grid, lap) - s_const * lap),
            "diffusion": -tau * lap}


def stencil_phase_operator(params, grid):
    """Reference phase operator v + tau*(lap(lap v) - S*lap v), stencil only."""
    tau = params.tau
    s_const = params.stabilization

    def apply(v):
        lap = laplacian_values(grid, v)
        return v + tau * (laplacian_values(grid, lap) - s_const * lap)

    return apply


def stencil_diffusion_operator(params, grid):
    """Reference diffusion operator v - tau*lap v, stencil only."""
    tau = params.tau
    return lambda v: v - tau * laplacian_values(grid, v)


# Field-level references: ``cg_solve``, ``step``, ``linearized_step`` and
# ``adjoint_step`` as they were before the stepping core moved to arrays,
# kept verbatim (renamed, and calling each other) except that the steps start
# their phase solve at its exact spectral solution and accept it by its
# backward error (``field_phase_solve``, ``op_norm``), and the two linear
# steps take their level's Jacobian coefficients.  The array versions must
# reproduce them byte for byte.  Without ``precond`` and ``op_norm``,
# ``field_cg_solve`` is the plain CG loop.
def field_cg_solve(
    apply_op: Callable[[np.ndarray], np.ndarray],
    rhs: Field,
    tol: float = 1e-12,
    max_iter: int = 20000,
    x0: Field | None = None,
    precond: Callable[[np.ndarray], np.ndarray] | None = None,
    op_norm: float | None = None,
) -> Field:
    """Solve ``apply_op(x) = rhs`` for a symmetric positive-definite operator.

    ``apply_op`` is an array map: ndarray in, new ndarray of the same shape
    out, argument left unmodified.  Fields are validated once at entry
    (``rhs``, ``x0``) and once at exit (the solution), not per iteration.

    Matrix-free conjugate gradients with the residual measured in the
    cell-volume weighted norm, relative to ``rhs``.  When the recurrence
    residual passes the tolerance the true residual is re-checked (and the
    iteration restarted from it if it drifted), so the returned ``x``
    genuinely satisfies ``norm_h(apply_op(x) - rhs) <= tol * norm_h(rhs)``.
    The dot products are BLAS ``vdot``s, whose summation order follows the
    CPU kernel and the thread count.

    ``precond``, an array map approximating the inverse of ``apply_op`` (for
    example a ``spectral_inverse``), turns the iteration into preconditioned
    CG; the stopping test still reads the unpreconditioned residual.  Without
    it the iteration is plain CG, with ``r.r`` standing in for ``r.z``.

    ``op_norm``, the operator's largest eigenvalue, also accepts an iterate
    whose residual meets the backward-error test ``norm_h(r) <= tol *
    (op_norm * norm_h(x) + norm_h(rhs))``, at both checks.

    Raises
    ------
    CgNonConvergenceError
        If the budget runs out or ``p.Ap`` is not positive (or NaN).
    GridMismatchError
        If the operator's first output does not have the shape of ``rhs``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = rhs.grid
    vol = grid.cell_volume
    b = rhs.values

    bnorm = math.sqrt(vol * float(np.vdot(b, b)))
    if bnorm == 0.0:
        return Field.zeros(grid)
    target = tol * bnorm

    def preconditioned(r: np.ndarray, rs: float) -> tuple[np.ndarray, float]:
        if precond is None:
            return r, rs
        z = precond(r)
        return z, float(np.vdot(r, z))

    def accepted(res_sq: float, x: np.ndarray) -> bool:
        res = math.sqrt(vol * res_sq)
        if res <= target:
            return True
        return op_norm is not None and res <= tol * (
            op_norm * math.sqrt(vol * float(np.vdot(x, x))) + bnorm)

    x = np.array(x0.values if x0 is not None else np.zeros(grid.shape), dtype=float)
    ax = apply_op(x)
    if ax.shape != b.shape:
        raise GridMismatchError(f"operator output has shape {ax.shape}, rhs has {b.shape}")
    r = b - ax
    rs = float(np.vdot(r, r))
    p, rz = preconditioned(r, rs)  # no copy: nothing is updated in place
    iterations = 0
    while True:
        if accepted(rs, x):
            true_r = b - apply_op(x)
            ts = float(np.vdot(true_r, true_r))
            if accepted(ts, x):
                return Field._wrap(grid, x)
            r = true_r  # recurrence drifted; restart from the true residual
            rs = ts
            p, rz = preconditioned(r, rs)
        if iterations >= max_iter:
            res = math.sqrt(vol * rs)
            raise CgNonConvergenceError(
                f"cg_solve: no convergence after {iterations} iterations "
                f"(residual {res:.3e}, target {target:.3e})",
                residual=res, iterations=iterations)
        ap = apply_op(p)
        pap = float(np.vdot(p, ap))
        if not pap > 0.0:  # also catches a NaN from a non-finite operator output
            raise CgNonConvergenceError(
                f"cg_solve: operator is not positive definite along the search "
                f"direction (p.Ap = {pap:.3e})",
                residual=math.sqrt(vol * rs), iterations=iterations)
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        rs = float(np.vdot(r, r))
        z, rz_new = preconditioned(r, rs)
        p = z + (rz_new / rz) * p
        rz = rz_new
        iterations += 1


def field_phase_solve(params: ModelParams, rhs: Field) -> Field:
    """The phase solve of the steps: started at ``M(rhs)``, preconditioned by
    ``M``, the exact inverse ``phase_preconditioner``, and accepted by its
    backward error against the largest eigenvalue of the phase operator."""
    grid = rhs.grid
    num = params.numerics
    precond = phase_preconditioner(params, grid)
    op_norm = float(phase_symbol(_spectral_basis(grid)[1].max(), params.tau,
                                 params.stabilization))
    return field_cg_solve(phase_operator(params, grid), rhs, tol=num.cg_tol,
                          max_iter=num.cg_max_iter, x0=Field._wrap(grid, precond(rhs.values)),
                          precond=precond, op_norm=op_norm)


def field_step(params: ModelParams, phi: Field, sigma: Field, u: Field,
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
    phi_next = field_phase_solve(params, Field._wrap(grid, rhs_a))

    rhs_b = sv + tau * (uv - react)
    sigma_next = field_cg_solve(diffusion_operator(params, grid), Field._wrap(grid, rhs_b),
                                tol=num.cg_tol, max_iter=num.cg_max_iter, x0=sigma)

    worst = float(max(np.max(np.abs(phi_next.values)), np.max(np.abs(sigma_next.values))))
    if worst > num.overflow_guard:
        where = "unknown step" if step_index is None else f"step {step_index}"
        raise DivergenceError(
            f"solution magnitude {worst:.3e} exceeded the overflow guard "
            f"{num.overflow_guard:.3e} at {where}", step_index=step_index)
    return phi_next, sigma_next


def field_level_coefficients(params: ModelParams, phi_b: Field, sigma_b: Field):
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


def field_linearized_step(params: ModelParams, coefficients, xi: Field, rho: Field,
                          h: Field) -> tuple[Field, Field]:
    """Apply the exact Jacobian of one forward step to (xi, rho, h);
    ``coefficients`` are those of the base level."""
    grid = xi.grid
    tau = params.tau
    s_const = params.stabilization
    num = params.numerics
    curvature, rate, rate_slope = coefficients

    xv, rv = xi.values, rho.values
    eta = -laplacian_values(grid, xv) + curvature * xv
    d_react = rate_slope * xv + rate * (rv - eta)

    rhs_a = xv + tau * laplacian_values(grid, (curvature - s_const) * xv) + tau * d_react
    xi_next = field_phase_solve(params, Field._wrap(grid, rhs_a))

    rhs_b = rv + tau * (h.values - d_react)
    rho_next = field_cg_solve(diffusion_operator(params, grid), Field._wrap(grid, rhs_b),
                              tol=num.cg_tol, max_iter=num.cg_max_iter, x0=rho)
    return xi_next, rho_next


def field_adjoint_step(params: ModelParams, coefficients, p_next: Field, r_next: Field,
                       source: Field | None = None) -> tuple[Field, Field, Field]:
    """Apply the transpose of one step's Jacobian to the incoming co-state;
    ``coefficients`` are those of the base level.

    ``source`` (the tracking misfit at the arrival level, already scaled by
    tau) is added to the incoming ``p`` channel before transposing, which
    places it at the right endpoint of the step.  Returns ``(p_n, r_n,
    lift_n)`` where ``lift_n`` is the diffusion-solve of ``r_next`` that
    also multiplies the control in the gradient.
    """
    grid = p_next.grid
    tau = params.tau
    s_const = params.stabilization
    num = params.numerics
    curvature, rate, rate_slope = coefficients

    p_hat = p_next if source is None else Field._wrap(grid, p_next.values + source.values)
    p1 = field_phase_solve(params, p_hat)
    r1 = field_cg_solve(diffusion_operator(params, grid), r_next,
                        tol=num.cg_tol, max_iter=num.cg_max_iter, x0=r_next)

    diff = p1.values - r1.values
    rate_diff = rate * diff
    p_n = p1.values + tau * (curvature - s_const) * laplacian_values(grid, p1.values) \
        + tau * (rate_slope * diff + laplacian_values(grid, rate_diff) - curvature * rate_diff)
    r_n = r1.values + tau * rate_diff
    return Field._wrap(grid, p_n), Field._wrap(grid, r_n), r1


def snapshot_text_by_column(field, t):
    """Reference snapshot text: the per-column, per-value formatter that
    ``write_snapshot`` replaced with one ``tolist`` per field."""
    grid = field.grid
    nx, ny = grid.counts
    hx, hy = grid.spacing
    arr = field.values.reshape((nx, ny))
    lines = [f"# t={float(t)!r} dim={grid.dim} nx={nx} ny={ny} hx={hx!r} hy={hy!r}"]
    for j in range(ny):
        lines.append(",".join(repr(float(v)) for v in arr[:, j]))
    return "\n".join(lines) + "\n"


PAIRWISE_BLOCK = 128  # numpy's PW_BLOCKSIZE


def _pairwise(x, lo, n):
    """numpy's ``pairwise_sum`` of ``x[lo:lo + n]``."""
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += x[i]
        return res
    if n <= PAIRWISE_BLOCK:
        acc = x[lo:lo + 8]  # eight accumulators, one per residue mod 8
        stop = lo + n - n % 8
        for i in range(lo + 8, stop, 8):
            for j in range(8):
                acc[j] += x[i + j]
        res = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for i in range(stop, lo + n):
            res += x[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(x, lo, half) + _pairwise(x, lo + half, n - half)


def pairwise_sum(values):
    """Reference for ``np.add.reduce`` on a contiguous float64 array: the
    reduction's identity 0.0 plus numpy's pairwise sum of the values in C
    order, written out in Python floats."""
    x = np.ravel(np.asarray(values, dtype=float)).tolist()
    return 0.0 + _pairwise(x, 0, len(x))


def pairwise_depth(n):
    """Most additions any term of an ``n``-term pairwise sum passes through:
    15 in its accumulator, 3 combining the 8 accumulators, 7 in the tail of a
    block, and one per halving above ``PAIRWISE_BLOCK`` terms."""
    depth = 15 + 3 + 7
    while n > PAIRWISE_BLOCK:
        half = n // 2
        n -= half - half % 8  # the larger part
        depth += 1
    return depth


def smooth_field(grid, seed, amplitude=1.0):
    return preset_field("filtered_noise", grid, seed=seed, amplitude=amplitude)


def smooth_schedule(grid, n_steps, seed, amplitude=1.0):
    values = [smooth_field(grid, seed * 1009 + n, amplitude).values for n in range(n_steps)]
    return ControlSchedule(grid, values)


def kkt_report_by_level(params, u, adjoint, tol):
    """Reference KKT audit: the per-level loop that ``kkt_report`` replaced
    with whole-array code, returning the same record."""
    from chcontrol import KktReport, l2q_norm, project, reduced_gradient

    grad = reduced_gradient(params, u, adjoint)
    lo, hi = (b.values if isinstance(b, Field) else b for b in (params.u_min, params.u_max))
    n_interior = n_lower = n_upper = violations = 0
    worst = 0.0
    projection_gap = None
    note = ""
    if params.beta_u > 0.0:
        projection_gap = 0.0
    else:
        note = "clamp-formula check skipped: control weight beta_u is zero"
    for n in range(len(u)):
        uv = u[n].values
        gv = grad[n].values
        at_lower = uv <= lo
        at_upper = uv >= hi
        interior = ~(at_lower | at_upper)
        n_interior += int(np.count_nonzero(interior))
        n_lower += int(np.count_nonzero(at_lower))
        n_upper += int(np.count_nonzero(at_upper))
        bad_interior = np.abs(gv) * interior
        bad_lower = np.maximum(-gv, 0.0) * at_lower
        bad_upper = np.maximum(gv, 0.0) * at_upper
        level_bad = np.maximum(bad_interior, np.maximum(bad_lower, bad_upper))
        violations += int(np.count_nonzero(level_bad > tol))
        worst = max(worst, float(level_bad.max()))
        if projection_gap is not None:
            clamp = np.clip(-adjoint.r_lift[n] / params.beta_u, lo, hi)
            projection_gap = max(projection_gap, float(np.max(np.abs(uv - clamp))))
    stationarity = l2q_norm(params.tau, u - project(params, u - grad))
    return KktReport(n_interior=n_interior, n_lower=n_lower, n_upper=n_upper,
                     violations=violations, worst_violation=worst,
                     stationarity=stationarity, projection_gap=projection_gap,
                     note=note)


def tracking_cost_by_level(params, traj, u):
    """Reference tracking cost: the per-level loop of ``inner_product``s over
    wrapped Fields that ``optimize._tracking_cost`` replaced with whole-array
    code, kept verbatim."""
    from chcontrol import inner_product

    tau = params.tau
    grid = traj.grid
    n_steps = len(u)
    terms = []
    if params.beta_q > 0.0:
        for n in range(1, n_steps + 1):
            target = params.phi_q.values if isinstance(params.phi_q, Field) else params.phi_q[n - 1]
            misfit = Field._wrap(grid, traj.phi[n] - target)
            terms.append(tau * 0.5 * params.beta_q * inner_product(misfit, misfit))
    if params.beta_omega > 0.0:
        if params.phi_omega is None:
            raise ValueError("phi_omega is required when beta_omega > 0")
        final = Field._wrap(grid, traj.phi[n_steps] - params.phi_omega.values)
        terms.append(0.5 * params.beta_omega * inner_product(final, final))
    if params.beta_u > 0.0:
        terms.extend(tau * 0.5 * params.beta_u * ip for ip in u.level_inner_products(u))
    return math.fsum(terms)


def probe_rows_by_level(params, u1, u2, eps_values):
    """Reference ``lipschitz_probe`` rows: the per-level norms of wrapped
    difference Fields that ``forward._traj_diff_norms`` replaced with
    reductions of level arrays, kept verbatim around the same simulations."""
    from chcontrol import grad_sq_integral, inner_product, l2q_norm, norm_h, simulate
    from chcontrol.forward import ProbeRow

    base = simulate(params, u1)
    h = u2 - u1
    tau = params.tau
    grid = base.grid
    rows = []
    for eps in eps_values:
        u_eps = u1 + h.scaled(float(eps))
        other = simulate(params, u_eps)
        linf_phi = l2v_phi = linf_sig = l2v_sig = 0.0
        for n in range(base.n_steps + 1):
            dphi = Field._wrap(grid, base.phi[n] - other.phi[n])
            dsig = Field._wrap(grid, base.sigma[n] - other.sigma[n])
            linf_phi = max(linf_phi, norm_h(dphi))
            linf_sig = max(linf_sig, norm_h(dsig))
            if n >= 1:
                l2v_phi += tau * (inner_product(dphi, dphi) + grad_sq_integral(dphi))
                l2v_sig += tau * (inner_product(dsig, dsig) + grad_sq_integral(dsig))
        rows.append(ProbeRow(eps=float(eps), du_l2q=l2q_norm(tau, u_eps - u1),
                             phi_linf_h=linf_phi, phi_l2v=math.sqrt(l2v_phi),
                             sigma_linf_h=linf_sig, sigma_l2v=math.sqrt(l2v_sig)))
    return rows


def frechet_rows_by_level(params, u, h, eps_values):
    """Reference ``frechet_remainder_sweep`` rows: the ``norm_h`` of one
    wrapped defect Field per level, kept verbatim around the same solves."""
    from chcontrol import norm_h, simulate, solve_linearized

    base = simulate(params, u)
    lin = solve_linearized(base, h)
    rows = []
    for eps in eps_values:
        eps = float(eps)
        traj = simulate(params, u + h.scaled(eps))
        rem = 0.0
        for n in range(base.n_steps + 1):
            defect = Field._wrap(base.grid, traj.phi[n] - base.phi[n] - eps * lin.xi[n])
            rem = max(rem, norm_h(defect))
        rows.append((eps, rem))
    return rows


def ode_reference(params, a0, b0, c, t_final):
    """Adaptive two-variable reference for spatially constant runs."""

    def rhs(_t, y):
        exchange = p_deriv(params.proliferation, 0, y[0]) \
            * (y[1] - f_deriv(params.potential, 1, y[0]))
        return [exchange, -exchange + c]

    sol = solve_ivp(rhs, (0.0, t_final), [a0, b0], rtol=1e-11, atol=1e-13)
    return sol.y[:, -1]


def successive_orders(errors):
    return [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]
