"""Shared oracles for the test suite: dense operator assembly, hand stencils,
stencil-only step operators and their dense-path matrices, the plain CG
loop, the per-column snapshot formatter, a per-level KKT audit, an adaptive
ODE reference for spatially constant runs, and instance builders tied to
the shipped configuration files."""

import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from chcontrol import CgNonConvergenceError, ControlSchedule, Field, f_deriv, p_deriv, preset_field
from chcontrol.config import build_grid, build_initial_control, build_params, parse_config
from chcontrol.grid import laplacian_values

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
    """Reference zero-flux laplacian summed over the grid's active axes."""
    out = padded_flux_second_difference(vals, 0, grid.spacing[0])
    if grid.dim == 2:
        out = out + padded_flux_second_difference(vals, 1, grid.spacing[1])
    return out


def reference_dense_increments(params, grid):
    """The dense-path matrices of the phase and diffusion increments, keyed as
    ``implicit_operator`` keys them, assembled with ``padded_flux_laplacian``."""
    tau, s_const = params.tau, params.stabilization
    n = grid.n_cells
    eye = np.eye(n).reshape(grid.shape + (n,))
    lap = padded_flux_laplacian(grid, eye)
    increments = {("phase", tau, s_const): tau * (padded_flux_laplacian(grid, lap) - s_const * lap),
                  ("diffusion", tau): -tau * lap}
    mats = {}
    for key, inc in increments.items():
        mat = inc.reshape(n, n)
        mats[key] = 0.5 * (mat + mat.T)
    return mats


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


def reference_cg(apply_op, rhs, tol=1e-12, max_iter=20000, x0=None):
    """Reference solve: the plain CG loop of ``cg_solve`` before it took a
    preconditioner, kept verbatim (argument checks aside)."""
    grid = rhs.grid
    vol = grid.cell_volume
    b = rhs.values

    bnorm = math.sqrt(vol * float(np.vdot(b, b)))
    if bnorm == 0.0:
        return Field.zeros(grid)
    target = tol * bnorm

    x = np.array(x0.values if x0 is not None else np.zeros(grid.shape), dtype=float)
    ax = apply_op(x)
    r = p = b - ax
    rs = float(np.vdot(r, r))
    iterations = 0
    while True:
        if math.sqrt(vol * rs) <= target:
            true_r = b - apply_op(x)
            ts = float(np.vdot(true_r, true_r))
            if math.sqrt(vol * ts) <= target:
                return Field._wrap(grid, x)
            r = p = true_r
            rs = ts
        if iterations >= max_iter:
            res = math.sqrt(vol * rs)
            raise CgNonConvergenceError("reference_cg: budget exhausted",
                                        residual=res, iterations=iterations)
        ap = apply_op(p)
        pap = float(np.vdot(p, ap))
        if not pap > 0.0:
            raise CgNonConvergenceError("reference_cg: p.Ap not positive",
                                        residual=math.sqrt(vol * rs), iterations=iterations)
        alpha = rs / pap
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(np.vdot(r, r))
        p = r + (rs_new / rs) * p
        rs = rs_new
        iterations += 1


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


def smooth_field(grid, seed, amplitude=1.0):
    return preset_field("filtered_noise", grid, seed=seed, amplitude=amplitude)


def smooth_schedule(grid, n_steps, seed, amplitude=1.0, u_min=None, u_max=None):
    values = [smooth_field(grid, seed * 1009 + n, amplitude).values for n in range(n_steps)]
    return ControlSchedule(grid, values, u_min=u_min, u_max=u_max)


def kkt_report_by_level(params, u, adjoint, tol):
    """Reference KKT audit: the per-level loop that ``kkt_report`` replaced
    with whole-array code, returning the same record."""
    from chcontrol import KktReport, l2q_norm, project, reduced_gradient

    grad = reduced_gradient(params, u, adjoint)
    lo, hi = u.bound_arrays()
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
    stationarity = l2q_norm(params.tau, u - project(u - grad))
    return KktReport(n_interior=n_interior, n_lower=n_lower, n_upper=n_upper,
                     violations=violations, worst_violation=worst,
                     stationarity=stationarity, projection_gap=projection_gap,
                     note=note)


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
