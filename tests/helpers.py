"""Shared oracles for the test suite: dense operator assembly, hand stencils,
an adaptive ODE reference for spatially constant runs, and instance builders
tied to the shipped configuration files."""

from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from chcontrol import ControlSchedule, f_deriv, p_deriv, preset_field
from chcontrol.config import build_grid, build_initial_control, build_params, parse_config

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


def smooth_field(grid, seed, amplitude=1.0):
    return preset_field("filtered_noise", grid, seed=seed, amplitude=amplitude)


def smooth_schedule(grid, n_steps, seed, amplitude=1.0, u_min=None, u_max=None):
    fields = [smooth_field(grid, seed * 1009 + n, amplitude) for n in range(n_steps)]
    return ControlSchedule(grid, fields, u_min=u_min, u_max=u_max)


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
