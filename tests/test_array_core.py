"""The array-native stepping core against the Field-level steps it replaced.

``step``, ``linearized_step`` and ``adjoint_step`` take and return arrays, and
the trajectories are level arrays; ``helpers`` keeps the Field-level steps
verbatim.  On 1D and 2D grids with unequal sides, on both sides of
``DENSE_MAX_CELLS``, every result and every trajectory row must be byte-equal
to theirs, and a solve that fails must fail the same way.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from chcontrol import (ControlSchedule, DivergenceError, Field, Grid, GridMismatchError,
                       ModelParams, Numerics, OptimOptions, QuadraticProliferation,
                       SigmoidProliferation, StepPlan, energy, forward, integrate,
                       projected_gradient, sensitivity, simulate, solve_adjoint,
                       solve_linearized, step)
from chcontrol.cli import main
from chcontrol.grid import DENSE_MAX_CELLS, CgNonConvergenceError
from chcontrol.sensitivity import adjoint_step, level_coefficients, linearized_step
from helpers import (CONFIG_DIR, field_adjoint_step, field_level_coefficients,
                     field_linearized_step, field_step, grids, load_instance, smooth_field,
                     smooth_schedule)

# The dense operator path (at most DENSE_MAX_CELLS cells) and the stencil path.
any_path_grids = st.one_of(grids(4, DENSE_MAX_CELLS),
                           grids(DENSE_MAX_CELLS + 1, 2 * DENSE_MAX_CELLS))
taus = st.floats(1e-4, 1e-2)
seeds = st.integers(0, 10 ** 6)
DENSE_BOX = Grid.box(4, DENSE_MAX_CELLS // 4, 0.5, 10.0)
STENCIL_BOX = Grid.box(20, 13, 2.0, 7.0)


def tracking_params(g, tau, seed, n_steps=1):
    # A small iteration budget keeps a failing solve (fine grids) cheap.
    target = smooth_field(g, seed + 9, 0.3)
    return ModelParams(beta_q=1.0, beta_omega=0.5, beta_u=0.1, t_final=n_steps * tau, tau=tau,
                       phi_q=target, phi_omega=target, numerics=Numerics(cg_max_iter=400))


def outcome(fn):
    """The bytes of every array ``fn()`` returns, or the record of its failure."""
    try:
        out = fn()
    except CgNonConvergenceError as exc:
        return "solver", str(exc), exc.residual, exc.iterations
    return tuple((a.values if isinstance(a, Field) else a).tobytes() for a in out)


@given(any_path_grids, taus, seeds)
@example(Grid.line(DENSE_MAX_CELLS, 10.0), 1e-2, 0)
@example(DENSE_BOX, 1e-3, 1)
@example(STENCIL_BOX, 1e-3, 2)
def test_steps_match_field_steps(g, tau, seed):
    params = tracking_params(g, tau, seed)
    phi, sigma, u, xi, rho, h, p, r, src = (
        smooth_field(g, seed + k, amplitude) for k, amplitude in
        enumerate((0.8, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 0.1)))
    coefficients = level_coefficients(params, g, phi.values, sigma.values)
    field_coefficients = field_level_coefficients(params, phi, sigma)
    plan = StepPlan(params, g)
    assert outcome(lambda: coefficients) == outcome(lambda: field_coefficients)

    assert outcome(lambda: step(plan, phi.values, sigma.values, u.values, step_index=4)) \
        == outcome(lambda: field_step(params, phi, sigma, u, step_index=4))
    assert outcome(lambda: linearized_step(plan, coefficients, xi.values, rho.values,
                                           h.values)) \
        == outcome(lambda: field_linearized_step(params, field_coefficients, xi, rho, h))
    for source in (None, src):
        values = None if source is None else source.values
        assert outcome(lambda: adjoint_step(plan, coefficients, p.values, r.values,
                                            values)) \
            == outcome(lambda: field_adjoint_step(params, field_coefficients, p, r, source))


prolifs = st.sampled_from([QuadraticProliferation(p0=2.0),
                           SigmoidProliferation(p0=1.5, steepness=3.0, floor=0.1)])


@given(any_path_grids, st.integers(1, 4), prolifs, seeds)
@example(Grid.line(DENSE_MAX_CELLS, 10.0), 3, QuadraticProliferation(), 0)
@example(DENSE_BOX, 2, SigmoidProliferation(), 1)
@example(STENCIL_BOX, 4, QuadraticProliferation(), 2)
def test_stacked_coefficients_match_per_level_calls(g, levels, proliferation, seed):
    params = ModelParams(proliferation=proliferation, beta_u=1.0)
    phi = np.array([smooth_field(g, seed + k, 0.8).values for k in range(levels)])
    sigma = np.array([smooth_field(g, seed + 10 + k, 0.5).values for k in range(levels)])
    stacked_coefficients = level_coefficients(params, g, phi, sigma)
    for coefficient in stacked_coefficients:
        assert coefficient.shape == (levels,) + g.shape
    for n in range(levels):
        single = level_coefficients(params, g, phi[n], sigma[n])
        reference = field_level_coefficients(params, Field(g, phi[n]), Field(g, sigma[n]))
        for a, b, c in zip(stacked_coefficients, single, reference):
            assert a[n].tobytes() == b.tobytes() == c.tobytes()


def test_coefficients_reject_wrong_shapes():
    g, params = STENCIL_BOX, ModelParams(beta_u=1.0)
    ok = np.zeros((3,) + g.shape)
    for phi, sigma in ((np.zeros(g.n_cells), np.zeros(g.n_cells)),
                       (np.zeros((2, 3) + g.shape), np.zeros((2, 3) + g.shape)),
                       (ok, ok[:2]), (ok[:, :-1], ok[:, :-1])):
        with pytest.raises(GridMismatchError):
            level_coefficients(params, g, phi, sigma)


def stacked(fields):
    return np.array([f.values for f in fields]).tobytes()


def field_trajectories(params, phi0, sigma0, u, h):
    """Levels of the state, the linearization along ``h`` and the default
    adjoint, stepped with the Field-level references as the sweeps did."""
    n_steps = len(u)
    phis, sigmas = [phi0], [sigma0]
    for n in range(n_steps):
        phi, sigma = field_step(params, phis[n], sigmas[n], u[n], step_index=n)
        phis.append(phi)
        sigmas.append(sigma)

    coefficients = [field_level_coefficients(params, phis[n], sigmas[n])
                    for n in range(n_steps)]
    xis, rhos = [Field.zeros(phi0.grid)], [Field.zeros(phi0.grid)]
    for n in range(n_steps):
        xi, rho = field_linearized_step(params, coefficients[n], xis[n], rhos[n], h[n])
        xis.append(xi)
        rhos.append(rho)

    # Default terminal co-state and tracking sources.
    grid = phi0.grid
    ps = [None] * n_steps + [Field(grid, params.beta_omega * (phis[-1].values
                                                              - params.phi_omega.values))]
    rs = [None] * n_steps + [Field.zeros(grid)]
    lifts = [None] * n_steps
    for n in range(n_steps - 1, -1, -1):
        source = Field(grid, params.tau * params.beta_q * (phis[n + 1].values
                                                           - params.phi_q.values))
        ps[n], rs[n], lifts[n] = field_adjoint_step(params, coefficients[n], ps[n + 1],
                                                    rs[n + 1], source=source)
    return phis, sigmas, xis, rhos, ps, rs, lifts


@given(any_path_grids, taus, seeds)
@example(Grid.line(32, 8.0), 5e-3, 0)
@example(DENSE_BOX, 1e-3, 1)
@example(STENCIL_BOX, 1e-3, 2)
def test_trajectory_rows_match_field_steps(g, tau, seed):
    params = tracking_params(g, tau, seed, n_steps=3)
    phi0, sigma0 = smooth_field(g, seed, 0.8), smooth_field(g, seed + 1, 0.5)
    u = smooth_schedule(g, params.n_steps, seed + 2, 0.5)
    h = smooth_schedule(g, params.n_steps, seed + 3, 1.0)
    try:
        phis, sigmas, xis, rhos, ps, rs, lifts = field_trajectories(params, phi0, sigma0, u, h)
    except CgNonConvergenceError:
        assume(False)  # failures are compared step by step above

    traj = simulate(params, u, phi0=phi0, sigma0=sigma0)
    assert traj.phi.tobytes() == stacked(phis)
    assert traj.sigma.tobytes() == stacked(sigmas)
    assert not traj.phi.flags.writeable and not traj.sigma.flags.writeable

    # The diagnostics, in the order simulate used to compute them.
    energies = [energy(params, a, b) for a, b in zip(phis, sigmas)]
    mass = [integrate(a) + integrate(b) for a, b in zip(phis, sigmas)]
    residuals = [mass[n + 1] - mass[n] - params.tau * integrate(u[n])
                 for n in range(params.n_steps)]
    assert traj.masses.tobytes() == np.asarray(mass).tobytes()
    assert traj.energies.tobytes() == np.asarray(energies).tobytes()
    assert traj.mass_residuals.tobytes() == np.asarray(residuals).tobytes()

    lin = solve_linearized(params, traj, h)
    assert lin.xi.tobytes() == stacked(xis)
    assert lin.rho.tobytes() == stacked(rhos)

    adj = solve_adjoint(params, traj)
    assert adj.p.tobytes() == stacked(ps)
    assert adj.r.tobytes() == stacked(rs)
    assert adj.r_lift.tobytes() == stacked(lifts)


def poison_solve(monkeypatch, module, bad_call, value, name="cg_solve"):
    """Make the ``bad_call``-th call (counted from 0) of the solve ``module.name``
    return ``value`` in every cell."""
    real = getattr(module, name)
    calls = []

    def solve(*args, **kwargs):
        x = real(*args, **kwargs)
        calls.append(None)
        return np.full_like(x, value) if len(calls) == bad_call + 1 else x

    monkeypatch.setattr(module, name, solve)


def small_run():
    g = Grid.line(16, 4.0)
    params = ModelParams(beta_q=1.0, beta_u=1.0, t_final=0.02, tau=5e-3,
                         phi_q=smooth_field(g, 9, 0.3))
    u = smooth_schedule(g, params.n_steps, 3, 0.5)
    return g, params, u, smooth_field(g, 1, 0.8), smooth_field(g, 2, 0.5)


class TestNonFiniteOutputs:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_forward_step_names_its_index(self, monkeypatch, value):
        g, params, u, phi0, sigma0 = small_run()
        poison_solve(monkeypatch, forward, 5, value)  # the diffusion solve of step 2
        with pytest.raises(DivergenceError) as err:
            simulate(params, u, phi0=phi0, sigma0=sigma0)
        assert err.value.step_index == 2
        assert "non-finite solution at step 2" in str(err.value)

    def test_sensitivity_steps_name_their_index(self, monkeypatch):
        g, params, u, phi0, sigma0 = small_run()
        base = simulate(params, u, phi0=phi0, sigma0=sigma0)
        # Both steps make their solves through forward's ``_diffusion_solve``
        # (the nutrient solve) and ``_phase_solve``, one of each per step.
        poison_solve(monkeypatch, sensitivity, 1, np.nan, "_diffusion_solve")  # step 1's
        with pytest.raises(DivergenceError) as err:
            solve_linearized(params, base, u)
        assert err.value.step_index == 1
        assert "non-finite solution at linearized step 1" in str(err.value)
        poison_solve(monkeypatch, sensitivity, 1, np.nan, "_phase_solve")  # step 1's
        with pytest.raises(DivergenceError) as err:
            solve_linearized(params, base, u)
        assert "non-finite solution at linearized step 1" in str(err.value)
        # The adjoint sweep runs backward: its second solve belongs to step n_steps - 2.
        poison_solve(monkeypatch, sensitivity, 1, np.nan, "_diffusion_solve")
        with pytest.raises(DivergenceError) as err:
            solve_adjoint(params, base)
        assert err.value.step_index == base.n_steps - 2
        assert f"adjoint step {base.n_steps - 2}" in str(err.value)

    def test_cli_exits_3_naming_the_step(self, monkeypatch, capsys, tmp_path):
        poison_solve(monkeypatch, forward, 3, np.nan)
        code = main(["simulate", str(CONFIG_DIR / "equilibrium.cfg"), f"io.outdir={tmp_path}"])
        assert code == 3
        assert "error=divergence step=1" in capsys.readouterr().err


class TestDiagnosticsOnDemand:
    def test_optimizer_computes_no_diagnostics(self, monkeypatch):
        # The diagnostics reduce level arrays through these two helpers.
        counts = {"_level_energy": 0, "_volume_sum": 0}

        def counting(name):
            real = getattr(forward, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(forward, name, wrapper)

        counting("_level_energy")
        counting("_volume_sum")
        _, _, params, u0 = load_instance("tracking.cfg", ["time.t_final=0.01"])
        result = projected_gradient(params, u0, OptimOptions(max_iters=2))
        assert counts == {"_level_energy": 0, "_volume_sum": 0}

        traj = result.adjoint.base
        energies = traj.energies
        assert counts["_level_energy"] == traj.n_steps + 1
        assert traj.energies is energies
        assert counts["_level_energy"] == traj.n_steps + 1

    def test_constant_schedule_rows_are_read_directly(self):
        g, params, _, phi0, sigma0 = small_run()
        u = ControlSchedule.constant(g, params.n_steps, 0.3)
        traj = simulate(params, u, phi0=phi0, sigma0=sigma0)
        assert traj.phi.shape == traj.sigma.shape == (params.n_steps + 1,) + g.shape
        assert traj.u is u
        assert np.max(np.abs(traj.mass_residuals)) <= 1e-12
