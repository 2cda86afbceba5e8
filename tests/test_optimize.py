import dataclasses

import numpy as np
import pytest

from chcontrol import (ControlSchedule, Field, Grid, GridMismatchError, ModelParams,
                       OptimOptions, cost_taylor_sweep, directional_derivative_check,
                       kkt_report, l2q_norm, optimize, project, projected_gradient,
                       reduced_cost, reduced_gradient, simulate, solve_adjoint)
from chcontrol.optimize import _tracking_cost
from helpers import (kkt_report_by_level, load_instance, smooth_field, smooth_schedule,
                     tracking_cost_by_level)

# Reached cost of the shipped soft-penalty tracking run, pinned by the first
# green build as a regression value.
TRACKING_SOFT_COST = 0.361500258711718


def control_only_params(grid, **kw):
    defaults = dict(beta_q=0.0, beta_omega=0.0, beta_u=1.0, t_final=0.05, tau=5e-3,
                    phi0=Field.full(grid, 0.2), sigma0=Field.zeros(grid))
    defaults.update(kw)
    return ModelParams(**defaults)


class TestReducedCost:
    def test_stationary_matched_target_costs_nothing(self):
        g = Grid.line(16, 4.0)
        one = Field.full(g, 1.0)
        params = ModelParams(beta_q=1.0, beta_omega=1.0, beta_u=1.0,
                             t_final=0.05, tau=5e-3, phi_q=one, phi_omega=one,
                             phi0=one, sigma0=Field.zeros(g))
        u = ControlSchedule.constant(g, params.n_steps, 0.0)
        assert reduced_cost(params, u) <= 1e-20

    def test_control_term_quadrature(self):
        g = Grid.line(16, 4.0)
        params = control_only_params(g, beta_u=2.0, t_final=0.1, tau=1e-3)
        c = 0.7
        u = ControlSchedule.constant(g, params.n_steps, c)
        volume = 4.0
        expected = 0.5 * 2.0 * c * c * 0.1 * volume
        assert reduced_cost(params, u) == pytest.approx(expected, rel=1e-12)

    def test_matches_ode_oracle_quadrature_at_first_order(self):
        g = Grid.line(8, 4.0)
        a0, b0, c = 0.2, 0.1, 0.3
        gaps = []
        for tau in (2e-3, 1e-3):
            params = ModelParams(beta_q=1.0, beta_omega=0.0, beta_u=0.0,
                                 t_final=0.1, tau=tau,
                                 phi_q=Field.zeros(g),
                                 phi0=Field.full(g, a0), sigma0=Field.full(g, b0))
            u = ControlSchedule.constant(g, params.n_steps, c)
            cost = reduced_cost(params, u)
            # same quadrature applied to the adaptive reference trajectory
            from scipy.integrate import solve_ivp
            from chcontrol import f_deriv, p_deriv

            def rhs(_t, y):
                ex = p_deriv(params.proliferation, 0, y[0]) \
                    * (y[1] - f_deriv(params.potential, 1, y[0]))
                return [ex, -ex + c]

            sol = solve_ivp(rhs, (0.0, 0.1), [a0, b0], rtol=1e-11, atol=1e-13,
                            dense_output=True)
            levels = np.arange(1, params.n_steps + 1) * tau
            ref_cost = float(np.sum(tau * 0.5 * sol.sol(levels)[0] ** 2) * 4.0)
            gaps.append(abs(cost - ref_cost))
        assert gaps[0] <= 0.05
        assert gaps[0] / gaps[1] >= 1.5  # roughly first order in tau

    def test_admissibility_not_required(self):
        g = Grid.line(16, 4.0)
        params = control_only_params(g)
        u = ControlSchedule.constant(g, params.n_steps, 5.0)
        assert not np.array_equal(project(params, u).values, u.values)
        assert reduced_cost(params, u) > 0.0


class TestReducedCostMatchesLevelLoop:
    """The whole-array tracking cost equals the per-level loop bit for bit,
    for constant and per-level targets, with and without the terminal term."""

    @pytest.mark.parametrize("g", [Grid.line(16, 4.0), Grid.box(5, 7, 1.0, 1.5)])
    @pytest.mark.parametrize("per_level_target", [False, True])
    @pytest.mark.parametrize("beta_omega", [0.0, 0.5])
    def test_equals_reference(self, g, per_level_target, beta_omega):
        n_steps = 4
        targets = [smooth_field(g, 20 + n, 0.5) for n in range(n_steps + 1)]
        level_targets = np.array([target.values for target in targets[1:]])
        params = ModelParams(beta_q=1.0, beta_omega=beta_omega, beta_u=0.3,
                             t_final=n_steps * 5e-3, tau=5e-3,
                             phi_q=level_targets if per_level_target else targets[0],
                             phi_omega=targets[-1], phi0=smooth_field(g, 1, 0.8),
                             sigma0=smooth_field(g, 2, 0.5))
        u = smooth_schedule(g, n_steps, 3, 0.5)
        traj = simulate(params, u)
        cost = _tracking_cost(traj)
        assert cost == tracking_cost_by_level(params, traj, u) and cost > 0.0

    @pytest.mark.parametrize("g", [Grid.line(16, 4.0), Grid.box(5, 7, 1.0, 1.5)])
    def test_constant_target_equals_its_level_sequence(self, g):
        # A constant target broadcasts over the levels, the same target given
        # as a level array is subtracted row by row: cost and gradient agree
        # bit for bit.
        n_steps = 4
        target = smooth_field(g, 20, 0.5)
        u = smooth_schedule(g, n_steps, 3, 0.5)
        results = []
        for phi_q in (target, np.array([target.values] * n_steps)):
            params = ModelParams(beta_q=1.0, beta_omega=0.5, beta_u=0.3,
                                 t_final=n_steps * 5e-3, tau=5e-3, phi_q=phi_q,
                                 phi_omega=target, phi0=smooth_field(g, 1, 0.8),
                                 sigma0=smooth_field(g, 2, 0.5))
            grad = reduced_gradient(params, u, solve_adjoint(simulate(params, u)))
            results.append((reduced_cost(params, u), grad.values.tobytes()))
        assert results[0] == results[1]


class TestProject:
    def test_inside_unchanged(self):
        g = Grid.line(8, 2.0)
        u = ControlSchedule.constant(g, 3, 0.5)
        v = project(control_only_params(g), u)
        for n in range(3):
            assert np.array_equal(v[n].values, u[n].values)

    def test_clamps(self):
        g = Grid.line(8, 2.0)
        u = ControlSchedule.constant(g, 2, 2.0)
        v = project(control_only_params(g, u_min=0.0, u_max=1.0), u)
        assert np.all(v[0].values == 1.0)

    def test_idempotent_bitwise(self):
        g = Grid.line(16, 4.0)
        params = control_only_params(g, u_min=-0.4, u_max=0.7)
        u = smooth_schedule(g, 4, seed=3, amplitude=2.0)
        once = project(params, u)
        twice = project(params, once)
        for n in range(4):
            assert np.array_equal(once[n].values, twice[n].values)

    def test_rejects_bound_on_another_grid(self):
        g = Grid.line(8, 2.0)
        params = control_only_params(g, u_max=Field.full(Grid.line(8, 4.0), 1.0))
        with pytest.raises(GridMismatchError):
            project(params, ControlSchedule.constant(g, 3, 0.0))


class TestProjectedGradientAnalytic:
    def test_reaches_zero_minimizer(self):
        g = Grid.line(16, 4.0)
        params = control_only_params(g)
        u0 = smooth_schedule(g, params.n_steps, seed=1, amplitude=0.8)
        result = projected_gradient(params, u0, OptimOptions(tol=1e-8, max_iters=50))
        assert result.termination_reason == "tolerance_met"
        assert result.iterations <= 50
        assert l2q_norm(params.tau, result.control) <= 1e-8
        assert all(b <= a for a, b in zip(result.cost_history, result.cost_history[1:]))
        assert np.array_equal(project(params, result.control).values, result.control.values)

    def test_reaches_clamped_minimizer(self):
        g = Grid.line(16, 4.0)
        params = control_only_params(g, u_min=0.5, u_max=1.0)
        u0 = ControlSchedule.constant(g, params.n_steps, 0.9)
        result = projected_gradient(params, u0, OptimOptions(tol=1e-8, max_iters=50))
        assert result.termination_reason == "tolerance_met"
        for n in range(len(result.control)):
            assert np.all(result.control[n].values == 0.5)

    def test_honours_the_box_of_params(self):
        # The start leaves the box [0.2, 0.3] on both sides; the minimizer of
        # |u|^2 over it is the lower bound in every cell.
        g = Grid.line(16, 4.0)
        params = control_only_params(g, u_min=0.2, u_max=0.3)
        u0 = ControlSchedule(g, [np.full(g.shape, (-1.0) ** n) for n in range(params.n_steps)])
        result = projected_gradient(params, u0, OptimOptions(tol=1e-8, max_iters=50))
        assert result.termination_reason == "tolerance_met"
        assert np.all(result.control.values == 0.2)

    def test_gradient_history_recorded(self):
        g = Grid.line(16, 4.0)
        params = control_only_params(g)
        u0 = ControlSchedule.constant(g, params.n_steps, 0.9)
        result = projected_gradient(params, u0, OptimOptions(tol=1e-8, max_iters=50))
        assert len(result.gradient_norm_history) >= 1
        assert result.kkt_residual <= 1e-8


class TestFinalAdjoint:
    @pytest.mark.parametrize("reason, opts", [
        ("tolerance_met", OptimOptions(tol=1e-6, max_iters=50)),
        ("max_iters", OptimOptions(tol=1e-8, max_iters=1)),
        ("line_search_failed", OptimOptions(tol=1e-8)),
    ])
    def test_result_carries_adjoint_of_final_control(self, reason, opts, monkeypatch):
        if reason == "line_search_failed":  # a near-1 Armijo constant, a step shrunk to nothing
            monkeypatch.setattr(optimize, "_ARMIJO_C", 0.9999)
            monkeypatch.setattr(optimize, "_ALPHA_SHRINK", 1e-300)
        _, _, params, u0 = load_instance("tracking.cfg", ["time.t_final=0.01"])
        result = projected_gradient(params, u0, opts)
        assert result.termination_reason == reason
        fresh = solve_adjoint(simulate(params, result.control))
        for got, want in ((result.adjoint.p, fresh.p), (result.adjoint.r, fresh.r)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert np.array_equal(result.adjoint.r_lift, fresh.r_lift)


@pytest.fixture(scope="module")
def soft_run():
    _, grid, params, u0 = load_instance("tracking_soft.cfg")
    opts = OptimOptions(tol=1e-6, max_iters=200, alpha0=32.0)
    result = projected_gradient(params, u0, opts)
    return grid, params, result


class TestTrackingRun:
    def test_converges_with_monotone_cost(self, soft_run):
        _, _, result = soft_run
        assert result.termination_reason == "tolerance_met"
        assert result.kkt_residual <= 1e-6
        assert all(b < a for a, b in zip(result.cost_history, result.cost_history[1:]))

    def test_regression_cost(self, soft_run):
        _, _, result = soft_run
        assert result.cost_history[-1] == pytest.approx(TRACKING_SOFT_COST, rel=1e-6)

    def test_kkt_coherent_with_optimizer(self, soft_run):
        _, params, result = soft_run
        traj = simulate(params, result.control)
        adjoint = solve_adjoint(traj)
        report = kkt_report(params, result.control, adjoint, tol=1e-5)
        assert report.violations == 0
        ratio = report.stationarity / result.kkt_residual
        assert 0.5 <= ratio <= 2.0

    def test_perturbing_one_interior_cell_flags_exactly_it(self, soft_run):
        _, params, result = soft_run
        traj = simulate(params, result.control)
        adjoint = solve_adjoint(traj)
        tol = 1e-5
        baseline = kkt_report(params, result.control, adjoint, tol=tol)
        assert baseline.violations == 0
        # poke one strictly interior cell by 10*tol (beta_u absorbs the scale)
        values = result.control.values.copy()
        vals = values[2]
        lo, hi = params.u_min, params.u_max
        interior = np.flatnonzero((vals > lo + 0.1) & (vals < hi - 0.1))
        idx = interior[0]
        vals[idx] += 10 * tol * (1.0 / params.beta_u)
        poked = result.control.with_values(values)
        report = kkt_report(params, poked, adjoint, tol=tol)
        assert report.violations == 1
        assert report.worst_violation >= 5 * tol


class TestKktReportEdgeCases:
    def test_zero_control_weight_skips_clamp_formula(self):
        g = Grid.line(16, 4.0)
        params = ModelParams(beta_q=1.0, beta_omega=0.0, beta_u=0.0,
                             t_final=0.02, tau=2e-3,
                             phi_q=Field.zeros(g),
                             phi0=Field.full(g, 0.2), sigma0=Field.zeros(g))
        u = ControlSchedule.constant(g, params.n_steps, 0.0)
        traj = simulate(params, u)
        adjoint = solve_adjoint(traj)
        report = kkt_report(params, u, adjoint, tol=1e-5)
        assert report.projection_gap is None
        assert "beta_u" in report.note

    def test_zero_problem_has_no_violations(self):
        g = Grid.line(16, 4.0)
        params = control_only_params(g)
        u = ControlSchedule.constant(g, params.n_steps, 0.0)
        traj = simulate(params, u)
        adjoint = solve_adjoint(traj)
        report = kkt_report(params, u, adjoint, tol=1e-12)
        assert report.violations == 0
        assert report.worst_violation == 0.0
        assert report.projection_gap == 0.0


class TestKktReportMatchesLevelLoop:
    """The whole-array audit equals the per-level loop field for field, on
    random schedules with cells on both bounds and in the interior."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("beta_u", [0.0, 0.7])
    def test_equals_reference(self, dim, beta_u):
        g = Grid.line(16, 4.0) if dim == 1 else Grid.box(4, 6, 1.0, 1.5)
        params = ModelParams(beta_q=1.0, beta_omega=0.0, beta_u=beta_u,
                             t_final=0.02, tau=5e-3, phi_q=Field.zeros(g),
                             phi0=smooth_field(g, 1, 0.8), sigma0=Field.zeros(g))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            if dim == 1:
                lo, hi = -1.0, 1.0
                u_min, u_max = lo, hi
            else:
                u_min = Field(g, rng.uniform(-1.0, -0.3, g.shape))
                u_max = Field(g, rng.uniform(0.3, 1.0, g.shape))
                lo, hi = u_min.values, u_max.values
            raw = rng.uniform(-1.6, 1.6, (params.n_steps,) + g.shape)
            u = ControlSchedule(g, np.clip(raw, lo, hi))
            assert np.any(u.values == lo) and np.any(u.values == hi)
            assert np.any((u.values > lo) & (u.values < hi))
            adjoint = solve_adjoint(simulate(params, u))
            boxed = dataclasses.replace(params, u_min=u_min, u_max=u_max)
            for tol in (1e-5, 0.5):
                assert kkt_report(boxed, u, adjoint, tol=tol) \
                    == kkt_report_by_level(boxed, u, adjoint, tol)


class TestTaylorDiagnostics:
    def test_cost_sweep_second_order(self):
        _, grid, params, u0 = load_instance("taylor.cfg")
        h = smooth_schedule(grid, params.n_steps, seed=7, amplitude=2.0)
        rows, slope, pairing = cost_taylor_sweep(params, u0, h)
        assert 1.9 <= slope <= 2.1
        assert pairing != 0.0

    def test_directional_derivative(self):
        _, grid, params, u0 = load_instance("taylor.cfg")
        h = smooth_schedule(grid, params.n_steps, seed=7, amplitude=2.0)
        assert directional_derivative_check(params, u0, h, eps=1e-3) <= 1e-6
