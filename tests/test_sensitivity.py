import numpy as np
import pytest

from chcontrol import (CgNonConvergenceError, ControlSchedule, Field, Grid, GridMismatchError,
                       ModelParams, Numerics, QuadraticProliferation, StepPlan, dot_product_test,
                       fit_loglog_slope, frechet_remainder_sweep, inner_product, norm_h,
                       preset_field, sensitivity, simulate, solve_adjoint, solve_linearized,
                       step)
from chcontrol.sensitivity import adjoint_step, level_coefficients, linearized_step
from helpers import frechet_rows_by_level, load_instance, smooth_field, smooth_schedule


def tight_params(**kw):
    defaults = dict(beta_u=1.0, t_final=0.04, tau=5e-3,
                    numerics=Numerics(cg_tol=1e-13))
    defaults.update(kw)
    return ModelParams(**defaults)


def coupled_instance(grid):
    """Strong nutrient feedback so second-order signals dominate solver noise."""
    phi0 = preset_field("tanh_ball", grid, center=2.0, radius=1.0, width=0.4)
    sigma0 = Field.full(grid, 0.5)
    target = preset_field("tanh_ball", grid, center=2.0, radius=0.7, width=0.4)
    params = ModelParams(proliferation=QuadraticProliferation(p0=2.0),
                         beta_q=1.0, beta_omega=0.5, beta_u=0.1,
                         t_final=0.2, tau=5e-3, phi_q=target, phi_omega=target,
                         phi0=phi0, sigma0=sigma0, numerics=Numerics(cg_tol=1e-13))
    u = ControlSchedule.constant(grid, params.n_steps, 0.0)
    h = smooth_schedule(grid, params.n_steps, seed=7, amplitude=2.0)
    return params, u, h


class TestLinearizedStep:
    def test_zero_direction_maps_to_zero(self):
        g = Grid.line(16, 4.0)
        params = tight_params()
        phi_b, sigma_b = smooth_field(g, 1, 0.8), smooth_field(g, 2, 0.5)
        zero = np.zeros(g.shape)
        coefficients = level_coefficients(params, g, phi_b.values, sigma_b.values)
        xi1, rho1 = linearized_step(StepPlan(params, g), coefficients, zero, zero, zero)
        assert np.all(xi1 == 0.0) and np.all(rho1 == 0.0)

    def test_doubling_is_exact(self):
        g = Grid.line(16, 4.0)
        params = tight_params()
        phi_b, sigma_b = smooth_field(g, 1, 0.8), smooth_field(g, 2, 0.5)
        xi, rho, h = smooth_field(g, 3, 1.0), smooth_field(g, 4, 1.0), smooth_field(g, 5, 1.0)
        base = (StepPlan(params, g), level_coefficients(params, g, phi_b.values, sigma_b.values))
        a1, b1 = linearized_step(*base, xi.values, rho.values, h.values)
        a2, b2 = linearized_step(*base, 2.0 * xi.values, 2.0 * rho.values, 2.0 * h.values)
        assert np.array_equal(a2, 2.0 * a1)
        assert np.array_equal(b2, 2.0 * b1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_difference_of_step(self, seed):
        g = Grid.line(16, 4.0)
        params = tight_params()
        phi_b = smooth_field(g, seed * 31 + 1, 0.8)
        sigma_b = smooth_field(g, seed * 31 + 2, 0.5)
        xi = smooth_field(g, seed * 31 + 3, 1.0)
        rho = smooth_field(g, seed * 31 + 4, 1.0)
        h = smooth_field(g, seed * 31 + 5, 1.0)
        eps = 1e-5
        pb, sb = phi_b.values, sigma_b.values
        xv, rv, hv = xi.values, rho.values, h.values
        plan = StepPlan(params, g)
        plus = step(plan, pb + eps * xv, sb + eps * rv, eps * hv)
        minus = step(plan, pb + (-eps) * xv, sb + (-eps) * rv, (-eps) * hv)
        lin = linearized_step(plan, level_coefficients(params, g, pb, sb), xv, rv, hv)
        for fd_pair, exact in zip(zip(plus, minus), lin):
            fd = (fd_pair[0] - fd_pair[1]) / (2 * eps)
            rel = np.linalg.norm(fd - exact) / np.linalg.norm(exact)
            assert rel <= 1e-5


class TestSolveLinearized:
    def test_zero_direction(self):
        g = Grid.line(16, 4.0)
        params = tight_params()
        u = smooth_schedule(g, params.n_steps, seed=3, amplitude=0.5)
        base = simulate(params, u, phi0=smooth_field(g, 1, 0.8), sigma0=smooth_field(g, 2, 0.5))
        lin = solve_linearized(params, base, ControlSchedule.constant(g, params.n_steps, 0.0))
        for n in range(lin.n_steps + 1):
            assert np.all(lin.xi[n] == 0.0)
            assert np.all(lin.rho[n] == 0.0)

    def test_linearity_in_direction(self):
        g = Grid.line(16, 4.0)
        params = tight_params()
        u = smooth_schedule(g, params.n_steps, seed=3, amplitude=0.5)
        base = simulate(params, u, phi0=smooth_field(g, 1, 0.8), sigma0=smooth_field(g, 2, 0.5))
        h1 = smooth_schedule(g, params.n_steps, seed=5, amplitude=1.0)
        h2 = smooth_schedule(g, params.n_steps, seed=6, amplitude=1.0)
        alpha = 1.7
        combo = solve_linearized(params, base, h1.scaled(alpha) + h2)
        a = solve_linearized(params, base, h1)
        b = solve_linearized(params, base, h2)
        for n in range(combo.n_steps + 1):
            expected = alpha * a.xi[n] + b.xi[n]
            scale = max(np.max(np.abs(expected)), 1e-30)
            assert np.max(np.abs(combo.xi[n] - expected)) <= 1e-12 * scale

    def test_remainder_is_second_order(self):
        g = Grid.line(16, 4.0)
        params, u, h = coupled_instance(g)
        rows = frechet_remainder_sweep(params, u, h)
        slope = fit_loglog_slope(rows)
        assert 1.9 <= slope <= 2.1

    @pytest.mark.parametrize("g", [Grid.line(16, 4.0), Grid.box(5, 7, 4.0, 1.5)])
    def test_remainder_rows_equal_field_level_reference(self, g):
        params = tight_params(phi0=smooth_field(g, 1, 0.8), sigma0=smooth_field(g, 2, 0.5))
        u = smooth_schedule(g, params.n_steps, seed=3, amplitude=0.5)
        h = smooth_schedule(g, params.n_steps, seed=4, amplitude=1.0)
        eps_values = (1e-1, 1e-2)
        rows = frechet_remainder_sweep(params, u, h, eps_values=eps_values)
        assert rows == frechet_rows_by_level(params, u, h, eps_values)
        assert all(rem > 0.0 for _, rem in rows)

    def test_derived_potential_direction(self):
        from chcontrol import f_deriv, neumann_laplacian

        g = Grid.line(16, 4.0)
        params, u, h = coupled_instance(g)
        base = simulate(params, u)
        lin = solve_linearized(params, base, h)
        n = 3
        xi = Field(g, lin.xi[n])
        expected = -neumann_laplacian(xi).values \
            + f_deriv(params.potential, 2, base.phi[n]) * xi.values
        assert np.allclose(lin.eta(n).values, expected, rtol=0, atol=1e-14)


class TestAdjointStep:
    def test_zero_costate_zero_source(self):
        g = Grid.line(16, 4.0)
        params = tight_params()
        phi_b, sigma_b = smooth_field(g, 1, 0.8), smooth_field(g, 2, 0.5)
        zero = np.zeros(g.shape)
        coefficients = level_coefficients(params, g, phi_b.values, sigma_b.values)
        p, r, lift = adjoint_step(StepPlan(params, g), coefficients, zero, zero)
        assert np.all(p == 0.0) and np.all(r == 0.0)
        assert np.all(lift == 0.0)

    def test_single_step_transpose_identity(self):
        g = Grid.line(16, 4.0)
        params = tight_params()
        phi_b, sigma_b = smooth_field(g, 1, 0.8), smooth_field(g, 2, 0.5)
        xi, rho, h = smooth_field(g, 3, 1.0), smooth_field(g, 4, 1.0), smooth_field(g, 5, 1.0)
        p_in, r_in = smooth_field(g, 6, 1.0), smooth_field(g, 7, 1.0)
        base = (StepPlan(params, g), level_coefficients(params, g, phi_b.values, sigma_b.values))
        xi1, rho1 = (Field(g, a) for a in linearized_step(*base, xi.values, rho.values, h.values))
        p0, r0, lift = (Field(g, a) for a in adjoint_step(*base, p_in.values, r_in.values))
        lhs = inner_product(xi1, p_in) + inner_product(rho1, r_in)
        rhs = inner_product(xi, p0) + inner_product(rho, r0) \
            + params.tau * inner_product(h, lift)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs))

    def test_matches_dense_transpose(self):
        g = Grid.line(8, 4.0)
        params = tight_params()
        phi_b, sigma_b = smooth_field(g, 1, 0.8), smooth_field(g, 2, 0.5)
        coefficients = level_coefficients(params, g, phi_b.values, sigma_b.values)
        plan = StepPlan(params, g)
        n = g.n_cells
        jac = np.zeros((2 * n, 3 * n))
        for j in range(3 * n):
            e = np.zeros(3 * n)
            e[j] = 1.0
            a, b = linearized_step(plan, coefficients, e[:n], e[n:2 * n], e[2 * n:])
            jac[:, j] = np.concatenate([a.ravel(), b.ravel()])
        jac_t = np.zeros((3 * n, 2 * n))
        for j in range(2 * n):
            e = np.zeros(2 * n)
            e[j] = 1.0
            p0, r0, lift = adjoint_step(plan, coefficients, e[:n], e[n:])
            jac_t[:, j] = np.concatenate([p0.ravel(), r0.ravel(), params.tau * lift.ravel()])
        gap = np.max(np.abs(jac.T - jac_t)) / max(1.0, np.max(np.abs(jac)))
        assert gap <= 1e-9


class TestSolveAdjoint:
    def test_zero_weights_give_zero_adjoint(self):
        g = Grid.line(16, 4.0)
        params = tight_params(beta_q=0.0, beta_omega=0.0, beta_u=1.0)
        u = smooth_schedule(g, params.n_steps, seed=3, amplitude=0.5)
        base = simulate(params, u, phi0=smooth_field(g, 1, 0.8), sigma0=smooth_field(g, 2, 0.5))
        adj = solve_adjoint(params, base)
        for n in range(adj.n_steps + 1):
            assert np.all(adj.p[n] == 0.0)
            assert np.all(adj.r[n] == 0.0)

    def test_terminal_conditions(self):
        g = Grid.line(16, 4.0)
        target = smooth_field(g, 9, 0.3)
        params = tight_params(beta_q=0.0, beta_omega=2.0, beta_u=1.0, phi_omega=target)
        u = smooth_schedule(g, params.n_steps, seed=3, amplitude=0.5)
        base = simulate(params, u, phi0=smooth_field(g, 1, 0.8), sigma0=smooth_field(g, 2, 0.5))
        adj = solve_adjoint(params, base)
        n_final = adj.n_steps
        expected = 2.0 * (base.phi[n_final] - target.values)
        assert np.array_equal(adj.p[n_final], expected)
        assert np.all(adj.r[n_final] == 0.0)

    def test_matched_terminal_state_gives_zero_adjoint(self):
        g = Grid.line(16, 4.0)
        params = tight_params(beta_q=0.0, beta_omega=1.0, beta_u=1.0)
        u = ControlSchedule.constant(g, params.n_steps, 0.0)
        base = simulate(params, u, phi0=Field.full(g, 1.0), sigma0=Field.zeros(g))
        params.phi_omega = Field(g, base.phi[base.n_steps])
        adj = solve_adjoint(params, base)
        for n in range(adj.n_steps + 1):
            assert np.max(np.abs(adj.p[n])) <= 1e-12
            assert np.max(np.abs(adj.r[n])) <= 1e-12

    def test_handed_in_data_need_no_targets(self):
        # Only the default data that are used are formed: each missing target
        # is an error only when its default is needed.
        g = Grid.line(16, 4.0)
        params = tight_params(beta_q=1.0, beta_omega=1.0, beta_u=1.0)
        u = smooth_schedule(g, params.n_steps, seed=3, amplitude=0.5)
        base = simulate(params, u, phi0=smooth_field(g, 1, 0.8), sigma0=smooth_field(g, 2, 0.5))
        terminal, no_sources = np.zeros(g.shape), np.zeros((base.n_steps,) + g.shape)
        with pytest.raises(ValueError, match="phi_q is required"):
            solve_adjoint(params, base, terminal_p=terminal)
        with pytest.raises(ValueError, match="phi_omega is required"):
            solve_adjoint(params, base, sources=no_sources)
        adj = solve_adjoint(params, base, terminal_p=terminal, sources=no_sources)
        assert np.all(adj.p == 0.0) and np.all(adj.r == 0.0)

    @pytest.mark.parametrize("g", [Grid.line(16, 4.0), Grid.box(8, 6, 4.0, 3.0)],
                             ids=["1d", "2d"])
    def test_cost_data_handed_in_give_default_adjoint(self, g):
        target = smooth_field(g, 9, 0.3)
        params = tight_params(beta_q=0.7, beta_omega=2.0, phi_q=target, phi_omega=target)
        u = smooth_schedule(g, params.n_steps, seed=3, amplitude=0.5)
        base = simulate(params, u, phi0=smooth_field(g, 1, 0.8), sigma0=smooth_field(g, 2, 0.5))
        terminal = params.beta_omega * (base.phi[-1] - target.values)
        sources = params.tau * params.beta_q * (base.phi[1:] - target.values)
        handed = (terminal.copy(), sources.copy())
        adj = solve_adjoint(params, base, terminal_p=terminal, sources=sources)
        default = solve_adjoint(params, base)
        for name in ("p", "r", "r_lift"):
            assert getattr(adj, name).tobytes() == getattr(default, name).tobytes()
        # The caller's arrays are left as they were handed in.
        assert terminal.tobytes() == handed[0].tobytes()
        assert sources.tobytes() == handed[1].tobytes()

    @pytest.mark.parametrize("g", [Grid.line(16, 4.0), Grid.box(8, 6, 4.0, 3.0)],
                             ids=["1d", "2d"])
    def test_handed_in_shapes_checked_before_the_first_step(self, g, monkeypatch):
        params = tight_params(beta_q=0.0, beta_omega=0.0)
        u = smooth_schedule(g, params.n_steps, seed=3, amplitude=0.5)
        base = simulate(params, u, phi0=smooth_field(g, 1, 0.8), sigma0=smooth_field(g, 2, 0.5))
        n_steps = base.n_steps
        wrong_cells = (g.n_cells,) if g.dim == 2 else (g.n_cells + 1,)

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the shape check")

        monkeypatch.setattr(sensitivity, "adjoint_step", no_step)
        bad = [
            dict(terminal_p=np.zeros(wrong_cells)),
            dict(terminal_p=np.zeros((1,) + g.shape)),
            dict(sources=np.zeros((n_steps,) + wrong_cells)),
            dict(sources=np.zeros((n_steps - 1,) + g.shape)),
            dict(sources=np.zeros((n_steps + 1,) + g.shape)),
        ]
        for kwargs in bad:
            with pytest.raises(GridMismatchError):
                solve_adjoint(params, base, **kwargs)

    def test_non_finite_handed_in_data_fail_the_first_solve(self):
        g = Grid.line(16, 4.0)
        params = tight_params(beta_q=0.0, beta_omega=0.0)
        u = smooth_schedule(g, params.n_steps, seed=3, amplitude=0.5)
        base = simulate(params, u, phi0=smooth_field(g, 1, 0.8), sigma0=smooth_field(g, 2, 0.5))
        terminal = np.zeros(g.shape)
        terminal[3] = np.nan
        sources = np.zeros((base.n_steps,) + g.shape)
        sources[-1, 3] = np.inf
        with np.errstate(invalid="ignore"):  # the preconditioner meets the NaN first
            for kwargs in (dict(terminal_p=terminal), dict(sources=sources)):
                with pytest.raises(CgNonConvergenceError, match="right-hand side norm"):
                    solve_adjoint(params, base, **kwargs)

    def test_backward_norms_bounded(self):
        g = Grid.line(16, 4.0)
        params, u, _ = coupled_instance(g)
        base = simulate(params, u)
        adj = solve_adjoint(params, base)
        norms = [norm_h(Field(g, adj.p[n])) + norm_h(Field(g, adj.r[n]))
                 for n in range(adj.n_steps + 1)]
        assert max(norms) <= 100.0 * (norms[-1] + 1.0)

    def test_derived_costate_field(self):
        from chcontrol import neumann_laplacian, p_deriv

        g = Grid.line(16, 4.0)
        params, u, _ = coupled_instance(g)
        base = simulate(params, u)
        adj = solve_adjoint(params, base)
        n = 2
        expected = neumann_laplacian(Field(g, adj.p[n])).values \
            - p_deriv(params.proliferation, 0, base.phi[n]) \
            * (adj.p[n] - adj.r[n])
        assert np.allclose(adj.q(n).values, expected, rtol=0, atol=1e-14)


class TestReducedGradient:
    def test_zero_adjoint_gives_weighted_control(self):
        from chcontrol import reduced_gradient

        g = Grid.line(16, 4.0)
        params = tight_params(beta_q=0.0, beta_omega=0.0, beta_u=1.0)
        u = smooth_schedule(g, params.n_steps, seed=3, amplitude=0.5)
        base = simulate(params, u, phi0=smooth_field(g, 1, 0.8),
                        sigma0=smooth_field(g, 2, 0.5))
        grad = reduced_gradient(params, u, solve_adjoint(params, base))
        for n in range(len(u)):
            assert np.array_equal(grad[n].values, u[n].values)

    def test_zero_control_weight_gives_lift_alone(self):
        from chcontrol import reduced_gradient

        g = Grid.line(16, 4.0)
        params = tight_params(beta_q=1.0, beta_omega=0.0, beta_u=0.0,
                              phi_q=Field.zeros(g))
        u = smooth_schedule(g, params.n_steps, seed=3, amplitude=0.5)
        base = simulate(params, u, phi0=smooth_field(g, 1, 0.8),
                        sigma0=smooth_field(g, 2, 0.5))
        adj = solve_adjoint(params, base)
        grad = reduced_gradient(params, u, adj)
        for n in range(len(u)):
            assert np.array_equal(grad[n].values, adj.r_lift[n])

    def test_shared_row_control_gives_full_gradient(self):
        from chcontrol import reduced_gradient

        g = Grid.line(16, 4.0)
        params = tight_params(beta_q=1.0, beta_u=0.7, phi_q=Field.zeros(g))
        row = smooth_field(g, 3, 0.5).values
        shared = ControlSchedule.constant(g, params.n_steps, row)
        full = ControlSchedule(g, [row] * params.n_steps)
        base = simulate(params, shared, phi0=smooth_field(g, 1, 0.8),
                        sigma0=smooth_field(g, 2, 0.5))
        adj = solve_adjoint(params, base)
        grad = reduced_gradient(params, shared, adj)
        assert grad.values.flags.c_contiguous
        assert grad.values.tobytes() == reduced_gradient(params, full, adj).values.tobytes()

    def test_length_mismatch(self):
        from chcontrol import reduced_gradient

        g = Grid.line(16, 4.0)
        params = tight_params()
        u = smooth_schedule(g, params.n_steps, seed=3, amplitude=0.5)
        base = simulate(params, u, phi0=smooth_field(g, 1, 0.8),
                        sigma0=smooth_field(g, 2, 0.5))
        adj = solve_adjoint(params, base)
        short = smooth_schedule(g, params.n_steps - 1, seed=4, amplitude=0.5)
        with pytest.raises(ValueError):
            reduced_gradient(params, short, adj)


class TestDotProductTest:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_discrepancy_within_bound(self, seed):
        g = Grid.line(16, 4.0)
        params = tight_params()
        assert dot_product_test(params, g, 8, seed) <= 1e-10

    def test_two_dimensional_instance(self):
        g = Grid.box(8, 6, 4.0, 3.0)
        params = tight_params()
        assert dot_product_test(params, g, 4, 0) <= 1e-10

    @pytest.mark.parametrize("box", [("grid.nx=4", "grid.ny=4", "grid.lx=1.0", "grid.ly=1.5"),
                                     ("grid.nx=4", "grid.ny=64", "grid.lx=0.5", "grid.ly=10.0")])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_grad_check_on_unequal_spacing_boxes(self, box, seed):
        # Small 2D boxes apply the unaveraged stencil, symmetric to roundoff only.
        _, g, params, _ = load_instance("gradcheck.cfg", ("grid.dim=2",) + box)
        assert dot_product_test(params, g, min(params.n_steps, 16), seed) <= 1e-10

    def test_tightening_cg_does_not_degrade(self):
        g = Grid.line(16, 4.0)
        loose = dot_product_test(tight_params(numerics=Numerics(cg_tol=1e-12)), g, 8, 0)
        tight = dot_product_test(tight_params(numerics=Numerics(cg_tol=1e-14)), g, 8, 0)
        assert loose <= 1e-10 and tight <= 1e-10
        assert tight <= 2.0 * loose + 1e-12
