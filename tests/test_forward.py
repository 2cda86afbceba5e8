import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chcontrol import (ControlSchedule, DivergenceError, Field, Grid, GridMismatchError,
                       ModelParams, Numerics, QuadraticProliferation, StepPlan, energy, f_deriv,
                       inner_product, integrate, l2q_inner, l2q_norm, lipschitz_probe, norm_h,
                       optimize, p_deriv, preset_field, project, simulate, step)
from chcontrol.forward import (_diffusion_increment, _phase_increment, diffusion_operator,
                               phase_operator, phase_preconditioner)
from chcontrol.grid import (DENSE_MAX_CELLS, CgNonConvergenceError, _dense_increment, cg_solve,
                            implicit_operator, laplacian_values)
from chcontrol.model import _splitmix64_uniform
from helpers import (assemble_operator, grids, load_instance, ode_reference,
                     padded_flux_laplacian, probe_rows_by_level, reference_cg,
                     reference_dense_increments, smooth_field, smooth_schedule,
                     stencil_diffusion_operator, stencil_phase_operator)


def small_params(**kw):
    defaults = dict(beta_u=1.0, t_final=0.05, tau=5e-3)
    defaults.update(kw)
    return ModelParams(**defaults)


small_grids = grids(4, DENSE_MAX_CELLS)
large_grids = grids(DENSE_MAX_CELLS + 1, 4 * DENSE_MAX_CELLS)
step_params = st.builds(lambda tau: small_params(tau=tau, t_final=1.0),
                        st.floats(1e-5, 1e-1))
STEP_OPERATORS = ((phase_operator, stencil_phase_operator),
                  (diffusion_operator, stencil_diffusion_operator))
STEP_INCREMENTS = {"phase": _phase_increment, "diffusion": _diffusion_increment}


class TestImplicitOperator:
    @given(small_grids, step_params)
    @example(Grid.line(DENSE_MAX_CELLS, 10.0), small_params(tau=1e-5, t_final=1.0))
    @example(Grid.box(4, DENSE_MAX_CELLS // 4, 0.5, 10.0), small_params(tau=1e-1, t_final=1.0))
    def test_dense_path_matches_stencil(self, g, params):
        for make, stencil in STEP_OPERATORS:
            dense = assemble_operator(make(params, g), g)
            ref = assemble_operator(stencil(params, g), g)
            assert np.max(np.abs(dense - ref)) <= 1e-15 * np.max(np.abs(ref))

    @given(small_grids, step_params)
    @example(Grid.box(4, 4, 1.0, 1.5), small_params(tau=0.0625, t_final=1.0))
    def test_dense_matrix_is_bitwise_symmetric(self, g, params):
        # The stencil's own matrix is asymmetric in the last bit on this box.
        for increment in STEP_INCREMENTS.values():
            mat = _dense_increment(g, increment(params, g))
            assert np.array_equal(mat, mat.T)

    @given(small_grids, step_params, st.floats(-1e3, 1e3))
    def test_constant_fields_map_to_themselves(self, g, params, c):
        const = np.full(g.shape, c)
        for make, _ in STEP_OPERATORS:
            assert make(params, g)(const).tobytes() == const.tobytes()

    @given(large_grids, step_params)
    def test_stencil_path_on_large_grids_is_unchanged(self, g, params):
        v = np.random.default_rng(g.n_cells).uniform(-1.0, 1.0, g.shape)
        for make, stencil in STEP_OPERATORS:
            assert make(params, g)(v).tobytes() == stencil(params, g)(v).tobytes()

    @pytest.mark.parametrize("g", [Grid.line(32, 8.0), Grid.box(32, 32, 4.0, 4.0)])
    def test_every_call_returns_a_new_function(self, g):
        # Operators that share a matrix must not share attributes.
        params = small_params()
        tau = params.tau
        ops = [diffusion_operator(params, g), diffusion_operator(params, g),
               implicit_operator(g, lambda v: -tau * laplacian_values(g, v))]
        ops[0].role = "diffusion"
        assert len({id(op) for op in ops}) == 3
        assert not any(hasattr(op, "role") for op in ops[1:])

    @pytest.mark.parametrize("g", [Grid.box(4, 4, 1.0, 1.5), Grid.box(16, 16, 4.0, 4.0)])
    def test_dense_matrices_match_reference_kernel(self, g):
        params = small_params(tau=0.0625, t_final=1.0)
        want = reference_dense_increments(params, g)
        assert want.keys() == STEP_INCREMENTS.keys()
        for name, mat in want.items():
            got = _dense_increment(g, STEP_INCREMENTS[name](params, g))
            assert got.tobytes() == mat.tobytes()

    @pytest.mark.parametrize("g", [Grid.line(32, 8.0), Grid.box(32, 32, 4.0, 4.0)])
    def test_operators_leave_their_argument_unmodified(self, g):
        params = small_params()
        v = np.random.default_rng(3).uniform(-1.0, 1.0, g.shape)
        before = v.copy()
        for make, _ in STEP_OPERATORS:
            make(params, g)(v)
        assert v.tobytes() == before.tobytes()


def conditioned_params(grid, gamma):
    """One-step parameters with tau = gamma * h_min^4, so that the phase
    operator's condition number stays below about 1 + 64*gamma + 8*S*gamma*h^2
    and a dense LU inverse is accurate to near machine precision."""
    tau = gamma * min(grid.spacing[:grid.dim]) ** 4
    return small_params(tau=tau, t_final=tau)


gammas = st.floats(1e-3, 10.0)
all_grids = grids(4, 4 * DENSE_MAX_CELLS)


class TestPhasePreconditioner:
    @given(all_grids, gammas)
    @example(Grid.box(4, 4, 1.0, 1.5), 10.0)
    @example(Grid.line(DENSE_MAX_CELLS, 0.5), 10.0)
    @example(Grid.line(DENSE_MAX_CELLS + 1, 10.0), 1e-3)
    @example(Grid.box(4, DENSE_MAX_CELLS // 4 + 1, 0.5, 10.0), 10.0)
    @example(Grid.box(17, 16, 3.0, 0.5), 1.0)
    def test_matches_dense_inverse(self, g, gamma):
        params = conditioned_params(g, gamma)
        want = np.linalg.inv(assemble_operator(phase_operator(params, g), g))
        got = assemble_operator(phase_preconditioner(params, g), g)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("g", [Grid.line(32, 8.0), Grid.box(16, 16, 4.0, 4.0),
                                   Grid.line(300, 8.0), Grid.box(64, 64, 4.0, 4.0)])
    def test_constant_fields_map_to_themselves(self, g):
        # The symbol is 1 on the constant mode.
        precond = phase_preconditioner(small_params(), g)
        for c in (0.0, -0.3, 1e3):
            const = np.full(g.shape, c)
            assert precond(const).tobytes() == const.tobytes()

    @pytest.mark.parametrize("g", [Grid.line(32, 8.0), Grid.box(64, 64, 4.0, 4.0)])
    def test_leaves_its_argument_unmodified(self, g):
        v = np.random.default_rng(4).uniform(-1.0, 1.0, g.shape)
        before = v.copy()
        out = phase_preconditioner(small_params(), g)(v)
        assert out.shape == v.shape
        assert v.tobytes() == before.tobytes()

    @pytest.mark.parametrize("name, overrides", [
        ("tracking_soft.cfg", ()),
        ("twodim.cfg", ()),
        ("twodim.cfg", ("grid.nx=64", "grid.ny=64")),
        ("gradcheck.cfg", ("grid.dim=2", "grid.nx=32", "grid.ny=32", "grid.ly=4.0")),
    ])
    def test_solve_meets_contract_in_two_iterations(self, name, overrides):
        _, g, params, _ = load_instance(name, overrides)
        tol = params.numerics.cg_tol
        op = phase_operator(params, g)
        rng = np.random.default_rng(g.n_cells)
        rhs = Field(g, rng.uniform(-1.0, 1.0, g.shape))
        x0 = Field(g, rng.uniform(-1.0, 1.0, g.shape))
        x = cg_solve(op, rhs.values, g, tol=tol, max_iter=2, x0=x0.values,
                     precond=phase_preconditioner(params, g))
        assert norm_h(Field(g, op(x) - rhs.values)) <= tol * norm_h(rhs)
        with pytest.raises(CgNonConvergenceError):
            cg_solve(op, rhs.values, g, tol=tol, max_iter=2, x0=x0.values)


def smoother_operator(g):
    kappa = (2.0 * max(g.spacing[:g.dim])) ** 2
    return implicit_operator(g, lambda v: -kappa * laplacian_values(g, v))


class TestUnpreconditionedSolves:
    """Without a preconditioner, ``cg_solve`` is the plain CG loop byte for
    byte, on the dense and the stencil path."""

    @pytest.mark.parametrize("g", [Grid.line(32, 8.0), Grid.box(16, 16, 4.0, 4.0),
                                   Grid.box(64, 64, 4.0, 4.0)])
    @pytest.mark.parametrize("with_x0", [False, True])
    def test_diffusion_and_smoother_solves_match_reference_loop(self, g, with_x0):
        rng = np.random.default_rng(g.n_cells)
        rhs = Field(g, rng.uniform(-1.0, 1.0, g.shape))
        x0 = Field(g, rng.uniform(-1.0, 1.0, g.shape)) if with_x0 else None
        for op, tol in ((diffusion_operator(small_params(tau=1e-3), g), 1e-13),
                        (smoother_operator(g), 1e-12)):
            got = cg_solve(op, rhs.values, g, tol=tol, x0=None if x0 is None else x0.values)
            want = reference_cg(op, rhs, tol=tol, x0=x0)
            assert got.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("g", [Grid.line(32, 8.0), Grid.box(64, 64, 4.0, 4.0)])
    def test_budget_exhaustion_matches_reference_loop(self, g):
        rhs = Field(g, np.random.default_rng(5).uniform(-1.0, 1.0, g.shape))
        op = smoother_operator(g)
        errors = []
        for solve in (lambda: cg_solve(op, rhs.values, g, tol=1e-12, max_iter=3),
                      lambda: reference_cg(op, rhs, tol=1e-12, max_iter=3)):
            with pytest.raises(CgNonConvergenceError) as err:
                solve()
            errors.append((err.value.residual, err.value.iterations))
        assert errors[0] == errors[1]


class TestFilteredNoise:
    """The ``filtered_noise`` smoother is ``passes`` exact solves of
    ``I - kappa*lap`` on the preset's own SplitMix64 draw."""

    @given(small_grids, st.integers(0, 2 ** 64 - 1), st.integers(1, 3), st.floats(0.1, 4.0))
    @example(Grid.line(4, 0.5), 0, 2, 4.0)
    @example(Grid.box(4, 4, 0.5, 10.0), 7, 2, 4.0)
    @example(Grid.box(4, DENSE_MAX_CELLS // 4, 10.0, 0.5), 2 ** 64 - 1, 3, 4.0)
    def test_matches_dense_solves(self, g, seed, passes, scale):
        # kappa scaled to the finer spacing keeps cond(I - kappa*lap) below
        # 1 + 8*scale, so the dense LU solves are accurate to near roundoff.
        kappa = scale * min(g.spacing[:g.dim]) ** 2
        lap = assemble_operator(lambda v: padded_flux_laplacian(g, v), g)
        mat = np.eye(g.n_cells) - kappa * lap
        want = 0.6 * _splitmix64_uniform(seed, g.shape).ravel()
        for _ in range(passes):
            want = np.linalg.solve(mat, want)
        got = preset_field("filtered_noise", g, seed=seed, amplitude=0.6, kappa=kappa,
                           passes=passes)
        assert np.max(np.abs(got.values.ravel() - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("g", [Grid.line(32, 8.0), Grid.box(20, 13, 2.0, 7.0),
                                   Grid.box(64, 64, 4.0, 4.0)])
    def test_keeps_the_integral(self, g):
        raw = Field(g, 0.6 * _splitmix64_uniform(5, g.shape))
        got = preset_field("filtered_noise", g, seed=5, amplitude=0.6)
        scale = g.cell_volume * np.sum(np.abs(raw.values))
        assert abs(integrate(got) - integrate(raw)) <= 1e-14 * scale

    def test_cold_and_warm_cache_agree_bytewise(self):
        # Repeated builds agree: on a fresh grid, on one whose spectral basis
        # another inverse has built, and on the next call.
        args = dict(seed=7, amplitude=0.6)
        cold = preset_field("filtered_noise", Grid.box(64, 64, 4.0, 4.0), **args)
        g = Grid.box(64, 64, 4.0, 4.0)
        phase_preconditioner(small_params(), g)  # another inverse on the same basis
        first = preset_field("filtered_noise", g, **args)
        warm = preset_field("filtered_noise", g, **args)
        assert cold.values.tobytes() == first.values.tobytes() == warm.values.tobytes()


class TestStep:
    def test_origin_is_fixed_point(self):
        g = Grid.line(8, 2.0)
        params = small_params()
        zero = np.zeros(g.shape)
        phi1, sigma1 = step(StepPlan(params, g), zero, zero, zero)
        assert np.all(phi1 == 0.0)
        assert np.all(sigma1 == 0.0)

    def test_constant_fields_follow_scalar_recurrence(self):
        g = Grid.line(8, 2.0)
        params = small_params(tau=2e-3)
        a, b, c = 0.2, 0.1, 0.3
        phi, sigma = np.full(g.shape, a), np.full(g.shape, b)
        u = np.full(g.shape, c)
        plan = StepPlan(params, g)
        for _ in range(10):
            phi, sigma = step(plan, phi, sigma, u)
            exchange = p_deriv(params.proliferation, 0, a) \
                * (b - f_deriv(params.potential, 1, a))
            a, b = a + params.tau * exchange, b + params.tau * (c - exchange)
            assert np.ptp(phi) == 0.0 and np.ptp(sigma) == 0.0
            assert phi[0] == pytest.approx(a, abs=1e-14)
            assert sigma[0] == pytest.approx(b, abs=1e-14)

    def test_matches_dense_assembly(self):
        g = Grid.line(8, 4.0)
        params = small_params(numerics=Numerics(cg_tol=1e-13))
        phi = smooth_field(g, 21, 0.8)
        sigma = smooth_field(g, 22, 0.5)
        u = smooth_field(g, 23, 0.5)
        phi1, sigma1 = step(StepPlan(params, g), phi.values, sigma.values, u.values)

        from chcontrol.grid import laplacian_values
        lap = lambda v: laplacian_values(g, v)
        fp = f_deriv(params.potential, 1, phi.values)
        mu_t = -lap(phi.values) + fp
        react = p_deriv(params.proliferation, 0, phi.values) * (sigma.values - mu_t)
        s_const = params.stabilization
        rhs_a = phi.values + params.tau * lap(fp - s_const * phi.values) \
            + params.tau * react
        rhs_b = sigma.values + params.tau * (u.values - react)
        m_dense = assemble_operator(phase_operator(params, g), g)
        n_dense = assemble_operator(diffusion_operator(params, g), g)
        assert np.max(np.abs(phi1 - np.linalg.solve(m_dense, rhs_a))) <= 1e-9
        assert np.max(np.abs(sigma1 - np.linalg.solve(n_dense, rhs_b))) <= 1e-9

    def test_overflow_guard_names_step(self):
        g = Grid.line(8, 2.0)
        params = small_params(numerics=Numerics(overflow_guard=0.5))
        u = ControlSchedule.constant(g, 3, 0.0)
        with pytest.raises(DivergenceError) as err:
            simulate(params, u, phi0=Field.full(g, 1.0), sigma0=Field.zeros(g))
        assert err.value.step_index == 0
        assert "step 0" in str(err.value)

    def test_grid_mismatch(self):
        # Arrays carry no grid: step checks their shapes, simulate the grids
        # of the Fields it is handed.
        params = small_params()
        g = Grid.line(8, 2.0)
        with pytest.raises(GridMismatchError):
            step(StepPlan(params, g), np.zeros(8), np.zeros(9), np.zeros(8))
        a = Field.zeros(g)
        b = Field.zeros(Grid.line(8, 3.0))
        with pytest.raises(GridMismatchError):
            simulate(params, ControlSchedule.constant(g, 2, 0.0), phi0=a, sigma0=b)


class TestSimulate:
    def test_equilibrium_preserved(self):
        g = Grid.line(16, 4.0)
        params = small_params(t_final=0.2, tau=1e-3)
        u = ControlSchedule.constant(g, params.n_steps, 0.0)
        traj = simulate(params, u, phi0=Field.full(g, 1.0), sigma0=Field.zeros(g))
        for n in range(traj.n_steps + 1):
            assert np.max(np.abs(traj.phi[n] - 1.0)) <= 1e-12
            assert np.max(np.abs(traj.sigma[n])) <= 1e-12

    def test_mass_identity_with_constant_forcing(self):
        g = Grid.line(16, 4.0)
        params = small_params(t_final=0.1, tau=1e-3)
        c = 0.3
        u = ControlSchedule.constant(g, params.n_steps, c)
        traj = simulate(params, u, phi0=Field.full(g, 0.2), sigma0=Field.full(g, 0.1))
        m0 = integrate(Field(g, traj.phi[0])) + integrate(Field(g, traj.sigma[0]))
        m_final = integrate(Field(g, traj.phi[-1])) + integrate(Field(g, traj.sigma[-1]))
        volume = 4.0
        expected = m0 + 0.1 * c * volume
        assert abs(m_final - expected) <= traj.n_steps * 10 * params.numerics.cg_tol * 10

    def test_matches_ode_reference_at_first_order(self):
        g = Grid.line(8, 4.0)
        a0, b0, c = 0.2, 0.1, 0.3
        ref = ode_reference(small_params(), a0, b0, c, 0.1)
        errors = []
        for tau in (4e-4, 2e-4):
            params = small_params(t_final=0.1, tau=tau)
            u = ControlSchedule.constant(g, params.n_steps, c)
            traj = simulate(params, u, phi0=Field.full(g, a0), sigma0=Field.full(g, b0))
            got = np.array([traj.phi[-1][0], traj.sigma[-1][0]])
            errors.append(float(np.max(np.abs(got - ref))))
        order = math.log2(errors[0] / errors[1])
        assert 0.9 <= order <= 1.1

    def test_spatial_self_convergence_second_order(self):
        # Richardson triple n, 2n, 4n with the same smooth data and time step;
        # coarse cells average exactly two fine cells, so restriction is the
        # pairwise mean.
        runs = {}
        for n in (16, 32, 64):
            g = Grid.line(n, 8.0)
            params = small_params(t_final=0.05, tau=1e-4)
            phi0 = preset_field("tanh_ball", g, center=4.0, radius=1.5, width=0.8)
            u = ControlSchedule.constant(g, params.n_steps, 0.1)
            runs[n] = simulate(params, u, phi0=phi0, sigma0=Field.full(g, 0.2))

        def restrict(vals):
            return 0.5 * (vals[0::2] + vals[1::2])

        e_coarse = norm_h(Field(Grid.line(16, 8.0),
                                runs[16].phi[-1] - restrict(runs[32].phi[-1])))
        e_fine = norm_h(Field(Grid.line(32, 8.0),
                              runs[32].phi[-1] - restrict(runs[64].phi[-1])))
        order = math.log2(e_coarse / e_fine)
        assert 1.8 <= order <= 2.2

    def test_energy_decreases_without_forcing(self):
        g = Grid.line(32, 8.0)
        params = small_params(t_final=0.05, tau=1e-3)
        phi0 = preset_field("tanh_ball", g, center=4.0, radius=1.5, width=0.4)
        u = ControlSchedule.constant(g, params.n_steps, 0.0)
        traj = simulate(params, u, phi0=phi0, sigma0=Field.zeros(g))
        increments = np.diff(traj.energies)
        assert np.all(increments <= 1e-8 * (1.0 + abs(traj.energies[0])))

    def test_warns_when_stabilization_too_small(self):
        g = Grid.line(16, 4.0)
        params = small_params(stabilization=0.0, t_final=0.01, tau=1e-3)
        u = ControlSchedule.constant(g, params.n_steps, 0.0)
        with pytest.warns(RuntimeWarning):
            simulate(params, u, phi0=Field.full(g, 0.2), sigma0=Field.zeros(g))

    def test_requires_initial_fields(self):
        g = Grid.line(8, 2.0)
        params = small_params()
        u = ControlSchedule.constant(g, params.n_steps, 0.0)
        with pytest.raises(ValueError):
            simulate(params, u)


class TestEnergy:
    def test_well_minimum_zero(self):
        g = Grid.line(4, 1.0)  # unit volume
        params = small_params()
        assert energy(params, Field.full(g, 1.0), Field.zeros(g)) == pytest.approx(0.0, abs=1e-15)

    def test_origin_quarter(self):
        g = Grid.line(4, 1.0)
        params = small_params()
        assert energy(params, Field.zeros(g), Field.zeros(g)) == pytest.approx(0.25, rel=1e-14)

    def test_quadratic_in_nutrient(self):
        g = Grid.line(16, 4.0)
        params = small_params()
        phi = smooth_field(g, 5, 0.5)
        sigma = smooth_field(g, 6, 0.7)
        base = energy(params, phi, Field.zeros(g))
        for alpha in (0.5, 2.0):
            scaled = energy(params, phi, Field(g, alpha * sigma.values))
            expected = base + 0.5 * alpha ** 2 * norm_h(sigma) ** 2
            assert scaled == pytest.approx(expected, rel=1e-12)


class TestControlSchedule:
    def test_admissibility(self):
        g = Grid.line(8, 2.0)
        params = small_params(u_min=-1.0, u_max=1.0)

        def admissible(u):
            return np.array_equal(project(params, u).values, u.values)

        assert admissible(ControlSchedule.constant(g, 3, 0.5))
        assert not admissible(ControlSchedule.constant(g, 3, 2.0))

    def test_arithmetic_returns_new_schedules(self):
        g = Grid.line(8, 2.0)
        params = small_params(u_min=Field.full(g, -1.0), u_max=Field.full(g, 1.0))
        a = ControlSchedule.constant(g, 3, 0.5)
        b = ControlSchedule.constant(g, 3, 2.0)
        for c, want in ((a - b, -1.5), (a + b, 2.5), (a.scaled(4.0), 2.0),
                        (project(params, a + b), 1.0)):
            assert c is not a and c.values is not a.values
            assert np.all(c.values == want)
        assert np.all(a.values == 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        g = Grid.line(8, 2.0)
        values = np.zeros((3, 8))
        values[1, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ControlSchedule(g, values)

    @pytest.mark.parametrize("grid, shape", [
        (Grid.line(8, 2.0), (3, 7)),
        (Grid.line(8, 2.0), (8,)),
        (Grid.line(8, 2.0), (3, 8, 1)),
        (Grid.box(4, 6, 1.0, 1.5), (3, 6, 4)),
        (Grid.box(4, 6, 1.0, 1.5), (3, 24)),
    ])
    def test_rejects_wrong_trailing_shape(self, grid, shape):
        with pytest.raises(GridMismatchError):
            ControlSchedule(grid, np.zeros(shape))

    @pytest.mark.parametrize("values", [[], np.zeros((0, 8))])
    def test_rejects_zero_steps(self, values):
        with pytest.raises(ValueError, match="at least one step"):
            ControlSchedule(Grid.line(8, 2.0), values)

    def test_values_are_a_read_only_copy(self):
        g = Grid.box(4, 6, 1.0, 1.5)
        rows = [np.full(g.shape, float(n)) for n in range(3)]
        for source in (rows, np.stack(rows)):
            u = ControlSchedule(g, source)
            source[1][0, 0] = 9.0
            assert u.values.shape == (3, 4, 6)
            assert np.all(u.values[1] == 1.0)
            with pytest.raises(ValueError):
                u.values[0, 0, 0] = 1.0

    def test_item_is_field_on_row(self):
        g = Grid.box(4, 6, 1.0, 1.5)
        u = smooth_schedule(g, 3, seed=5)
        for n in (0, 2, -1):
            assert isinstance(u[n], Field) and u[n].grid == g
            assert np.array_equal(u[n].values, u.values[n])
        assert len(u) == 3

    @pytest.mark.parametrize("grid", [Grid.line(16, 4.0), Grid.box(4, 6, 1.0, 1.5)])
    def test_l2q_inner_matches_level_loop(self, grid):
        a = smooth_schedule(grid, 5, seed=1)
        b = smooth_schedule(grid, 5, seed=2)
        tau = 0.003
        want = math.fsum(tau * inner_product(a[n], b[n]) for n in range(5))
        assert l2q_inner(tau, a, b) == want
        assert l2q_norm(tau, a) == math.sqrt(math.fsum(
            tau * inner_product(a[n], a[n]) for n in range(5)))
        assert optimize.l2q_inner is l2q_inner and optimize.l2q_norm is l2q_norm

    @pytest.mark.parametrize("grid", [Grid.line(8, 2.0), Grid.box(4, 6, 1.0, 1.5)])
    def test_constant_shares_one_read_only_row(self, grid):
        row = np.random.default_rng(1).uniform(-1.0, 1.0, grid.shape)
        for value, want in ((row, row), (0.25, np.full(grid.shape, 0.25))):
            u = ControlSchedule.constant(grid, 5, value)
            assert u.values.shape == (5,) + grid.shape and u.values.strides[0] == 0
            assert not u.values.flags.writeable
            for n in (0, 3, -1):
                assert u[n].values.tobytes() == want.tobytes()
        row[0] = 9.0  # the schedule keeps its own copy of the row
        assert np.all(u.values[:, 0] != 9.0)

    @pytest.mark.parametrize("n_steps, value, error", [
        (3, np.nan, ValueError),
        (3, np.array([0.0, 1.0, np.inf, 0.0, 0.0, 0.0, 0.0, 0.0]), ValueError),
        (3, np.zeros(7), GridMismatchError),
        (3, np.zeros((8, 1)), GridMismatchError),
        (0, 0.0, ValueError),
        (-2, 0.0, ValueError),
    ])
    def test_constant_checks_its_row(self, n_steps, value, error):
        with pytest.raises(error):
            ControlSchedule.constant(Grid.line(8, 2.0), n_steps, value)

    def test_shared_row_arithmetic_matches_materialized(self):
        g = Grid.box(4, 6, 1.0, 1.5)
        row = np.random.default_rng(2).uniform(-2.0, 2.0, g.shape)
        shared = ControlSchedule.constant(g, 4, row)
        full = ControlSchedule(g, [row] * 4)
        params = small_params(u_min=-1.0, u_max=1.0)
        other = smooth_schedule(g, 4, seed=3)
        for a, b in ((shared + other, full + other), (other + shared, other + full),
                     (shared - other, full - other), (other - shared, other - full),
                     (shared.scaled(-3.0), full.scaled(-3.0)),
                     (project(params, shared), project(params, full))):
            assert a.values.flags.c_contiguous and b.values.flags.c_contiguous
            assert a.values.tobytes() == b.values.tobytes()
        assert l2q_inner(0.5, shared, other) == l2q_inner(0.5, full, other)

    def test_length_mismatch(self):
        g = Grid.line(8, 2.0)
        a = ControlSchedule.constant(g, 3, 0.5)
        b = ControlSchedule.constant(g, 4, 0.5)
        with pytest.raises(GridMismatchError):
            _ = a + b


class TestLipschitzProbe:
    def test_identical_schedules_give_zero_norms(self):
        g = Grid.line(16, 4.0)
        params = small_params(t_final=0.02, tau=2e-3)
        params.phi0 = Field.full(g, 0.2)
        params.sigma0 = Field.zeros(g)
        u = ControlSchedule.constant(g, params.n_steps, 0.1)
        report = lipschitz_probe(params, u, u, eps_values=(1e-1, 1e-2))
        for row in report.rows:
            assert row.du_l2q == 0.0
            assert row.phi_linf_h == 0.0 and row.sigma_linf_h == 0.0
            assert row.ratios()["phi_linf_h"] == 0.0

    def test_ratios_stable_for_small_eps(self):
        g = Grid.line(16, 4.0)
        params = small_params(t_final=0.02, tau=2e-3,
                              proliferation=QuadraticProliferation(p0=1.0))
        params.phi0 = preset_field("tanh_ball", g, center=2.0, radius=0.8, width=0.4)
        params.sigma0 = Field.full(g, 0.2)
        u1 = ControlSchedule.constant(g, params.n_steps, 0.0)
        u2 = u1 + smooth_schedule(g, params.n_steps, seed=9, amplitude=1.0)
        report = lipschitz_probe(params, u1, u2, eps_values=(1e-2, 5e-3))
        table = report.ratio_table()
        for values in table.values():
            assert abs(values[0] - values[1]) <= 0.1 * max(values)

    @pytest.mark.parametrize("g", [Grid.line(16, 4.0), Grid.box(5, 7, 1.0, 1.5)])
    def test_rows_equal_field_level_reference(self, g):
        params = small_params(t_final=0.02, tau=2e-3, phi0=smooth_field(g, 1, 0.8),
                              sigma0=smooth_field(g, 2, 0.5))
        u1 = smooth_schedule(g, params.n_steps, seed=3, amplitude=0.5)
        u2 = smooth_schedule(g, params.n_steps, seed=4, amplitude=0.5)
        eps_values = (1e-1, 1e-3)
        report = lipschitz_probe(params, u1, u2, eps_values=eps_values)
        assert report.rows == probe_rows_by_level(params, u1, u2, eps_values)
        assert all(row.phi_l2v > 0.0 and row.sigma_linf_h > 0.0 for row in report.rows)
