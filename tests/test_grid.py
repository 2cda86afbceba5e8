import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import chcontrol.grid as grid_module
from chcontrol import (CgNonConvergenceError, Field, Grid, GridMismatchError, ModelParams,
                       cg_solve, grad_sq_integral, inner_product, integrate, neumann_laplacian,
                       norm_h)
from chcontrol.forward import phase_operator
from chcontrol.grid import DENSE_MAX_CELLS, laplacian_values, spectral_inverse
from helpers import assemble_operator, mirror_ghost_laplacian_1d, padded_flux_laplacian

field_values = arrays(np.float64, 16, elements=st.floats(-100.0, 100.0))


def laid_out(vals, layout):
    """The same values as a C-contiguous array, a transposed view or a
    strided slice."""
    if layout == "transposed":
        return np.ascontiguousarray(vals.T).T
    if layout == "sliced":
        wide = np.zeros(vals.shape[:-1] + (2 * vals.shape[-1],))
        wide[..., ::2] = vals
        return wide[..., ::2]
    return vals


@st.composite
def grids_with_values(draw):
    """1D lines and 2D boxes down to 4-cell axes, with unequal side lengths;
    values with up to two trailing batch axes, in any layout."""
    lengths = st.floats(0.5, 10.0)
    if draw(st.sampled_from((1, 2))) == 1:
        grid = Grid.line(draw(st.integers(4, 24)), draw(lengths))
    else:
        grid = Grid.box(draw(st.integers(4, 12)), draw(st.integers(4, 12)),
                        draw(lengths), draw(lengths))
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    vals = draw(arrays(np.float64, grid.shape + batch, elements=st.floats(-100.0, 100.0)))
    return grid, laid_out(vals, draw(st.sampled_from(("contiguous", "transposed", "sliced"))))


def line16():
    return Grid.line(16, 4.0)


class TestGridConstruction:
    def test_basic_1d(self):
        g = Grid.line(8, 2.0)
        assert g.dim == 1 and g.counts == (8, 1)
        assert g.spacing[0] == 0.25 and g.cell_volume == 0.25
        assert g.n_cells == 8

    def test_basic_2d(self):
        g = Grid.box(8, 6, 4.0, 3.0)
        assert g.dim == 2 and g.cell_volume == 0.5 * 0.5
        assert g.shape == (8, 6)

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            Grid.line(3, 1.0)
        with pytest.raises(ValueError):
            Grid.box(8, 3, 1.0, 1.0)

    def test_bad_dim_and_lengths(self):
        with pytest.raises(ValueError):
            Grid(3, (4, 4), (1.0, 1.0))
        with pytest.raises(ValueError):
            Grid(1, (8, 2), (1.0, 1.0))
        with pytest.raises(ValueError):
            Grid.line(8, -1.0)
        with pytest.raises(ValueError, match="1/h"):  # 1/h^2 overflows
            Grid.box(8, 8, 1.0, 1e-160)

    def test_cell_centers(self):
        g = Grid.line(4, 4.0)
        assert np.allclose(g.cell_centers()[0], [0.5, 1.5, 2.5, 3.5])


class TestField:
    def test_shape_validation(self):
        g = line16()
        with pytest.raises(ValueError):
            Field(g, np.zeros(7))

    def test_rejects_non_finite(self):
        g = line16()
        bad = np.zeros(16)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Field(g, bad)

    def test_immutable(self):
        f = Field(line16(), np.arange(16.0))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestLaplacian:
    def test_hand_example(self):
        g = Grid.line(4, 4.0)  # h = 1
        lap = neumann_laplacian(Field(g, [1.0, 2.0, 4.0, 8.0]))
        assert np.array_equal(lap.values, [1.0, 1.0, 2.0, -4.0])
        assert integrate(lap) == 0.0

    def test_constant_is_exactly_zero(self):
        g = Grid.box(8, 8, 3.0, 2.0)
        lap = neumann_laplacian(Field.full(g, 0.37))
        assert np.all(lap.values == 0.0)

    @given(grids_with_values())
    @example((Grid.box(4, 11, 1.0, 7.5), laid_out(np.linspace(-3.0, 3.0, 88).reshape(4, 11, 2),
                                                   "transposed")))
    @example((Grid.box(11, 4, 7.5, 1.0), laid_out(np.linspace(-3.0, 3.0, 44).reshape(11, 4),
                                                   "sliced")))
    @example((Grid.box(4, 4, 1.0, 1.5), np.array([[0.0, -0.0, 0.0, -0.0]] * 4)))
    @example((Grid.box(4, 4, 1.0, 1.5), np.array([[0.0, -0.0, 0.0, -0.0]] * 4).T))
    def test_matches_reference_stencil(self, grid_and_values):
        # Bit for bit against the padded-flux kernel, signed zeros included,
        # with batch axes and non-contiguous inputs; the input is not touched.
        g, vals = grid_and_values
        before = vals.copy()
        lap = laplacian_values(g, vals)
        ref = padded_flux_laplacian(g, vals)
        assert lap.shape == vals.shape
        assert np.array_equal(lap, ref)
        assert lap.tobytes() == ref.tobytes()
        assert vals.tobytes() == before.tobytes()

    @pytest.mark.parametrize("grid, shape", [
        (Grid.box(8, 6, 4.0, 3.0), (6, 8)),
        (Grid.box(8, 6, 4.0, 3.0), (6, 8, 3)),
        (Grid.box(8, 6, 4.0, 3.0), (48,)),
        (Grid.line(8, 2.0), (4, 2)),
    ])
    def test_rejects_values_of_another_shape(self, grid, shape):
        # Same cell count, other layout: a flat kernel would silently mix axes.
        with pytest.raises(GridMismatchError):
            laplacian_values(grid, np.zeros(shape))

    def test_2d_separable_matches_two_1d_calls(self):
        gx = Grid.line(8, 4.0)
        gy = Grid.line(6, 3.0)
        g2 = Grid.box(8, 6, 4.0, 3.0)
        rng = np.random.default_rng(7)
        fx = rng.uniform(-1, 1, 8)
        fy = rng.uniform(-1, 1, 6)
        lap2 = neumann_laplacian(Field(g2, fx[:, None] + fy[None, :]))
        lx = neumann_laplacian(Field(gx, fx)).values
        ly = neumann_laplacian(Field(gy, fy)).values
        assert np.allclose(lap2.values, lx[:, None] + ly[None, :], atol=1e-12)

    @given(field_values)
    def test_conservation_scaled(self, vals):
        g = line16()
        f = Field(g, vals)
        assert abs(integrate(neumann_laplacian(f))) <= 1e-12 * max(norm_h(f), 1e-30)

    @given(field_values, field_values)
    def test_symmetry_scaled(self, a_vals, b_vals):
        g = line16()
        a, b = Field(g, a_vals), Field(g, b_vals)
        la, lb = neumann_laplacian(a), neumann_laplacian(b)
        gap = abs(inner_product(la, b) - inner_product(a, lb))
        scale = norm_h(la) * norm_h(b) + norm_h(a) * norm_h(lb)
        assert gap <= 1e-12 * max(scale, 1e-30)

    @given(field_values)
    def test_negative_semidefinite(self, vals):
        g = line16()
        f = Field(g, vals)
        lhs = inner_product(neumann_laplacian(f), f)
        rhs = -grad_sq_integral(f)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-30)

    def test_eigenfunction_second_order(self):
        length = 2.0
        errors = []
        for n in (16, 32, 64):
            g = Grid.line(n, length)
            x = g.cell_centers()[0]
            f = Field(g, np.cos(np.pi * x / length))
            lam = (np.pi / length) ** 2
            errors.append(norm_h(Field(g, neumann_laplacian(f).values + lam * f.values)))
        for order in (math.log2(errors[0] / errors[1]), math.log2(errors[1] / errors[2])):
            assert 1.9 <= order <= 2.1


def biharmonic(f: Field) -> Field:
    """The laplacian applied twice, ghosts re-mirrored in between: a zero
    normal derivative of the field and of its laplacian.  The phase operator's
    fourth-order part."""
    return neumann_laplacian(neumann_laplacian(f))


class TestBiharmonic:
    def test_constant(self):
        g = Grid.line(8, 2.0)
        assert np.all(biharmonic(Field.full(g, 3.0)).values == 0.0)

    def test_is_laplacian_twice(self):
        # With tau = 1 and no stabilization, the phase operator on the stencil
        # path (more than DENSE_MAX_CELLS cells) is v + lap(lap(v)).
        g = Grid.box(20, 16, 4.0, 3.0)
        assert g.n_cells > DENSE_MAX_CELLS
        params = ModelParams(beta_u=1.0, t_final=1.0, tau=1.0, stabilization=0.0)
        rng = np.random.default_rng(11)
        f = Field(g, rng.uniform(-1, 1, g.shape))
        assert np.array_equal(phase_operator(params, g)(f.values), f.values + biharmonic(f).values)

    def test_hand_example(self):
        # Second application of the reference stencil to [1, 1, 2, -4]
        # (the laplacian of [1, 2, 4, 8]) gives [0, 1, -7, 6]; like every
        # stencil output it sums to zero.
        g = Grid.line(4, 4.0)  # h = 1
        bih = biharmonic(Field(g, [1.0, 2.0, 4.0, 8.0]))
        ref = mirror_ghost_laplacian_1d(np.array([1.0, 1.0, 2.0, -4.0]), 1.0)
        assert np.array_equal(ref, [0.0, 1.0, -7.0, 6.0])
        assert np.array_equal(bih.values, ref)
        assert integrate(bih) == 0.0


class TestIntegrals:
    def test_inner_product_hand_sum(self):
        g = Grid.line(4, 2.0)  # h = 0.5
        f = Field(g, [1.0, 2.0, 0.0, 0.0])
        w = Field(g, [3.0, 4.0, 5.0, 7.0])
        assert inner_product(f, w) == pytest.approx(0.5 * (3 + 8), abs=0.0)

    def test_ones_on_unit_volume(self):
        g = Grid.line(4, 1.0)
        one = Field.full(g, 1.0)
        assert inner_product(one, one) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_indicators(self):
        g = Grid.line(4, 1.0)
        a = Field(g, [1.0, 1.0, 0.0, 0.0])
        b = Field(g, [0.0, 0.0, 1.0, 1.0])
        assert inner_product(a, b) == 0.0

    def test_grid_mismatch(self):
        f = Field(Grid.line(4, 1.0), np.zeros(4))
        w = Field(Grid.line(4, 2.0), np.zeros(4))
        with pytest.raises(GridMismatchError):
            inner_product(f, w)

    def test_grad_sq_single_interior_jump(self):
        # One unit jump across one face at h = 1; the other faces are flat.
        g = Grid.line(4, 4.0)
        f = Field(g, [0.0, 1.0, 1.0, 1.0])
        assert grad_sq_integral(f) == pytest.approx(1.0, abs=0.0)

    def test_grad_sq_constant(self):
        g = Grid.box(8, 8, 1.0, 1.0)
        assert grad_sq_integral(Field.full(g, 2.5)) == 0.0

    @given(st.floats(-8.0, 8.0), field_values)
    def test_grad_sq_quadratic_scaling(self, alpha, vals):
        g = line16()
        f = Field(g, vals)
        scaled = grad_sq_integral(Field(g, alpha * f.values))
        assert scaled == pytest.approx(alpha * alpha * grad_sq_integral(f),
                                       rel=1e-12, abs=1e-30)


class TestCg:
    def test_identity(self):
        g = line16()
        rhs = Field(g, np.arange(16.0))
        x = cg_solve(lambda v: v, rhs.values, g)
        assert np.array_equal(x, rhs.values)

    def test_double_identity(self):
        g = line16()
        rhs = Field(g, np.arange(16.0))
        x = cg_solve(lambda v: 2.0 * v, rhs.values, g)
        assert np.array_equal(x, 0.5 * rhs.values)

    def test_matches_dense_solve(self):
        g = Grid.line(8, 4.0)
        tau = 0.01

        def op(v):
            return v - tau * laplacian_values(g, v)

        dense = assemble_operator(op, g)
        rng = np.random.default_rng(3)
        rhs = Field(g, rng.uniform(-1, 1, 8))
        x = cg_solve(op, rhs.values, g, tol=1e-13)
        ref = np.linalg.solve(dense, rhs.values)
        assert np.max(np.abs(x - ref)) <= 1e-10

    def test_budget_exhaustion_reports_residual(self):
        g = line16()
        rhs = Field(g, np.random.default_rng(8).uniform(-1, 1, 16))

        def op(v):
            return v - 0.05 * laplacian_values(g, v)

        with pytest.raises(CgNonConvergenceError) as err:
            cg_solve(op, rhs.values, g, tol=1e-14, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual > 0.0

    def test_non_finite_operator_output_raises_at_once(self):
        g = line16()
        rhs = Field(g, np.arange(16.0))
        with pytest.raises(CgNonConvergenceError) as err:
            cg_solve(lambda v: np.full_like(v, np.nan), rhs.values, g)
        assert err.value.iterations == 0

    def test_wrong_shape_output_raises(self):
        g = line16()
        rhs = Field(g, np.arange(16.0))
        with pytest.raises(GridMismatchError):
            cg_solve(lambda v: np.zeros(17), rhs.values, g)

    def test_operator_receives_plain_arrays(self):
        g = line16()
        rhs = Field(g, np.random.default_rng(9).uniform(-1, 1, 16))

        def op(v):
            assert type(v) is np.ndarray
            return v - 0.05 * laplacian_values(g, v)

        x = cg_solve(op, rhs.values, g, tol=1e-13, x0=np.zeros(g.shape))
        assert norm_h(Field(g, op(x) - rhs.values)) <= 1e-13 * norm_h(rhs)

    def test_exact_preconditioner_takes_one_iteration(self):
        g = line16()
        d = np.linspace(1.0, 50.0, 16)
        rhs = Field(g, np.random.default_rng(10).uniform(-1, 1, 16))
        with pytest.raises(CgNonConvergenceError):
            cg_solve(lambda v: d * v, rhs.values, g, tol=1e-13, max_iter=1)
        x = cg_solve(lambda v: d * v, rhs.values, g, tol=1e-13, max_iter=1,
                     precond=lambda v: v / d)
        assert norm_h(Field(g, d * x - rhs.values)) <= 1e-13 * norm_h(rhs)

    def test_jacobi_preconditioned_solve_matches_dense_solve(self):
        g = Grid.box(6, 5, 3.0, 2.0)
        coef = 1.0 + np.random.default_rng(11).uniform(0.0, 30.0, g.shape)

        def op(v):
            return coef * v - 0.2 * laplacian_values(g, v)

        diag = np.diag(assemble_operator(op, g)).reshape(g.shape)
        rhs = Field(g, np.random.default_rng(12).uniform(-1, 1, g.shape))
        x = cg_solve(op, rhs.values, g, tol=1e-13, precond=lambda v: v / diag)
        assert norm_h(Field(g, op(x) - rhs.values)) <= 1e-13 * norm_h(rhs)
        ref = np.linalg.solve(assemble_operator(op, g), rhs.values.ravel())
        assert np.max(np.abs(x.ravel() - ref)) <= 1e-10

    def test_non_finite_preconditioner_output_raises_at_once(self):
        g = line16()
        rhs = Field(g, np.arange(16.0))
        with pytest.raises(CgNonConvergenceError) as err:
            cg_solve(lambda v: 2.0 * v, rhs.values, g, precond=lambda v: np.full_like(v, np.nan))
        assert err.value.iterations == 0

    def test_converged_solve_skips_the_last_direction_update(self):
        # Start, one iteration, true residual: the preconditioner is applied
        # once, for the first direction, and never after convergence.
        g = line16()
        d = np.linspace(1.0, 50.0, 16)
        rhs = np.random.default_rng(10).uniform(-1, 1, 16)
        calls = {"apply_op": 0, "precond": 0}

        def counted(name, fn):
            def wrapper(v):
                calls[name] += 1
                return fn(v)
            return wrapper

        cg_solve(counted("apply_op", lambda v: d * v), rhs, g, tol=1e-13,
                 precond=counted("precond", lambda v: v / d))
        assert calls == {"apply_op": 3, "precond": 1}

    def test_exact_start_returns_at_iteration_zero(self):
        # The starting residual is the true one: a start that meets the
        # tolerance costs one operator application and no iteration, so it
        # passes even with no iteration budget.
        g = line16()
        d = np.linspace(1.0, 50.0, 16)
        rhs = np.random.default_rng(10).uniform(-1, 1, 16)
        x0 = rhs / d
        calls = {"apply_op": 0, "precond": 0}

        def counted(name, fn):
            def wrapper(v):
                calls[name] += 1
                return fn(v)
            return wrapper

        for precond in (None, counted("precond", lambda v: v / d)):
            x = cg_solve(counted("apply_op", lambda v: d * v), rhs, g, tol=1e-13, max_iter=0,
                         x0=x0, precond=precond)
            assert x.tobytes() == x0.tobytes() and x is not x0
        assert calls == {"apply_op": 2, "precond": 0}
        with pytest.raises(CgNonConvergenceError) as err:
            cg_solve(lambda v: d * v, rhs, g, tol=1e-13, max_iter=0, x0=np.zeros(16))
        assert err.value.iterations == 0

    def test_non_finite_rhs_raises_at_once(self):
        g = line16()
        for bad in (np.inf, -np.inf, np.nan):
            rhs = np.arange(16.0)
            rhs[3] = bad
            with pytest.raises(CgNonConvergenceError) as err:
                cg_solve(lambda v: v, rhs, g, x0=np.zeros(16))
            assert err.value.iterations == 0

    def test_wrong_shape_rhs_or_x0_raises(self):
        g = line16()
        with pytest.raises(GridMismatchError):
            cg_solve(lambda v: v, np.ones(17), g)
        with pytest.raises(GridMismatchError):
            cg_solve(lambda v: v, np.ones(16), g, x0=np.zeros((16, 1)))

    def test_arguments_are_left_unmodified(self):
        g = line16()
        rhs = np.random.default_rng(13).uniform(-1, 1, 16)
        x0 = np.random.default_rng(14).uniform(-1, 1, 16)
        before = rhs.tobytes() + x0.tobytes()
        x = cg_solve(lambda v: v - 0.05 * laplacian_values(g, v), rhs, g, tol=1e-13, x0=x0)
        assert rhs.tobytes() + x0.tobytes() == before
        assert x is not x0

    def test_zero_rhs(self):
        g = line16()
        x = cg_solve(lambda v: 3.0 * v, np.zeros(g.shape), g)
        assert np.all(x == 0.0)

    def test_invalid_tol(self):
        g = line16()
        with pytest.raises(ValueError):
            cg_solve(lambda v: v, np.zeros(g.shape), g, tol=0.0)


class TestSpectralInverse:
    """``spectral_inverse`` on the diffusion symbol 1 + c*mu, against the
    inverse of the assembled I - c*lap."""

    @pytest.mark.parametrize("g", [Grid.line(4, 1.0), Grid.box(4, 4, 1.0, 1.5),
                                   Grid.box(16, 16, 4.0, 4.0), Grid.line(300, 8.0),
                                   Grid.box(20, 13, 2.0, 7.0)])
    def test_matches_dense_inverse(self, g):
        c = 0.3 * min(g.spacing[:g.dim]) ** 2
        inverse = spectral_inverse(g, lambda mu: 1.0 + c * mu)
        want = np.linalg.inv(assemble_operator(lambda v: v - c * laplacian_values(g, v), g))
        got = assemble_operator(inverse, g)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("g", [Grid.box(8, 8, 1.0, 1.0), Grid.box(32, 32, 1.0, 1.0)])
    def test_constant_mode_is_scaled_exactly(self, g):
        inverse = spectral_inverse(g, lambda mu: 4.0 + mu)
        assert np.array_equal(inverse(np.full(g.shape, 3.0)), np.full(g.shape, 0.75))

    @pytest.mark.parametrize("symbol", [lambda mu: 1.0 - mu, lambda mu: np.full_like(mu, np.inf),
                                        lambda mu: np.ones(3)])
    def test_rejects_bad_symbols(self, symbol):
        with pytest.raises(ValueError):
            spectral_inverse(Grid.line(8, 1.0), symbol)

    @pytest.mark.parametrize("g", [Grid.line(16, 4.0), Grid.box(16, 16, 4.0, 4.0),
                                   Grid.box(16, 8, 4.0, 1.0)])
    def test_dct_matrices_are_shared_across_keys(self, g, monkeypatch):
        # Inverses of different symbols share the grid's spectral basis: each
        # axis length's DCT matrix is built once, by the first inverse.
        built = []
        real_dct = grid_module._dct_matrix

        def dct_matrix(n):
            built.append(n)
            return real_dct(n)

        monkeypatch.setattr(grid_module, "_dct_matrix", dct_matrix)
        spectral_inverse(g, lambda mu: 1.0 + mu)
        basis = grid_module._spectral_basis(g)
        spectral_inverse(g, lambda mu: 2.0 + mu * mu)
        assert sorted(built) == sorted(set(g.shape))
        assert grid_module._spectral_basis(g) is basis
        mats, mu = basis
        assert mu.shape == g.shape
        if g.dim == 2:
            assert (mats[0] is mats[1]) == (g.counts[0] == g.counts[1])
