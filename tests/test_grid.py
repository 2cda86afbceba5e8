import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chcontrol import (CgNonConvergenceError, Field, Grid, GridMismatchError, cg_solve,
                       grad_sq_integral, inner_product, integrate, neumann_biharmonic,
                       neumann_laplacian, norm_h, norm_v)
from chcontrol.grid import laplacian_values
from helpers import assemble_operator, mirror_ghost_laplacian_1d, padded_flux_laplacian

field_values = arrays(np.float64, 16, elements=st.floats(-100.0, 100.0))


@st.composite
def grids_with_values(draw):
    """1D lines and 2D boxes down to 4-cell axes, with unequal side lengths."""
    lengths = st.floats(0.5, 10.0)
    if draw(st.sampled_from((1, 2))) == 1:
        grid = Grid.line(draw(st.integers(4, 24)), draw(lengths))
    else:
        grid = Grid.box(draw(st.integers(4, 12)), draw(st.integers(4, 12)),
                        draw(lengths), draw(lengths))
    vals = draw(arrays(np.float64, grid.shape, elements=st.floats(-100.0, 100.0)))
    return grid, vals


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

    def test_arithmetic_grid_check(self):
        f = Field(line16(), np.zeros(16))
        g = Field(Grid.line(16, 5.0), np.zeros(16))
        with pytest.raises(GridMismatchError):
            _ = f + g


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
    def test_matches_reference_stencil(self, grid_and_values):
        # Bit for bit against the padded-flux kernel, signed zeros included.
        g, vals = grid_and_values
        lap = neumann_laplacian(Field(g, vals))
        ref = padded_flux_laplacian(g, vals)
        assert np.array_equal(lap.values, ref)
        assert lap.values.tobytes() == ref.tobytes()

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
            errors.append(norm_h(neumann_laplacian(f) + lam * f))
        for order in (math.log2(errors[0] / errors[1]), math.log2(errors[1] / errors[2])):
            assert 1.9 <= order <= 2.1


class TestBiharmonic:
    def test_constant(self):
        g = Grid.line(8, 2.0)
        assert np.all(neumann_biharmonic(Field.full(g, 3.0)).values == 0.0)

    def test_is_laplacian_twice(self):
        g = Grid.box(8, 6, 4.0, 3.0)
        rng = np.random.default_rng(11)
        f = Field(g, rng.uniform(-1, 1, g.shape))
        twice = neumann_laplacian(neumann_laplacian(f))
        assert np.array_equal(neumann_biharmonic(f).values, twice.values)

    def test_hand_example(self):
        # Second application of the reference stencil to [1, 1, 2, -4]
        # (the laplacian of [1, 2, 4, 8]) gives [0, 1, -7, 6]; like every
        # stencil output it sums to zero.
        g = Grid.line(4, 4.0)  # h = 1
        bih = neumann_biharmonic(Field(g, [1.0, 2.0, 4.0, 8.0]))
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
        scaled = grad_sq_integral(alpha * f)
        assert scaled == pytest.approx(alpha * alpha * grad_sq_integral(f),
                                       rel=1e-12, abs=1e-30)

    def test_norm_v(self):
        g = line16()
        f = Field(g, np.linspace(0, 1, 16))
        expected = math.sqrt(norm_h(f) ** 2 + grad_sq_integral(f))
        assert norm_v(f) == pytest.approx(expected, rel=1e-15)


class TestCg:
    def test_identity(self):
        g = line16()
        rhs = Field(g, np.arange(16.0))
        x = cg_solve(lambda v: v, rhs)
        assert np.array_equal(x.values, rhs.values)

    def test_double_identity(self):
        g = line16()
        rhs = Field(g, np.arange(16.0))
        x = cg_solve(lambda v: 2.0 * v, rhs)
        assert np.array_equal(x.values, 0.5 * rhs.values)

    def test_matches_dense_solve(self):
        g = Grid.line(8, 4.0)
        tau = 0.01

        def op(v):
            return v - tau * laplacian_values(g, v)

        dense = assemble_operator(op, g)
        rng = np.random.default_rng(3)
        rhs = Field(g, rng.uniform(-1, 1, 8))
        x = cg_solve(op, rhs, tol=1e-13)
        ref = np.linalg.solve(dense, rhs.values)
        assert np.max(np.abs(x.values - ref)) <= 1e-10

    def test_budget_exhaustion_reports_residual(self):
        g = line16()
        rhs = Field(g, np.random.default_rng(8).uniform(-1, 1, 16))

        def op(v):
            return v - 0.05 * laplacian_values(g, v)

        with pytest.raises(CgNonConvergenceError) as err:
            cg_solve(op, rhs, tol=1e-14, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual > 0.0

    def test_non_finite_operator_output_raises_at_once(self):
        g = line16()
        rhs = Field(g, np.arange(16.0))
        with pytest.raises(CgNonConvergenceError) as err:
            cg_solve(lambda v: np.full_like(v, np.nan), rhs)
        assert err.value.iterations == 0

    def test_wrong_shape_output_raises(self):
        g = line16()
        rhs = Field(g, np.arange(16.0))
        with pytest.raises(GridMismatchError):
            cg_solve(lambda v: np.zeros(17), rhs)

    def test_operator_receives_plain_arrays(self):
        g = line16()
        rhs = Field(g, np.random.default_rng(9).uniform(-1, 1, 16))

        def op(v):
            assert type(v) is np.ndarray
            return v - 0.05 * laplacian_values(g, v)

        x = cg_solve(op, rhs, tol=1e-13, x0=Field.zeros(g))
        assert norm_h(Field(g, op(x.values)) - rhs) <= 1e-13 * norm_h(rhs)

    def test_zero_rhs(self):
        g = line16()
        x = cg_solve(lambda v: 3.0 * v, Field.zeros(g))
        assert np.all(x.values == 0.0)

    def test_invalid_tol(self):
        g = line16()
        with pytest.raises(ValueError):
            cg_solve(lambda v: v, Field.zeros(g), tol=0.0)
