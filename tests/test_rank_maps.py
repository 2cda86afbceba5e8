"""The rank-specialized 1D operator maps, the step guards and the blocked
level reductions: each must give the bits of the generic form it replaces."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import chcontrol.grid as grid_module
from chcontrol import ControlSchedule, DivergenceError, Field, Grid, ModelParams, inner_product
from chcontrol.forward import (_check_outputs, _diffusion_increment, _phase_increment,
                               diffusion_operator, phase_operator, phase_preconditioner)
from chcontrol.grid import (DENSE_MAX_CELLS, LEVEL_BLOCK_CELLS, _dense_increment, _level_blocks,
                            _spectral_basis, level_inner_products, spectral_inverse)
from chcontrol.sensitivity import level_coefficients
from helpers import smooth_field

step_params = st.builds(lambda tau: ModelParams(beta_u=1.0, t_final=1.0, tau=tau),
                        st.floats(1e-5, 1e-1))
lengths = st.floats(0.5, 10.0)
seeds = st.integers(0, 2**32 - 1)


def generic_dense(mat, v):
    """The rank-generic dense map: flatten, shift by the first value, reshape."""
    return v + (mat @ (v.reshape(-1) - v.flat[0])).reshape(v.shape)


def generic_spectral(mats, inv, b):
    """The rank-generic form of a 1D spectral inverse."""
    cx = mats[0]
    shift = b.flat[0]
    w = b - shift
    out = cx.T @ ((cx @ w) * inv)
    out += shift * inv.flat[0]
    return out


class TestDenseMap1d:
    @given(st.integers(4, DENSE_MAX_CELLS), lengths, step_params, seeds)
    @example(4, 0.5, ModelParams(beta_u=1.0, t_final=1.0, tau=1e-1), 0)
    @example(DENSE_MAX_CELLS, 10.0, ModelParams(beta_u=1.0, t_final=1.0, tau=1e-5), 1)
    def test_matches_the_generic_form_bitwise(self, nx, length, params, seed):
        g = Grid.line(nx, length)
        v = np.random.default_rng(seed).uniform(-2.0, 2.0, g.shape)
        for make, increment in ((phase_operator, _phase_increment),
                                (diffusion_operator, _diffusion_increment)):
            mat = _dense_increment(g, increment(params, g))
            assert make(params, g)(v).tobytes() == generic_dense(mat, v).tobytes()

    @given(st.integers(4, DENSE_MAX_CELLS), step_params, st.floats(-1e3, 1e3))
    def test_constants_map_to_themselves(self, nx, params, c):
        g = Grid.line(nx, 4.0)
        const = np.full(g.shape, c)
        for make in (phase_operator, diffusion_operator):
            assert make(params, g)(const).tobytes() == const.tobytes()

    def test_argument_unmodified_and_new_function_per_call(self):
        g = Grid.line(32, 8.0)
        params = ModelParams(beta_u=1.0, t_final=0.05, tau=5e-3)
        v = np.random.default_rng(5).uniform(-1.0, 1.0, g.shape)
        before = v.tobytes()
        ops = [diffusion_operator(params, g), diffusion_operator(params, g),
               phase_operator(params, g), phase_operator(params, g)]
        for op in ops:
            op(v)
        assert v.tobytes() == before
        assert len({id(op) for op in ops}) == 4


class TestSpectralMap1d:
    @given(st.integers(4, 300), lengths, st.floats(1e-4, 1e2), seeds)
    @example(4, 0.5, 1e2, 0)
    @example(300, 10.0, 1e-4, 1)
    def test_matches_the_generic_form_bitwise(self, nx, length, c, seed):
        g = Grid.line(nx, length)
        def symbol(mu):
            return 1.0 + c * mu * mu

        inverse = spectral_inverse(g, symbol)
        mats, mu = _spectral_basis(g)
        inv = 1.0 / symbol(mu)
        b = np.random.default_rng(seed).uniform(-2.0, 2.0, g.shape)
        assert inverse(b).tobytes() == generic_spectral(mats, inv, b).tobytes()

    @given(st.integers(4, 300), st.floats(-1e3, 1e3))
    def test_constants_map_exactly(self, nx, c):
        g = Grid.line(nx, 4.0)
        const = np.full(g.shape, c)
        unit = spectral_inverse(g, lambda mu: 1.0 + mu)
        assert unit(const).tobytes() == const.tobytes()
        shifted = spectral_inverse(g, lambda mu: 4.0 + mu)
        assert shifted(const).tobytes() == np.full(g.shape, c * 0.25).tobytes()

    def test_argument_unmodified_and_new_function_per_call(self):
        g = Grid.line(32, 8.0)
        params = ModelParams(beta_u=1.0, t_final=0.05, tau=5e-3)
        b = np.random.default_rng(6).uniform(-1.0, 1.0, g.shape)
        before = b.tobytes()
        maps = [phase_preconditioner(params, g), phase_preconditioner(params, g)]
        for m in maps:
            m(b)
        assert b.tobytes() == before
        assert maps[0] is not maps[1]


def old_check_message(a, b, guard, step_index, name):
    """The message of the step guard as it was written before its fast path."""
    worst = float(np.maximum(abs(a).max(), abs(b).max()))
    where = f"unknown {name}" if step_index is None else f"{name} {step_index}"
    if math.isfinite(worst):
        return (f"solution magnitude {worst:.3e} exceeded the overflow guard "
                f"{guard:.3e} at {where}")
    return f"non-finite solution at {where}"


class TestCheckOutputs:
    GUARD = 1e10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.5e10, -3e10])
    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("step_index", [None, 7])
    def test_bad_output_raises_with_the_same_message(self, bad, which, step_index):
        outputs = [np.linspace(-1.0, 1.0, 16), np.linspace(0.0, 2.0, 16)]
        outputs[which][5] = bad
        with pytest.raises(DivergenceError) as err:
            _check_outputs(*outputs, self.GUARD, step_index)
        assert str(err.value) == old_check_message(*outputs, self.GUARD, step_index, "step")
        assert err.value.step_index == step_index

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_infinite_guard_still_rejects_non_finite_values(self, bad, which):
        outputs = [np.zeros((4, 4)), np.ones((4, 4))]
        outputs[which][2, 1] = bad
        with pytest.raises(DivergenceError) as err:
            _check_outputs(*outputs, math.inf, 4, "adjoint step")
        assert str(err.value) == "non-finite solution at adjoint step 4"
        assert err.value.step_index == 4

    def test_values_at_the_guard_pass(self):
        a = np.array([self.GUARD, -self.GUARD, 0.0, 1.0])
        _check_outputs(a, -a, self.GUARD, 0)
        big = np.full(4, np.finfo(float).max)
        _check_outputs(big, -big, math.inf, 0, "linearized step")


def level_arrays(g, levels, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (levels,) + g.shape), rng.uniform(-1.0, 1.0, (levels,) + g.shape)


BLOCK_GRIDS = [Grid.line(4, 1.0), Grid.line(32, 8.0), Grid.box(4, 5, 1.0, 1.5),
               Grid.box(16, 16, 4.0, 2.0)]


class TestLevelBlocks:
    @pytest.mark.parametrize("n_levels", [1, 2, 7, 50, 300])
    @pytest.mark.parametrize("n_cells", [1, 4, 32, 1000, LEVEL_BLOCK_CELLS,
                                         LEVEL_BLOCK_CELLS + 1, 5 * LEVEL_BLOCK_CELLS])
    def test_blocks_cover_the_levels_within_the_budget(self, n_levels, n_cells):
        blocks = _level_blocks(n_levels, n_cells)
        covered = [n for blk in blocks for n in range(n_levels)[blk]]
        assert covered == list(range(n_levels))
        rows = max(1, LEVEL_BLOCK_CELLS // n_cells)
        assert all(blk.stop - blk.start <= rows for blk in blocks)
        assert len(blocks) == -(-n_levels // rows)

    def test_benchmark_stacks_are_one_block(self):
        assert len(_level_blocks(50, 32)) == 1  # 1D control sweep, 1600 values
        assert len(_level_blocks(8, 32 * 32)) == 1  # 32x32 gradient check, 8192 values


class TestBlockedInnerProducts:
    @pytest.mark.parametrize("g", BLOCK_GRIDS)
    @pytest.mark.parametrize("budget_levels", [0, 1, 2, 3, 100])
    def test_every_entry_equals_inner_product(self, monkeypatch, g, budget_levels):
        # A budget of 0 or 1 level per block, a ragged last block, and one block.
        monkeypatch.setattr(grid_module, "LEVEL_BLOCK_CELLS", budget_levels * g.n_cells + 1)
        a, b = level_arrays(g, 11, g.n_cells)
        got = level_inner_products(g, a, b)
        want = [inner_product(Field(g, a[n]), Field(g, b[n])) for n in range(len(a))]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("budget_levels", [1, 3, 100])
    def test_constant_schedules_with_stride_zero_rows(self, monkeypatch, budget_levels):
        g = Grid.box(4, 5, 1.0, 1.5)
        monkeypatch.setattr(grid_module, "LEVEL_BLOCK_CELLS", budget_levels * g.n_cells)
        row = smooth_field(g, 3, 0.7)
        u = ControlSchedule.constant(g, 9, row.values)
        assert u.values.strides[0] == 0
        w = ControlSchedule(g, level_arrays(g, 9, 4)[0])
        want_uu = inner_product(row, row)
        assert u.level_inner_products(u) == [want_uu] * 9
        want_uw = [inner_product(row, w[n]) for n in range(9)]
        assert u.level_inner_products(w) == want_uw


class TestBlockedCoefficients:
    @pytest.mark.parametrize("g", BLOCK_GRIDS)
    @pytest.mark.parametrize("budget_levels", [1, 2, 3, 100])
    def test_levels_equal_single_level_calls(self, monkeypatch, g, budget_levels):
        monkeypatch.setattr(grid_module, "LEVEL_BLOCK_CELLS", budget_levels * g.n_cells)
        params = ModelParams(beta_u=1.0)
        levels = 7
        phi = np.array([smooth_field(g, k, 0.8).values for k in range(levels)])
        sigma = np.array([smooth_field(g, 20 + k, 0.5).values for k in range(levels)])
        stacked = level_coefficients(params, g, phi, sigma)
        for n in range(levels):
            single = level_coefficients(params, g, phi[n], sigma[n])
            for a, b in zip(stacked, single):
                assert a.shape == (levels,) + g.shape
                assert a[n].tobytes() == b.tobytes()
