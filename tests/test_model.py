import copy
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chcontrol import (Field, Grid, ModelParams, Numerics, OptimOptions, ParameterError,
                       QuadraticProliferation, QuarticDoubleWell, SigmoidProliferation,
                       check_hypotheses, default_stabilization, f_deriv, p_deriv, preset_field,
                       step_count)
from chcontrol.model import _splitmix64, _splitmix64_uniform, f0_deriv, f1_deriv


class TestDoubleWell:
    def test_minima(self):
        pot = QuarticDoubleWell()
        assert f_deriv(pot, 1, 1.0) == 0.0
        assert f_deriv(pot, 1, -1.0) == 0.0
        assert f_deriv(pot, 0, 1.0) == 0.0

    def test_curvature_values(self):
        pot = QuarticDoubleWell()
        assert f_deriv(pot, 2, 0.0) == -1.0
        assert f_deriv(pot, 2, 1.0) == 2.0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            f_deriv(QuarticDoubleWell(), 4, 0.0)
        with pytest.raises(ValueError):
            f0_deriv(QuarticDoubleWell(), 3, 0.0)

    @given(st.floats(-10.0, 10.0), st.floats(0.1, 5.0))
    def test_split_reproduces_well(self, s, w):
        pot = QuarticDoubleWell(well_scale=w)
        total = f0_deriv(pot, 0, s) + f1_deriv(pot, 0, s)
        assert total == pytest.approx(f_deriv(pot, 0, s), rel=1e-13, abs=1e-13)

    def test_split_at_integer_points(self):
        pot = QuarticDoubleWell()
        for s in (-2.0, -1.0, 0.0, 1.0, 2.0):
            assert f0_deriv(pot, 0, s) + f1_deriv(pot, 0, s) == f_deriv(pot, 0, s)

    def test_third_derivative_by_central_difference(self):
        pot = QuarticDoubleWell(well_scale=1.3)
        s = np.linspace(-3, 3, 41)
        for delta in (1e-3, 5e-4):
            fd = (f_deriv(pot, 2, s + delta) - f_deriv(pot, 2, s - delta)) / (2 * delta)
            err = np.max(np.abs(fd - f_deriv(pot, 3, s)))
            # cubic F'': central difference of a quadratic is exact up to roundoff
            assert err <= 1e-8

    def test_well_scale_validation(self):
        with pytest.raises(ValueError):
            QuarticDoubleWell(well_scale=0.0)

    def test_curvature_growth_exponent_in_window(self):
        assert 2 <= QuarticDoubleWell.growth_exponent < 6


class TestProliferation:
    def test_quadratic_values(self):
        p = QuadraticProliferation(p0=0.5)
        assert p_deriv(p, 0, 0.0) == 0.5
        assert p_deriv(p, 1, 0.0) == 0.0
        p1 = QuadraticProliferation(p0=1.0)
        assert p_deriv(p1, 0, 2.0) == 5.0
        assert p_deriv(p1, 1, 2.0) == 4.0

    def test_sigmoid_nonnegative_and_slope(self):
        p = SigmoidProliferation(p0=1.0, steepness=1.0, floor=0.0)
        s = np.linspace(-10, 10, 401)
        assert np.min(p_deriv(p, 0, s)) >= 0.0
        expected = 0.5 / np.cosh(s) ** 2
        assert np.allclose(p_deriv(p, 1, s), expected, atol=1e-14)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            p_deriv(QuadraticProliferation(), 2, 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QuadraticProliferation(p0=-1.0)
        with pytest.raises(ValueError):
            SigmoidProliferation(floor=-0.1)


class TestModelParams:
    def test_cg_tol_floor_is_machine_epsilon(self):
        assert Numerics(cg_tol=2.0 ** -52).cg_tol == np.finfo(float).eps

    def test_step_count(self):
        params = ModelParams(beta_u=1.0, t_final=0.1, tau=0.001)
        assert params.n_steps == 100

    def test_weights_not_all_zero(self):
        with pytest.raises(ValueError):
            ModelParams(beta_q=0.0, beta_omega=0.0, beta_u=0.0)
        with pytest.raises(ValueError):
            ModelParams(beta_q=-1.0, beta_u=1.0)

    def test_bounds_ordered(self):
        with pytest.raises(ValueError):
            ModelParams(beta_u=1.0, u_min=1.0, u_max=-1.0)
        g = Grid.line(8, 1.0)
        lo = Field.full(g, -1.0)
        hi = Field(g, np.linspace(-2.0, 1.0, 8))
        with pytest.raises(ValueError):
            ModelParams(beta_u=1.0, u_min=lo, u_max=hi)

    def test_auto_stabilization(self):
        params = ModelParams(beta_u=1.0)
        assert params.stabilization == default_stabilization(params.potential)
        assert params.stabilization == pytest.approx(5.75)

    def test_infinite_step_ratio_names_tau(self):
        # t_final/tau overflows to inf; rounding it used to raise OverflowError.
        with pytest.raises(ParameterError) as info:
            ModelParams(t_final=1e300, tau=1e-300)
        assert info.value.name == "tau"


class TestParameterError:
    # Each constructor raises for one parameter at a time and names it.
    @pytest.mark.parametrize("build, kwargs, name", [
        (Grid, dict(dim=0, counts=(8, 1), lengths=(1.0, 1.0)), "dim"),
        (Grid, dict(dim=1, counts=(3, 1), lengths=(1.0, 1.0)), "nx"),
        (Grid, dict(dim=1, counts=(8, 2), lengths=(1.0, 1.0)), "ny"),
        (Grid, dict(dim=2, counts=(8, 2), lengths=(1.0, 1.0)), "ny"),
        (Grid, dict(dim=2, counts=(8, 8), lengths=(0.0, 1.0)), "lx"),
        (Grid, dict(dim=2, counts=(8, 8), lengths=(1.0, -1.0)), "ly"),
        (Grid, dict(dim=2, counts=(8, 8), lengths=(1.0, 1e-160)), "ly"),
        (Grid, dict(dim=1, counts=(8, 1), lengths=(1.0, 1e-160)), "ly"),
        # Counts that do not convert to a float (OverflowError before).
        (Grid, dict(dim=1, counts=(10 ** 400, 1), lengths=(1.0, 1.0)), "nx"),
        (Grid, dict(dim=2, counts=(8, 10 ** 400), lengths=(1.0, 1.0)), "ny"),
        # Counts too long for str() are named before any message formats them.
        (Grid, dict(dim=1, counts=(8, 10 ** 5000), lengths=(1.0, 1.0)), "ny"),
        (Grid, dict(dim=1, counts=(-10 ** 5000, 1), lengths=(1.0, 1.0)), "nx"),
        (Grid, dict(dim=2, counts=(10 ** 5000, 8), lengths=(1.0, 1.0)), "nx"),
        # h*h overflows: the cell volume and the smoother's (2h)^2 would be inf.
        (Grid, dict(dim=1, counts=(16, 1), lengths=(1e300, 1.0)), "lx"),
        (Grid, dict(dim=2, counts=(16, 16), lengths=(1.0, 1e300)), "ly"),
        (QuarticDoubleWell, dict(well_scale=0.0), "well_scale"),
        (QuadraticProliferation, dict(p0=0.0), "p0"),
        (SigmoidProliferation, dict(p0=-1.0), "p0"),
        (SigmoidProliferation, dict(steepness=0.0), "steepness"),
        (SigmoidProliferation, dict(floor=-0.1), "floor"),
        (Numerics, dict(cg_tol=0.0), "cg_tol"),
        (Numerics, dict(cg_tol=math.nextafter(2.0 ** -52, 0.0)), "cg_tol"),  # below eps
        (Numerics, dict(cg_max_iter=0), "cg_max_iter"),
        (Numerics, dict(overflow_guard=-1.0), "overflow_guard"),
        (OptimOptions, dict(tol=0.0), "tol"),
        (OptimOptions, dict(alpha0=-1.0), "alpha0"),
        (ModelParams, dict(beta_q=-1.0), "beta_q"),
        (ModelParams, dict(beta_omega=-1.0), "beta_omega"),
        (ModelParams, dict(beta_u=0.0), "beta_u"),
        (ModelParams, dict(tau=0.0), "tau"),
        (ModelParams, dict(t_final=-1.0), "t_final"),
        (ModelParams, dict(t_final=1e-4, tau=1e-3), "t_final"),
        (ModelParams, dict(t_final=1.0, tau=math.nan), "tau"),
        (ModelParams, dict(stabilization=-1.0), "stabilization"),
        (ModelParams, dict(u_min=1.0, u_max=-1.0), "u_min"),
    ])
    def test_names_the_parameter(self, build, kwargs, name):
        with pytest.raises(ParameterError) as info:
            build(**kwargs)
        assert info.value.name == name

    def test_cg_tol_floor_is_machine_epsilon(self):
        assert Numerics(cg_tol=2.0 ** -52).cg_tol == np.finfo(float).eps

    def test_step_count(self):
        assert step_count(0.1, 0.001) == ModelParams(t_final=0.1, tau=0.001).n_steps == 100
        assert step_count(1.4e-3, 1e-3) == 1


class TestHypothesisReport:
    def test_default_quadratic_passes_with_unit_sandwich_constant(self):
        params = ModelParams(beta_u=1.0)
        report = check_hypotheses(params)
        assert report.passed
        assert report.constants["alpha3"] == pytest.approx(1.0, abs=1e-12)
        assert report.constants["alpha4"] == pytest.approx(3.0, rel=0.05)
        # sup of |2*p0*s| / (1 + |s|) over [-5, 5] sits at the endpoint
        assert report.constants["alpha1"] == pytest.approx(2 * 0.5 * 5 / 6, rel=1e-12)

    def test_sigmoid_passes(self):
        params = ModelParams(beta_u=1.0, proliferation=SigmoidProliferation())
        report = check_hypotheses(params)
        assert report.passed
        # exponent 1 makes the growth weight the constant 2, so the sup is
        # the peak slope p0*k/2 halved
        assert report.constants["alpha1"] == pytest.approx(0.25, rel=1e-9)

    def test_coercivity_offset_is_sampled_not_unit(self):
        # The smallest offset for slope 1 on [-5, 5] is about 1.1823 (the
        # deficit peaks near s = 1.3247), so any offset >= that is feasible.
        params = ModelParams(beta_u=1.0)
        report = check_hypotheses(params)
        assert report.constants["alpha6"] == pytest.approx(1.18226, rel=1e-3)

    def test_sign_indefinite_rate_fails(self):
        class LinearRate:
            growth_exponent = 1

            def value(self, s):
                return np.asarray(s, dtype=float)

            def deriv(self, s):
                return np.ones_like(np.asarray(s, dtype=float))

        params = ModelParams(beta_u=1.0)
        params.proliferation = LinearRate()
        report = check_hypotheses(params)
        assert not report.checks["proliferation_nonnegative"]
        assert not report.passed

    def test_zero_weights_detected(self):
        # Construction refuses all-zero weights, so simulate corrupted input
        # by mutating a copy after the fact.
        params = copy.copy(ModelParams(beta_u=1.0))
        params.beta_u = 0.0
        report = check_hypotheses(params)
        assert not report.checks["weights_nonnegative_not_all_zero"]


class TestPresets:
    def test_constant(self):
        g = Grid.line(8, 1.0)
        f = preset_field("constant", g, value=0.3)
        assert np.all(f.values == 0.3)

    def test_tanh_ball_zero_radius_nonpositive(self):
        g = Grid.line(32, 4.0)
        f = preset_field("tanh_ball", g, center=2.0, radius=0.0, width=0.1)
        x = g.cell_centers()[0]
        expected = np.tanh(-np.abs(x - 2.0) / (math.sqrt(2) * 0.1))
        assert np.all(f.values <= 0.0)
        assert np.allclose(f.values, expected, atol=1e-15)

    def test_tanh_ball_2d_radial(self):
        g = Grid.box(16, 16, 4.0, 4.0)
        f = preset_field("tanh_ball", g, center=(2.0, 2.0), radius=1.0, width=0.3)
        assert f.values.max() > 0.9 and f.values.min() < -0.9

    def test_filtered_noise_deterministic(self):
        g = Grid.line(32, 4.0)
        a = preset_field("filtered_noise", g, seed=11, amplitude=0.5)
        b = preset_field("filtered_noise", g, seed=11, amplitude=0.5)
        assert np.array_equal(a.values, b.values)
        c = preset_field("filtered_noise", g, seed=12, amplitude=0.5)
        assert not np.array_equal(a.values, c.values)

    def test_filtered_noise_smooths(self):
        g = Grid.line(64, 4.0)
        rough = 0.5 * _splitmix64_uniform(11, g.shape)
        smooth = preset_field("filtered_noise", g, seed=11, amplitude=0.5)
        assert np.max(np.abs(np.diff(smooth.values))) < np.max(np.abs(np.diff(rough)))

    def test_splitmix64_matches_published_words(self):
        assert _splitmix64(0, 3).tolist() == [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4,
                                              0x06c45d188009454f]

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
    def test_splitmix64_uniform_lies_in_half_open_interval(self, seed):
        u = _splitmix64_uniform(seed, (100, 100))
        assert u.shape == (100, 100)
        assert u.min() >= -1.0 and u.max() < 1.0
        assert abs(u.mean()) < 0.03  # 5 standard errors of 1e4 uniform samples

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_filtered_noise_rejects_out_of_range_seeds(self, seed):
        with pytest.raises(ValueError):
            preset_field("filtered_noise", Grid.line(8, 1.0), seed=seed)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_field("mystery", Grid.line(8, 1.0), value=1.0)
