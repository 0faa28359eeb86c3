"""Solution generators and residual checks for the classical systems."""

import math

import numpy as np
import pytest

from btkit.classic_bts import (
    bt_residual_cr,
    bt_residual_liouville,
    bt_residual_sine_gordon,
    harmonic_conjugate_match,
    harmonic_quadratic,
    laplace_residual,
    liouville_from_trivial,
    liouville_residual,
    monomial_xy,
    sine_gordon_from_vacuum,
    sine_gordon_residual,
    xy_family_match,
    zero_field,
)
from btkit.errors import InvalidParameterError
from btkit.verify import Grid2D

GRID = Grid2D()  # [-1, 1]^2, 41 x 41, h = 1e-4


class TestHarmonicConjugates:
    def test_matched_coefficients_are_exact(self):
        # v = kappa x t + lambda x + mu t with kappa = 2 alpha, mu = beta, lambda = -gamma
        u, v = harmonic_conjugate_match(1.0, 2.0, 3.0)
        assert v.params == {"alpha": 1.0, "beta": 2.0, "gamma": 3.0}
        # spot values computed by hand from v = 2 x t - 3 x + 2 t
        assert v(1.5, -0.7) == 2.0 * 1.5 * -0.7 - 3.0 * 1.5 + 2.0 * -0.7
        assert v(1.5, -0.7) == -8.0
        assert u(1.5, -0.7) == (1.5 ** 2 - 0.7 ** 2) + 2.0 * 1.5 + 3.0 * -0.7

    @pytest.mark.parametrize("abc", [(1.0, 0.0, 0.0), (0.0, 1.0, -2.0), (0.7, -1.3, 2.9)])
    def test_matched_pair_satisfies_relations(self, abc):
        u, v = harmonic_conjugate_match(*abc)
        report = bt_residual_cr(u, v, GRID)
        assert report.max_abs < 1e-10

    @pytest.mark.parametrize("abc", [(1.0, 2.0, 3.0), (0.5, 0.0, -1.0)])
    def test_both_fields_are_harmonic(self, abc):
        u, v = harmonic_conjugate_match(*abc)
        assert laplace_residual(u, GRID).max_abs < 1e-6
        assert laplace_residual(v, GRID).max_abs < 1e-6

    def test_match_is_linear_in_parameters(self):
        _, v1 = harmonic_conjugate_match(1.0, -2.0, 0.5)
        _, v2 = harmonic_conjugate_match(0.3, 1.1, -0.7)
        _, v12 = harmonic_conjugate_match(1.3, -0.9, -0.2)
        x, t = np.meshgrid(np.linspace(-1, 1, 7), np.linspace(-1, 1, 7), indexing="ij")
        np.testing.assert_allclose(v12(x, t), v1(x, t) + v2(x, t), atol=1e-14)

    def test_unmatched_pair_has_visible_residual(self):
        # u = x^2 - t^2 against v = 0: u_x - v_t = 2x peaks at 2 on the square
        u = harmonic_quadratic(1.0, 0.0, 0.0)
        report = bt_residual_cr(u, zero_field(), GRID)
        assert report.max_abs == pytest.approx(2.0, abs=1e-9)

    def test_constant_shift_of_u_stays_conjugate(self):
        u, v = harmonic_conjugate_match(1.0, 2.0, 3.0)
        shifted = lambda x, t: u(x, t) + 17.0
        assert bt_residual_cr(shifted, v, GRID).max_abs < 1e-10


class TestXYFamily:
    def test_only_trivial_member_is_conjugate(self):
        result = xy_family_match(2.0, -2.0)
        assert not result.conjugate
        assert len(result.constraints) == 2
        assert xy_family_match(0.0, 0.0).conjugate

    def test_nonconjugate_pair_has_large_residual(self):
        result = xy_family_match(2.0, -2.0)
        report = bt_residual_cr(result.u, result.v, GRID)
        assert report.max_abs > 1.0

    def test_unit_pair_residual_exceeds_half(self):
        result = xy_family_match(1.0, 1.0)
        report = bt_residual_cr(result.u, result.v, GRID)
        assert report.max_abs > 0.5

    def test_member_fields_are_harmonic_individually(self):
        assert laplace_residual(monomial_xy(2.0), GRID).max_abs < 1e-6


class TestLiouville:
    def test_generated_solution_satisfies_equation(self):
        u = liouville_from_trivial(2.0)
        grid = Grid2D(-0.5, 0.5, -0.5, 0.5, 41, 41, h=1e-4)
        report = liouville_residual(u, grid)
        assert report.max_abs < 1e-6
        assert report.n_singular == 0

    def test_generated_solution_satisfies_system_with_trivial_seed(self):
        u = liouville_from_trivial(2.0)
        grid = Grid2D(-0.5, 0.5, -0.5, 0.5, 41, 41, h=1e-4)
        report = bt_residual_liouville(u, zero_field(), grid)
        assert report.max_abs < 1e-6

    def test_spot_values(self):
        u = liouville_from_trivial(1.0)
        assert u(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        # u_xt = exp(u) = 1 at the origin for C = 1
        h = 1e-4
        uxt = (u(h, h) - u(h, -h) - u(-h, h) + u(-h, -h)) / (4 * h * h)
        assert uxt == pytest.approx(1.0, abs=1e-6)

    def test_trivial_pair_misses_by_sqrt2(self):
        # with u = v = 0 both equations reduce to 0 = sqrt(2)
        report = bt_residual_liouville(zero_field(), zero_field(), GRID)
        assert report.max_abs == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert report.rms == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_singular_line_is_excluded_and_counted(self):
        u = liouville_from_trivial(1.0)  # singular where (x + t)/sqrt(2) >= 1
        report = liouville_residual(u, GRID)
        assert report.n_singular > 0
        assert report.n_points + report.n_singular == 41 * 41
        # accuracy degrades only next to the blow-up line; away from it the
        # equation is still met tightly
        safe = Grid2D(-1.0, 0.0, -1.0, 0.0, 21, 21, h=1e-4)
        assert liouville_residual(u, safe).max_abs < 1e-6

    def test_domain_evaluates_to_nan_outside(self):
        u = liouville_from_trivial(1.0)
        assert math.isnan(u(1.0, 1.0))
        assert math.isfinite(u(-1.0, -1.0))


class TestSineGordon:
    def test_zero_parameter_rejected(self):
        with pytest.raises(InvalidParameterError):
            sine_gordon_from_vacuum(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            bt_residual_sine_gordon(zero_field(), zero_field(), 0.0, GRID)

    def test_kink_solves_equation(self):
        u = sine_gordon_from_vacuum(1.0, 1.0)
        grid = Grid2D(-2.0, 2.0, -2.0, 2.0, 41, 41, h=1e-4)
        assert sine_gordon_residual(u, grid).max_abs < 1e-6

    def test_kink_satisfies_system_with_vacuum_seed(self):
        u = sine_gordon_from_vacuum(1.0, 1.0)
        grid = Grid2D(-2.0, 2.0, -2.0, 2.0, 41, 41, h=1e-4)
        assert bt_residual_sine_gordon(u, zero_field(), 1.0, grid).max_abs < 1e-6

    @pytest.mark.parametrize("a,C", [(0.5, 2.0), (-1.0, 1.0), (2.0, 0.3)])
    def test_other_parameters_also_solve(self, a, C):
        u = sine_gordon_from_vacuum(a, C)
        assert sine_gordon_residual(u, GRID).max_abs < 1e-6

    def test_origin_values_for_unit_parameters(self):
        # u(0,0) = 4 arctan(1) = pi; the collapsed system gives u_x = 2 sin(u/2) = 2
        u = sine_gordon_from_vacuum(1.0, 1.0)
        assert u(0.0, 0.0) == pytest.approx(math.pi, rel=1e-14)
        h = 1e-5
        ux = (u(h, 0.0) - u(-h, 0.0)) / (2 * h)
        assert ux == pytest.approx(2.0, abs=1e-8)

    def test_kink_range_and_monotonicity(self):
        u = sine_gordon_from_vacuum(1.0, 1.0)
        xs = np.linspace(-30.0, 30.0, 301)
        vals = u(xs, np.zeros_like(xs))
        assert np.all(vals > 0.0) and np.all(vals < 2.0 * math.pi)
        assert np.all(np.diff(vals) > 0.0)

    def test_translation_covariance(self):
        # shifting (x, t) by (c1, c2) matches scaling C by exp(a c1 + c2 / a)
        a, C, c1, c2 = 0.7, 1.3, 0.4, -0.6
        shifted = sine_gordon_from_vacuum(a, C * math.exp(a * c1 + c2 / a))
        base = sine_gordon_from_vacuum(a, C)
        x, t = np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9), indexing="ij")
        np.testing.assert_allclose(shifted(x, t), base(x + c1, t + c2), rtol=1e-12)
        assert sine_gordon_residual(shifted, GRID).max_abs < 1e-6

    def test_zero_seed_constant_gives_vacuum(self):
        u = sine_gordon_from_vacuum(1.0, 0.0)
        x, t = np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5), indexing="ij")
        np.testing.assert_allclose(u(x, t), 0.0, atol=1e-15)


class TestSerialization:
    def test_field_json_shape(self):
        u = liouville_from_trivial(2.0)
        assert u.to_dict() == {"family": "liouville_soliton", "params": {"C": 2.0}}

    def test_unknown_family_rejected(self):
        from btkit.classic_bts import ScalarField2D

        with pytest.raises(InvalidParameterError):
            ScalarField2D("cubic_spline", {})

    @pytest.mark.parametrize("make", [
        lambda value: liouville_from_trivial(value),
        lambda value: harmonic_conjugate_match(1.0, value, 0.0)[0],
        lambda value: sine_gordon_from_vacuum(value, 1.0),
    ], ids=["liouville C", "laplace beta", "sine-gordon a"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_is_rejected(self, make, value):
        with pytest.raises(InvalidParameterError, match="must be finite"):
            make(value)
