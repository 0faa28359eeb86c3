"""Stencil accuracy, scan bookkeeping, and grid validation."""

import math

import numpy as np
import pytest

from btkit import classic_bts
from btkit.errors import EmptyDomainError, InvalidGridError, SingularPointError
from btkit.maxwell_conductor import conjugate_conducting, modified_wave_residual
from btkit.maxwell_vacuum import FieldPair, conjugate_vacuum, maxwell_residual, wave_residual
from btkit.media import MediumParams
from btkit.verify import (
    Grid2D,
    Grid4D,
    ResidualReport,
    mixed_derivative,
    partial_derivative,
    report_from_values,
    residual_scan,
    second_derivative,
    vector_ops,
)


def quadratic(x, t):
    return 0.5 + 1.5 * x - 2.0 * t + 3.0 * x * x + x * t - t * t


class TestStencils:
    def test_first_derivative_of_quadratic_is_exact(self):
        # at (0.7, -0.3): f_x = 1.5 + 6x + t = 5.4, f_t = -2 + x - 2t = -0.7
        p = (0.7, -0.3)
        assert partial_derivative(quadratic, p, 0) == pytest.approx(5.4, rel=1e-10)
        assert partial_derivative(quadratic, p, 1) == pytest.approx(-0.7, rel=1e-10)

    def test_second_derivatives_of_quadratic_are_exact(self):
        p = (0.7, -0.3)
        # rounding floor for 3-point stencils is ~4 eps |f| / h^2
        assert second_derivative(quadratic, p, 0) == pytest.approx(6.0, rel=1e-6)
        assert second_derivative(quadratic, p, 1) == pytest.approx(-2.0, rel=1e-6)
        assert mixed_derivative(quadratic, p, 0, 1) == pytest.approx(1.0, rel=1e-6)

    def test_sin_derivative_matches_analytic_cosine(self):
        f = lambda x, t: math.sin(x)
        assert partial_derivative(f, (0.0, 0.0), 0) == pytest.approx(1.0, abs=1e-8)
        assert partial_derivative(f, (0.9, 0.0), 0) == pytest.approx(math.cos(0.9), abs=1e-8)

    def test_mixed_derivative_matches_analytic(self):
        f = lambda x, t: math.sin(x) * math.cos(t)
        expected = -math.cos(0.4) * math.sin(0.8)
        assert mixed_derivative(f, (0.4, 0.8), 0, 1, h=1e-3) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("deriv,axis", [
        (partial_derivative, 0),
        (second_derivative, 0),
        (partial_derivative, 1),
    ])
    def test_halving_step_quarters_the_error(self, deriv, axis):
        f = lambda x, t: math.sin(x) * math.exp(t)
        point = (0.5, 0.3)
        exact = {
            (partial_derivative, 0): math.cos(0.5) * math.exp(0.3),
            (second_derivative, 0): -math.sin(0.5) * math.exp(0.3),
            (partial_derivative, 1): math.sin(0.5) * math.exp(0.3),
        }[(deriv, axis)]
        e1 = abs(deriv(f, point, axis, h=1e-2) - exact)
        e2 = abs(deriv(f, point, axis, h=5e-3) - exact)
        assert 3.0 < e1 / e2 < 5.0

    def test_evaluator_failure_raises_singular_point_with_coordinates(self):
        f = lambda x, t: math.log(x)
        with pytest.raises(SingularPointError) as err:
            partial_derivative(f, (0.0, 0.0), 0, h=1e-4)
        assert len(err.value.point) == 2

    def test_non_finite_result_counts_as_singular(self):
        f = lambda x, t: float("nan")
        with pytest.raises(SingularPointError):
            partial_derivative(f, (0.0, 0.0), 0)


class TestVectorOps:
    # F = (x^2 + 3yz, y^2 - 2xz, z^2 + xy + t^2/2), quadratic so stencils are exact:
    # div = 2x + 2y + 2z, curl = (3x, 2y, -5z), lap = (2, 2, 2), dt = (0, 0, t)
    @staticmethod
    def poly_field(x, y, z, t):
        return np.array([
            x * x + 3.0 * y * z,
            y * y - 2.0 * x * z,
            z * z + x * y + 0.5 * t * t,
        ])

    def test_polynomial_field_derivatives_are_exact(self):
        p = (0.3, -0.2, 0.5, 0.7)
        d = vector_ops(self.poly_field, p)
        assert d.divergence == pytest.approx(1.2, abs=1e-9)
        np.testing.assert_allclose(d.curl, [0.9, -0.4, -2.5], atol=1e-8)
        np.testing.assert_allclose(d.laplacian, [2.0, 2.0, 2.0], atol=1e-6)
        np.testing.assert_allclose(d.dt, [0.0, 0.0, 0.7], atol=1e-9)

    def test_complex_field_handled_componentwise(self):
        scale = 1.0 + 2.0j
        f = lambda x, y, z, t: scale * self.poly_field(x, y, z, t)
        d = vector_ops(f, (0.3, -0.2, 0.5, 0.7))
        assert d.divergence == pytest.approx(scale * 1.2, abs=1e-8)
        np.testing.assert_allclose(d.curl, scale * np.array([0.9, -0.4, -2.5]), atol=1e-8)

    def test_per_axis_steps_accepted(self):
        d = vector_ops(self.poly_field, (0.1, 0.2, 0.3, 0.4), h=(1e-4, 1e-4, 1e-4, 1e-5))
        assert d.divergence == pytest.approx(1.2, abs=1e-8)

    @staticmethod
    def smooth_field(x, y, z, t):
        return np.array([
            math.sin(x + 2.0 * y) + t * t,
            math.cos(y + 3.0 * z),
            math.exp(0.3 * z) * math.sin(x) + x * y,
        ])

    def test_divergence_of_curl_vanishes(self):
        h = 1e-4
        curl_field = lambda *p: vector_ops(self.smooth_field, p, h).curl
        for point in [(0.2, 0.1, -0.3, 0.0), (-0.5, 0.4, 0.2, 1.0)]:
            d = vector_ops(curl_field, point, h)
            assert abs(d.divergence) < 1e-5

    def test_curl_curl_identity(self):
        # curl(curl F) = grad(div F) - lap F for any smooth F
        h = 1e-4
        point = (0.2, -0.1, 0.3, 0.5)
        curl_field = lambda *p: vector_ops(self.smooth_field, p, h).curl
        div_field = lambda *p: vector_ops(self.smooth_field, p, h).divergence
        curl_curl = vector_ops(curl_field, point, h).curl
        grad_div = np.array([partial_derivative(div_field, point, a, h) for a in range(3)])
        lap = vector_ops(self.smooth_field, point, h).laplacian
        np.testing.assert_allclose(curl_curl, grad_div - lap, atol=1e-4)


class _Counted:
    """Evaluator wrapper that counts its calls."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.f(*args)


_GRID2 = Grid2D(nx=9, nt=7)
_HARMONIC = classic_bts.harmonic_conjugate_match(1.0, 0.5, -0.3)
_LIOUVILLE = (classic_bts.liouville_from_trivial(2.0), classic_bts.zero_field())
_KINK = (classic_bts.sine_gordon_from_vacuum(1.0, 1.0), classic_bts.zero_field())
_WAVE = conjugate_vacuum([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0e9)
_MEDIUM = MediumParams(epsilon=3.0, mu=1.0, sigma=4.0)
_CONDUCTOR = conjugate_conducting([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], _MEDIUM, 1.0)


def _maxwell(wave, medium):
    def scan(E, B):
        pair = FieldPair(E, B, wave.k, wave.e_scale, wave.b_scale)
        return maxwell_residual(pair, wave.default_grid(5), medium)
    return scan


class TestEvaluationCounts:
    # whole-grid field evaluations per scan: one per stencil point, with the
    # center evaluated once per field and shared by every term that needs it
    @pytest.mark.parametrize("scan,fields,limit", [
        pytest.param(lambda u, v: classic_bts.bt_residual_cr(u, v, _GRID2),
                     _HARMONIC, 8, id="cauchy_riemann"),
        pytest.param(lambda u: classic_bts.laplace_residual(u, _GRID2),
                     _HARMONIC[:1], 5, id="laplace"),
        pytest.param(lambda u: classic_bts.liouville_residual(u, _GRID2),
                     _LIOUVILLE[:1], 5, id="liouville"),
        pytest.param(lambda u, v: classic_bts.bt_residual_liouville(u, v, _GRID2),
                     _LIOUVILLE, 10, id="bt_liouville"),
        pytest.param(lambda u, v: classic_bts.bt_residual_sine_gordon(u, v, 1.0, _GRID2),
                     _KINK, 10, id="bt_sine_gordon"),
        pytest.param(lambda E: wave_residual(E, _WAVE.medium.wave_speed, _WAVE.default_grid(5)),
                     (_WAVE.E,), 9, id="wave"),
        pytest.param(lambda E: modified_wave_residual(E, _MEDIUM, _CONDUCTOR.default_grid(5)),
                     (_CONDUCTOR.E,), 9, id="modified_wave"),
        # E.center enters only through the conduction term mu sigma E
        pytest.param(_maxwell(_WAVE, _WAVE.medium), (_WAVE.E, _WAVE.B), 16, id="maxwell"),
        pytest.param(_maxwell(_CONDUCTOR, _MEDIUM), (_CONDUCTOR.E, _CONDUCTOR.B), 17,
                     id="maxwell_conductor"),
    ])
    def test_scan_evaluates_fields_no_more_often_than_its_stencils_need(
            self, scan, fields, limit):
        counted = [_Counted(f) for f in fields]
        scan(*counted)
        assert sum(c.calls for c in counted) <= limit


class TestResidualScan:
    def test_zero_residual_reports_zero(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 10, 10, h=1e-3)
        report = residual_scan(lambda x, t: 0.0 * x, grid)
        assert report.max_abs == 0.0
        assert report.rms == 0.0
        assert report.n_points == 100
        assert report.n_singular == 0

    def test_constant_residual_reports_its_value(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 2, 2, h=1e-3)
        report = residual_scan(lambda x, t: 2.0 + 0.0 * x, grid)
        assert report.max_abs == pytest.approx(2.0)
        assert report.rms == pytest.approx(2.0)
        assert report.n_points == 4

    def test_worst_point_location(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 11, 11, h=1e-3)
        report = residual_scan(lambda x, t: x + 2.0 * t, grid)
        assert report.worst_point == (1.0, 1.0)
        assert report.max_abs == pytest.approx(3.0)
        assert report.rms < report.max_abs

    def test_vectorized_nan_region_counted_singular(self):
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 21, 21, h=1e-3)
        residual = lambda x, t: np.where(x + t > 1.0, np.nan, 1.0 + 0.0 * x)
        report = residual_scan(residual, grid)
        assert report.n_singular > 0
        assert report.n_points + report.n_singular == 21 * 21
        assert report.max_abs == pytest.approx(1.0)

    def test_pointwise_evaluator_failure_counted_singular(self):
        grid = Grid2D(0.0, 2.0, 0.0, 1.0, 21, 5, h=1e-3)
        residual = lambda x, t: math.log(1.0 - x)  # fails for x >= 1
        report = residual_scan(residual, grid)
        assert report.n_singular > 0
        assert report.n_points + report.n_singular == 21 * 5

    def test_all_singular_raises_empty_domain(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 5, h=1e-3)
        residual = lambda x, t: math.log(-1.0 - x * x)
        with pytest.raises(EmptyDomainError):
            residual_scan(residual, grid)

    def test_rms_of_huge_residuals_is_finite(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 2, 2, h=1e-3)
        report = report_from_values(np.full((2, 2), 1e200), grid.mesh())
        assert report.max_abs == report.rms == 1e200

    def test_scaled_rms_is_bit_identical_where_unscaled_is_finite(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 9, 7, h=1e-3)
        rng = np.random.default_rng(7)
        for scale in (1e-150, 1e-12, 1.0, 3.7e5, 1e150):
            values = scale * rng.random((9, 7))
            report = report_from_values(values, grid.mesh())
            assert report.rms == float(np.sqrt(np.mean(values * values)))

    def test_scan_over_4d_grid(self):
        grid = Grid4D(0, 1, 0, 1, 0, 1, 0, 1, 5, 5, 5, 5, h=1e-3)
        report = residual_scan(lambda x, y, z, t: x * y * z * t, grid)
        assert report.max_abs == pytest.approx(1.0)
        assert report.worst_point == (1.0, 1.0, 1.0, 1.0)
        assert report.n_points == 5 ** 4


class TestGrids:
    def test_default_grid_matches_documented_defaults(self):
        grid = Grid2D()
        assert (grid.x_min, grid.x_max) == (-1.0, 1.0)
        assert grid.nx == grid.nt == 41
        assert grid.h == 1e-4

    @pytest.mark.parametrize("kwargs", [
        dict(x_min=1.0, x_max=-1.0),
        dict(nx=1),
        dict(nt=0),
        dict(h=0.0),
        dict(h=-1e-4),
        dict(h=0.01),   # 10 h = 0.1 > spacing 0.05
        dict(h=0.005),  # boundary case is rejected: need strict inequality
    ])
    def test_bad_grid_rejected(self, kwargs):
        with pytest.raises(InvalidGridError):
            Grid2D(**kwargs)

    def test_grid4d_per_axis_steps(self):
        grid = Grid4D(0, 1, 0, 1, 0, 1, 0, 1e-9, nt=9, h=(1e-3, 1e-3, 1e-3, 1e-12))
        assert grid.steps == (1e-3, 1e-3, 1e-3, 1e-12)

    def test_grid4d_step_must_fit_every_axis(self):
        # scalar step fine in space but far too coarse for a nanosecond axis
        with pytest.raises(InvalidGridError):
            Grid4D(0, 1, 0, 1, 0, 1, 0, 1e-9, h=1e-3)

    def test_for_wave_spans_one_wavelength_and_period(self):
        k, omega = 2.0, 6.0e8
        grid = Grid4D.for_wave(k, omega)
        assert grid.x_max == pytest.approx(2.0 * math.pi / k)
        assert grid.t_max == pytest.approx(2.0 * math.pi / omega)
        assert grid.nx == grid.nt == 9
        hs = grid.steps
        assert hs[0] == pytest.approx(1e-4 / k)
        assert hs[3] == pytest.approx(1e-4 / omega)

    def test_report_invariant_rms_le_max(self):
        with pytest.raises(ValueError):
            ResidualReport(max_abs=1.0, rms=2.0, n_points=4, worst_point=(0.0, 0.0))

    def test_report_json_keys(self):
        report = ResidualReport(1.0, 0.5, 4, (0.0, 0.0), 2)
        assert list(report.to_dict()) == ["max_abs", "rms", "n_points", "worst_point", "n_singular"]
