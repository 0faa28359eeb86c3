"""Stencil accuracy, scan bookkeeping, and grid validation."""

import math

import numpy as np
import pytest

from btkit import classic_bts, cli
from btkit.errors import EmptyDomainError, InvalidGridError
from btkit.maxwell_conductor import conjugate_conducting, modified_wave_residual
from btkit.maxwell_vacuum import FieldPair, conjugate_vacuum, maxwell_residual, wave_residual
from btkit.media import MediumParams
from btkit.verify import (
    DEFAULT_STEP,
    Grid2D,
    Grid4D,
    ResidualReport,
    Stencil,
    curl,
    divergence,
    finite_step,
    magnitude,
    report_from_values,
)


def quadratic(x, t):
    return 0.5 + 1.5 * x - 2.0 * t + 3.0 * x * x + x * t - t * t


class TestStencils:
    def test_first_derivative_of_quadratic_is_exact(self):
        # at (0.7, -0.3): f_x = 1.5 + 6x + t = 5.4, f_t = -2 + x - 2t = -0.7
        stencil = Stencil(quadratic, (0.7, -0.3), 1e-4)
        assert stencil.d(0) == pytest.approx(5.4, rel=1e-10)
        assert stencil.d(1) == pytest.approx(-0.7, rel=1e-10)

    def test_second_differences_of_quadratic_are_exact(self):
        stencil = Stencil(quadratic, (0.7, -0.3), 1e-4)
        f_x, f_xx = stencil.diffs(0)
        # rounding floor for 3-point stencils is ~4 eps |f| / h^2
        assert f_x == pytest.approx(5.4, rel=1e-10)
        assert f_xx == pytest.approx(6.0, rel=1e-6)
        assert stencil.diffs(1)[1] == pytest.approx(-2.0, rel=1e-6)
        assert stencil.dxy(0, 1) == pytest.approx(1.0, rel=1e-6)

    def test_sin_derivative_matches_analytic_cosine(self):
        xs = np.array([0.0, 0.9])
        d = Stencil(lambda x, t: np.sin(x), (xs, 0.0), 1e-4).d(0)
        np.testing.assert_allclose(d, np.cos(xs), atol=1e-8)

    def test_cross_difference_matches_analytic(self):
        f = lambda x, t: np.sin(x) * np.cos(t)
        expected = -math.cos(0.4) * math.sin(0.8)
        assert Stencil(f, (0.4, 0.8), 1e-3).dxy(0, 1) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("order,axis", [(1, 0), (2, 0), (1, 1)])
    def test_halving_step_quarters_the_error(self, order, axis):
        f = lambda x, t: np.sin(x) * np.exp(t)
        point = (0.5, 0.3)
        exact = {
            (1, 0): math.cos(0.5) * math.exp(0.3),
            (2, 0): -math.sin(0.5) * math.exp(0.3),
            (1, 1): math.sin(0.5) * math.exp(0.3),
        }[(order, axis)]
        e1, e2 = (abs(Stencil(f, point, h).diffs(axis)[order - 1] - exact)
                  for h in (1e-2, 5e-3))
        assert 3.0 < e1 / e2 < 5.0


def _partials(field, coords, h):
    """First partials of a 3-vector field along x, y, z."""
    stencil = Stencil(field, coords, h)
    return [stencil.d(axis) for axis in range(3)]


def _laplacian(field, coords, h):
    stencil = Stencil(field, coords, h)
    return sum(stencil.diffs(axis)[1] for axis in range(3))


class TestVectorCalculus:
    # F = (x^2 + 3yz, y^2 - 2xz, z^2 + xy + t^2/2), quadratic so stencils are exact:
    # div = 2x + 2y + 2z, curl = (3x, 2y, -5z), lap = (2, 2, 2), dt = (0, 0, t)
    @staticmethod
    def poly_field(x, y, z, t):
        return np.stack(np.broadcast_arrays(
            x * x + 3.0 * y * z,
            y * y - 2.0 * x * z,
            z * z + x * y + 0.5 * t * t,
        ), axis=-1)

    def test_polynomial_field_derivatives_are_exact(self):
        # two points at once: the stencil broadcasts over coordinate arrays
        x, y, z, t = np.array([[0.3, -0.2, 0.5, 0.7], [0.1, 0.4, -0.6, -0.2]]).T
        d = _partials(self.poly_field, (x, y, z, t), 1e-4)
        np.testing.assert_allclose(divergence(d), 2.0 * (x + y + z), atol=1e-9)
        np.testing.assert_allclose(curl(d), np.stack((3.0 * x, 2.0 * y, -5.0 * z), -1),
                                   atol=1e-8)
        np.testing.assert_allclose(_laplacian(self.poly_field, (x, y, z, t), 1e-4), 2.0,
                                   atol=1e-6)
        dt = Stencil(self.poly_field, (x, y, z, t), 1e-4).d(3)
        np.testing.assert_allclose(dt, np.stack((0 * t, 0 * t, t), -1), atol=1e-9)

    def test_complex_field_handled_componentwise(self):
        scale = 1.0 + 2.0j
        f = lambda x, y, z, t: scale * self.poly_field(x, y, z, t)
        d = _partials(f, (0.3, -0.2, 0.5, 0.7), 1e-4)
        assert divergence(d) == pytest.approx(scale * 1.2, abs=1e-8)
        np.testing.assert_allclose(curl(d), scale * np.array([0.9, -0.4, -2.5]), atol=1e-8)

    def test_per_axis_steps_accepted(self):
        stencil = Stencil(self.poly_field, (0.1, 0.2, 0.3, 0.4), (1e-4, 1e-4, 1e-4, 1e-5))
        assert divergence([stencil.d(axis) for axis in range(3)]) == pytest.approx(1.2, abs=1e-8)
        np.testing.assert_allclose(stencil.d(3), [0.0, 0.0, 0.4], atol=1e-8)

    @staticmethod
    def smooth_field(x, y, z, t):
        return np.stack(np.broadcast_arrays(
            np.sin(x + 2.0 * y) + t * t,
            np.cos(y + 3.0 * z),
            np.exp(0.3 * z) * np.sin(x) + x * y,
        ), axis=-1)

    # nested stencils on broadcast coordinates: the outer stencil shifts the
    # arrays, the inner one differences the field around the shifted points
    POINTS = tuple(np.array([[0.2, 0.1, -0.3, 0.0], [-0.5, 0.4, 0.2, 1.0],
                             [0.2, -0.1, 0.3, 0.5]]).T)

    def test_divergence_of_curl_vanishes(self):
        h = 1e-4
        curl_field = lambda *p: curl(_partials(self.smooth_field, p, h))
        div_curl = divergence(_partials(curl_field, self.POINTS, h))
        assert div_curl.shape == (3,)
        assert np.max(np.abs(div_curl)) < 1e-5

    def test_curl_curl_identity(self):
        # curl(curl F) = grad(div F) - lap F for any smooth F
        h = 1e-4
        curl_field = lambda *p: curl(_partials(self.smooth_field, p, h))
        div_field = lambda *p: divergence(_partials(self.smooth_field, p, h))
        curl_curl = curl(_partials(curl_field, self.POINTS, h))
        grad_div = np.stack(_partials(div_field, self.POINTS, h), axis=-1)
        lap = _laplacian(self.smooth_field, self.POINTS, h)
        assert curl_curl.shape == (3, 3)
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
        pair = FieldPair(E, B, wave.k, wave.e_scale, wave.b_scale, medium)
        return maxwell_residual(pair, wave.default_grid(5))
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


def _scan(residual, grid) -> ResidualReport:
    meshes = grid.mesh()
    return report_from_values(residual(*meshes), meshes)


class TestResidualScan:
    def test_zero_residual_reports_zero(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 10, 10)
        report = _scan(lambda x, t: 0.0 * x, grid)
        assert report.max_abs == 0.0
        assert report.rms == 0.0
        assert report.n_points == 100
        assert report.n_singular == 0

    def test_constant_residual_reports_its_value(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 2, 2)
        report = _scan(lambda x, t: 2.0 + 0.0 * x, grid)
        assert report.max_abs == pytest.approx(2.0)
        assert report.rms == pytest.approx(2.0)
        assert report.n_points == 4

    def test_worst_point_location(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 11, 11)
        report = _scan(lambda x, t: x + 2.0 * t, grid)
        assert report.worst_point == (1.0, 1.0)
        assert report.max_abs == pytest.approx(3.0)
        assert report.rms < report.max_abs

    def test_nan_region_counted_singular(self):
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 21, 21)
        residual = lambda x, t: np.where(x > 0.55, np.nan, 1.0 + 0.0 * t)
        report = _scan(residual, grid)
        assert report.n_singular == 5 * 21  # the columns x = 0.6 ... 1.0
        assert report.n_points + report.n_singular == 21 * 21
        assert report.max_abs == pytest.approx(1.0)

    def test_all_singular_raises_empty_domain(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 5)
        with np.errstate(invalid="ignore"):
            values = np.log(-1.0 - grid.mesh()[0] ** 2)
        with pytest.raises(EmptyDomainError):
            report_from_values(values, grid.mesh())

    def test_rms_of_huge_residuals_is_finite(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 2, 2)
        report = report_from_values(np.full((2, 2), 1e200), grid.mesh())
        assert report.max_abs == report.rms == 1e200

    def test_rms_of_residuals_near_the_float_limit_is_finite(self):
        # the scale 2^1024 of a peak at or above 2^1023 raised OverflowError
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 2, 2)
        report = report_from_values(np.full((2, 2), 1.7976931348623157e308), grid.mesh())
        assert report.max_abs == report.rms == 1.7976931348623157e308

    def test_scaled_rms_is_bit_identical_where_unscaled_is_finite(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 9, 7)
        rng = np.random.default_rng(7)
        for scale in (1e-150, 1e-12, 1.0, 3.7e5, 1e150):
            values = scale * rng.random((9, 7))
            report = report_from_values(values, grid.mesh())
            assert report.rms == float(np.sqrt(np.mean(values * values)))

    def test_scan_over_4d_grid(self):
        grid = Grid4D(0, 1, 0, 1, 0, 1, 0, 1, 5, 5, 5, 5, h=1e-3)
        report = _scan(lambda x, y, z, t: x * y * z * t, grid)
        assert report.max_abs == pytest.approx(1.0)
        assert report.worst_point == (1.0, 1.0, 1.0, 1.0)
        assert report.n_points == 5 ** 4


def _reference_magnitude(values, point_ndim):
    """The |Re| / |Im| reduction that ``magnitude`` replaced, as the oracle."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        arr = np.maximum(np.abs(arr.real), np.abs(arr.imag))
    else:
        arr = np.abs(arr)
    while arr.ndim > point_ndim:
        arr = arr.max(axis=-1)
    return arr


def _residual_table(rng, points, components, is_complex):
    shape = points + components
    values = rng.standard_normal(shape) * np.exp(rng.uniform(-30, 30, shape))
    values[..., :1] *= -0.0     # signed zeros in either part
    if is_complex:
        values = values + 1j * rng.standard_normal(shape)
        values.imag[::2] *= 1e20
    return values


class TestMagnitude:
    @pytest.mark.parametrize("components", [(), (3,), (2, 2), (3, 3)],
                             ids=["scalar", "vector", "matrix-2", "matrix-3"])
    @pytest.mark.parametrize("points", [(9, 7), (3, 4, 2, 5)], ids=["2d", "4d"])
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_matches_the_reference_bit_for_bit(self, components, points, is_complex,
                                               layout):
        rng = np.random.default_rng(len(points) * 10 + len(components))
        values = _residual_table(rng, points, components, is_complex)
        if layout == "transposed":
            values = np.asfortranarray(values)
        got = magnitude(values, len(points))
        want = _reference_magnitude(values, len(points))
        assert got.shape == want.shape == points and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("components", [(), (3,), (2, 2)], ids=["scalar", "vector", "matrix"])
    def test_non_finite_entry_in_either_part_is_singular(self, bad, part, components):
        rng = np.random.default_rng(3)
        values = _residual_table(rng, (9, 7), components, True)
        getattr(values, part)[(4, 2) + (0,) * len(components)] = bad
        getattr(values, part)[(6, 1) + (-1,) * len(components)] = bad
        got = magnitude(values, 2)
        want = _reference_magnitude(values, 2)
        assert got.tobytes() == want.tobytes()
        assert not np.isfinite(got[4, 2]) and not np.isfinite(got[6, 1])
        grid = Grid2D(nx=9, nt=7)
        report = report_from_values(values, grid.mesh())
        assert report.n_singular == 2 and report.n_points == 9 * 7 - 2
        assert report.max_abs == float(np.max(np.delete(want.ravel(), [4 * 7 + 2, 6 * 7 + 1])))


class TestGrids:
    def test_default_grid_matches_documented_defaults(self):
        grid = Grid2D()
        assert (grid.x_min, grid.x_max) == (-1.0, 1.0)
        assert grid.nx == grid.nt == 41
        assert DEFAULT_STEP == 1e-4

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
        # the step h is checked against the grid by the code that uses it
        grid_kwargs = dict(kwargs)
        h = grid_kwargs.pop("h", DEFAULT_STEP)
        with pytest.raises(InvalidGridError):
            Grid2D(**grid_kwargs).check_step(h)

    def test_node_arrays_are_built_once_and_read_only(self):
        grid = Grid2D(nx=9, nt=7)
        assert grid.xs is grid.xs and grid.ts is grid.ts
        np.testing.assert_array_equal(grid.xs, np.linspace(-1.0, 1.0, 9))
        np.testing.assert_array_equal(grid.ts, np.linspace(-1.0, 1.0, 7))
        for nodes in (grid.xs, grid.ts):
            with pytest.raises(ValueError):
                nodes[0] = 0.0

    # a grid is its nodes: its cached arrays do not set two lattices apart
    @pytest.mark.parametrize("used_kwargs, fresh_kwargs", [
        (dict(nx=9), dict(nx=9)),
        (dict(x_min=-1.0, nt=41), dict()),
    ], ids=["cached-mesh", "explicit-defaults"])
    def test_cached_nodes_leave_equality_and_hash_alone(self, used_kwargs, fresh_kwargs):
        used, fresh = Grid2D(**used_kwargs), Grid2D(**fresh_kwargs)
        used.mesh()
        assert used == fresh and hash(used) == hash(fresh)
        assert {fresh: "cached"}[used] == "cached"
        assert used.to_dict() == fresh.to_dict()
        assert list(used.to_dict()) == ["x_min", "x_max", "t_min", "t_max", "nx", "nt"]
        assert used != Grid2D(nx=11)

    def test_step_is_checked_apart_from_the_grid(self):
        # 10 h = 0.1 > spacing 0.05: refused against this grid only
        grid = Grid2D()
        with pytest.raises(InvalidGridError, match=r"too coarse for smallest spacing 0\.05"):
            grid.check_step(0.01)
        with pytest.raises(InvalidGridError, match="too coarse"):
            classic_bts.laplace_residual(classic_bts.harmonic_conjugate_match(1, 0, 0)[0],
                                         grid, h=0.01)
        grid.check_step(1e-3)
        assert finite_step(0.01) == 0.01 and finite_step(1e308) == 1e308
        for h in (0.0, -1e-4, math.nan, math.inf):
            with pytest.raises(InvalidGridError, match="finite and positive"):
                finite_step(h)
            with pytest.raises(InvalidGridError, match="finite and positive"):
                grid.check_step(h)

    def test_mesh_is_built_once_per_grid_and_read_only(self):
        grid = Grid2D(nx=9, nt=7)
        X, T = grid.mesh()
        assert grid.mesh()[0] is X and grid.mesh()[1] is T
        expected = np.meshgrid(np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 7),
                               indexing="ij")
        np.testing.assert_array_equal(X, expected[0])
        np.testing.assert_array_equal(T, expected[1])
        for nodes in (X, T):
            with pytest.raises(ValueError):
                nodes[0, 0] = 0.0
        fresh = Grid2D(nx=9, nt=7)
        assert grid == fresh and hash(grid) == hash(fresh)

    def test_chiral_hierarchy_run_builds_one_mesh(self, monkeypatch, capsys):
        # the CLI builds one grid, so its hierarchy, scans and CSV table
        # all share one mesh
        calls = []
        meshgrid = np.meshgrid

        def counting(*args, **kwargs):
            calls.append(args)
            return meshgrid(*args, **kwargs)

        monkeypatch.setattr(np, "meshgrid", counting)
        argv = ["chiral", "hierarchy", "--a-re", "[[0.1, 0.2], [0.0, -0.1]]",
                "--b-re", "[[0.3, 0.1], [0.0, 0.2]]", "--m-re", "[[0.0, 1.0], [0.0, 0.0]]",
                "--levels", "3", "--verify", "--format", "both"]
        assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()
        assert len(calls) == 1

    def test_grid4d_nodes_and_mesh_are_built_once_and_read_only(self):
        bounds = (0.0, 1.0, -1.0, 2.0, 0.0, 3.0, 0.0, 4.0)
        grid = Grid4D(*bounds, 5, 4, 3, 2, h=1e-3)
        axes, meshes = grid.axes(), grid.mesh()
        assert all(a is b for a, b in zip(grid.axes(), axes))
        assert all(a is b for a, b in zip(grid.mesh(), meshes))
        expected_axes = [np.linspace(lo, hi, n)
                         for lo, hi, n in zip(bounds[::2], bounds[1::2], (5, 4, 3, 2))]
        expected = np.meshgrid(*expected_axes, indexing="ij")
        for got, want in zip(axes + meshes, expected_axes + list(expected)):
            np.testing.assert_array_equal(got, want)
            with pytest.raises(ValueError):
                got.flat[0] = 0.0
        fresh = Grid4D(*bounds, 5, 4, 3, 2, h=1e-3)
        assert grid == fresh and hash(grid) == hash(fresh)
        assert {fresh: "cached"}[grid] == "cached"
        assert grid.to_dict() == fresh.to_dict()
        assert grid != Grid4D(*bounds, 5, 4, 3, 3, h=1e-3)

    def test_em_vacuum_run_builds_one_mesh(self, monkeypatch, capsys):
        # the verify scan and the CSV table share the grid's one mesh
        calls = {"meshgrid": 0, "linspace": 0}

        def counting(name):
            original = getattr(np, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np, name, counting(name))
        argv = ["em", "vacuum", "--omega", "1e9", "--verify", "--format", "both"]
        assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()
        assert calls == {"meshgrid": 1, "linspace": 4}

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
