"""Exact derivatives, scan bookkeeping, and grid validation."""

import math
import warnings

import numpy as np
import pytest

from btkit import classic_bts, cli
from btkit.errors import EmptyDomainError, InvalidGridError
from btkit.maxwell_conductor import ConductorWavePair, wave_residual
from btkit.maxwell_vacuum import FieldPair, WavePair, _taylors, maxwell_residual
from btkit.media import MediumParams
from btkit.verify import (
    Grid2D,
    Grid4D,
    Jet,
    ResidualReport,
    Taylor,
    _exact_scale,
    _scaled,
    curl,
    divergence,
    magnitude,
    report_from_values,
)


def quadratic(x, t):
    return 0.5 + 1.5 * x - 2.0 * t + 3.0 * x * x + x * t - t * t


class TestTaylor:
    def test_partials_of_quadratic_are_exact(self):
        # at (0.7, -0.3): f_x = 1.5 + 6x + t = 5.4, f_t = -2 + x - 2t = -0.7
        taylor = Taylor(quadratic, (0.7, -0.3))
        assert taylor.d(0) == pytest.approx(5.4, rel=1e-15)
        assert taylor.d(1) == pytest.approx(-0.7, rel=1e-15)
        f_x, f_xx = taylor.diffs(0)
        assert f_x == pytest.approx(5.4, rel=1e-15)
        assert (f_xx, taylor.diffs(1)[1], taylor.dxy(0, 1)) == (6.0, -2.0, 1.0)
        assert taylor.center == quadratic(0.7, -0.3)

    def test_transcendental_partials_match_their_closed_forms(self):
        xs = np.array([0.0, 0.9])
        np.testing.assert_array_equal(Taylor(lambda x, t: np.sin(x), (xs, 0.0)).d(0),
                                      np.cos(xs))
        f = lambda x, t: np.sin(x) * np.cos(t)
        assert Taylor(f, (0.4, 0.8)).dxy(0, 1) == pytest.approx(
            -math.cos(0.4) * math.sin(0.8), rel=1e-15)

    @pytest.mark.parametrize("f, f_x, f_xx", [
        (lambda x: np.exp(2.0 * x), lambda x: 2 * math.exp(2 * x), lambda x: 4 * math.exp(2 * x)),
        (lambda x: np.log(x), lambda x: 1 / x, lambda x: -1 / x ** 2),
        (lambda x: np.arctan(x), lambda x: 1 / (1 + x * x), lambda x: -2 * x / (1 + x * x) ** 2),
        (lambda x: np.cos(x), lambda x: -math.sin(x), lambda x: -math.cos(x)),
        (lambda x: 1.0 / x, lambda x: -1 / x ** 2, lambda x: 2 / x ** 3),
        (lambda x: (x * x + 1.0) / (x - 3.0), lambda x: (x * x - 6 * x - 1) / (x - 3) ** 2,
         lambda x: 20 / (x - 3) ** 3),
        (lambda x: -x * x - (2.0 - x), lambda x: 1 - 2 * x, lambda x: -2.0),
    ], ids=["exp", "log", "arctan", "cos", "reciprocal", "quotient", "negation"])
    def test_each_rule_gives_first_and_second_partials(self, f, f_x, f_xx):
        for x in (0.3, 1.7):
            got_x, got_xx = Taylor(lambda x, t: f(x), (x, 0.0)).diffs(0)
            assert got_x == pytest.approx(f_x(x), rel=1e-14)
            assert got_xx == pytest.approx(f_xx(x), rel=1e-14)

    def test_a_jet_is_its_value_to_numpy(self):
        value = np.array([[1.0, 2.0]])
        jet = Jet([value, np.ones(2)])
        assert np.asarray(jet) is value
        assert np.asarray(jet, dtype=complex).dtype == complex
        copied = np.array(jet, copy=True)
        assert copied is not value and np.array_equal(copied, value)
        assert np.broadcast(np.asarray(jet), 0.0).size == 2

    @pytest.mark.parametrize("call", [np.sqrt, np.sum, np.divide.reduce, lambda jet: jet ** 2,
                                      lambda jet: np.exp(jet, out=np.empty(2))])
    def test_a_jet_refuses_what_it_cannot_carry(self, call):
        with pytest.raises(TypeError):
            call(Jet([np.ones(2), np.ones(2)]))

    def test_a_jet_carries_the_plain_value_bit_for_bit(self):
        X, T = Grid2D().mesh()
        for u in (classic_bts.harmonic_quadratic(1.3, -0.2, 0.7),
                  classic_bts.liouville_from_trivial(1.0),
                  classic_bts.sine_gordon_from_vacuum(-0.7, 1.3), classic_bts.zero_field()):
            out = u(Jet([X, np.ones(())]), Jet([T, np.zeros(())]))
            np.testing.assert_array_equal(np.asarray(out), u(X, T))
        pair = ConductorWavePair([1.0, 1j, 0.0], [0.0, 0.0, 1.0], 1.0, _MEDIUM)
        meshes = pair.default_grid(5).mesh()
        R = np.stack(meshes[:3], axis=-1)
        for F in (pair.E, pair.B):
            out = F(Jet([R, np.eye(3)[2]]), Jet([meshes[3], np.zeros(())]))
            np.testing.assert_array_equal(np.asarray(out), F(R, meshes[3]))


def _vector(*components):
    """The 3-vector field with these components, in arithmetic a jet follows."""
    return sum(c[..., None] * e for c, e in zip(components, np.eye(3)))


def _partials(field, coords):
    """First partials of a 3-vector field along x, y, z."""
    taylor = Taylor(field, coords)
    return [taylor.d(axis) for axis in range(3)]


def _second_partials(field, coords):
    """D[a][b]: the second partial of a 3-vector field along axes a and b."""
    taylor = Taylor(field, coords)
    return [[taylor.diffs(a)[1] if a == b else taylor.dxy(a, b) for b in range(3)]
            for a in range(3)]


class TestVectorCalculus:
    # F = (x^2 + 3yz, y^2 - 2xz, z^2 + xy + t^2/2):
    # div = 2x + 2y + 2z, curl = (3x, 2y, -5z), lap = (2, 2, 2), dt = (0, 0, t)
    @staticmethod
    def poly_field(x, y, z, t):
        return _vector(x * x + 3.0 * y * z, y * y - 2.0 * x * z, z * z + x * y + 0.5 * t * t)

    def test_polynomial_field_derivatives_are_exact(self):
        # two points at once: the partials broadcast over coordinate arrays
        x, y, z, t = np.array([[0.3, -0.2, 0.5, 0.7], [0.1, 0.4, -0.6, -0.2]]).T
        d = _partials(self.poly_field, (x, y, z, t))
        np.testing.assert_allclose(divergence(d), 2.0 * (x + y + z), rtol=1e-15, atol=1e-16)
        np.testing.assert_allclose(curl(d), np.stack((3.0 * x, 2.0 * y, -5.0 * z), -1),
                                   rtol=1e-15, atol=1e-16)
        second = _second_partials(self.poly_field, (x, y, z, t))
        np.testing.assert_array_equal(sum(second[a][a] for a in range(3)), 2.0)
        dt = Taylor(self.poly_field, (x, y, z, t)).d(3)
        np.testing.assert_array_equal(dt, np.stack((0 * t, 0 * t, t), -1))

    def test_complex_field_handled_componentwise(self):
        scale = 1.0 + 2.0j
        f = lambda x, y, z, t: scale * self.poly_field(x, y, z, t)
        d = _partials(f, (0.3, -0.2, 0.5, 0.7))
        assert divergence(d) == pytest.approx(scale * 1.2, rel=1e-15)
        np.testing.assert_allclose(curl(d), scale * np.array([0.9, -0.4, -2.5]), rtol=1e-15)

    def test_axes_move_a_vector_argument_along_its_components(self):
        # the Maxwell scans pass r = (x, y, z) whole; axis k moves component k
        point = np.array([[0.1, 0.2, 0.3, 0.4], [-0.5, 0.1, 0.7, 1.2]])
        vector = lambda r, t: self.poly_field(r[..., 0], r[..., 1], r[..., 2], t)
        whole, = _taylors(tuple(point.T), vector)
        parts = Taylor(self.poly_field, tuple(point.T))
        for axis in range(4):
            np.testing.assert_array_equal(whole.d(axis), parts.d(axis))
            np.testing.assert_array_equal(whole.diffs(axis)[1], parts.diffs(axis)[1])

    @staticmethod
    def smooth_field(x, y, z, t):
        return _vector(np.sin(x + 2.0 * y) + t * t, np.cos(y + 3.0 * z),
                       np.exp(0.3 * z) * np.sin(x) + x * y)

    POINTS = tuple(np.array([[0.2, 0.1, -0.3, 0.0], [-0.5, 0.4, 0.2, 1.0],
                             [0.2, -0.1, 0.3, 0.5]]).T)

    def test_second_partial_identities(self):
        # div curl F = 0 and curl curl F = grad div F - lap F for any smooth F
        D = _second_partials(self.smooth_field, self.POINTS)

        def d_curl(a, k):     # the partial along a of component k of curl F
            return D[a][(k + 1) % 3][..., (k + 2) % 3] - D[a][(k + 2) % 3][..., (k + 1) % 3]

        div_curl = sum(d_curl(k, k) for k in range(3))
        assert div_curl.shape == (3,)
        assert np.max(np.abs(div_curl)) < 1e-14
        curl_curl = np.stack([d_curl((j + 1) % 3, (j + 2) % 3) - d_curl((j + 2) % 3, (j + 1) % 3)
                              for j in range(3)], axis=-1)
        grad_div = np.stack([sum(D[j][i][..., i] for i in range(3)) for j in range(3)], axis=-1)
        lap = sum(D[i][i] for i in range(3))
        assert curl_curl.shape == (3, 3)
        np.testing.assert_allclose(curl_curl, grad_div - lap, atol=1e-14)


class _Counted:
    """Evaluator wrapper that counts its calls and the grid points they cover."""

    def __init__(self, f):
        self.f = f
        self.calls = 0
        self.points = 0

    def __call__(self, *args):
        self.calls += 1
        self.points += np.size(np.asarray(args[-1]))
        return self.f(*args)


_GRID2 = Grid2D(nx=9, nt=7)
_HARMONIC = (classic_bts.harmonic_quadratic(1.0, 0.5, -0.3),
             classic_bts.harmonic_conjugate_quadratic(1.0, 0.5, -0.3))
_LIOUVILLE = (classic_bts.liouville_from_trivial(2.0), classic_bts.zero_field())
_KINK = (classic_bts.sine_gordon_from_vacuum(1.0, 1.0), classic_bts.zero_field())
_WAVE = WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0e9)
_MEDIUM = MediumParams(epsilon=3.0, mu=1.0, sigma=4.0)
_CONDUCTOR = ConductorWavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0, _MEDIUM)


def _maxwell(wave, medium):
    def scan(E, B):
        pair = FieldPair(E, B, wave.k, wave.e_scale, wave.b_scale, medium)
        return maxwell_residual(pair, wave.default_grid(5))
    return scan


_SLABS = _WAVE.default_grid(5).nx  # the Maxwell scans' x-slabs


class TestEvaluationCounts:
    # field evaluations per scan: one on jets per partial the scan reads, and
    # one of the field itself where a term needs it; a Grid2D scan makes each
    # on the whole grid, a Maxwell scan on each x-slab of its Grid4D in turn
    @pytest.mark.parametrize("scan,fields,limit,slabs", [
        pytest.param(lambda u, v: classic_bts.bt_residual_cr(u, v, _GRID2),
                     _HARMONIC, 4, 1, id="cauchy_riemann"),
        pytest.param(lambda u: classic_bts.laplace_residual(u, _GRID2),
                     _HARMONIC[:1], 2, 1, id="laplace"),
        pytest.param(lambda u: classic_bts.liouville_residual(u, _GRID2),
                     _LIOUVILLE[:1], 2, 1, id="liouville"),
        pytest.param(lambda u, v: classic_bts.bt_residual_liouville(u, v, _GRID2),
                     _LIOUVILLE, 6, 1, id="bt_liouville"),
        pytest.param(lambda u, v: classic_bts.bt_residual_sine_gordon(u, v, 1.0, _GRID2),
                     _KINK, 6, 1, id="bt_sine_gordon"),
        pytest.param(lambda E: wave_residual(E, _MEDIUM, _CONDUCTOR.default_grid(5)),
                     (_CONDUCTOR.E,), 4, _SLABS, id="wave"),
        # E.center enters only through the conduction term mu sigma E
        pytest.param(_maxwell(_WAVE, _WAVE.medium), (_WAVE.E, _WAVE.B), 8, _SLABS,
                     id="maxwell"),
        pytest.param(_maxwell(_CONDUCTOR, _MEDIUM), (_CONDUCTOR.E, _CONDUCTOR.B), 9, _SLABS,
                     id="maxwell_conductor"),
    ])
    def test_scan_evaluates_fields_once_per_partial(
            self, scan, fields, limit, slabs):
        counted = [_Counted(f) for f in fields]
        report = scan(*counted)
        points = report.n_points + report.n_singular
        assert sum(c.calls for c in counted) <= limit * slabs
        assert sum(c.points for c in counted) <= limit * points


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
        grid = Grid4D(0, 1, 0, 1, 0, 1, 0, 1, 5, 5, 5, 5)
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


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


class TestScaled:
    """``_scaled``, the package's one overflow-safe quotient."""

    @pytest.mark.parametrize("decade", [-320, -310, -300, -150, 0, 150, 300, 307])
    def test_real_quotient_is_the_plain_division_bit_for_bit(self, decade):
        rng = np.random.default_rng(decade + 400)
        values = 10.0 ** decade * rng.standard_normal(40)
        values[:3] = (0.0, -0.0, 10.0 ** decade * 1e-9)
        quotient, scale = _scaled(values)
        assert scale == _exact_scale(float(np.max(np.abs(values))))
        assert np.array_equal(_bits(quotient), _bits(values / scale))

    @pytest.mark.parametrize("decade", [-300, -150, 0, 150, 300])
    def test_complex_quotient_is_numpys_where_the_scale_is_normal(self, decade):
        rng = np.random.default_rng(decade + 500)
        values = 10.0 ** decade * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        values[:2] = (1e-9 * values[2], 1e-300 * values[3])   # quotients down to subnormal
        quotient, scale = _scaled(values)
        assert scale == _exact_scale(float(magnitude(values, 0)))
        assert math.ldexp(1.0, -1022) <= scale
        assert quotient.dtype == values.dtype
        assert np.array_equal(quotient, values / scale)

    @pytest.mark.parametrize("values", [
        [1e-320 + 0j, 0j, 0j],
        [1e-320 + 3e-322j, -5e-324j, 0j],
        [1e-310 + 1e-310j, 1e-310 + 0j, -0j],
    ])
    def test_complex_quotient_is_exact_for_subnormal_input(self, values):
        # numpy's complex quotient by a subnormal scale reads inf + nan j
        values = np.asarray(values)
        quotient, scale = _scaled(values)
        assert scale < math.ldexp(1.0, -1022)
        assert 1.0 <= float(magnitude(quotient, 0)) < 2.0
        assert np.array_equal(_bits(quotient.view(float) * scale), _bits(values.view(float)))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_input(self, dtype):
        quotient, scale = _scaled(np.zeros(3, dtype=dtype))
        assert scale == 0.5
        assert quotient.dtype == dtype
        assert not quotient.any()


class TestGrids:
    def test_default_grid_matches_documented_defaults(self):
        grid = Grid2D()
        assert (grid.x_min, grid.x_max) == (-1.0, 1.0)
        assert grid.nx == grid.nt == 41

    @pytest.mark.parametrize("kwargs", [
        dict(x_min=1.0, x_max=-1.0),
        dict(nx=1),
        dict(nt=0),
    ])
    def test_bad_grid_rejected(self, kwargs):
        with pytest.raises(InvalidGridError):
            Grid2D(**kwargs)

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
        grid = Grid4D(*bounds, 5, 4, 3, 2)
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
        fresh = Grid4D(*bounds, 5, 4, 3, 2)
        assert grid == fresh and hash(grid) == hash(fresh)
        assert {fresh: "cached"}[grid] == "cached"
        assert grid.to_dict() == fresh.to_dict()
        assert grid != Grid4D(*bounds, 5, 4, 3, 3)

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

    def test_grid4d_is_its_lattice_alone(self):
        # a nanosecond time axis beside metre space axes: no step to match
        grid = Grid4D(0, 1, 0, 1, 0, 1, 0, 1e-9, nt=9)
        assert list(grid.to_dict()) == ["x_min", "x_max", "y_min", "y_max", "z_min", "z_max",
                                        "t_min", "t_max", "nx", "ny", "nz", "nt"]
        with pytest.raises(InvalidGridError):
            Grid4D(0, 1, 0, 1, 0, 1, 0, 1e-9, nt=1)

    @pytest.mark.parametrize("make", [
        lambda: Grid2D(x_min=-1e308, x_max=1e308),
        lambda: Grid2D(t_min=-1.5e308, t_max=1.5e308),
        lambda: Grid4D(0, 1, -1e308, 1e308, 0, 1, 0, 1),
        lambda: Grid4D(0, 1, 0, 1, 0, 1, -1.7e308, 1.7e308),
    ], ids=["grid2d-x", "grid2d-t", "grid4d-y", "grid4d-t"])
    def test_bounds_whose_span_overflows_are_rejected(self, make):
        # the span read inf: linspace warned, built nan nodes and a scan
        # blamed "all grid points were singular"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGridError, match="span max - min overflows the float range"):
                make()

    def test_for_wave_spans_one_wavelength_and_period(self):
        k, omega = 2.0, 6.0e8
        grid = Grid4D.for_wave(k, omega)
        assert grid.x_max == pytest.approx(2.0 * math.pi / k)
        assert grid.t_max == pytest.approx(2.0 * math.pi / omega)
        assert grid.nx == grid.nt == 9

    @pytest.mark.parametrize("k, omega, message", [
        (0.0, 1e-300, r"wavenumber is 0 or underflows to 0 \(k=0.0, omega=1e-300\)"),
        (np.float64(3e-308), 1e-300,
         r"wavelength 2 pi / k overflows the float range \(k=3e-308, omega=1e-300\)"),
        (1.0, 1e-310, r"period 2 pi / omega overflows the float range \(k=1.0, omega=1e-310\)"),
        (-1.0, 1.0, r"needs positive wavenumber and omega, got k=-1.0, omega=1.0"),
        (1.0, math.nan, r"needs positive wavenumber and omega, got k=1.0, omega=nan"),
    ], ids=["k-zero", "wavelength-overflow", "period-overflow", "k-negative", "omega-nan"])
    def test_for_wave_refuses_a_wave_with_no_grid_naming_k_and_omega(self, k, omega, message):
        # an underflowed k read "for_wave needs positive wavenumber and
        # omega", and an infinite wavelength "x bounds must satisfy min < max"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGridError, match=message):
                Grid4D.for_wave(k, omega)

    def test_report_invariant_rms_le_max(self):
        with pytest.raises(ValueError):
            ResidualReport(max_abs=1.0, rms=2.0, n_points=4, worst_point=(0.0, 0.0))

    def test_report_json_keys(self):
        report = ResidualReport(1.0, 0.5, 4, (0.0, 0.0), 2)
        assert list(report.to_dict()) == ["max_abs", "rms", "n_points", "worst_point", "n_singular"]
