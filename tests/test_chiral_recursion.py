"""Tests for the chiral-field recursion operator and its lattice calculus.

Closed-form oracles: for the exponential seed g = exp(Ax + Bt) with
commuting generators, the potential is X = Bx - At + base, level one of
the hierarchy is [X, M], and level two works out to

    Phi^2 = (1/2) [X, [X, M]] - [Ax + Bt, M]

(checked here by direct commutator arithmetic, independent of the
integrator).  Degree growth is measured by least-squares polynomial
fitting, not by the recursion's own bookkeeping.
"""

import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from btkit import chiral_recursion
from btkit.chiral_recursion import (
    ConstantField,
    ExpSeedField,
    MatrixField,
    SymmetryCharacteristic,
    TabulatedField,
    _commutator,
    _cumulative_integral,
    _expm,
    _fd_weights,
    _lattice_derivative,
    chiral_defect_samples,
    chiral_residual,
    hierarchy,
    potential,
    recursion_step,
    symmetry_residual,
)
from btkit.errors import (
    IntegrabilityError,
    InvalidGridError,
    InvalidParameterError,
    NonCommutingError,
    PathDependenceError,
    SingularMatrixError,
)
from btkit.verify import Grid2D
from helpers import polynomial_degree, random_commuting_pair, random_matrix

GRID = Grid2D()


def _zero_table(grid):
    return TabulatedField(grid, np.zeros((grid.nx, grid.nt, 1, 1)))


def commutator(a, b):
    return a @ b - b @ a


def seed_triple(seed, n=3):
    """Commuting generators plus a generic constant matrix."""
    rng = np.random.default_rng(seed)
    A, B = random_commuting_pair(rng, n)
    M = random_matrix(rng, n)
    return A, B, M


def unitary_triple(seed, n=3, norm=14.0):
    """Commuting anti-Hermitian generators, |A|_2 = ``norm``, plus a generic M.

    g = exp(A x + B t) is unitary, so cond_2 g = 1 on every node, while
    the exponent bound e^(2 |A| + 2 |B|) on [-1, 1]^2 is past 1e11: the
    seed's conditioning is decided on its samples.
    """
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2
    h /= np.linalg.norm(h, 2)
    c = rng.uniform(-2.0, 2.0, 3)
    A = 1j * norm * h
    B = 1j * (c[0] * np.eye(n) + c[1] * h + c[2] * h @ h)
    return A, B, random_matrix(rng, n)


@pytest.fixture(scope="module")
def exp_setup():
    A, B, M = seed_triple(7)
    return A, B, M, ExpSeedField(A, B)


@pytest.fixture(scope="module")
def level_2_of_1003():
    """The seed default_rng(1003) (n=3) and its hierarchy level 2 on GRID."""
    rng = np.random.default_rng(1003)
    A, B = random_commuting_pair(rng, 3)
    M = random_matrix(rng, 3)
    g = ExpSeedField(A, B)
    return g, hierarchy(g, M, 2, GRID)[2]


# everything that reads a tabulated field's samples, called as (g, item, grid)
OFF_LATTICE_CALLS = {
    "sample": lambda g, item, grid: item.phi.sample(grid),
    "d1_samples": lambda g, item, grid: item.phi.d1_samples(grid, 0),
    "d2_samples": lambda g, item, grid: item.phi.d2_samples(grid, 1),
    "q_samples": lambda g, item, grid: item.q_samples(grid),
    "recursion_step": lambda g, item, grid: recursion_step(item.phi, g, grid),
    "symmetry_residual": lambda g, item, grid: symmetry_residual(item.phi, g, grid),
    "tabulated_seed_connection":
        lambda g, item, grid: TabulatedField(GRID, g.sample(GRID)).connection(grid),
}


class TestLatticeCalculus:
    def test_first_derivative_exact_for_quartics(self):
        xs = np.linspace(-1.0, 1.0, 13)
        d1 = _lattice_derivative(xs ** 4, xs[1] - xs[0], axis=0, deriv=1)
        np.testing.assert_allclose(d1, 4.0 * xs ** 3, atol=1e-12)

    def test_second_lattice_derivative_exact_for_quintics(self):
        xs = np.linspace(-1.0, 1.0, 13)
        d2 = _lattice_derivative(xs ** 5, xs[1] - xs[0], axis=0, deriv=2)
        np.testing.assert_allclose(d2, 20.0 * xs ** 3, atol=1e-11)

    def test_cumulative_integral_exact_for_cubics(self):
        xs = np.linspace(-1.0, 1.0, 41)
        f = xs ** 3 - 2.0 * xs ** 2 + xs - 0.5
        exact = xs ** 4 / 4 - 2.0 * xs ** 3 / 3 + xs ** 2 / 2 - 0.5 * xs
        got = _cumulative_integral(f, xs[1] - xs[0], axis=0)
        np.testing.assert_allclose(got, exact - exact[0], atol=1e-13)

    def test_cumulative_integral_along_second_axis(self):
        ts = np.linspace(0.0, 2.0, 21)
        f = np.broadcast_to(ts ** 2, (3, 21))
        got = _cumulative_integral(f, ts[1] - ts[0], axis=1)
        expected = np.broadcast_to(ts ** 3 / 3.0, (3, 21))
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_too_few_nodes_rejected(self):
        grid = Grid2D(nx=5)
        with pytest.raises(InvalidGridError, match="at least 6 nodes per axis, got 5 x 41"):
            _zero_table(grid).d1_samples(grid, 0)

    def test_integral_operator_is_a_cached_read_only_cubic_rule(self, monkeypatch):
        height = chiral_recursion._BLOCK_ROWS
        nodes = 2 * height + 7
        chiral_recursion._diff_blocks(nodes, 1)
        chiral_recursion._integral_blocks.cache_clear()
        solves = _counting(monkeypatch, chiral_recursion.np.linalg, "solve")
        blocks = chiral_recursion._integral_blocks(nodes)
        # built from the cached stencil blocks alone, once per node count
        assert solves == []
        assert blocks is chiral_recursion._integral_blocks(nodes)
        # read-only row blocks of one height; all but the last carry one row more
        assert [(r0, r1) for r0, r1, _, _ in blocks] == [
            (0, height), (height, 2 * height), (2 * height, nodes)]
        assert [block.shape[0] for _, _, _, block in blocks] == [height + 1, height + 1, 7]
        for _, _, _, block in blocks:
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 0.0
        assert not blocks[0][3][0].any()
        # together they are W, row for row
        np.testing.assert_allclose(_cumulative_integral(np.eye(nodes), 1.0, 0),
                                   _dense_integral(nodes), rtol=0, atol=1e-15)
        # a cubic in x times a cubic in t, integrated along each axis
        grid = Grid2D(-1.0, 2.0, -0.5, 1.5, nodes, nodes)
        X, T = grid.mesh()
        f = (X ** 3 - 2.0 * X + 1.0) * (T ** 3 + T ** 2)
        fx = (X ** 4 / 4 - X ** 2 + X) * (T ** 3 + T ** 2)
        ft = (X ** 3 - 2.0 * X + 1.0) * (T ** 4 / 4 + T ** 3 / 3)
        np.testing.assert_allclose(_cumulative_integral(f, grid.dx, 0), fx - fx[:1],
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(_cumulative_integral(f, grid.dt, 1), ft - ft[:, :1],
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("nx, nt", [(6, 4001), (4001, 6)])
    def test_cold_operators_take_memory_linear_in_the_nodes(self, nx, nt):
        # one dense (nodes, nodes) operator at 4001 nodes would take 128 MB
        g = ExpSeedField([[0.1, 0.2], [0.0, -0.1]], [[0.3, 0.1], [0.0, 0.2]])
        grid = Grid2D(nx=nx, nt=nt)
        chiral_recursion._diff_blocks.cache_clear()
        chiral_recursion._integral_blocks.cache_clear()
        tracemalloc.start()
        try:
            chiral_defect_samples(g, grid)
            potential(g, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4001 * 4001 * 8

    def test_an_operator_is_applied_without_a_scaled_copy(self):
        # once the operators are built, a defect scan on a 2001 x 6 lattice
        # allocates less than one (nodes, nodes) matrix (32 MB)
        g = ExpSeedField([[0.1, 0.2], [0.0, -0.1]], [[0.3, 0.1], [0.0, 0.2]])
        grid = Grid2D(nx=2001, nt=6)
        chiral_defect_samples(g, grid)
        tracemalloc.start()
        try:
            chiral_defect_samples(g, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2001 * 2001 * 8


def _dense_derivative(nodes, deriv):
    """The dense unit-spacing differentiation matrix, from the stencil weights."""
    width = 5 if deriv == 1 else 6
    mat = np.zeros((nodes, nodes))
    rows = np.arange(2, nodes - 2)
    for offset, weight in zip(range(-2, 3), _fd_weights(np.arange(-2, 3), deriv)):
        mat[rows, rows + offset] = weight
    for i in (0, 1):
        mat[i, :width] = _fd_weights(np.arange(width) - i, deriv)
        mat[-1 - i, -width:] = _fd_weights(np.arange(1 - width, 1) + i, deriv)
    return mat


def _dense_integral(nodes):
    """W = T - (D1 - 1 D1[0]) / 12: the cumulative trapezoid less the Euler-Maclaurin term."""
    d1 = _dense_derivative(nodes, 1)
    trapezoid = np.tri(nodes, k=-1)
    trapezoid[1:, 0] = 0.5
    trapezoid[np.arange(1, nodes), np.arange(1, nodes)] = 0.5
    return trapezoid - (d1 - d1[0]) / 12.0


def _dense_along(mat, values, axis):
    """The dense operator ``mat`` applied along ``axis`` as one complex product."""
    moved = np.moveaxis(values, axis, 0)
    return np.moveaxis(np.tensordot(mat, moved, axes=(1, 0)), 0, axis)


def _complex_derivative(values, spacing, axis, deriv=1):
    """The complex-product lattice derivative the float-view kernel replaced."""
    return _dense_along(_dense_derivative(values.shape[axis], deriv) / spacing ** deriv,
                        values, axis)


def _complex_cumulative_integral(values, spacing, axis):
    """The complex-arithmetic cumulative integral the float-view kernel replaced."""
    v = np.moveaxis(values, axis, 0)
    out = np.zeros_like(v)
    steps = v[1:] + v[:-1]
    steps *= 0.5
    steps *= spacing
    np.cumsum(steps, axis=0, out=out[1:])
    del steps
    deriv = _complex_derivative(v, spacing, 0)
    deriv -= deriv[0]
    deriv *= spacing ** 2 / 12.0
    out -= deriv
    return np.moveaxis(out, 0, axis)


def _stencil_terms(values, spacing, axis, deriv):
    """Sum of |weight| |value| over each node's stencil: the scale of its rounding.

    Where the terms cancel, as on a constant table, two summation orders
    agree only to a few ulps of this sum, not of the result.
    """
    weights = np.abs(_dense_derivative(values.shape[axis], deriv))
    moved = np.moveaxis(np.abs(values), axis, 0)
    return np.moveaxis(np.tensordot(weights / spacing ** deriv, moved, axes=(1, 0)), 0, axis)


def _integral_terms(values, spacing, axis):
    """The same scale for the corrected trapezoid sums."""
    moved = np.moveaxis(np.abs(values), axis, 0)
    terms = np.zeros_like(moved)
    terms[1:] = np.cumsum(moved[1:] + moved[:-1], axis=0) * (0.5 * spacing)
    slopes = np.moveaxis(_stencil_terms(values, spacing, axis, 1), axis, 0)
    terms += spacing ** 2 / 12.0 * (slopes + slopes[0])
    return np.moveaxis(terms, 0, axis)


def _kernel_table(nodes, n, is_complex, layout, other=None):
    """A (nodes, other, n, n) table in the layouts the lattice kernels receive."""
    other = other or (6 if nodes > 6 else 41)
    shape = (nodes, other, n, n)
    rng = np.random.default_rng(nodes * 100 + n * 10 + is_complex)

    def draw(size):
        return rng.standard_normal(size) + (1j * rng.standard_normal(size) if is_complex else 0)

    if layout == "contiguous":
        return draw(shape)
    if layout == "moveaxis":
        view = np.moveaxis(draw((other, nodes, n, n)), 0, 1)
        assert not view.flags.c_contiguous
        return view
    # zero-stride and read-only, as _connection_tables broadcasts a connection
    source = draw((n, n)) if layout == "constant" else draw((nodes, 1, n, n))
    table = np.broadcast_to(source, shape)
    assert not table.flags.writeable and 0 in table.strides
    return table


class TestFloatViewKernels:
    """The real-arithmetic kernels against the complex-product ones they replaced."""

    @staticmethod
    def assert_close(got, want, terms):
        assert got.shape == want.shape and got.dtype == want.dtype
        scale = np.maximum(1.0, np.maximum(np.abs(want), terms))
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    @pytest.mark.parametrize("layout", ["contiguous", "moveaxis", "constant", "varying-rows"])
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("nodes", [6, 7, 41])
    def test_kernels_match_the_complex_reference(self, nodes, n, is_complex, layout):
        table = _kernel_table(nodes, n, is_complex, layout)
        before = table.copy()
        for axis in (0, 1):
            spacing = 2.0 / (table.shape[axis] - 1)
            for deriv in (1, 2):
                got = _lattice_derivative(table, spacing, axis, deriv)
                # contiguous on both axes, so later sums and products run unstrided
                assert got.flags.c_contiguous
                self.assert_close(got, _complex_derivative(table, spacing, axis, deriv),
                                  _stencil_terms(table, spacing, axis, deriv))
            got = _cumulative_integral(table, spacing, axis)
            assert got.flags.c_contiguous
            self.assert_close(got, _complex_cumulative_integral(table, spacing, axis),
                              _integral_terms(table, spacing, axis))
        np.testing.assert_array_equal(table, before)

    @pytest.mark.parametrize("layout", ["contiguous", "moveaxis", "constant", "varying-rows"])
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    def test_every_block_edge_matches_the_dense_operators(self, is_complex, layout):
        # fewer nodes than one block, exactly one, and a last block of every
        # height from one row up, on both axes
        height = chiral_recursion._BLOCK_ROWS
        for nodes in range(6, 3 * height + 3):
            table = _kernel_table(nodes, 2, is_complex, layout, other=nodes)
            for axis in (0, 1):
                spacing = 2.0 / (nodes - 1)
                for deriv in (1, 2):
                    got = _lattice_derivative(table, spacing, axis, deriv)
                    want = _dense_along(_dense_derivative(nodes, deriv) / spacing ** deriv,
                                        table, axis)
                    self.assert_close(got, want, _stencil_terms(table, spacing, axis, deriv))
                got = _cumulative_integral(table, spacing, axis)
                want = _dense_along(_dense_integral(nodes) * spacing, table, axis)
                self.assert_close(got, want, _integral_terms(table, spacing, axis))

    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    def test_kernels_take_tables_of_any_rank(self, is_complex):
        # a vector per node and a bare column of nodes, as the lattice tests use
        rng = np.random.default_rng(5)
        for shape in ((41,), (7, 9, 3)):
            table = rng.standard_normal(shape) + (1j * rng.standard_normal(shape)
                                                  if is_complex else 0)
            for axis in range(min(2, len(shape))):
                got = _lattice_derivative(table, 0.05, axis, 2)
                assert got.flags.c_contiguous
                self.assert_close(got, _complex_derivative(table, 0.05, axis, 2),
                                  _stencil_terms(table, 0.05, axis, 2))
                got = _cumulative_integral(table, 0.05, axis)
                assert got.flags.c_contiguous
                self.assert_close(got, _complex_cumulative_integral(table, 0.05, axis),
                                  _integral_terms(table, 0.05, axis))


def _relative_error(got, want):
    """Per-matrix max-entry error, relative to the largest entry of ``want``."""
    return np.abs(got - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))


def _mixed_norm_stack(rng, n, size=41):
    # entry scales 1e-3 to 20 in one stack: scaling exponents 0 to 5
    scale = np.logspace(-3, np.log10(20.0), size)[:, None, None]
    return (rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))) * scale


class TestExpm:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_scipy_over_mixed_norm_stacks(self, n):
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(40 + n)
        for _ in range(20):
            a = _mixed_norm_stack(rng, n)
            assert _relative_error(_expm(a), expm(a)).max() < 1e-12

    def test_stacked_call_equals_one_by_one_calls(self):
        a = _mixed_norm_stack(np.random.default_rng(7), 3)
        single = np.array([_expm(m) for m in a])
        assert _relative_error(_expm(a), single).max() <= 1e-15

    def test_single_matrix_keeps_its_shape(self):
        a = _mixed_norm_stack(np.random.default_rng(8), 2, size=1)
        out = _expm(a[0])
        assert out.shape == (2, 2)
        assert _relative_error(out, _expm(a)[0]) <= 1e-15
        # a grid-shaped stack keeps its leading axes too
        assert _expm(np.broadcast_to(a, (3, 5, 2, 2))).shape == (3, 5, 2, 2)

    # t = 100 takes five squarings, each adding its rounding
    @pytest.mark.parametrize("t, tol", [(1.0, 1e-15), (100.0, 1e-14)])
    def test_nilpotent_jordan_block_is_a_finite_series(self, t, tol):
        J = t * np.diag(np.ones(3), 1)
        exact = np.eye(4) + J + J @ J / 2 + J @ J @ J / 6
        assert _relative_error(_expm(J), exact) < tol

    def test_diagonal_matrix_exponentiates_entrywise(self):
        d = np.array([-3.0, 0.5 + 2.0j, 10.0, 0.0])
        out = _expm(np.diag(d))
        np.testing.assert_allclose(np.diag(out), np.exp(d), rtol=1e-14)
        assert np.all(out[~np.eye(4, dtype=bool)] == 0)

    @pytest.mark.parametrize("theta", [0.3, np.pi, 50.0])
    def test_rotation_generator_gives_a_rotation(self, theta):
        c, s = np.cos(theta), np.sin(theta)
        out = _expm(theta * np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.abs(out - np.array([[c, -s], [s, c]])).max() < 1e-14

    def test_zero_matrix_gives_identity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _expm(np.zeros((3, 3)))
        assert np.all(out == np.eye(3))

    def test_overflowing_and_non_finite_inputs_give_non_finite_outputs(self):
        good = np.array([[0.1, 0.2], [0.0, -0.1]])
        a = np.array([
            np.diag([1000.0, 0.0]),             # exp(1000) overflows
            [[1e308, 1e308], [1e308, 1e308]],   # the 1-norm overflows
            [[np.nan, 0.0], [0.0, 0.0]],
            [[0.0, np.inf], [0.0, 0.0]],
            good,
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _expm(a)
            single = _expm(a[3])
        assert not np.isfinite(out[:4]).all(axis=(-2, -1)).any()
        assert not np.isfinite(single).all()
        assert _relative_error(out[4], _expm(good)) <= 1e-15


class TestFields:
    def test_constant_field_broadcast_and_zero_derivatives(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        f = ConstantField(M)
        assert f(0.0, 0.0).shape == (2, 2)
        assert f(np.zeros((5, 7)), np.zeros((5, 7))).shape == (5, 7, 2, 2)
        assert np.all(f.d1_samples(GRID, 0) == 0.0)
        assert np.all(f.d2_samples(GRID, 1) == 0.0)

    def test_exp_seed_identity_at_origin(self, exp_setup):
        _, _, _, g = exp_setup
        np.testing.assert_allclose(g(0.0, 0.0), np.eye(3), atol=1e-14)

    def test_exp_seed_matches_direct_exponential(self, exp_setup):
        expm = pytest.importorskip("scipy.linalg").expm
        A, B, _, g = exp_setup
        np.testing.assert_allclose(
            g(0.3, -0.7), expm(0.3 * A - 0.7 * B), rtol=1e-12, atol=1e-14
        )

    @pytest.mark.parametrize("A, B, grid", [
        (*seed_triple(7)[:2], GRID),
        (np.array([[10.0, 1.0], [0.0, 10.0]]), -np.array([[10.0, 1.0], [0.0, 10.0]]),
         Grid2D(100.0, 101.0, 100.0, 101.0, 41, 41)),
        # each axis factor reaches e^80, their product e^160
        (np.array([[800.0, 1.0], [0.0, 800.0]]), -np.array([[800.0, 1.0], [0.0, 800.0]]),
         Grid2D(0.9, 1.1, 0.9, 1.1, 41, 41)),
        # the centre factor exp(A x0 + B t0) is not the identity here
        (*seed_triple(7)[:2], Grid2D(0.5, 2.0, -1.5, 0.0, 31, 23)),
    ], ids=["default", "far-from-origin", "jordan-800", "off-centre"])
    def test_exp_seed_samples_match_per_node_exponential(self, A, B, grid):
        expm = pytest.importorskip("scipy.linalg").expm
        g = ExpSeedField(A, B)
        X, T = grid.mesh()
        per_node = np.array([[expm(x * A + t * B) for x, t in zip(xr, tr)]
                             for xr, tr in zip(X, T)])
        assert np.max(np.abs(g.sample(grid) - per_node)) < 1e-12 * np.max(np.abs(per_node))
        # scattered points, not a mesh, factor about their own centre
        xs, ts = X.ravel()[::97], T.ravel()[::97]
        scattered = np.array([expm(x * A + t * B) for x, t in zip(xs, ts)])
        assert np.max(np.abs(g(xs, ts) - scattered)) < 1e-12 * np.max(np.abs(scattered))

    @pytest.mark.parametrize("h", [1e-4, 1e-3])
    def test_exp_seed_derivatives_are_generator_products(self, h):
        A, B, _ = seed_triple(7)
        g = ExpSeedField(A, B)
        grid = Grid2D(nx=21, nt=17)
        gs = g.sample(grid)
        for axis, gen in ((0, A), (1, B)):
            d1, d2 = g.d1_samples(grid, axis), g.d2_samples(grid, axis)
            np.testing.assert_allclose(d1, gen @ gs, rtol=1e-14, atol=1e-14)
            assert np.array_equal(d2, gen @ (gen @ gs))
            np.testing.assert_allclose(d2, gen @ gen @ gs, rtol=1e-14, atol=1e-14)
            # central differences of the evaluator, as the reference, agree to
            # their truncation errors h^2 |g'''| / 6 and h^2 |g''''| / 12, plus
            # rounding, a few eps |g| / h and eps |g| / h^2
            X, T = grid.mesh()
            plus, minus = (g(X + s, T) if axis == 0 else g(X, T + s) for s in (h, -h))
            ref_d1 = (plus - minus) / (2.0 * h)
            ref_d2 = (plus - 2.0 * g(X, T) + minus) / (h * h)
            g3 = np.max(np.abs(gen @ gen @ gen @ gs))
            g4 = np.max(np.abs(gen @ gen @ gen @ gen @ gs))
            rounding = 16 * np.finfo(float).eps * np.max(np.abs(gs))
            assert np.max(np.abs(ref_d1 - d1)) < 1.05 * h ** 2 * g3 / 6 + rounding / h
            assert np.max(np.abs(ref_d2 - d2)) < 1.05 * h ** 2 * g4 / 12 + rounding / h ** 2

    def test_exp_seed_samples_once_per_grid_read_only(self):
        A, B, _ = seed_triple(7)
        g = ExpSeedField(A, B)
        first = g.sample(GRID)
        assert g.sample(GRID) is first
        assert g.sample(Grid2D()) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 0.0
        other = g.sample(Grid2D(nx=21, nt=21))
        assert other is not first
        assert other.shape == (21, 21, 3, 3)

    def test_exp_seed_generators_are_read_only_copies(self):
        A, B, _ = seed_triple(7)
        A = A.astype(complex)
        g = ExpSeedField(A, B)
        with pytest.raises(ValueError):
            g.A[0, 0] = 1.0
        with pytest.raises(ValueError):
            g.B[0, 0] = 1.0
        A[0, 0] += 1.0          # the caller's array stays writable and unshared
        assert g.A[0, 0] != A[0, 0]

    def test_exp_seed_rejects_noncommuting_generators(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NonCommutingError):
            ExpSeedField(A, B)

    def test_overflowing_commutator_is_still_non_commuting(self):
        # [A, B] reads about 2e400: unscaled it overflowed to nan, which
        # compared false against the tolerance and accepted the pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonCommutingError, match=r"max \|\[A, B\]\| = inf"):
                ExpSeedField([[1e200, 1e200], [1e200, 1e200]], [[1e200, 0.0], [0.0, -1e200]])
            g = ExpSeedField(1e200 * np.eye(2), 2e200 * np.eye(2))
            # subnormal generators scale by subnormal powers of two
            ExpSeedField(np.diag([1e-320, 1e-315]), np.diag([1.0, 2.0]))
            with pytest.raises(NonCommutingError):
                ExpSeedField([[0.0, 1e-310], [0.0, 0.0]], [[1e300, 0.0], [0.0, 0.0]])
        assert g.n == 2

    @pytest.mark.parametrize("scale", [1e-310, 1e-150, 1e-6, 1.0, 1e6, 1e150])
    def test_commutation_verdict_and_message_match_the_unscaled_test(self, scale):
        # the unscaled test, as the reference, where its products stay in range
        def reference(A, B):
            defect = float(np.max(np.abs(_commutator(A, B))))
            peak = max(1.0, float(np.max(np.abs(A))) * float(np.max(np.abs(B))))
            return defect > 1e-12 * peak, defect

        rng = np.random.default_rng(int(-np.log10(scale)) + 200)
        verdicts = set()
        for n, b_scale in itertools.product((1, 2, 3), (min(1.0 / scale, 1e300), scale)):
            for bump in (0.0, 1e-14, 1e-13, 3e-13, 1e-12, 3e-12, 1e-11, 1e-9, 1.0):
                A, B = random_commuting_pair(rng, n)
                A, B = scale * A, b_scale * (B + bump * random_matrix(rng, n))
                rejects, defect = reference(A, B)
                verdicts.add(rejects)
                if rejects:
                    with pytest.raises(NonCommutingError) as excinfo:
                        ExpSeedField(A, B)
                    assert str(excinfo.value) == ("seed generators do not commute: "
                                                  f"max |[A, B]| = {defect!r}")
                else:
                    ExpSeedField(A, B)
        assert verdicts == {False, True}

    def test_exp_seed_rejects_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            ExpSeedField(np.eye(2), np.eye(3))
        with pytest.raises(InvalidParameterError):
            ConstantField(np.ones((2, 3)))

    def test_tabulated_arithmetic(self):
        a = TabulatedField.from_function(
            lambda X, T: X[..., None, None] * np.eye(2), GRID
        )
        b = TabulatedField.from_function(
            lambda X, T: T[..., None, None] * np.eye(2), GRID
        )
        combo = 2.0 * a + b - a
        np.testing.assert_allclose(combo.values, a.values + b.values, atol=1e-15)

    def test_tabulated_lattice_mismatch_rejected(self):
        small = Grid2D(-1.0, 1.0, -1.0, 1.0, 21, 21)
        a = TabulatedField.from_function(
            lambda X, T: X[..., None, None] * np.eye(2), GRID
        )
        b = TabulatedField.from_function(
            lambda X, T: X[..., None, None] * np.eye(2), small
        )
        with pytest.raises(InvalidParameterError):
            a + b

    def test_tabulated_field_samples_its_own_table_on_an_equal_grid(self):
        f = TabulatedField.from_function(
            lambda X, T: (X * T)[..., None, None] * np.eye(2), GRID
        )
        assert f.grid is GRID
        assert f.sample(Grid2D()) is f.values

    @pytest.mark.parametrize("call", OFF_LATTICE_CALLS.values(), ids=OFF_LATTICE_CALLS.keys())
    def test_tabulated_field_raises_on_another_lattice(self, level_2_of_1003, call):
        # a genuine level (1e-10 on its own nodes) that a bilinear
        # interpolant on 61 x 61 would scan at 85
        g, item = level_2_of_1003
        call(g, item, Grid2D())
        with pytest.raises(InvalidGridError, match="nodes only"):
            call(g, item, Grid2D(nx=61, nt=61))

    @pytest.mark.parametrize("operator", [recursion_step, symmetry_residual])
    def test_phi_on_another_lattice_fails_before_the_seed_caches(self, level_2_of_1003,
                                                                   operator):
        g, item = level_2_of_1003
        seed = ExpSeedField(g.A, g.B)
        foreign = Grid2D(nx=61, nt=61)
        with pytest.raises(InvalidGridError, match="nodes only"):
            operator(item.phi, seed, foreign)
        assert foreign not in seed._samples and foreign not in seed._checked

    def test_equal_grids_share_caches_and_tables(self, level_2_of_1003):
        g, item = level_2_of_1003
        equal = Grid2D()
        assert equal is not GRID
        assert g.sample(equal) is g.sample(GRID)
        assert g.connection(equal) is g.connection(GRID)
        a = TabulatedField(GRID, g.sample(GRID))
        b = TabulatedField(equal, g.sample(GRID))
        np.testing.assert_array_equal((a + b).values, 2.0 * a.values)
        own = symmetry_residual(item.phi, g, GRID).max_abs
        assert symmetry_residual(item.phi, g, equal).max_abs == own

    def test_tabulated_validation(self):
        grid = Grid2D(nx=7, nt=7)
        with pytest.raises(InvalidParameterError):
            TabulatedField(grid, np.zeros((7, 6, 2, 2)))
        with pytest.raises(InvalidParameterError):
            TabulatedField(grid, np.zeros((7, 7, 2, 3)))


class TestChiralResidual:
    def test_exponential_seed_solves_field_equation(self, exp_setup):
        _, _, _, g = exp_setup
        report = chiral_residual(g, GRID)
        assert report.max_abs < 1e-6
        assert report.n_points == GRID.nx * GRID.nt

    def test_non_solution_residual_matches_hand_value(self):
        # g = exp(A x^2) gives g^-1 g_x = 2Ax, so the residual equals 2A
        A = np.array([[0.4, 0.1], [0.0, -0.3]])
        g = TabulatedField.from_function(
            lambda X, T: _expm((X ** 2)[..., None, None] * A), GRID
        )
        report = chiral_residual(g, GRID)
        assert report.max_abs == pytest.approx(0.8, rel=1e-3)

    def test_singular_seed_reports_location(self):
        def fn(X, T):
            out = np.zeros(X.shape + (2, 2), dtype=complex)
            out[..., 0, 0] = X
            out[..., 1, 1] = 1.0
            return out

        g = TabulatedField.from_function(fn, GRID)
        with pytest.raises(SingularMatrixError) as excinfo:
            chiral_residual(g, GRID)
        assert excinfo.value.point[0] == pytest.approx(0.0, abs=1e-12)
        # the node x = 0 is exactly singular: its condition number is inf
        assert excinfo.value.cond == np.inf
        assert str(excinfo.value).endswith("(condition number inf)")

    def test_small_grid_rejected(self, exp_setup):
        _, _, _, g = exp_setup
        with pytest.raises(InvalidGridError):
            chiral_residual(g, Grid2D(-1.0, 1.0, -1.0, 1.0, 5, 41))

    def test_first_derivative_scan_serves_a_spacing_too_wide_to_square(self):
        report = chiral_residual(ExpSeedField([[0.0]], [[0.0]]), Grid2D(-1e300, 1e300))
        assert report.max_abs == 0.0

    def test_non_finite_node_is_singular_at_that_node(self, exp_setup):
        _, _, _, g = exp_setup
        values = g.sample(GRID).copy()
        values[12, 30, 1, 2] = np.nan
        with pytest.raises(SingularMatrixError) as excinfo:
            chiral_residual(TabulatedField(GRID, values), GRID)
        assert excinfo.value.point == pytest.approx((GRID.xs[12], GRID.ts[30]))
        assert excinfo.value.cond == np.inf
        assert str(excinfo.value) == (f"matrix field is singular near "
                                      f"{excinfo.value.point} (condition number inf)")

    def test_ill_conditioned_node_reports_its_condition_number(self):
        # cond(g) = e^(40 |x|) first passes 1e12 at the node x = -1
        g = ExpSeedField(np.diag([20.0, -20.0]), np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError) as excinfo:
            chiral_residual(g, GRID)
        assert excinfo.value.point == (-1.0, -1.0)
        assert excinfo.value.cond == pytest.approx(np.exp(40.0), rel=1e-9)
        assert f"(condition number {excinfo.value.cond!r})" in str(excinfo.value)

    def test_singular_matrix_error_message_is_its_point_and_condition_number(self):
        err = SingularMatrixError((0.5, np.float64(-1.0)), cond=2e12)
        assert (err.point, err.cond) == ((0.5, -1.0), 2e12)
        assert str(err) == ("matrix field is singular near (0.5, -1.0) "
                            "(condition number 2000000000000.0)")
        with pytest.raises(TypeError):
            SingularMatrixError((0.5, -1.0), "a message of its own")

    def test_perturbed_tabulated_seed_fails(self):
        # an exp seed's connection is exactly (A, B), so the field-equation
        # scan has something to find only in tabulated seeds, whose
        # connection is differenced from the samples
        g = ExpSeedField([[0.1, 0.2], [0.0, -0.1]], [[0.3, 0.1], [0.0, 0.2]])
        X, _ = GRID.mesh()
        exact = TabulatedField(GRID, g.sample(GRID))
        assert chiral_residual(exact, GRID).max_abs < 1e-6
        perturbed = TabulatedField(GRID, g.sample(GRID) + 1e-5 * (X ** 3)[..., None, None])
        assert chiral_residual(perturbed, GRID).max_abs > 1e-5


class TestPotential:
    def test_matches_closed_form(self, exp_setup):
        A, B, _, g = exp_setup
        base = np.array([[0.2, 0.0, 0.1], [0.0, -0.1, 0.0], [0.3, 0.0, 0.0]])
        pot = potential(g, GRID, base=base)
        X, T = GRID.mesh()
        exact = X[..., None, None] * B - T[..., None, None] * A + base
        assert isinstance(pot, TabulatedField)
        assert pot.grid == GRID and pot.n == 3
        assert np.max(np.abs(pot.values - exact)) < 1e-8
        assert pot.path_disagreement < 1e-6

    def test_base_defaults_to_zero_at_origin_node(self, exp_setup):
        _, _, _, g = exp_setup
        pot = potential(g, GRID)
        i0 = int(np.argmin(np.abs(GRID.xs)))
        j0 = int(np.argmin(np.abs(GRID.ts)))
        np.testing.assert_allclose(pot.values[i0, j0], 0.0, atol=1e-14)

    def test_non_solution_seed_raises_path_dependence(self):
        A = np.array([[0.4, 0.1], [0.0, -0.3]])
        g = TabulatedField.from_function(
            lambda X, T: _expm((X ** 2)[..., None, None] * A), GRID
        )
        with pytest.raises(PathDependenceError, match="disagree"):
            potential(g, GRID)

    @pytest.mark.parametrize("integrate, error, meaning", [
        (lambda g: potential(g, GRID), PathDependenceError,
         "the seed does not solve the chiral field equation"),
        (lambda g: recursion_step(ConstantField([[0.0, 1.0], [0.0, 0.0]]), g, GRID),
         IntegrabilityError, "input violates the integrability condition of the recursion"),
    ], ids=["potential", "recursion_step"])
    def test_non_solution_seed_fails_the_shared_integrator(self, integrate, error, meaning):
        # U_x + V_t = 2A != 0, and [2A, M] != 0, so neither system is curl-free
        A = np.array([[0.4, 0.1], [0.0, -0.3]])
        g = TabulatedField.from_function(
            lambda X, T: _expm((X ** 2)[..., None, None] * A), GRID
        )
        with pytest.raises(PathDependenceError) as excinfo:
            integrate(g)
        assert type(excinfo.value) is error
        assert re.fullmatch(
            r"axis-ordered integrals disagree by \S+ \(tolerance \S+\): " + re.escape(meaning),
            str(excinfo.value),
        )

    def test_integral_past_the_float_range_is_rejected(self):
        # X = B x reads about 2e311: the integrals overflowed to inf, their
        # disagreement read nan, and nan passed the tolerance
        g = ExpSeedField([[1e-152]], [[1e160]])
        grid = Grid2D(-2e151, 2e151, -1e-300, 1e-300)
        with pytest.raises(InvalidParameterError, match="integrals overflow"):
            potential(g, grid)

    @pytest.mark.parametrize("bound", [6e307, 8.5e307])
    def test_path_tolerance_stays_finite_where_the_spans_hypot_overflows(self, bound):
        # at 8.5e307 the hypot of the spans read inf, and so did the
        # tolerance: this non-integrable table passed
        grid = Grid2D(-bound, bound, -bound, bound, 6, 6)
        table = 1e305 * np.random.default_rng(0).standard_normal((6, 6, 2, 2))
        with pytest.raises(IntegrabilityError, match=r"\(tolerance \d\.\d+e\+302\)"):
            recursion_step(TabulatedField(grid, table), ExpSeedField(np.zeros((2, 2)),
                                                                     np.zeros((2, 2))), grid)

    @pytest.mark.parametrize("operator", [
        lambda grid: symmetry_residual(ConstantField([[1.0]]), ExpSeedField([[0.0]], [[0.0]]),
                                       grid),
        lambda grid: _zero_table(grid).d2_samples(grid, 0),
        lambda grid: _zero_table(grid).d2_samples(grid, 1),
    ], ids=["symmetry_residual", "d2_samples-x", "d2_samples-t"])
    @pytest.mark.parametrize("grid, name", [
        (Grid2D(-1e300, 1e300), "dx = 5e+298 is too wide"),
        (Grid2D(t_min=-1e160, t_max=1e160), "dt = 5e+158 is too wide"),
        (Grid2D(t_min=-1e-160, t_max=1e-160), "dt = 5e-162 is too narrow"),
        (Grid2D(-1e-300, 1e-300), "dx = 5e-302 is too narrow"),
    ], ids=["dx", "dt", "dt-narrow", "dx-narrow"])
    def test_second_derivatives_reject_a_spacing_they_cannot_square(self, operator, grid, name):
        # they divide by a square outside the normal range: inf, 0 or a
        # subnormal short of digits
        with pytest.raises(InvalidGridError, match=re.escape(f"lattice spacing {name} to square")):
            operator(grid)

    @pytest.mark.parametrize("operator", [
        chiral_residual, potential,
        lambda g, grid: recursion_step(ConstantField([[1.0]]), g, grid),
        lambda g, grid: symmetry_residual(ConstantField([[1.0]]), g, grid),
        lambda g, grid: _zero_table(grid).d1_samples(grid, 1),
        lambda g, grid: _zero_table(grid).d2_samples(grid, 1),
    ], ids=["chiral_residual", "potential", "recursion_step", "symmetry_residual",
            "d1_samples", "d2_samples"])
    def test_a_subnormal_spacing_is_rejected(self, operator):
        # its reciprocal overflows: a derivative read inf, with a RuntimeWarning
        grid = Grid2D(t_min=-1e-310, t_max=1e-310)
        with pytest.raises(InvalidGridError,
                           match=re.escape("lattice spacing dt = 5e-312 is not a normal float")):
            operator(ExpSeedField([[0.1]], [[0.2]]), grid)

    @pytest.mark.parametrize("integrate", [
        potential,
        lambda g, grid: recursion_step(ConstantField([[1.0]]), g, grid),
    ], ids=["potential", "recursion_step"])
    @pytest.mark.parametrize("grid", [
        Grid2D(-1e300, 1e300), Grid2D(t_min=-1e160, t_max=1e160),
        Grid2D(t_min=-1e-160, t_max=1e-160), Grid2D(-1e-300, 1e-300),
    ], ids=["dx", "dt", "dt-narrow", "dx-narrow"])
    def test_integrators_serve_any_spacing(self, integrate, grid):
        # the integral scales its product by the spacing and squares nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = integrate(ExpSeedField([[0.0]], [[0.0]]), grid)
        assert field.path_disagreement == 0.0
        assert not field.values.any()

    @pytest.mark.parametrize("base", [[[1.0]], np.eye(2)], ids=["1x1", "2x2"])
    @pytest.mark.parametrize("integrate", [
        lambda g, base: potential(g, GRID, base=base),
        lambda g, base: recursion_step(ConstantField(np.eye(3)), g, GRID, base=base),
    ], ids=["potential", "recursion_step"])
    def test_base_of_another_size_is_rejected(self, exp_setup, integrate, base):
        # unchecked, a 1 x 1 base would broadcast onto every entry of the 3 x 3 result
        with pytest.raises(InvalidParameterError, match="base must be 3 x 3"):
            integrate(exp_setup[3], base)


class TestRecursion:
    def test_level_one_is_commutator_with_potential(self, exp_setup):
        A, B, M, g = exp_setup
        phi1 = recursion_step(ConstantField(M), g, GRID)
        X, T = GRID.mesh()
        X0 = X[..., None, None] * B - T[..., None, None] * A
        assert np.max(np.abs(phi1.values - commutator(X0, M))) < 1e-6
        assert phi1.path_disagreement < 1e-6

    def test_level_two_matches_commutator_arithmetic(self, exp_setup):
        A, B, M, g = exp_setup
        levels = hierarchy(g, M, 2, GRID)
        X, T = GRID.mesh()
        X0 = X[..., None, None] * B - T[..., None, None] * A
        exact = 0.5 * commutator(X0, commutator(X0, M)) - (
            X[..., None, None] * commutator(A, M)
            + T[..., None, None] * commutator(B, M)
        )
        assert np.max(np.abs(levels[2].phi.values - exact)) < 1e-6

    @pytest.mark.parametrize("seed", [7, 19, 101])
    def test_hierarchy_levels_satisfy_symmetry_condition(self, seed):
        A, B, M = seed_triple(seed)
        g = ExpSeedField(A, B)
        for item in hierarchy(g, M, 3, GRID):
            report = symmetry_residual(item.phi, g, GRID)
            assert report.max_abs < 1e-5, f"level {item.level}: {report.max_abs}"

    @pytest.mark.parametrize("seed, n", [(1000, 2), (1001, 3)])
    def test_genuine_seed_passes_symmetry_check_at_161(self, seed, n):
        # acceptance criterion 6's first two seeds: the connection must be
        # exact, since one differenced with step h (error h^2 + eps/h) puts
        # level 3 of these genuine symmetries above the tolerance here
        rng = np.random.default_rng(seed)
        A, B = random_commuting_pair(rng, n)
        M = random_matrix(rng, n)
        g = ExpSeedField(A, B)
        grid = Grid2D(nx=161, nt=161)
        for item in hierarchy(g, M, 3, grid)[1:]:
            report = symmetry_residual(item.phi, g, grid)
            assert report.max_abs < 1e-5, f"level {item.level}: {report.max_abs}"

    def test_genuine_seed_passes_symmetry_check_at_321(self):
        # with U, V differenced from the samples, level 3 read 1.4e-5 here
        rng = np.random.default_rng(1003)
        A, B = random_commuting_pair(rng, 3)
        M = random_matrix(rng, 3)
        g = ExpSeedField(A, B)
        grid = Grid2D(nx=321, nt=321)
        for item in hierarchy(g, M, 3, grid)[1:]:
            report = symmetry_residual(item.phi, g, grid)
            assert report.max_abs < 1e-5, f"level {item.level}: {report.max_abs}"

    def test_constant_characteristic_has_zero_residual(self, exp_setup):
        _, _, M, g = exp_setup
        assert symmetry_residual(ConstantField(M), g, GRID).max_abs == 0.0

    def test_degree_grows_by_one_per_level(self, exp_setup):
        _, _, M, g = exp_setup
        levels = hierarchy(g, M, 3, GRID)
        X, T = GRID.mesh()
        for item in levels:
            values = item.phi.sample(GRID)
            degrees = [
                polynomial_degree(X, T, values[:, :, r, c])
                for r in range(3)
                for c in range(3)
            ]
            assert max(d for d in degrees if d is not None) == item.level

    def test_recursion_is_linear(self, exp_setup):
        A, B, _, g = exp_setup
        rng = np.random.default_rng(23)
        Ma, Mb = random_matrix(rng, 3), random_matrix(rng, 3)
        alpha, beta = 1.7, -0.6
        stepped_sum = recursion_step(
            alpha * TabulatedField.from_function(ConstantField(Ma), GRID)
            + beta * TabulatedField.from_function(ConstantField(Mb), GRID),
            g,
            GRID,
        )
        combo = (
            alpha * recursion_step(ConstantField(Ma), g, GRID)
            + beta * recursion_step(ConstantField(Mb), g, GRID)
        )
        assert np.max(np.abs(stepped_sum.values - combo.values)) < 1e-8

    def test_seed_commuting_with_m_collapses_hierarchy(self):
        rng = np.random.default_rng(11)
        A, B = random_commuting_pair(rng, 3)
        coeffs = rng.standard_normal(3)
        M = coeffs[0] * np.eye(3) + coeffs[1] * A + coeffs[2] * A @ A
        g = ExpSeedField(A, B)
        levels = hierarchy(g, M, 2, GRID)
        assert np.max(np.abs(levels[1].phi.sample(GRID))) < 1e-10
        assert np.max(np.abs(levels[2].phi.sample(GRID))) < 1e-10

    def test_characteristic_is_seed_times_phi(self, exp_setup):
        A, B, M, g = exp_setup
        levels = hierarchy(g, M, 1, GRID)
        item = levels[1]
        assert isinstance(item, SymmetryCharacteristic)
        assert item.level == 1
        samples = item.q_samples(GRID)
        assert samples.shape == (GRID.nx, GRID.nt, 3, 3)
        # the seed's own evaluator, not its cached grid samples
        for i, j in [(0, 0), (26, 16), (40, 3), (40, 40)]:
            expected = g(GRID.xs[i], GRID.ts[j]) @ item.phi.values[i, j]
            np.testing.assert_allclose(samples[i, j], expected, rtol=0,
                                       atol=1e-12 * np.max(np.abs(expected)))

    def test_hierarchy_level_zero_is_constant_m(self, exp_setup):
        _, _, M, g = exp_setup
        levels = hierarchy(g, M, 0, GRID)
        assert len(levels) == 1
        np.testing.assert_allclose(levels[0].phi(0.4, 0.9), M, atol=1e-15)

    def test_hierarchy_rejects_bad_inputs(self, exp_setup):
        _, _, M, g = exp_setup
        with pytest.raises(InvalidParameterError):
            hierarchy(g, M, -1, GRID)
        with pytest.raises(InvalidParameterError):
            hierarchy(g, np.eye(2), 1, GRID)

    def test_non_integrable_input_raises_with_level(self):
        A = np.array([[0.4, 0.1], [0.0, -0.3]])
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        g = TabulatedField.from_function(
            lambda X, T: _expm((X ** 2)[..., None, None] * A), GRID
        )
        with pytest.raises(IntegrabilityError, match="hierarchy level 1"):
            hierarchy(g, M, 2, GRID)
        with pytest.raises(IntegrabilityError):
            recursion_step(ConstantField(M), g, GRID)


def _counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper; returns its growing call list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _cond_kinds(calls):
    """(Frobenius, SVD) counts among recorded ``np.linalg.cond`` calls."""
    fro = sum(1 for args in calls if args[1:] == ("fro",))
    return fro, len(calls) - fro


def test_one_commutator_map_per_generator():
    real_ad = chiral_recursion._real_ad
    rng = np.random.default_rng(11)
    # more distinct generators than the maps kept, of two sizes, one of them real
    generators = [random_matrix(rng, 2 + i % 2) for i in range(11)]
    generators[4] = generators[4].real.copy()
    tables = {n: rng.standard_normal((5, 7, n, n)) + 1j * rng.standard_normal((5, 7, n, n))
              for n in (2, 3)}
    real_ad.cache_clear()
    for _ in range(2):
        for a in generators:
            b = tables[len(a)]
            np.testing.assert_allclose(_commutator(a, b), commutator(a, b), rtol=0, atol=1e-13)
    # each generator's map is reused while kept, and rebuilt after eviction
    info = real_ad.cache_info()
    assert info.currsize == info.maxsize < len(generators)
    assert info.misses == 2 * len(generators)
    for a in generators[-2:]:
        b = tables[len(a)]
        np.testing.assert_allclose(_commutator(a, b), commutator(a, b), rtol=0, atol=1e-13)
    assert real_ad.cache_info().hits == 2
    # the map is read-only, and a generator edited in place gets a map of its own
    ad = real_ad(generators[-1].shape, generators[-1].dtype.str, generators[-1].tobytes())
    assert not ad.flags.writeable
    with pytest.raises(ValueError):
        ad[0, 0] = 1.0
    a, b = generators[-1].copy(), tables[len(generators[-1])]
    _commutator(a, b)
    a[0, 1] += 1.0
    np.testing.assert_allclose(_commutator(a, b), commutator(a, b), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_commutator_matches_matrix_products(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))
    single = random_matrix(rng, n)
    table = rng.standard_normal((6, 8, n, n)) + 1j * rng.standard_normal((6, 8, n, n))
    # a strided operand: the table with its two lattice axes swapped
    view = table.swapaxes(0, 1)
    assert not view.flags.c_contiguous
    for a, b in ((stack, stack[::-1]), (single, stack), (stack, single), (single, single.T),
                 (single, table), (single, view)):
        np.testing.assert_allclose(_commutator(a, b), commutator(a, b), rtol=0, atol=1e-13)
    # a constant a against the tables a seed's connection meets: a large
    # imaginary part, a read-only table (as ExpSeedField samples are) and a
    # broadcast view with zero strides
    frozen = table.copy()
    frozen.setflags(write=False)
    broadcast = np.broadcast_to(single, (4, 3, n, n))
    for a, b in ((single.real + 1e8j * single.imag, table), (single, frozen),
                 (single, broadcast), (single.real, table), (single, table.real)):
        scale = np.max(np.abs(a)) * np.max(np.abs(b))
        np.testing.assert_allclose(_commutator(a, b), commutator(a, b), rtol=0,
                                   atol=1e-13 * scale)
    # entries near 1e+-150: products stay in range, and so must the kernel's
    for a_scale, b_scale in ((1e150, 1e150), (1e-150, 1e-150), (1e150, 1e-150)):
        a, b = a_scale * single, b_scale * table
        with np.errstate(over="raise", under="raise", invalid="raise"):
            got, want = _commutator(a, b), commutator(a, b)
        # an entry that underflowed to 0 would miss a tolerance this small
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * a_scale * b_scale)
    # one inf node: the same nodes come out non-finite (inf * 0 in the real
    # product may make every entry of that node nan), and the rest agree
    spoiled = table.copy()
    spoiled[2, 3, 0, n - 1] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = _commutator(single, spoiled), commutator(single, spoiled)
    bad = ~np.isfinite(got).all(axis=(-2, -1))
    assert np.array_equal(bad, ~np.isfinite(want).all(axis=(-2, -1)))
    assert np.argwhere(bad).tolist() == [[2, 3]]
    np.testing.assert_allclose(got[~bad], want[~bad], rtol=0, atol=1e-13)


class TestConnection:
    def test_hierarchy_and_its_scans_build_the_connection_once(self, monkeypatch):
        A, B, M = unitary_triple(31)
        g = ExpSeedField(A, B)
        g.sample(GRID)
        for deriv in (1, 2):        # the lattice stencils solve for their weights once
            chiral_recursion._diff_blocks(GRID.nx, deriv)
            chiral_recursion._diff_blocks(GRID.nt, deriv)
        conds = _counting(monkeypatch, chiral_recursion.np.linalg, "cond")
        solves = _counting(monkeypatch, chiral_recursion.np.linalg, "solve")
        for item in hierarchy(g, M, 3, GRID):
            symmetry_residual(item.phi, g, GRID)
        # one Frobenius pass, and no SVD on a well-conditioned seed
        assert (_cond_kinds(conds), len(solves)) == ((1, 0), 0)

    def test_a_seed_within_its_bound_is_never_sampled(self, monkeypatch):
        # |A|, |B| of seed 31 keep cond_2 g below e^(2 |A| + 2 |B|) <= 1e11
        A, B, M = seed_triple(31)
        g = ExpSeedField(A, B)
        counts = [_counting(monkeypatch, chiral_recursion.np.linalg, name)
                  for name in ("cond", "solve")]
        counts.append(_counting(monkeypatch, chiral_recursion, "_expm"))
        for item in hierarchy(g, M, 3, GRID):
            symmetry_residual(item.phi, g, GRID)
        assert counts == [[], [], []]

    def test_hierarchy_and_its_scans_compare_no_node_arrays(self, monkeypatch):
        A, B, M = seed_triple(31)
        g = ExpSeedField(A, B)
        calls = [_counting(monkeypatch, chiral_recursion.np, name)
                 for name in ("allclose", "isclose")]
        for item in hierarchy(g, M, 3, GRID):
            symmetry_residual(item.phi, g, GRID)
        assert calls == [[], []]

    def test_exp_seed_connection_is_shared_read_only_and_exact(self, monkeypatch):
        A, B, _ = unitary_triple(7)
        g = ExpSeedField(A, B)
        conds = _counting(monkeypatch, chiral_recursion.np.linalg, "cond")
        U, V = g.connection(GRID)
        assert U is g.A and V is g.B
        # an equal grid has the same nodes: one check
        assert g.connection(Grid2D()) is g.connection(GRID)
        assert _cond_kinds(conds) == (1, 0)
        for built, gen, rebuilt in zip((U, V), (A, B), MatrixField.connection(g, GRID)):
            assert not built.flags.writeable
            with pytest.raises(ValueError):
                built[0, 0] = 0.0
            assert built.shape == (3, 3)
            assert np.array_equal(built, gen)
            # g^-1 g_x solved node by node from the samples agrees
            assert rebuilt.shape == (GRID.nx, GRID.nt, 3, 3)
            assert np.max(np.abs(rebuilt - np.broadcast_to(built, rebuilt.shape))) < 1e-12

    def test_a_seed_within_its_bound_shares_its_exact_connection_unsampled(self, monkeypatch):
        A, B, _ = seed_triple(7)
        g = ExpSeedField(A, B)
        conds = _counting(monkeypatch, chiral_recursion.np.linalg, "cond")
        expms = _counting(monkeypatch, chiral_recursion, "_expm")
        U, V = g.connection(GRID)
        assert U is g.A and V is g.B
        assert g.connection(Grid2D()) is g.connection(GRID)
        assert (conds, expms) == ([], [])
        for built, gen, rebuilt in zip((U, V), (A, B), MatrixField.connection(g, GRID)):
            assert not built.flags.writeable
            assert np.array_equal(built, gen)
            assert np.max(np.abs(rebuilt - np.broadcast_to(built, rebuilt.shape))) < 1e-12

    def test_failed_check_is_not_cached(self, monkeypatch):
        # cond(g) reaches e^40 at x = 1, beyond the invertibility limit
        g = ExpSeedField(np.diag([20.0, -20.0]), np.zeros((2, 2)))
        conds = _counting(monkeypatch, chiral_recursion.np.linalg, "cond")
        for _ in range(2):
            with pytest.raises(SingularMatrixError):
                g.connection(GRID)
        # each attempt takes the Frobenius pass and the SVD of the nodes it flags
        assert _cond_kinds(conds) == (2, 2)

    def test_each_grid_gets_its_own_check(self, monkeypatch):
        A, B, _ = unitary_triple(7)
        g = ExpSeedField(A, B)
        conds = _counting(monkeypatch, chiral_recursion.np.linalg, "cond")
        small = Grid2D(nx=21, nt=17)
        for grid in (GRID, small, GRID, small):
            U, V = g.connection(grid)
            assert U is g.A and V is g.B
        assert _cond_kinds(conds) == (2, 0)
        assert [args[0].shape for args in conds] == [(41 * 41, 3, 3), (21 * 17, 3, 3)]

    def test_an_ill_conditioned_seed_is_refused_at_its_first_bad_node(self):
        # 2 r = 40 is past the bound's limit; the samples reach cond e^40
        g = ExpSeedField(np.diag([20.0, -20.0]), np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError) as caught:
            g.connection(GRID)
        assert caught.value.point == (-1.0, -1.0)
        assert caught.value.cond == pytest.approx(np.exp(40.0), rel=1e-9)

    @pytest.mark.parametrize("norm", [14.0, 1e3])
    def test_a_unitary_seed_of_large_norm_passes_on_its_samples(self, monkeypatch, norm):
        A, B, _ = unitary_triple(7, norm=norm)
        g = ExpSeedField(A, B)
        expms = _counting(monkeypatch, chiral_recursion, "_expm")
        U, V = g.connection(GRID)
        assert U is g.A and V is g.B
        assert len(expms) == 3          # the samples were computed and checked
        assert np.linalg.cond(g.sample(GRID)).max() < 1.0 + 1e-9

    def test_a_far_grid_centres_its_samples_without_overflow(self):
        # x_min + x_max overflows, so a centre formed from it would be inf and
        # read as a singular node; the exponent bound, 1.7e8, is past the limit
        g = ExpSeedField([[1e-300j]], [[0.0]])
        grid = Grid2D(x_min=1e308, x_max=1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                U, V = g.connection(grid)
        assert U is g.A and V is g.B
        # |g| = 1; squaring up exp(3.5e7 i) keeps about eight digits
        np.testing.assert_allclose(np.abs(g.sample(grid)), 1.0, rtol=1e-6)
        assert chiral_residual(g, grid).max_abs == 0.0

    def test_each_grid_gets_its_own_bound(self, monkeypatch):
        A, B, _ = seed_triple(7)
        g = ExpSeedField(A, B)
        conds = _counting(monkeypatch, chiral_recursion.np.linalg, "cond")
        expms = _counting(monkeypatch, chiral_recursion, "_expm")
        bounds = _counting(monkeypatch, ExpSeedField, "_exponent_bound")
        small = Grid2D(nx=21, nt=17)
        for grid in (GRID, small, GRID, small):
            U, V = g.connection(grid)
            assert U is g.A and V is g.B
        assert (conds, expms) == ([], [])
        assert [args[1] for args in bounds] == [GRID, small]


def _svd_check(g_samples, grid):
    """Reference conditioning check: the exact SVD condition number of every node."""
    finite = np.isfinite(g_samples).all(axis=(-2, -1))
    cond = np.full(finite.shape, np.inf)
    cond[finite] = np.linalg.cond(g_samples[finite])
    bad = ~np.isfinite(cond) | (cond > 1e12)
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(np.where(bad, np.inf, cond))), cond.shape)
        raise SingularMatrixError((grid.xs[i], grid.ts[j]))


def _alone(m):
    """``m`` at node (1, 0) of a 2 x 2 lattice of identities."""
    n = m.shape[-1]
    stack = np.broadcast_to(np.eye(n, dtype=complex), (2, 2, n, n)).copy()
    stack[1, 0] = m
    return stack


def _flagged_node(check, g_samples, grid):
    """The point ``check`` reports as singular, or None when it passes."""
    try:
        check(g_samples, grid)
    except SingularMatrixError as exc:
        return exc.point
    return None


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _conditioning_cases(n, seed=0):
    """n x n matrices U diag(s) V^H over condition numbers and scales, plus
    the degenerate nodes: zero, subnormal, rank one, inf and nan entries."""
    rng = np.random.default_rng(seed)
    conds = [1.0, 10.0, 1e4, 1e8, 1e15, 1e17, 1e20]
    conds += [c * f for c in (1e11, 1e12, 1e13) for f in (0.99, 1.01)]
    cases = []
    # interior singular values at the top, middle or bottom of the range:
    # at either end the Frobenius bound reads sqrt(2) times the 2-norm value
    interiors = (0.0, 0.5, 1.0) if n > 2 else (0.0,)
    for cond in conds:
        for scale in (1e-150, 1e-50, 1e-8, 1.0, 1e8, 1e50, 1e150):
            for interior in interiors:
                s = cond ** -np.array([0.0] + [interior] * (n - 2) + [1.0])
                cases.append((_unitary(rng, n) * (scale * s)) @ _unitary(rng, n).conj().T)
    cases.append(np.zeros((n, n), dtype=complex))
    cases.append(1e-310 * _unitary(rng, n))
    cases.append(np.outer(random_matrix(rng, n)[0], random_matrix(rng, n)[0]))
    for bad in (np.inf, np.nan):
        m = random_matrix(rng, n)
        m[n - 1, 0] = bad
        cases.append(m)
    return np.array(cases)


SMALL = Grid2D(nx=2, nt=2)


class TestCheckInvertible:
    """The Frobenius-filtered check flags exactly the nodes an SVD would."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_node_gets_the_svd_verdict(self, n):
        verdicts = []
        for m in _conditioning_cases(n):
            ours = _flagged_node(chiral_recursion._check_invertible, _alone(m), SMALL)
            assert ours == _flagged_node(_svd_check, _alone(m), SMALL)
            verdicts.append(ours is not None)
        # both outcomes occur, on either side of the limit
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("n", [2, 3])
    def test_mixed_stacks_report_the_same_first_node(self, n):
        cases = _conditioning_cases(n)
        rng = np.random.default_rng(n)
        passing = np.array([m for m in cases if _flagged_node(_svd_check, _alone(m), SMALL) is None])
        for stack in [cases[rng.permutation(len(cases))] for _ in range(20)] + [passing]:
            grid = Grid2D(nx=len(stack), nt=2)
            table = np.stack([stack, stack[::-1]], axis=1)
            ours = _flagged_node(chiral_recursion._check_invertible, table, grid)
            assert ours == _flagged_node(_svd_check, table, grid)
            assert (ours is None) == (stack is passing)
