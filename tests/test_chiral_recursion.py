"""Tests for the chiral-field recursion operator and its lattice calculus.

Closed-form oracles: for the exponential seed g = exp(Ax + Bt) with
commuting generators, the potential is X = Bx - At + base, level one of
the hierarchy is [X, M], and level two works out to

    Phi^2 = (1/2) [X, [X, M]] - [Ax + Bt, M]

(checked here by direct commutator arithmetic, independent of the
integrator).  Degree growth is measured by least-squares polynomial
fitting, not by the recursion's own bookkeeping.
"""

import re

import numpy as np
import pytest
from scipy.linalg import expm

from btkit import chiral_recursion
from btkit.chiral_recursion import (
    ConstantField,
    ExpSeedField,
    MatrixField,
    SymmetryCharacteristic,
    TabulatedField,
    _commutator,
    _cumulative_integral,
    _lattice_derivative,
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


def commutator(a, b):
    return a @ b - b @ a


def seed_triple(seed, n=3):
    """Commuting generators plus a generic constant matrix."""
    rng = np.random.default_rng(seed)
    A, B = random_commuting_pair(rng, n)
    M = random_matrix(rng, n)
    return A, B, M


@pytest.fixture(scope="module")
def exp_setup():
    A, B, M = seed_triple(7)
    return A, B, M, ExpSeedField(A, B)


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
        with pytest.raises(InvalidGridError):
            _lattice_derivative(np.zeros(5), 0.1, axis=0, deriv=1)


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
        g = ExpSeedField(A, B)
        X, T = grid.mesh()
        per_node = np.array([[expm(x * A + t * B) for x, t in zip(xr, tr)]
                             for xr, tr in zip(X, T)])
        assert np.max(np.abs(g.sample(grid) - per_node)) < 1e-12 * np.max(np.abs(per_node))
        # scattered points, not a mesh, factor about their own centre
        xs, ts = X.ravel()[::97], T.ravel()[::97]
        scattered = np.array([expm(x * A + t * B) for x, t in zip(xs, ts)])
        assert np.max(np.abs(g(xs, ts) - scattered)) < 1e-12 * np.max(np.abs(scattered))

    def test_exp_seed_derivatives_are_generator_products(self):
        A, B, _ = seed_triple(7)
        g = ExpSeedField(A, B)
        grid = Grid2D(nx=21, nt=17)
        gs = g.sample(grid)
        for axis, gen in ((0, A), (1, B)):
            exact = g.d1_samples(grid, axis)
            np.testing.assert_allclose(exact, gen @ gs, rtol=1e-14, atol=1e-14)
            # the generic central difference agrees to its error h^2 |g'''| / 6
            differenced = MatrixField.d1_samples(g, grid, axis)
            scale = np.max(np.abs(gen @ gen @ gen @ gs))
            assert np.max(np.abs(differenced - exact)) < 0.2 * grid.h ** 2 * scale + 1e-10

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

    def test_exp_seed_rejects_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            ExpSeedField(np.eye(2), np.eye(3))
        with pytest.raises(InvalidParameterError):
            ConstantField(np.ones((2, 3)))

    def test_tabulated_bilinear_reproduces_bilinear_functions(self):
        def fn(X, T):
            vals = 1.0 + 2.0 * X - 0.5 * T + 0.25 * X * T
            return vals[..., None, None] * np.eye(2)

        f = TabulatedField.from_function(fn, GRID)
        pts_x = np.array([-0.987, -0.21, 0.0, 0.333, 0.98])
        pts_t = np.array([0.611, -0.43, 0.17, -0.99, 0.05])
        np.testing.assert_allclose(f(pts_x, pts_t), fn(pts_x, pts_t), rtol=1e-12)

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

    def test_tabulated_field_interpolates_on_a_grid_with_another_step(self):
        f = TabulatedField.from_function(
            lambda X, T: np.exp(X - 2.0 * T)[..., None, None] * np.eye(2), GRID
        )
        other = Grid2D(h=1e-5)
        assert other != GRID
        resampled = f.sample(other)
        assert resampled is not f.values
        np.testing.assert_allclose(resampled, f.values, rtol=1e-14, atol=0)

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
            lambda X, T: expm((X ** 2)[..., None, None] * A), GRID
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

    def test_small_grid_rejected(self, exp_setup):
        _, _, _, g = exp_setup
        with pytest.raises(InvalidGridError):
            chiral_residual(g, Grid2D(-1.0, 1.0, -1.0, 1.0, 5, 41))

    def test_non_finite_node_is_singular_at_that_node(self, exp_setup):
        _, _, _, g = exp_setup
        values = g.sample(GRID).copy()
        values[12, 30, 1, 2] = np.nan
        with pytest.raises(SingularMatrixError) as excinfo:
            chiral_residual(TabulatedField(GRID, values), GRID)
        assert excinfo.value.point == pytest.approx((GRID.xs[12], GRID.ts[30]))

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
            lambda X, T: expm((X ** 2)[..., None, None] * A), GRID
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
            lambda X, T: expm((X ** 2)[..., None, None] * A), GRID
        )
        with pytest.raises(PathDependenceError) as excinfo:
            integrate(g)
        assert type(excinfo.value) is error
        assert re.fullmatch(
            r"axis-ordered integrals disagree by \S+ \(tolerance \S+\): " + re.escape(meaning),
            str(excinfo.value),
        )

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
        got = item.q(0.3, -0.2)
        expected = np.asarray(g(0.3, -0.2)) @ np.asarray(item.phi(0.3, -0.2))
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        samples = item.q_samples(GRID)
        assert samples.shape == (GRID.nx, GRID.nt, 3, 3)

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
            lambda X, T: expm((X ** 2)[..., None, None] * A), GRID
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


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_commutator_matches_matrix_products(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))
    single = random_matrix(rng, n)
    for a, b in ((stack, stack[::-1]), (single, stack), (stack, single), (single, single.T)):
        np.testing.assert_allclose(_commutator(a, b), commutator(a, b), rtol=0, atol=1e-13)


class TestConnection:
    def test_hierarchy_and_its_scans_build_the_connection_once(self, monkeypatch):
        A, B, M = seed_triple(31)
        g = ExpSeedField(A, B)
        g.sample(GRID)
        for deriv in (1, 2):        # the lattice stencils solve for their weights once
            chiral_recursion._diff_matrix_unit(GRID.nx, deriv)
            chiral_recursion._diff_matrix_unit(GRID.nt, deriv)
        conds = _counting(monkeypatch, chiral_recursion.np.linalg, "cond")
        solves = _counting(monkeypatch, chiral_recursion.np.linalg, "solve")
        for item in hierarchy(g, M, 3, GRID):
            symmetry_residual(item.phi, g, GRID)
        assert (len(conds), len(solves)) == (1, 0)

    def test_hierarchy_and_its_scans_compare_no_node_arrays(self, monkeypatch):
        A, B, M = seed_triple(31)
        g = ExpSeedField(A, B)
        calls = [_counting(monkeypatch, chiral_recursion.np, name)
                 for name in ("allclose", "isclose")]
        for item in hierarchy(g, M, 3, GRID):
            symmetry_residual(item.phi, g, GRID)
        assert calls == [[], []]

    def test_exp_seed_connection_is_shared_read_only_and_exact(self):
        A, B, _ = seed_triple(7)
        g = ExpSeedField(A, B)
        U, V = g.connection(GRID)
        again = g.connection(Grid2D())
        assert again[0] is U and again[1] is V
        for built, gen, rebuilt in zip((U, V), (A, B), MatrixField.connection(g, GRID)):
            assert not built.flags.writeable
            with pytest.raises(ValueError):
                built[0, 0] = 0.0
            assert built.shape == rebuilt.shape == (GRID.nx, GRID.nt, 3, 3)
            # every node is the generator itself, bit for bit
            assert np.array_equal(built, np.broadcast_to(gen, built.shape))
            # g^-1 g_x solved node by node from the samples agrees
            assert np.max(np.abs(rebuilt - built)) < 1e-12

    def test_failed_check_is_not_cached(self, monkeypatch):
        # cond(g) reaches e^40 at x = 1, beyond the invertibility limit
        g = ExpSeedField(np.diag([20.0, -20.0]), np.zeros((2, 2)))
        conds = _counting(monkeypatch, chiral_recursion.np.linalg, "cond")
        for _ in range(2):
            with pytest.raises(SingularMatrixError):
                g.connection(GRID)
        assert len(conds) == 2

    def test_each_grid_gets_its_own_connection(self):
        A, B, _ = seed_triple(7)
        g = ExpSeedField(A, B)
        U, V = g.connection(GRID)
        small = Grid2D(nx=21, nt=17)
        U2, V2 = g.connection(small)
        assert U2.shape == V2.shape == (21, 17, 3, 3)
        assert U2 is not U and V2 is not V
        assert g.connection(GRID)[0] is U
        assert g.connection(small)[0] is U2
