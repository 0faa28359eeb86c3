"""Recursion operator for symmetries of the matrix chiral field equation.

A GL(n, C)-valued field g(x, t) solves

    (g^-1 g_x)_x + (g^-1 g_t)_t = 0.

A matrix function Phi(x, t) is a symmetry characteristic in potential form
when it satisfies the linearized condition

    Phi_xx + Phi_tt + [g^-1 g_x, Phi_x] + [g^-1 g_t, Phi_t] = 0,

and each such Phi yields the symmetry characteristic Q = g Phi.  The pair
of first-order relations

     Phi'_x = Phi_t + [g^-1 g_t, Phi]
    -Phi'_t = Phi_x + [g^-1 g_x, Phi]

maps symmetries to symmetries: its integrability condition on Phi' is the
symmetry condition for Phi, and vice versa, so iterating it from the
trivial characteristic Phi^0 = M (a constant matrix) builds an infinite
hierarchy.  The same right-hand sides with Phi absent define the potential
X of the connection: X_x = g^-1 g_t, -X_t = g^-1 g_x, and for the
separable seed g = exp(Ax + Bt) with commuting A, B one has X = Bx - At
and the first hierarchy step lands on Phi^1 = [X, M].

Numerics
--------
Hierarchy fields live on the grid lattice: each recursion output is a
TabulatedField defined on the nodes of its Grid2D and nowhere else (other
nodes raise InvalidGridError), so no interpolant's kinks are differenced,
and no field is differenced by a small step.  Every lattice operator is
one cached, read-only unit-spacing matrix: the fourth-order stencils
(5-point interior, one-sided at edges) and the line integral, cumulative
trapezoid with the Euler-Maclaurin endpoint term, exact for cubics; so
levels 0 through 3 of an exponential-seed hierarchy are exact to rounding
on the default grids.  A node table, the operator's axis first, is read
as a (nodes, -1) float matrix through the float view of its complex
entries, so each application is one real (nodes, nodes) @ (nodes, 2 *
rest) product, not a complex one with three quarters of its multiplies by
zero imaginary parts.  The product is then scaled by the spacing, or by
its reciprocal power for a derivative: no scaled copy of a matrix is
built, and only the symmetry scan's second derivatives square the
spacing.  The potential and
the recursion step share one integrator: it always computes both axis
orders, their disagreement is the integrability diagnostic, and it
returns a TabulatedField that carries it as ``path_disagreement``.  The
potential X is that field itself.

The connection U = g^-1 g_x, V = g^-1 g_t is what every operator here
starts from.  For an exponential seed it is exactly the constant pair
(A, B): the seed checks its conditioning once per grid and returns its
read-only (n, n) generators themselves, so a whole hierarchy and its
symmetry scans share one check, never see the rounding of g, and take
each commutator [A, P] over the whole lattice as one real product: the
table's (nodes, 2 n^2) float view times the real form of
ad(A) = A^T (x) I - I (x) A, built once per call.  The check is a closed
form where one applies: |e^M|_2 <= e^|M|_2 (Moler and Van Loan, SIAM
Review 45, 2003) gives cond_2 g <= e^(2 r) on the grid's rectangle, with
r = |A|_2 max |x| + |B|_2 max |t|.  When 2 r <= ln 1e11, a tenth of the
limit, the seed passes without a sample computed; otherwise the check runs
node by node on its samples.  So g is sampled only when something reads
it: that check, the q = g Phi table, or a library caller.

The field-equation scan and the potential difference or integrate the
connection, so they broadcast it to node tables; the field-equation scan
therefore reads rounding level for an exponential seed (the stencils
applied to a constant).  That scan is a real check for tabulated seeds,
whose connection is solved node by node from lattice derivatives of the
samples.  Fields other than the exponential seed rebuild the connection
on each call, since their samples may change between calls.  The
node-by-node conditioning check runs an SVD only on nodes whose
Frobenius-norm bound comes near its limit.

The seed's samples come from ``_expm``, a numpy Pade [13/13] matrix
exponential with scaling and squaring that takes a whole stack of
matrices at once, so the module needs numpy alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    IntegrabilityError,
    InvalidGridError,
    InvalidParameterError,
    NonCommutingError,
    PathDependenceError,
    SingularMatrixError,
)
from .verify import (Grid2D, ResidualReport, _matrix_pair, _scaled, magnitude,
                     report_from_values)

_MIN_NODES = 6          # one-sided second-derivative stencils need 6 nodes
_COMMUTE_TOL = 1e-12
_COND_LIMIT = 1e12
# an exponential seed whose exponent bound r has 2 r at most this has
# cond_2 <= e^(2 r) <= _COND_LIMIT / 10 on every node
_COND_BOUND_EXPONENT = math.log(_COND_LIMIT / 10)
_PATH_TOL = 1e-6


# --- fourth-order lattice calculus ---------------------------------------

def _fd_weights(offsets, deriv: int) -> np.ndarray:
    """Stencil weights for d^deriv/dx^deriv on unit-spaced nodes at ``offsets``."""
    offsets = np.asarray(offsets, dtype=float)
    rhs = np.zeros(len(offsets))
    rhs[deriv] = math.factorial(deriv)
    vander = np.vander(offsets, increasing=True).T
    return np.linalg.solve(vander, rhs)


@lru_cache(maxsize=None)
def _diff_matrix_unit(n_nodes: int, deriv: int):
    """Dense differentiation matrix on n unit-spaced nodes, 4th order."""
    if n_nodes < _MIN_NODES:
        raise InvalidGridError(
            f"lattice derivatives need at least {_MIN_NODES} nodes per axis, got {n_nodes}"
        )
    width = 5 if deriv == 1 else 6
    mat = np.zeros((n_nodes, n_nodes))
    rows = np.arange(2, n_nodes - 2)
    for offset, weight in zip(range(-2, 3), _fd_weights(np.arange(-2, 3), deriv)):
        mat[rows, rows + offset] = weight
    for i in (0, 1):
        mat[i, :width] = _fd_weights(np.arange(width) - i, deriv)
        mat[-1 - i, -width:] = _fd_weights(np.arange(1 - width, 1) + i, deriv)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _integral_matrix_unit(n_nodes: int):
    """Corrected trapezoid from node 0 on n unit-spaced nodes, exact for cubics.

    W = T - (D1 - 1 D1[0]) / 12, the cumulative trapezoid T less the Euler-
    Maclaurin term, built in place with no other (nodes, nodes) table alive.
    """
    d1 = _diff_matrix_unit(n_nodes, 1)
    mat = np.tri(n_nodes, k=-1)
    mat[1:, 0] = 0.5
    mat.flat[n_nodes + 1::n_nodes + 1] = 0.5
    band = 5                # D1's one-sided edge stencils span five nodes
    for offset in range(1 - band, band):
        i = np.arange(max(0, -offset), min(n_nodes, n_nodes - offset))
        mat[i, i + offset] -= d1[i, i + offset] / 12.0
    mat[:, :band] += d1[0, :band] / 12.0
    mat.setflags(write=False)
    return mat


def _along(operator: np.ndarray, values: np.ndarray, axis: int, scale: float) -> np.ndarray:
    """``scale`` times the unit-spacing ``operator`` applied along ``axis``.

    One real product on the table's (nodes, -1) float view, ``axis`` first.
    """
    moved = np.ascontiguousarray(np.moveaxis(values, axis, 0))
    is_complex = np.iscomplexobj(moved)
    rows = (moved.view(moved.real.dtype) if is_complex else moved).reshape(len(moved), -1)
    out = operator @ rows
    out *= scale
    if is_complex:
        out = out.view(moved.dtype)
    return np.moveaxis(out.reshape(moved.shape), 0, axis)


def _lattice_derivative(values: np.ndarray, spacing: float, axis: int,
                        deriv: int = 1) -> np.ndarray:
    # a numpy power: a square out of range reads inf or 0, not a Python error
    return _along(_diff_matrix_unit(values.shape[axis], deriv), values, axis,
                  np.float64(spacing) ** -deriv)


def _cumulative_integral(values: np.ndarray, spacing: float, axis: int) -> np.ndarray:
    """Antiderivative from node 0 along ``axis``: corrected trapezoid, exact for cubics."""
    return _along(_integral_matrix_unit(values.shape[axis]), values, axis, spacing)


# Pade [13/13] coefficients b_k / b_0, and the 1-norm below which it meets
# unit roundoff without scaling (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = tuple(math.factorial(26 - k) * math.factorial(13)
                / (math.factorial(26) * math.factorial(k) * math.factorial(13 - k))
                for k in range(14))
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of one (n, n) matrix or a stack of them.

    Pade [13/13] with scaling and squaring; each matrix gets its own
    scaling exponent, and one solve serves the whole stack.  A matrix with
    a non-finite entry or 1-norm maps to NaN, and one whose exponential
    overflows comes out non-finite, without a floating-point warning.
    """
    a = np.asarray(a, dtype=complex)
    shape = a.shape
    a = a.reshape((-1,) + shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(a).sum(axis=1).max(axis=1)
    finite = np.isfinite(norm)
    # s = max(0, ceil(log2(norm / theta))), with no log of 0
    mant, expo = np.frexp(np.where(finite, norm, 0.0) / _THETA13)
    s = np.maximum(expo - (mant == 0.5), 0)
    a = np.where(finite[:, None, None], a, 0.0) * np.ldexp(1.0, -s)[:, None, None]
    b = _PADE13
    eye = np.eye(shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(int(s.max(initial=0))):
            squares = s > k
            r[squares] = r[squares] @ r[squares]
    r[~finite] = np.nan
    return r.reshape(shape)


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] over stacked (broadcasting) matrices.

    A constant operand ``a``, one (n, n) matrix such as an exponential
    seed's connection, is one fixed linear map on the n^2 entries of each
    matrix P of ``b``.  With vec(P) listing the entries row by row, as the
    table's memory does, vec(a P - P a) = vec(P) ad(a), where
    ad(a) = a^T (x) I - I (x) a (Van Loan, J. Comput. Appl. Math. 123,
    2000).  Each entry c of ad(a) becomes the real block [[Re c, Im c],
    [-Im c, Re c]], which multiplies an entry's (re, im) pair from the
    right, so the whole stack is one real (m, 2 n^2) @ (2 n^2, 2 n^2)
    product on the float view of ``b`` as a complex table, with a
    contiguous complex output; ad(a) is built once per call.  A stacked
    ``a`` takes one outer product per k, which for the small matrices of a
    chiral seed beats a stacked matmul's BLAS call per matrix.
    """
    if a.ndim == 2:
        n = a.shape[-1]
        rho = np.empty((n, n, 2, 2))
        rho[..., 0, 0] = rho[..., 1, 1] = a.real
        rho[..., 0, 1] = a.imag
        rho[..., 1, 0] = -a.imag
        # ad[k, j, s; i, l, u] = rho[i, k, s, u] [j == l] - [k == i] rho[j, l, s, u]:
        # row (k, j, s) reads part s of P[k, j], column (i, l, u) gives part u
        # of [a, P][i, l]
        ad = np.zeros((n, n, 2, n, n, 2))
        diagonal = np.arange(n)
        ad[:, diagonal, :, :, diagonal, :] = rho.transpose(1, 2, 0, 3)
        ad[diagonal, :, :, diagonal, :, :] -= rho.transpose(0, 2, 1, 3)
        table = np.ascontiguousarray(b, dtype=complex).view(float).reshape(-1, 2 * n * n)
        return (table @ ad.reshape(2 * n * n, -1)).view(complex).reshape(b.shape)
    return sum(a[..., :, k, None] * b[..., None, k, :] - b[..., :, k, None] * a[..., None, k, :]
               for k in range(a.shape[-1]))


# --- matrix field families ------------------------------------------------

class MatrixField:
    """Square-matrix-valued field of (x, t) on the nodes of a grid.

    Each family supplies its node table ``sample`` and its derivative
    tables ``d1_samples`` and ``d2_samples``: closed forms exactly, tabulated
    data by the lattice stencils.
    """

    n: int

    def connection(self, grid: Grid2D):
        """U = g^-1 g_x and V = g^-1 g_t on the lattice."""
        gs = self.sample(grid)
        _check_invertible(gs, grid)
        U = np.linalg.solve(gs, self.d1_samples(grid, 0))
        V = np.linalg.solve(gs, self.d1_samples(grid, 1))
        return U, V

    def to_dict(self) -> dict:
        raise NotImplementedError


def _as_square(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidParameterError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} must be finite")
    return arr


def _base_matrix(base, n: int) -> np.ndarray:
    """The integration constant: zero by default, else an n x n matrix."""
    if base is None:
        return np.zeros((n, n), dtype=complex)
    arr = _as_square(base, "base")
    if arr.shape != (n, n):
        raise InvalidParameterError(f"base must be {n} x {n} like g, got shape {arr.shape}")
    return arr


class ConstantField(MatrixField):
    """Phi(x, t) = M."""

    def __init__(self, M):
        self.M = _as_square(M, "M")
        self.n = self.M.shape[0]

    def __call__(self, x, t):
        shape = np.broadcast(np.asarray(x), np.asarray(t)).shape
        return np.broadcast_to(self.M, shape + self.M.shape).copy()

    def sample(self, grid: Grid2D) -> np.ndarray:
        return self(*grid.mesh())

    def d1_samples(self, grid, axis):
        return np.zeros((grid.nx, grid.nt, self.n, self.n), dtype=complex)

    d2_samples = d1_samples

    def to_dict(self):
        return {"n": self.n, "family": "constant", "params": {"M": _matrix_pair(self.M)}}


class ExpSeedField(MatrixField):
    """g(x, t) = exp(A x + B t) for commuting generators A, B.

    Commutation makes g a genuine solution of the chiral field equation:
    g^-1 g_x = A and g^-1 g_t = B are constant.  Non-commuting generators
    are rejected at construction.

    Commutation also factors g = exp(A (x - x0)) exp(A x0 + B t0)
    exp(B (t - t0)) about the centre (x0, t0) of the points asked for, so an
    evaluation exponentiates each distinct x and each distinct t once, not
    every point: 83 exponentials for a 41 x 41 mesh instead of 1681, in
    three calls of the batched Pade ``_expm``.
    Derivative samples use the closed forms g_x = A g and g_xx = A (A g)
    (B in t), and the connection is the (n, n) pair (A, B) itself, returned
    once the grid passes the conditioning check.  Its first step is the
    bound cond_2 g <= e^(2 r), r = |A|_2 max |x| + |B|_2 max |t| over the
    grid's rectangle: with 2 r <= ln(_COND_LIMIT / 10) every node is at
    least ten times inside the limit, which leaves room for the rounding of
    the samples, and r also bounds each factor ``__call__`` exponentiates,
    so the grid passes unsampled.  Past that, the invertibility check runs
    on the grid's samples, node by node.  Grid samples are computed when
    first asked for, once per grid, and returned read-only, and the check
    runs once per grid; the generators are read-only copies, so nothing
    cached can go stale.  A grid that fails the check is not recorded and
    raises again on the next call.
    """

    def __init__(self, A, B):
        self.A = _as_square(A, "A").copy()
        self.B = _as_square(B, "B").copy()
        self.A.setflags(write=False)
        self.B.setflags(write=False)
        self._samples: dict = {}
        self._checked: set = set()
        self._connection = (self.A, self.B)
        if self.A.shape != self.B.shape:
            raise InvalidParameterError("generators must have matching shapes")
        self.n = self.A.shape[0]
        # |[A, B]| > tol max(1, |A| |B|) on A / sa and B / sb for powers of two,
        # whose products cannot overflow: the same digits where A B is in range
        (a, sa), (b, sb) = _scaled(self.A), _scaled(self.B)
        scaled = float(np.max(np.abs(_commutator(a, b))))
        defect = scaled * (sa * sb)
        peak = float(np.max(np.abs(a))) * float(np.max(np.abs(b)))
        if scaled > _COMMUTE_TOL * peak and defect > _COMMUTE_TOL:
            raise NonCommutingError(
                f"seed generators do not commute: max |[A, B]| = {defect!r}"
            )

    def __call__(self, x, t):
        X, T = np.broadcast_arrays(np.asarray(x, float), np.asarray(t, float))
        xs, ix = np.unique(X, return_inverse=True)
        ts, it = np.unique(T, return_inverse=True)
        # halves first: the sum of two far nodes can overflow
        x0 = 0.5 * xs[0] + 0.5 * xs[-1]
        t0 = 0.5 * ts[0] + 0.5 * ts[-1]
        # a huge generator overflows to inf (and inf * 0 to nan), which the
        # invertibility check reports as a SingularMatrixError; the floating
        # point warnings add nothing
        with np.errstate(over="ignore", invalid="ignore"):
            left = _expm((xs - x0)[:, None, None] * self.A) @ _expm(x0 * self.A + t0 * self.B)
            right = _expm((ts - t0)[:, None, None] * self.B)
            return left[ix.reshape(X.shape)] @ right[it.reshape(T.shape)]

    def sample(self, grid: Grid2D) -> np.ndarray:
        values = self._samples.get(grid)
        if values is None:
            values = self(*grid.mesh())
            values.setflags(write=False)
            self._samples[grid] = values
        return values

    def d1_samples(self, grid: Grid2D, axis: int) -> np.ndarray:
        return (self.A, self.B)[axis] @ self.sample(grid)

    def d2_samples(self, grid: Grid2D, axis: int) -> np.ndarray:
        return (self.A, self.B)[axis] @ self.d1_samples(grid, axis)

    def connection(self, grid: Grid2D):
        if grid not in self._checked:
            # a bound past the float range (inf) takes the node check too
            if not 2.0 * self._exponent_bound(grid) <= _COND_BOUND_EXPONENT:
                _check_invertible(self.sample(grid), grid)
            self._checked.add(grid)
        return self._connection

    def _exponent_bound(self, grid: Grid2D) -> float:
        """r >= |A x + B t|_2 over the grid's rectangle; inf past the float range."""
        x_far = max(abs(float(grid.x_min)), abs(float(grid.x_max)))
        t_far = max(abs(float(grid.t_min)), abs(float(grid.t_max)))
        return (float(np.linalg.norm(self.A, 2)) * x_far
                + float(np.linalg.norm(self.B, 2)) * t_far)

    def to_dict(self):
        return {
            "n": self.n,
            "family": "exp_seed",
            "params": {"A": _matrix_pair(self.A), "B": _matrix_pair(self.B)},
        }


class TabulatedField(MatrixField):
    """Matrix field defined on the nodes of ``grid`` only.

    The field's lattice is its Grid2D: ``values[i, j]`` is the matrix at
    (grid.xs[i], grid.ts[j]).  Sampling on a grid with the same nodes
    returns the table itself; there is no interpolant, so any other nodes
    raise InvalidGridError.  Lattice derivatives use the fourth-order
    stencils.  ``path_disagreement`` records the integration diagnostic
    when the field was produced by a recursion step.
    """

    def __init__(self, grid: Grid2D, values, path_disagreement: float | None = None):
        self.grid = grid
        self.values = np.asarray(values, dtype=complex)
        self.path_disagreement = path_disagreement
        expected = (grid.nx, grid.nt)
        if self.values.shape[:2] != expected or self.values.ndim != 4:
            raise InvalidParameterError(
                f"samples of shape {self.values.shape} do not match lattice {expected}"
            )
        if self.values.shape[2] != self.values.shape[3]:
            raise InvalidParameterError("samples must be square matrices")
        self.n = self.values.shape[2]

    @classmethod
    def from_function(cls, fn, grid: Grid2D) -> "TabulatedField":
        X, T = grid.mesh()
        return cls(grid, np.asarray(fn(X, T), dtype=complex))

    def sample(self, grid: Grid2D) -> np.ndarray:
        if grid != self.grid:
            raise InvalidGridError("a tabulated field is defined on its own "
                                   f"{self.grid.nx} x {self.grid.nt} nodes only")
        return self.values

    def d1_samples(self, grid: Grid2D, axis: int) -> np.ndarray:
        return self._lattice_d(grid, axis, 1)

    def d2_samples(self, grid: Grid2D, axis: int) -> np.ndarray:
        return self._lattice_d(grid, axis, 2)

    def _lattice_d(self, grid: Grid2D, axis: int, deriv: int) -> np.ndarray:
        values = self.sample(grid)
        spacing = (grid.dx, grid.dt)[axis]
        return _lattice_derivative(values, spacing, axis, deriv)

    def _combine(self, other, scale_self=1.0, scale_other=1.0) -> "TabulatedField":
        if not isinstance(other, TabulatedField):
            return NotImplemented
        if self.grid != other.grid or self.n != other.n:
            raise InvalidParameterError("tabulated fields live on different lattices")
        return TabulatedField(self.grid, scale_self * self.values + scale_other * other.values)

    def __add__(self, other):
        return self._combine(other)

    def __sub__(self, other):
        return self._combine(other, 1.0, -1.0)

    def __mul__(self, scalar):
        return TabulatedField(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def to_dict(self):
        return {
            "n": self.n,
            "family": "tabulated",
            "x": self.grid.xs.tolist(),
            "t": self.grid.ts.tolist(),
            "values": _matrix_pair(self.values.reshape(self.grid.nx * self.grid.nt, -1)),
        }


# --- operators -------------------------------------------------------------

def _require_lattice(grid: Grid2D) -> None:
    """Reject lattices the fourth-order operators cannot serve.

    Each scales its product after it by the spacing or its reciprocal, so
    a spacing must be a normal float; the symmetry scan alone also squares it.
    """
    if grid.nx < _MIN_NODES or grid.nt < _MIN_NODES:
        raise InvalidGridError(
            f"lattice operators need at least {_MIN_NODES} nodes per axis, "
            f"got {grid.nx} x {grid.nt}"
        )
    for name, spacing in (("dx", grid.dx), ("dt", grid.dt)):
        if not sys.float_info.min <= spacing <= sys.float_info.max:
            raise InvalidGridError(f"lattice spacing {name} = {spacing!r} is not a normal float")


def _check_invertible(g_samples: np.ndarray, grid: Grid2D) -> None:
    # a non-finite node is singular; the SVD behind cond would not converge on it
    finite = np.isfinite(g_samples).all(axis=(-2, -1))
    cond = np.full(finite.shape, np.inf)
    # |g|_F |g^-1|_F costs one batched LU inverse and no SVD, and maps a
    # singular node (or a norm past the float range) to inf.  It bounds the
    # 2-norm condition number from above, and for n <= 3 the LU inverse errs
    # by about cond * eps, far inside a factor of 10; so only nodes whose
    # bound passes a tenth of the limit need the exact SVD value.
    cond[finite] = np.linalg.cond(g_samples[finite], "fro")
    suspect = finite & (cond > _COND_LIMIT / 10)
    if suspect.any():
        cond[suspect] = np.linalg.cond(g_samples[suspect])
    bad = ~np.isfinite(cond) | (cond > _COND_LIMIT)
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise SingularMatrixError((grid.xs[i], grid.ts[j]), cond=cond[i, j])


def _connection_tables(g: MatrixField, grid: Grid2D) -> tuple:
    """g's connection as (nx, nt, n, n) node tables.

    For the operators that difference or integrate it; an exponential
    seed's constant pair is broadcast, not copied.
    """
    shape = (grid.nx, grid.nt, g.n, g.n)
    return tuple(np.broadcast_to(c, shape) for c in g.connection(grid))


def chiral_defect_samples(g: MatrixField, grid: Grid2D) -> np.ndarray:
    """Per-node max-entry magnitude of (g^-1 g_x)_x + (g^-1 g_t)_t."""
    _require_lattice(grid)
    U, V = _connection_tables(g, grid)
    return magnitude(_lattice_derivative(U, grid.dx, 0) + _lattice_derivative(V, grid.dt, 1), 2)


def chiral_residual(g: MatrixField, grid: Grid2D) -> ResidualReport:
    """Scan of (g^-1 g_x)_x + (g^-1 g_t)_t, max-entry magnitude per node."""
    return report_from_values(chiral_defect_samples(g, grid), grid.mesh())


def symmetry_residual(phi: MatrixField, g: MatrixField, grid: Grid2D) -> ResidualReport:
    """Scan of the linearized symmetry condition for Phi on the seed g."""
    _require_lattice(grid)
    # the second derivatives divide by a square that must be a normal float
    for name, spacing in (("dx", grid.dx), ("dt", grid.dt)):
        if not sys.float_info.min <= spacing * spacing <= sys.float_info.max:
            width = "wide" if spacing > 1.0 else "narrow"
            raise InvalidGridError(
                f"lattice spacing {name} = {spacing!r} is too {width} to square")
    # phi first: a phi on other nodes fails before the seed samples, checks
    # and caches anything for this grid
    px = phi.d1_samples(grid, 0)
    U, V = g.connection(grid)
    # the terms in their usual order, summed in place: fewer tables alive
    residual = phi.d2_samples(grid, 0) + phi.d2_samples(grid, 1)
    residual += _commutator(U, px)
    del px
    residual += _commutator(V, phi.d1_samples(grid, 1))
    return report_from_values(residual, grid.mesh())


def _integrate(rx: np.ndarray, rt: np.ndarray, grid: Grid2D, base: np.ndarray,
               error: type, meaning: str) -> TabulatedField:
    """Integrate dF = rx dx + rt dt from the node nearest the origin.

    Both axis orders are computed; the result is their average plus
    ``base``.  Their max disagreement measures the curl of the integrand,
    i.e. how far the system is from integrable: past the tolerance it
    raises ``error``, whose message ends with ``meaning``; otherwise it is
    kept as the field's ``path_disagreement``.
    """
    i0 = int(np.argmin(np.abs(grid.xs)))
    j0 = int(np.argmin(np.abs(grid.ts)))
    # an integral past the float range is rejected below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        gx = _cumulative_integral(rx, grid.dx, 0)
        gt = _cumulative_integral(rt, grid.dt, 1)
        # each path sum is built in place on one axis integral, so no more
        # than four node tables are alive here
        x_leg = (gx[:, j0] - gx[i0, j0])[:, None]
        t_leg = (gt[i0, :] - gt[i0, j0])[None, :]
        x_then_t = np.subtract(gt, gt[:, j0][:, None], out=gt)
        x_then_t += x_leg
        t_then_x = np.subtract(gx, gx[i0, :][None, :], out=gx)
        t_then_x += t_leg
        disagreement = float(np.max(np.abs(x_then_t - t_then_x)))
    x_span, t_span = grid.x_max - grid.x_min, grid.t_max - grid.t_min
    if not math.isfinite(disagreement):
        raise InvalidParameterError("axis-ordered integrals overflow the float range on "
                                    f"this grid (spans {x_span!r} in x, {t_span!r} in t)")
    scale = max(1.0, float(np.max(np.abs(rx))), float(np.max(np.abs(rt))))
    # scaled first: the hypot of two finite spans can overflow
    tol = math.hypot(_PATH_TOL * x_span, _PATH_TOL * t_span) * scale
    if disagreement > tol:
        raise error(
            f"axis-ordered integrals disagree by {disagreement!r} (tolerance {tol!r}): {meaning}"
        )
    x_then_t += t_then_x
    x_then_t *= 0.5
    x_then_t += base
    return TabulatedField(grid, x_then_t, path_disagreement=disagreement)


def potential(g: MatrixField, grid: Grid2D, base=None) -> TabulatedField:
    """Integrate X_x = g^-1 g_t, -X_t = g^-1 g_x from the origin node.

    ``base``, an n x n matrix (zero by default), is X at the origin node.
    Returns X as a TabulatedField whose ``path_disagreement`` is the
    integration diagnostic.

    The potential exists exactly when g solves the chiral field equation;
    a seed that does not makes the two integration orders disagree and
    raises PathDependenceError.
    """
    _require_lattice(grid)
    base_m = _base_matrix(base, g.n)
    U, V = _connection_tables(g, grid)
    return _integrate(V, -U, grid, base_m, PathDependenceError,
                      "the seed does not solve the chiral field equation")


def recursion_step(phi: MatrixField, g: MatrixField, grid: Grid2D,
                   base=None) -> TabulatedField:
    """Apply the recursion once: integrate the transformed gradient of Phi.

    ``base`` fixes the additive constant (the n x n value at the origin node).
    Raises IntegrabilityError when the two integration orders disagree,
    which signals that Phi fails the symmetry condition or g the field
    equation.
    """
    _require_lattice(grid)
    if phi.n != g.n:
        raise InvalidParameterError(f"Phi is {phi.n} x {phi.n} but g is {g.n} x {g.n}")
    base_m = _base_matrix(base, g.n)
    p = phi.sample(grid)        # phi first, as in symmetry_residual
    U, V = g.connection(grid)
    rx = phi.d1_samples(grid, 1) + _commutator(V, p)
    rt = -(phi.d1_samples(grid, 0) + _commutator(U, p))
    return _integrate(rx, rt, grid, base_m, IntegrabilityError,
                      "input violates the integrability condition of the recursion")


@dataclass(frozen=True)
class SymmetryCharacteristic:
    """One level of the hierarchy: Phi and its characteristic Q = g Phi."""

    phi: MatrixField
    level: int
    seed: MatrixField

    def q_samples(self, grid: Grid2D) -> np.ndarray:
        return self.seed.sample(grid) @ self.phi.sample(grid)


def hierarchy(g: MatrixField, M, levels: int, grid: Grid2D) -> list:
    """Build [Phi^0 = M, Phi^1, ..., Phi^levels] by repeated recursion.

    Integrability failures are re-raised with the failing level attached.
    """
    if levels < 0:
        raise InvalidParameterError(f"levels must be non-negative, got {levels}")
    phi: MatrixField = ConstantField(M)
    if phi.n != g.n:
        raise InvalidParameterError(f"M is {phi.n} x {phi.n} but g is {g.n} x {g.n}")
    out = [SymmetryCharacteristic(phi=phi, level=0, seed=g)]
    for level in range(1, levels + 1):
        try:
            phi = recursion_step(phi, g, grid)
        except IntegrabilityError as exc:
            raise IntegrabilityError(f"hierarchy level {level}: {exc}") from exc
        out.append(SymmetryCharacteristic(phi=phi, level=level, seed=g))
    return out
