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
TabulatedField that holds the Grid2D it was tabulated on, and a bilinear
interpolant has no trustworthy small-step second derivatives, so every
lattice derivative here uses fourth-order stencils:
5-point interior, one-sided at edges.  Line integration is cumulative
trapezoid with the Euler-Maclaurin endpoint correction, exact for cubic
integrands; combined with the stencils this makes levels 0 through 3 of an
exponential-seed hierarchy exact to rounding on the default grids.  The
potential and the recursion step share one integrator: it always computes
both axis orders, their disagreement is the integrability diagnostic, and
it returns a TabulatedField that carries it as ``path_disagreement``.  The
potential X is that field itself.

The connection U = g^-1 g_x, V = g^-1 g_t is what every operator here
starts from.  For an exponential seed it is exactly the constant pair
(A, B): the seed runs the conditioning check on its samples once per grid
and returns read-only broadcasts of its generators, so a whole hierarchy
and its symmetry scans share one check and never see the rounding of g.
Its field-equation scan therefore reads rounding level (the stencils
applied to a constant); that scan is a real check for tabulated seeds,
whose connection is solved node by node from lattice derivatives of the
samples.  Fields other than the exponential seed rebuild the connection
on each call, since their samples may change between calls.
"""

from __future__ import annotations

import math
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
from .verify import Grid2D, ResidualReport, Stencil, magnitude, report_from_values

_MIN_NODES = 6          # one-sided second-derivative stencils need 6 nodes
_COMMUTE_TOL = 1e-12
_COND_LIMIT = 1e12
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
    central = np.arange(-2, 3)
    mat = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes):
        if i < 2:
            offsets = np.arange(width) - i
        elif i > n_nodes - 3:
            offsets = np.arange(width) - (width - 1) + (n_nodes - 1 - i)
        else:
            offsets = central
        mat[i, i + offsets] = _fd_weights(offsets, deriv)
    mat.setflags(write=False)
    return mat


def _lattice_derivative(values: np.ndarray, spacing: float, axis: int,
                        deriv: int = 1) -> np.ndarray:
    mat = _diff_matrix_unit(values.shape[axis], deriv) / spacing ** deriv
    moved = np.moveaxis(values, axis, 0)
    return np.moveaxis(np.tensordot(mat, moved, axes=(1, 0)), 0, axis)


def _cumulative_integral(values: np.ndarray, spacing: float, axis: int) -> np.ndarray:
    """Antiderivative from node 0 along ``axis``: corrected trapezoid.

    The Euler-Maclaurin endpoint term -(spacing^2/12)(f'_m - f'_0) removes
    the leading trapezoid error, making the rule exact for cubics.
    """
    v = np.moveaxis(values, axis, 0)
    out = np.zeros_like(v)
    np.cumsum(0.5 * (v[1:] + v[:-1]) * spacing, axis=0, out=out[1:])
    deriv = _lattice_derivative(v, spacing, 0)
    out -= spacing ** 2 / 12.0 * (deriv - deriv[0])
    return np.moveaxis(out, 0, axis)


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] over stacked (broadcasting) matrices, one outer product per k.

    For the small matrices of a chiral seed this beats a stacked matmul,
    which pays a BLAS call per matrix.
    """
    return sum(a[..., :, k, None] * b[..., None, k, :] - b[..., :, k, None] * a[..., None, k, :]
               for k in range(a.shape[-1]))


# --- matrix field families ------------------------------------------------

class MatrixField:
    """Square-matrix-valued field of (x, t); evaluators broadcast.

    Derivative samples default to small-step central differences of the
    evaluator; tabulated data overrides them with lattice stencils.
    """

    n: int

    def __call__(self, x, t) -> np.ndarray:
        raise NotImplementedError

    def sample(self, grid: Grid2D) -> np.ndarray:
        X, T = grid.mesh()
        return np.asarray(self(X, T), dtype=complex)

    def d1_samples(self, grid: Grid2D, axis: int) -> np.ndarray:
        return Stencil(self, grid.mesh(), grid.h).d(axis)

    def d2_samples(self, grid: Grid2D, axis: int) -> np.ndarray:
        return Stencil(self, grid.mesh(), grid.h).diffs(axis)[1]

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


def _matrix_pair(value) -> dict:
    """Real and imaginary parts of a complex vector or matrix as nested lists."""
    arr = np.asarray(value, complex)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


class ConstantField(MatrixField):
    """Phi(x, t) = M."""

    def __init__(self, M):
        self.M = _as_square(M, "M")
        self.n = self.M.shape[0]

    def __call__(self, x, t):
        shape = np.broadcast(np.asarray(x), np.asarray(t)).shape
        return np.broadcast_to(self.M, shape + self.M.shape).copy()

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
    every point: 83 exponentials for a 41 x 41 mesh instead of 1681.
    Derivative samples use the closed form g_x = A g, g_t = B g, and the
    connection is (A, B) itself, broadcast over the grid once the samples
    pass the invertibility check.  Grid samples and the connection are
    computed once per grid and returned read-only; the generators are
    read-only copies, so the caches cannot go stale.  A seed that fails the
    check is not cached and raises again on the next call.
    """

    def __init__(self, A, B):
        self.A = _as_square(A, "A").copy()
        self.B = _as_square(B, "B").copy()
        self.A.setflags(write=False)
        self.B.setflags(write=False)
        self._samples: dict = {}
        self._connections: dict = {}
        if self.A.shape != self.B.shape:
            raise InvalidParameterError("generators must have matching shapes")
        self.n = self.A.shape[0]
        comm = _commutator(self.A, self.B)
        scale = max(1.0, float(np.max(np.abs(self.A))) * float(np.max(np.abs(self.B))))
        defect = float(np.max(np.abs(comm)))
        if defect > _COMMUTE_TOL * scale:
            raise NonCommutingError(
                f"seed generators do not commute: max |[A, B]| = {defect!r}"
            )

    def __call__(self, x, t):
        # scipy is imported here, not at module scope, so that importing
        # btkit and every non-chiral command run on numpy alone
        from scipy.linalg import expm

        X, T = np.broadcast_arrays(np.asarray(x, float), np.asarray(t, float))
        xs, ix = np.unique(X, return_inverse=True)
        ts, it = np.unique(T, return_inverse=True)
        x0 = 0.5 * (xs[0] + xs[-1])
        t0 = 0.5 * (ts[0] + ts[-1])
        # a huge generator overflows to inf (and inf * 0 to nan), which the
        # invertibility check reports as a SingularMatrixError; the floating
        # point warnings add nothing
        with np.errstate(over="ignore", invalid="ignore"):
            left = expm((xs - x0)[:, None, None] * self.A) @ expm(x0 * self.A + t0 * self.B)
            right = expm((ts - t0)[:, None, None] * self.B)
            return left[ix.reshape(X.shape)] @ right[it.reshape(T.shape)]

    def sample(self, grid: Grid2D) -> np.ndarray:
        values = self._samples.get(grid)
        if values is None:
            values = super().sample(grid)
            values.setflags(write=False)
            self._samples[grid] = values
        return values

    def d1_samples(self, grid: Grid2D, axis: int) -> np.ndarray:
        return (self.A, self.B)[axis] @ self.sample(grid)

    def connection(self, grid: Grid2D):
        pair = self._connections.get(grid)
        if pair is None:
            _check_invertible(self.sample(grid), grid)
            shape = (grid.nx, grid.nt) + self.A.shape
            pair = (np.broadcast_to(self.A, shape), np.broadcast_to(self.B, shape))
            self._connections[grid] = pair
        return pair

    def to_dict(self):
        return {
            "n": self.n,
            "family": "exp_seed",
            "params": {"A": _matrix_pair(self.A), "B": _matrix_pair(self.B)},
        }


class TabulatedField(MatrixField):
    """Matrix field tabulated on the nodes of ``grid``, bilinear between them.

    The field's lattice is its Grid2D: ``values[i, j]`` is the matrix at
    (grid.xs[i], grid.ts[j]).  Sampling on an equal grid returns the table
    itself; any other grid is interpolated bilinearly (clamped-cell
    extrapolation outside the range).  Lattice derivatives use the
    fourth-order stencils.  ``path_disagreement`` records the integration
    diagnostic when the field was produced by a recursion step.
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

    def __call__(self, x, t):
        grid = self.grid
        xs, ts = grid.xs, grid.ts
        xq, tq = np.broadcast_arrays(np.asarray(x, float), np.asarray(t, float))
        ix = np.clip(np.searchsorted(xs, xq, side="right") - 1, 0, grid.nx - 2)
        it = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, grid.nt - 2)
        fx = ((xq - xs[ix]) / grid.dx)[..., None, None]
        ft = ((tq - ts[it]) / grid.dt)[..., None, None]
        v = self.values
        return (
            v[ix, it] * (1 - fx) * (1 - ft)
            + v[ix + 1, it] * fx * (1 - ft)
            + v[ix, it + 1] * (1 - fx) * ft
            + v[ix + 1, it + 1] * fx * ft
        )

    def sample(self, grid: Grid2D) -> np.ndarray:
        if grid == self.grid:
            return self.values
        return super().sample(grid)

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
    if grid.nx < _MIN_NODES or grid.nt < _MIN_NODES:
        raise InvalidGridError(
            f"lattice operators need at least {_MIN_NODES} nodes per axis, "
            f"got {grid.nx} x {grid.nt}"
        )


def _check_invertible(g_samples: np.ndarray, grid: Grid2D) -> None:
    # a non-finite node is singular; the SVD behind cond would not converge on it
    finite = np.isfinite(g_samples).all(axis=(-2, -1))
    cond = np.full(finite.shape, np.inf)
    cond[finite] = np.linalg.cond(g_samples[finite])
    bad = ~np.isfinite(cond) | (cond > _COND_LIMIT)
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(np.where(bad, np.inf, cond))), cond.shape)
        raise SingularMatrixError((grid.xs[i], grid.ts[j]))


def chiral_defect_samples(g: MatrixField, grid: Grid2D) -> np.ndarray:
    """Per-node max-entry magnitude of (g^-1 g_x)_x + (g^-1 g_t)_t."""
    _require_lattice(grid)
    U, V = g.connection(grid)
    residual = (
        _lattice_derivative(U, grid.dx, 0) + _lattice_derivative(V, grid.dt, 1)
    )
    return magnitude(residual, 2)


def chiral_residual(g: MatrixField, grid: Grid2D) -> ResidualReport:
    """Scan of (g^-1 g_x)_x + (g^-1 g_t)_t, max-entry magnitude per node."""
    return report_from_values(chiral_defect_samples(g, grid), grid.mesh())


def symmetry_residual(phi: MatrixField, g: MatrixField, grid: Grid2D) -> ResidualReport:
    """Scan of the linearized symmetry condition for Phi on the seed g."""
    _require_lattice(grid)
    U, V = g.connection(grid)
    px = phi.d1_samples(grid, 0)
    pt = phi.d1_samples(grid, 1)
    residual = (
        phi.d2_samples(grid, 0)
        + phi.d2_samples(grid, 1)
        + _commutator(U, px)
        + _commutator(V, pt)
    )
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
    gx = _cumulative_integral(rx, grid.dx, 0)
    gt = _cumulative_integral(rt, grid.dt, 1)

    x_then_t = (gx[:, j0] - gx[i0, j0])[:, None] + (gt - gt[:, j0][:, None])
    t_then_x = (gt[i0, :] - gt[i0, j0])[None, :] + (gx - gx[i0, :][None, :])
    disagreement = float(np.max(np.abs(x_then_t - t_then_x)))
    scale = max(1.0, float(np.max(np.abs(rx))), float(np.max(np.abs(rt))))
    tol = _PATH_TOL * grid.diameter * scale
    if disagreement > tol:
        raise error(
            f"axis-ordered integrals disagree by {disagreement!r} (tolerance {tol!r}): {meaning}"
        )
    return TabulatedField(grid, base + 0.5 * (x_then_t + t_then_x),
                          path_disagreement=disagreement)


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
    U, V = g.connection(grid)
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
    U, V = g.connection(grid)
    p = phi.sample(grid)
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

    def q(self, x, t) -> np.ndarray:
        return np.asarray(self.seed(x, t)) @ np.asarray(self.phi(x, t))

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
