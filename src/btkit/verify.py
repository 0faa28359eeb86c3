"""Verification layer: grids, exact derivatives and residual reports.

Every solution generator in this package is certified numerically: the
claimed solution is swept over a sample grid and its defining equations are
evaluated at every sample.  ``Taylor`` differentiates the classic and
Maxwell closed-form evaluators exactly, on whole grids, by forward-mode
Taylor arithmetic on ``Jet`` arguments (Griewank and Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008): no step, first and second partials to
rounding.  The chiral lattice stencils in ``chiral_recursion`` are btkit's
only finite differences; they act on node tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import EmptyDomainError, InvalidGridError


def _field_dict(obj) -> dict:
    """A flat dataclass's fields by name, in order; unlike ``asdict``, no deep copy."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _check_axis(name: str, lo: float, hi: float, n: int) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise InvalidGridError(f"{name} bounds must satisfy min < max, got [{lo}, {hi}]")
    if hi - lo == math.inf:
        raise InvalidGridError(f"{name} span max - min overflows the float range, "
                               f"got [{lo}, {hi}]")
    if n < 2:
        raise InvalidGridError(f"{name} needs at least 2 samples, got {n}")


def _exact_scale(peak: float) -> float:
    """The power of two at or below ``peak`` (1/2 for 0).

    Dividing by it is exact wherever the quotient stays normal, and the
    squares of values up to ``peak`` so divided stay below 4.
    """
    return math.ldexp(1.0, math.frexp(peak)[1] - 1)


def _nodes(lo: float, hi: float, n: int) -> np.ndarray:
    nodes = np.linspace(lo, hi, n)
    nodes.setflags(write=False)
    return nodes


def _frozen_mesh(*axes) -> tuple:
    mesh = np.meshgrid(*axes, indexing="ij")
    for coords in mesh:
        coords.setflags(write=False)
    return tuple(mesh)


@dataclass(frozen=True)
class Grid2D:
    """Rectangular sample grid for fields of two variables (x, t).

    A grid is its lattice, its bounds and node counts, and nothing else.
    The node arrays ``xs`` and ``ts`` and the ``mesh()`` arrays are built
    once per grid and read-only, shared by every caller.
    """

    x_min: float = -1.0
    x_max: float = 1.0
    t_min: float = -1.0
    t_max: float = 1.0
    nx: int = 41
    nt: int = 41

    def __post_init__(self):
        _check_axis("x", self.x_min, self.x_max, self.nx)
        _check_axis("t", self.t_min, self.t_max, self.nt)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / (self.nt - 1)

    @cached_property
    def xs(self) -> np.ndarray:
        return _nodes(self.x_min, self.x_max, self.nx)

    @cached_property
    def ts(self) -> np.ndarray:
        return _nodes(self.t_min, self.t_max, self.nt)

    @cached_property
    def _mesh(self) -> tuple:
        return _frozen_mesh(self.xs, self.ts)

    def mesh(self):
        return self._mesh

    def to_dict(self) -> dict:
        return _field_dict(self)


@dataclass(frozen=True)
class Grid4D:
    """Spacetime sample grid (x, y, z, t) for vector fields.

    Like a ``Grid2D``, it is its lattice alone.  The ``axes()`` and
    ``mesh()`` arrays are built once per grid and read-only.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float
    t_min: float
    t_max: float
    nx: int = 9
    ny: int = 9
    nz: int = 9
    nt: int = 9

    def __post_init__(self):
        for name, spec in zip("xyzt", self._axis_specs()):
            _check_axis(name, *spec)

    def _axis_specs(self):
        return tuple((getattr(self, f"{a}_min"), getattr(self, f"{a}_max"), getattr(self, f"n{a}"))
                     for a in "xyzt")

    @cached_property
    def _axes(self) -> tuple:
        return tuple(_nodes(lo, hi, n) for lo, hi, n in self._axis_specs())

    @cached_property
    def _mesh(self) -> tuple:
        return _frozen_mesh(*self._axes)

    def axes(self):
        return self._axes

    def mesh(self):
        return self._mesh

    @classmethod
    def for_wave(cls, wavenumber: float, omega: float, samples: int = 9) -> "Grid4D":
        """Grid spanning one wavelength per spatial axis and one period.

        A wave whose k underflows to 0, or whose wavelength or period
        overflows, has no such grid; the refusal names k and omega.
        """
        wavenumber, omega = float(wavenumber), float(omega)
        wave = f"k={wavenumber!r}, omega={omega!r}"
        if wavenumber == 0.0 and omega > 0:
            raise InvalidGridError(f"wavenumber is 0 or underflows to 0 ({wave}): "
                                   "no wavelength to span")
        if not wavenumber > 0 or not omega > 0:
            raise InvalidGridError(f"for_wave needs positive wavenumber and omega, got {wave}")
        wavelength = 2.0 * math.pi / wavenumber
        period = 2.0 * math.pi / omega
        for name, span in (("wavelength 2 pi / k", wavelength), ("period 2 pi / omega", period)):
            if span == math.inf:
                raise InvalidGridError(f"{name} overflows the float range ({wave})")
        return cls(
            0.0, wavelength, 0.0, wavelength, 0.0, wavelength, 0.0, period,
            samples, samples, samples, samples,
        )

    def to_dict(self) -> dict:
        return _field_dict(self)


@dataclass(frozen=True)
class ResidualReport:
    """Summary statistics of a pointwise residual over a grid.

    ``n_points`` counts the samples that evaluated cleanly; singular samples
    are excluded from the statistics and counted in ``n_singular``.
    """

    max_abs: float
    rms: float
    n_points: int
    worst_point: tuple
    n_singular: int = 0

    def __post_init__(self):
        if self.rms > self.max_abs * (1.0 + 1e-12):
            raise ValueError(f"rms {self.rms} exceeds max_abs {self.max_abs}")

    def passed(self, tolerance: float) -> bool:
        return self.max_abs < tolerance

    def to_dict(self) -> dict:
        return _field_dict(self)


def _linear(ufunc, x, y) -> list:
    n = max(len(x), len(y))
    return [ufunc(a, b) for a, b in zip(x + (0.0,) * (n - len(x)), y + (0.0,) * (n - len(y)))]


def _bilinear(ufunc, x, y) -> list:
    """Part k of a product sums x[i] y[j] over disjoint bit sets i, j with i | j = k."""
    terms = [[ufunc(x[i], y[k ^ i]) for i in range(len(x)) if i & k == i and k ^ i < len(y)]
             for k in range(max(len(x), len(y)))]
    return [sum(t[1:], t[0]) for t in terms]


# f(v) -> (f'(v), f''(v)), given f = f(v), for the ufuncs a Jet follows
_RULES = {
    np.reciprocal: lambda v, f: (-f * f, 2.0 * f * f * f),
    np.exp: lambda v, f: (f, f),
    np.log: lambda v, f: (1.0 / v, -1.0 / (v * v)),
    np.sin: lambda v, f: (np.cos(v), -f),
    np.cos: lambda v, f: (-np.sin(v), -f),
    np.arctan: lambda v, f: (1.0 / (1.0 + v * v), -2.0 * v / (1.0 + v * v) ** 2),
}


def _chain(ufunc, x) -> list:
    f = ufunc(x[0])
    d1, d2 = _RULES[ufunc](x[0], f)
    out = [f] + [d1 * p for p in x[1:]]
    if len(x) == 4:
        out[3] = out[3] + d2 * x[1] * x[2]
    return out


# a Jet divisor is a reciprocal factor: the others divide part by part
_ARITHMETIC = {np.add: _linear, np.subtract: _linear, np.multiply: _bilinear,
               np.matmul: _bilinear, np.true_divide: _bilinear}


def _operators(ufunc):
    return (lambda self, other: ufunc(self, other), lambda self, other: ufunc(other, self))


class Jet:
    """A value with its exact partials along one or two seeded directions.

    ``parts`` are (f, f_a) or (f, f_a, f_b, f_ab), part i the coefficient of
    the infinitesimals whose bits i sets.  Arithmetic, ``@``, indexing,
    ``.real`` and the ufuncs of ``_RULES`` carry every part, other ufuncs
    refuse a Jet, and other numpy functions see its value (``__array__``).
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    def __array__(self, dtype=None, copy=None):
        return (np.array if copy else np.asarray)(self.parts[0], dtype=dtype)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rule = _ARITHMETIC.get(ufunc, _chain if ufunc in _RULES else None)
        if method != "__call__" or kwargs or rule is None:
            return NotImplemented
        if ufunc is np.true_divide and isinstance(inputs[1], Jet):
            return np.multiply(inputs[0], np.reciprocal(inputs[1]))
        return Jet(rule(ufunc, *(x.parts if isinstance(x, Jet) else (x,) for x in inputs)))

    __add__, __radd__ = _operators(np.add)
    __sub__, __rsub__ = _operators(np.subtract)
    __mul__, __rmul__ = _operators(np.multiply)
    __truediv__, __rtruediv__ = _operators(np.true_divide)
    __matmul__, __rmatmul__ = _operators(np.matmul)

    def __neg__(self):
        return Jet(-p for p in self.parts)

    def __getitem__(self, key):
        return Jet(p[key] for p in self.parts)

    @property
    def real(self):
        return Jet(p.real for p in self.parts)


class Taylor:
    """Exact partials of an evaluator ``f`` around broadcastable coordinates.

    ``axes[k]`` holds the tangent of axis k, one per argument of ``f`` (by
    default axis k moves argument k alone).  ``d``, ``diffs`` and ``dxy``
    each evaluate ``f`` once, on ``Jet`` arguments seeded along their axes,
    and ``center`` once, at ``coords``, when a scan first asks for it.  The
    evaluator contract: ``f`` computes with its arguments and returns the
    result.  Coercing them (``np.asarray``) or building a fresh array drops
    the derivatives, so a result that is not a ``Jet`` raises TypeError.
    """

    def __init__(self, f: Callable, coords, axes=None):
        self.f = f
        self.coords = tuple(np.asarray(c) for c in coords)
        self.axes = np.eye(len(self.coords)) if axes is None else axes
        self._center = None

    @property
    def center(self):
        if self._center is None:
            self._center = self.f(*self.coords)
        return self._center

    def _parts(self, *axes) -> list:
        seeds = [[np.asarray(self.axes[k][i]) for k in axes] for i in range(len(self.coords))]
        out = self.f(*(Jet([c, *s] + [0.0 * s[0]] * (len(s) - 1))
                       for c, s in zip(self.coords, seeds)))
        if not isinstance(out, Jet):
            raise TypeError(f"evaluator {self.f!r} returned {type(out).__name__}, not a Jet: "
                            "it must compute with its arguments, not coerce them")
        return [np.broadcast_to(p, np.shape(out.parts[0])) for p in out.parts]

    def d(self, axis: int):
        """First partial along ``axis``."""
        return self._parts(axis)[1]

    def diffs(self, axis: int):
        """First and second partials along ``axis``."""
        parts = self._parts(axis, axis)
        return parts[1], parts[3]

    def dxy(self, a: int, b: int):
        """Mixed second partial along axes ``a`` and ``b``."""
        return self._parts(a, b)[3]


def divergence(d):
    """Divergence of a 3-vector field from its first partials ``d[0..2]``."""
    return d[0][..., 0] + d[1][..., 1] + d[2][..., 2]


def curl(d):
    """Curl of a 3-vector field from its first partials ``d[0..2]``."""
    return np.stack((
        d[1][..., 2] - d[2][..., 1],
        d[2][..., 0] - d[0][..., 2],
        d[0][..., 1] - d[1][..., 0],
    ), axis=-1)


def magnitude(values: np.ndarray, point_ndim: int) -> np.ndarray:
    """Reduce a residual array to one non-negative number per grid point.

    The largest absolute value among the point's entries, where a complex
    array is read through its float view, so that its real and imaginary
    parts are entries of their own: the max of |Re| and |Im| over every
    component, taken by one ``abs`` and one ``max``.  A non-finite entry
    in either part makes the point's value non-finite.

    The ``abs`` writes an (entries, points) table, so the ``max`` runs
    along its first axis over contiguous rows: a max along a short last
    axis of a few entries per point is numpy's slowest reduction shape,
    several times slower.  A max is exact, so the layout changes no digit.
    """
    arr = np.ascontiguousarray(values)
    points = arr.shape[:point_ndim]
    if np.iscomplexobj(arr):
        arr = arr.view(arr.real.dtype)
    rows = arr.reshape(math.prod(points), -1)
    table = np.empty(rows.shape[::-1], dtype=rows.dtype)
    np.abs(rows, out=table.T)
    peaks = table.max(axis=0)
    return peaks.reshape(points) if points else peaks[0]


def _scaled(values: np.ndarray):
    """``values / scale`` and ``scale``, the ``_exact_scale`` of their largest part.

    Squares and products of the quotient's parts stay below 4, so sums of
    them cannot overflow.  A complex array is divided through its float
    view, part by part: the quotient is then exact for a subnormal scale
    too, where numpy's complex division by one overflows.
    """
    arr = np.ascontiguousarray(values)
    scale = _exact_scale(float(magnitude(arr, 0)))
    if np.iscomplexobj(arr):
        return (arr.view(arr.real.dtype) / scale).view(arr.dtype), scale
    return arr / scale, scale


def _relative(mags: np.ndarray, amplitude: float, factor: float = 1.0) -> np.ndarray:
    """Residual magnitudes over ``amplitude * factor``, with no floor under it.

    Both sides are first divided by the power of two of ``amplitude``,
    exactly, so a subnormal amplitude keeps its digits, and the quotient is
    the plain one wherever ``amplitude * factor`` is normal.  A zero
    amplitude, a field that is zero everywhere, leaves the magnitudes as
    they are.  A finite magnitude whose quotient overflows reads as the
    largest float: a failed point, where inf would count as a singular one.
    """
    if amplitude == 0.0:
        return mags
    power = _exact_scale(amplitude)
    with np.errstate(over="ignore"):
        quotient = mags / power / (amplitude / power * factor)
    return np.where(np.isfinite(mags), np.minimum(quotient, np.finfo(float).max), quotient)


def _mantissas(factors) -> tuple:
    """(m, e): the product of the ``frexp`` mantissas of ``factors``, and their exponents' sum."""
    m, e = 1.0, 0
    for factor in factors:
        fm, fe = math.frexp(factor)
        m, e = m * fm, e + fe
    return m, e


def _times(values: np.ndarray, *factors, shift: int = 0) -> np.ndarray:
    """``values`` times ``factors`` and 2^shift: times their mantissas, then ``np.ldexp`` once.

    A coefficient such as eps mu that would be subnormal costs no digits;
    where it and the result are normal this is the plain product.
    """
    m, e = _mantissas(factors)
    arr = np.ascontiguousarray(values * m)
    return np.ldexp(arr.view(arr.real.dtype), e + shift).view(arr.dtype)


def _matrix_pair(value) -> dict:
    """Real and imaginary parts of a complex vector or matrix as nested lists."""
    arr = np.asarray(value, complex)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def report_from_values(values: np.ndarray, meshes) -> ResidualReport:
    """Build a ResidualReport from per-point residual magnitudes.

    Non-finite entries are treated as singular samples: excluded from the
    statistics, counted separately.
    """
    vals = magnitude(values, meshes[0].ndim)
    if vals.shape != meshes[0].shape:
        raise ValueError(f"residual shape {vals.shape} does not match grid {meshes[0].shape}")
    finite = np.isfinite(vals)
    n_singular = int(vals.size - np.count_nonzero(finite))
    if not finite.any():
        raise EmptyDomainError("all grid points were singular")
    flat = np.where(finite, vals, -np.inf).ravel()
    idx = int(np.argmax(flat))
    worst = tuple(float(m.ravel()[idx]) for m in meshes)
    # RMS scaled by a power of two near the peak: squaring cannot overflow,
    # and wherever v*v neither overflows nor underflows the result is
    # bit-identical to sqrt(mean(v*v))
    kept, scale = _scaled(vals[finite])
    return ResidualReport(
        max_abs=float(flat[idx]),
        rms=scale * float(np.sqrt(np.mean(kept * kept))),
        n_points=int(kept.size),
        worst_point=worst,
        n_singular=n_singular,
    )
