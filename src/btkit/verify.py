"""Finite-difference verification layer.

Every solution generator in this package is certified numerically: the
claimed solution is swept over a sample grid and the defining equations are
evaluated at every sample with central differences.  This module owns the
grid descriptions, the report type that the rest of the package returns,
and ``Stencil``, the one small-step difference core: the classic and
Maxwell scans difference their closed-form evaluators through it, on whole
grids at once.  The fourth-order chiral lattice stencils in
``chiral_recursion`` share nothing with it: they act on node tables.

Stencils are second order:

    f_x   ~ (f(p + h e) - f(p - h e)) / (2 h)
    f_xx  ~ (f(p + h e) - 2 f(p) + f(p - h e)) / h**2
    f_xt  ~ (f(++) - f(+-) - f(-+) + f(--)) / (4 h**2)

The stencil step ``h`` is independent of the grid spacing and must stay an
order of magnitude below it, so the stencil never aliases the sampling
lattice.  A ``Grid2D`` is its lattice alone: the classic scans take ``h``
as an argument (``Grid2D.check_step``); a ``Grid4D`` carries its steps.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyDomainError, InvalidGridError

DEFAULT_STEP = 1e-4


def _check_axis(name: str, lo: float, hi: float, n: int) -> float:
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise InvalidGridError(f"{name} bounds must satisfy min < max, got [{lo}, {hi}]")
    if n < 2:
        raise InvalidGridError(f"{name} needs at least 2 samples, got {n}")
    return (hi - lo) / (n - 1)


def finite_step(h: float) -> float:
    """``h`` itself, once checked to be a finite, positive stencil step."""
    if not (h > 0.0 and math.isfinite(h)):
        raise InvalidGridError(f"stencil step must be finite and positive, got {h}")
    return h


def _check_step(h: float, spacing: float, axis: str) -> None:
    finite_step(h)
    if not h * 10.0 < spacing:
        raise InvalidGridError(
            f"stencil step {h} too coarse for {axis} spacing {spacing}: need h < spacing/10"
        )


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

    def check_step(self, h: float) -> None:
        """Reject a stencil step ``h`` unless finite, positive and below spacing/10."""
        _check_step(h, min(self.dx, self.dt), "smallest")

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

    @property
    def diameter(self) -> float:
        return math.hypot(self.x_max - self.x_min, self.t_max - self.t_min)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Grid4D:
    """Spacetime sample grid (x, y, z, t) for vector fields.

    ``h`` may be a single step or one step per axis.  Electromagnetic fields
    in SI units vary on metres in space but on fractions of a nanosecond in
    time, so a per-axis step keeps the stencil matched to each scale.  The
    ``axes()`` and ``mesh()`` arrays are built once per grid and read-only.
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
    h: float | tuple = DEFAULT_STEP

    def __post_init__(self):
        for name, lo, hi, n, step in zip(
            "xyzt", *zip(*self._axis_specs()), self.steps
        ):
            spacing = _check_axis(name, lo, hi, n)
            _check_step(step, spacing, name)

    def _axis_specs(self):
        return (
            (self.x_min, self.x_max, self.nx),
            (self.y_min, self.y_max, self.ny),
            (self.z_min, self.z_max, self.nz),
            (self.t_min, self.t_max, self.nt),
        )

    @property
    def steps(self) -> tuple:
        if np.isscalar(self.h):
            return (float(self.h),) * 4
        h = tuple(float(v) for v in self.h)
        if len(h) != 4:
            raise InvalidGridError(f"per-axis step needs 4 entries, got {len(h)}")
        return h

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
    def for_wave(cls, wavenumber: float, omega: float, samples: int = 9,
                 step_scale: float = DEFAULT_STEP) -> "Grid4D":
        """Grid spanning one wavelength per spatial axis and one period.

        The stencil step is ``step_scale`` in the wave's own units: 1/k in
        space and 1/omega in time.
        """
        if not wavenumber > 0 or not omega > 0:
            raise InvalidGridError("for_wave needs positive wavenumber and omega")
        wavelength = 2.0 * math.pi / wavenumber
        period = 2.0 * math.pi / omega
        hs = step_scale / wavenumber
        return cls(
            0.0, wavelength, 0.0, wavelength, 0.0, wavelength, 0.0, period,
            samples, samples, samples, samples,
            h=(hs, hs, hs, step_scale / omega),
        )

    def to_dict(self) -> dict:
        return asdict(self)


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
        return asdict(self)


class Stencil:
    """Central differences of ``f`` around broadcastable coordinates.

    ``coords`` are the arguments of ``f`` (arrays that broadcast, or
    scalars); ``h`` is one step or one step per axis.  Every shifted
    evaluation is reduced as soon as it is made; only the center value is
    kept, evaluated at most once and only when a second difference or a
    caller asks for it.
    """

    def __init__(self, f: Callable, coords, h: float | Sequence[float]):
        self.f = f
        self.coords = tuple(coords)
        self.h = (h,) * len(self.coords) if np.isscalar(h) else tuple(h)
        self._center = None

    @property
    def center(self):
        if self._center is None:
            self._center = self.f(*self.coords)
        return self._center

    def _at(self, *shifts):
        coords = list(self.coords)
        for axis, delta in shifts:
            coords[axis] = coords[axis] + delta
        return self.f(*coords)

    def d(self, axis: int):
        """First partial along ``axis`` by the 2-point stencil."""
        h = self.h[axis]
        return (self._at((axis, h)) - self._at((axis, -h))) / (2.0 * h)

    def diffs(self, axis: int):
        """First and second partials along ``axis`` from one +-h pair."""
        h = self.h[axis]
        plus, minus = self._at((axis, h)), self._at((axis, -h))
        return (plus - minus) / (2.0 * h), (plus - 2.0 * self.center + minus) / (h * h)

    def dxy(self, a: int, b: int):
        """Mixed second partial by the 4-point cross stencil."""
        ha, hb = self.h[a], self.h[b]
        return (
            self._at((a, ha), (b, hb)) - self._at((a, ha), (b, -hb))
            - self._at((a, -ha), (b, hb)) + self._at((a, -ha), (b, -hb))
        ) / (4.0 * ha * hb)


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
    """
    arr = np.ascontiguousarray(values)
    points = arr.shape[:point_ndim]
    if np.iscomplexobj(arr):
        arr = arr.view(arr.real.dtype)
    return np.abs(arr.reshape(points + (-1,))).max(axis=-1)


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
