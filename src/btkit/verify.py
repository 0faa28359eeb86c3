"""Finite-difference verification layer.

Every solution generator in this package is certified numerically: the
claimed solution is swept over a sample grid and the defining equations are
evaluated at every sample with central differences.  This module owns the
grid descriptions, the report type that the rest of the package returns,
and ``Stencil``, the one small-step difference core: the classic and
Maxwell scans and the generic ``MatrixField`` derivatives all difference
their closed-form evaluators through it, on whole grids at once.  The
chiral lattice stencils in ``chiral_recursion`` are separate: they are
fourth order and act on tabulated data, not on an evaluator.

Stencils are second order:

    f_x   ~ (f(p + h e) - f(p - h e)) / (2 h)
    f_xx  ~ (f(p + h e) - 2 f(p) + f(p - h e)) / h**2
    f_xt  ~ (f(++) - f(+-) - f(-+) + f(--)) / (4 h**2)

The stencil step ``h`` is independent of the grid spacing and must stay an
order of magnitude below it, so the stencil never aliases the sampling
lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _check_step(h: float, spacing: float, axis: str) -> None:
    if not (h > 0.0 and math.isfinite(h)):
        raise InvalidGridError(f"stencil step must be finite and positive, got {h}")
    if not h * 10.0 < spacing:
        raise InvalidGridError(
            f"stencil step {h} too coarse for {axis} spacing {spacing}: need h < spacing/10"
        )


def _nodes(lo: float, hi: float, n: int) -> np.ndarray:
    nodes = np.linspace(lo, hi, n)
    nodes.setflags(write=False)
    return nodes


@dataclass(frozen=True)
class Grid2D:
    """Rectangular sample grid for fields of two variables (x, t).

    ``h`` is the central-difference step used by residual evaluators on this
    grid; it must stay strictly below one tenth of the smallest grid spacing.
    The node arrays ``xs`` and ``ts`` and the ``mesh()`` arrays are built once
    per grid and read-only, shared by every caller.
    """

    x_min: float = -1.0
    x_max: float = 1.0
    t_min: float = -1.0
    t_max: float = 1.0
    nx: int = 41
    nt: int = 41
    h: float = DEFAULT_STEP

    def __post_init__(self):
        dx = _check_axis("x", self.x_min, self.x_max, self.nx)
        dt = _check_axis("t", self.t_min, self.t_max, self.nt)
        _check_step(self.h, min(dx, dt), "smallest")

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
        X, T = np.meshgrid(self.xs, self.ts, indexing="ij")
        X.setflags(write=False)
        T.setflags(write=False)
        return X, T

    def mesh(self):
        return self._mesh

    @property
    def diameter(self) -> float:
        return math.hypot(self.x_max - self.x_min, self.t_max - self.t_min)

    def to_dict(self) -> dict:
        return {
            "x_min": self.x_min, "x_max": self.x_max,
            "t_min": self.t_min, "t_max": self.t_max,
            "nx": self.nx, "nt": self.nt, "h": self.h,
        }


@dataclass(frozen=True)
class Grid4D:
    """Spacetime sample grid (x, y, z, t) for vector fields.

    ``h`` may be a single step or one step per axis.  Electromagnetic fields
    in SI units vary on metres in space but on fractions of a nanosecond in
    time, so a per-axis step keeps the stencil matched to each scale.
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

    def axes(self):
        return [np.linspace(lo, hi, n) for lo, hi, n in self._axis_specs()]

    def mesh(self):
        return np.meshgrid(*self.axes(), indexing="ij")

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
        h = self.h if np.isscalar(self.h) else list(self.steps)
        return {
            "x_min": self.x_min, "x_max": self.x_max,
            "y_min": self.y_min, "y_max": self.y_max,
            "z_min": self.z_min, "z_max": self.z_max,
            "t_min": self.t_min, "t_max": self.t_max,
            "nx": self.nx, "ny": self.ny, "nz": self.nz, "nt": self.nt,
            "h": h,
        }


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
        return {
            "max_abs": self.max_abs,
            "rms": self.rms,
            "n_points": self.n_points,
            "worst_point": list(self.worst_point),
            "n_singular": self.n_singular,
        }


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

    Complex parts are compared separately (max of |Re| and |Im|), then the
    maximum is taken over any trailing component axes.
    """
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        arr = np.maximum(np.abs(arr.real), np.abs(arr.imag))
    else:
        arr = np.abs(arr)
    while arr.ndim > point_ndim:
        arr = arr.max(axis=-1)
    return arr


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
    kept = vals[finite]
    peak = float(flat[idx])
    # RMS scaled by a power of two near the peak: squaring cannot overflow,
    # and wherever v*v neither overflows nor underflows the result is
    # bit-identical to sqrt(mean(v*v))
    scale = math.ldexp(1.0, math.frexp(peak)[1])
    scaled = kept / scale
    return ResidualReport(
        max_abs=peak,
        rms=scale * float(np.sqrt(np.mean(scaled * scaled))),
        n_points=int(kept.size),
        worst_point=worst,
        n_singular=n_singular,
    )
