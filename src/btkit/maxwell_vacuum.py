"""Monochromatic plane-wave pairs for source-free Maxwell equations.

In a linear non-conducting medium (the vacuum included) the equations

    div E = 0                curl E = -dB/dt
    div B = 0                curl B = eps mu dE/dt

act as a coupled first-order system relating E and B; each Cartesian
component of a solution pair separately satisfies the wave equation at
speed v = 1/sqrt(eps mu).  Given a transverse plane-wave ansatz

    E(r, t) = E0 exp(i (k . r - omega t)),    k = omega sqrt(eps) sqrt(mu) tau,

the system fixes the partner field completely:

    B = sqrt(eps) sqrt(mu) tau x E,

so B is transverse as well, orthogonal to E under the bilinear dot product,
and oscillates in phase with it.  Real solutions are the real parts; for a
linearly polarized amplitude E0 = E0R exp(i alpha) with real E0R both real
fields carry the same phase k . r - omega t + alpha.

``WavePair`` is the one plane wave for every linear medium, with one
constructor: B0 = ((k + i s) / omega) tau x E0, where a conductor
(``maxwell_conductor``) supplies k + i s from its dispersion, which adds
the envelope exp(-s tau . r) to the shared carrier, and a non-conducting
medium has k = omega sqrt(eps) sqrt(mu) and s = 0.  ``maxwell_residual``
scans every pair as it is, so ``--verify`` certifies the B0 a run prints:
where that B0 lost digits to underflow, the scan reads the loss.  It
applies the coefficients eps mu and mu sigma to the fields with one
rounding, so a medium whose eps mu is subnormal keeps its digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, NormalizationError, TransversalityError
from .media import VACUUM, MediumParams
from .verify import (Grid4D, ResidualReport, Taylor, _relative, _scaled, _times, curl,
                     divergence, magnitude, report_from_values)

_UNIT_TOL = 1e-12


def _as_vec3(value, name: str, dtype=complex) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    if arr.shape != (3,):
        raise InvalidParameterError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} must be finite")
    return arr


def _check_direction(tau: np.ndarray) -> np.ndarray:
    norm = _norm(tau)
    if abs(norm - 1.0) > _UNIT_TOL:
        raise NormalizationError(
            f"propagation direction must be unit length: |tau| = {norm!r}"
        )
    return tau


def _norm(vector: np.ndarray) -> float:
    """|vector| from its scaled parts: np.linalg.norm's digits where no square leaves range."""
    unit, scale = _scaled(vector)
    return scale * float(np.linalg.norm(unit))


def _check_transverse(tau: np.ndarray, E0: np.ndarray) -> None:
    unit, scale = _scaled(E0)
    dot = complex(np.dot(tau, unit))
    norm = float(np.linalg.norm(unit))
    if abs(dot) > _UNIT_TOL * norm:
        dot = complex(dot.real * scale, dot.imag * scale)
        raise TransversalityError(
            f"amplitude is not transverse: tau . E0 = {dot!r} (|E0| = {norm * scale!r}); "
            "longitudinal components are rejected, not projected out"
        )


class WavePair:
    """The conjugate (E, B) plane wave of a transverse amplitude ``E0`` in a linear medium.

    Validates and holds ``E0``, ``tau`` and ``omega``, which ``to_dict``
    records.  Rejects non-transverse amplitudes and non-unit directions
    outright; nothing is silently projected or renormalized.  The complex
    amplitude carries the polarization phase.  With ``real`` set the
    evaluators return real parts: the real pair of a linearly polarized E0R
    is ``WavePair(E0R * exp(1j * alpha), ..., real=True)``, E = E0R cos(k .
    r - omega t + alpha), with B in phase (trailing by the dispersion angle
    phi in a conductor).  Evaluators take r with shape (..., 3) and
    broadcastable t and return (..., 3) arrays.  The wavenumber k and
    attenuation s come from ``_wavenumber``: the medium's
    ``lossless_wavenumber`` and 0 here, the dispersion's in
    ``ConductorWavePair``.
    """

    def __init__(self, E0, tau, omega: float, medium: MediumParams = VACUUM,
                 real: bool = False):
        self.E0 = _as_vec3(E0, "E0")
        self.tau = _check_direction(_as_vec3(tau, "tau", float))
        omega = float(omega)
        if not (omega > 0.0 and math.isfinite(omega)):
            raise InvalidParameterError(f"omega must be finite and positive, got {omega}")
        _check_transverse(self.tau, self.E0)
        self.omega = omega
        self.medium = medium
        self.real = real
        self.k, self.s = self._wavenumber()
        with np.errstate(over="ignore", invalid="ignore"):
            self.B0 = (self.k + 1j * self.s) / omega * np.cross(self.tau, self.E0)
        if not np.all(np.isfinite(self.B0)):
            raise InvalidParameterError(
                f"partner amplitude B0 overflows: ((k + i s) / omega) tau x E0 with k = "
                f"{self.k!r}, s = {self.s!r}, omega = {omega!r}, |E0| = {_norm(self.E0)!r}")

    def _wavenumber(self) -> tuple:
        if self.medium.is_conducting:
            raise InvalidParameterError(
                "conducting media need the attenuated pair, not the vacuum one"
            )
        return self.medium.lossless_wavenumber(self.omega), 0.0

    @property
    def k_vector(self) -> np.ndarray:
        return self.k * self.tau

    @property
    def e_scale(self) -> float:
        return _norm(self.E0)

    @property
    def b_scale(self) -> float:
        return _norm(self.B0)

    def _carrier(self, r, t) -> np.ndarray:
        wave = np.exp(1j * (r @ self.k_vector - self.omega * t))
        if self.s:
            wave = np.exp(-self.s * (r @ self.tau)) * wave
        return wave

    def E(self, r, t) -> np.ndarray:
        wave = self._carrier(r, t)[..., None] * self.E0
        return wave.real if self.real else wave

    def B(self, r, t) -> np.ndarray:
        wave = self._carrier(r, t)[..., None] * self.B0
        return wave.real if self.real else wave

    def default_grid(self, samples: int = 9) -> Grid4D:
        return Grid4D.for_wave(self.k, self.omega, samples)

    def to_dict(self) -> dict:
        return {"E0_re": self.E0.real.tolist(), "E0_im": self.E0.imag.tolist(),
                "tau": self.tau.tolist(), "omega": self.omega}


@dataclass(frozen=True)
class FieldPair:
    """An arbitrary (E, B) evaluator pair with its normalization scales.

    Used to probe fields that were not produced by a conjugate constructor,
    e.g. deliberately mismatched pairs in separation tests.  ``medium`` is
    the medium whose equations ``maxwell_residual`` checks the pair against.
    ``E`` and ``B`` follow the evaluator contract of ``verify.Taylor``: they
    compute with r and t, which the scans pass as jets, and never coerce
    them; a scan raises TypeError on a result that is not a jet.
    """

    E: Callable
    B: Callable
    k: float
    e_scale: float
    b_scale: float
    medium: MediumParams = VACUUM


def plane_wave(F0, k_vector, omega: float) -> Callable:
    """Evaluator of F0 exp(i (k . r - omega t)) with no constraints attached."""
    F0 = np.asarray(F0, dtype=complex)
    k_vector = np.asarray(k_vector, dtype=float)

    def evaluate(r, t):
        return np.exp(1j * (r @ k_vector - omega * t))[..., None] * F0

    return evaluate


_SPACETIME_AXES = tuple(zip(np.eye(3), (0.0,) * 3)) + ((np.zeros(3), 1.0),)


def _taylors(meshes, *fields, space: int = 0, time: int = 0) -> list:
    """Exact partials of each F(r, t) over an (x, y, z, t) mesh, r moved by _SPACETIME_AXES.

    The space axes are 2^space long and the time axis 2^time.
    """
    coords = (np.stack(meshes[:3], axis=-1), meshes[3])
    lengths = (math.ldexp(1.0, space),) * 3 + (math.ldexp(1.0, time),)
    axes = [(r * n, t * n) for (r, t), n in zip(_SPACETIME_AXES, lengths)]
    return [Taylor(F, coords, axes) for F in fields]


def _axis_powers(pair, grid: Grid4D) -> tuple:
    """Exponents p, q >= 0 of the scan's axes: 2^p near 1/k, 2^q near the grid's t span / 8.

    Both are cut by the larger field scale where it exceeds 1.  A wave's
    partials along such axes stay normal where its fields are and do not
    outgrow max(1, |F0|); where both rates reach 1 the axes are unit ones.
    """
    headroom = min(0, -math.frexp(max(pair.e_scale, pair.b_scale))[1])
    rates = (1 - math.frexp(pair.k)[1], math.frexp(grid.t_max - grid.t_min)[1] - 3)
    return tuple(min(max(rate + headroom, 0), 1023) for rate in rates)


def _slab_scan(grid: Grid4D, slab_magnitudes) -> tuple:
    """Per-point magnitudes over ``grid``, taken one x-slab of its mesh at a time.

    ``slab_magnitudes`` maps the (y, z, t) meshes of one slab to its
    points' magnitudes, so a scan's jets span one slab, and only the
    magnitudes, 8 bytes a point, outlive it.  Returns them with the grid's
    meshes, for ``report_from_values``.
    """
    meshes = grid.mesh()
    mags = np.empty(meshes[0].shape)
    for i, slab in enumerate(zip(*meshes)):
        mags[i] = slab_magnitudes(slab)
    return mags, meshes


def _div_curl(F: Taylor):
    d = [F.d(axis) for axis in range(3)]
    return divergence(d), curl(d)


def maxwell_residual(pair, grid: Grid4D) -> ResidualReport:
    """Scan all four field equations of ``pair.medium`` over a spacetime grid.

    Works for non-conducting and conducting media alike; with sigma = 0 the
    conduction term, and the evaluation of E it needs, drops out.  Each
    equation is normalized by the natural scale of its leading term (|E0| k
    or |B0| k), at every size and with no floor under it, so reports are
    comparable across units and frequencies; a scale that overflows the
    float range raises InvalidParameterError.  Every pair is scanned as
    given, a ``WavePair`` against the B0 it holds and prints: a partner
    amplitude that underflowed reads as the defect it is.  The evaluators
    follow the contract of ``FieldPair``.  The jets are built one x-slab of
    the grid at a time (``_slab_scan``), so a scan's memory beyond the
    grid's mesh is its per-point magnitudes and one slab's jets.
    """
    # an infinite scale would read every residual it divides as 0
    for name, scale in (("E", pair.e_scale), ("B", pair.b_scale)):
        if not math.isfinite(scale * pair.k):
            raise InvalidParameterError(f"normalization scale |{name}0| k = {scale * pair.k!r} "
                                        "overflows the float range")
    medium = pair.medium
    p, q = _axis_powers(pair, grid)
    k = math.ldexp(pair.k, p)

    def slab_magnitudes(meshes):
        E, B = _taylors(meshes, pair.E, pair.B, space=p, time=q)
        # every term in units of the space axes
        div_e, curl_e = _div_curl(E)
        div_b, curl_b = _div_curl(B)
        faraday = curl_e + _times(B.d(3), shift=p - q)
        ampere = curl_b - _times(E.d(3), medium.epsilon, medium.mu, shift=p - q)
        if medium.is_conducting:
            ampere = ampere - _times(E.center, medium.mu, medium.sigma, shift=p)

        ndim = meshes[0].ndim
        rows = np.stack((
            _relative(magnitude(div_e, ndim), pair.e_scale, k),
            _relative(magnitude(div_b, ndim), pair.b_scale, k),
            _relative(magnitude(faraday, ndim), pair.e_scale, k),
            _relative(magnitude(ampere, ndim), pair.b_scale, k),
        ))
        return rows.max(axis=0)

    mags, meshes = _slab_scan(grid, slab_magnitudes)
    return report_from_values(mags, meshes)

