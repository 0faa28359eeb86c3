"""Monochromatic plane-wave pairs for source-free Maxwell equations.

In a linear non-conducting medium (the vacuum included) the equations

    div E = 0                curl E = -dB/dt
    div B = 0                curl B = eps mu dE/dt

act as a coupled first-order system relating E and B; each Cartesian
component of a solution pair separately satisfies the wave equation at
speed v = 1/sqrt(eps mu).  Given a transverse plane-wave ansatz

    E(r, t) = E0 exp(i (k . r - omega t)),     k = (omega / v) tau,

the system fixes the partner field completely:

    B = (1 / v) tau x E,

so B is transverse as well, orthogonal to E under the bilinear dot product,
and oscillates in phase with it.  Real solutions are the real parts; for a
linearly polarized amplitude E0 = E0R exp(i alpha) with real E0R both real
fields carry the same phase k . r - omega t + alpha.

``WavePair`` is the one plane-wave pair for every linear medium, with one
constructor: B0 = ((k + i s) / omega) tau x E0, where a conductor
(``maxwell_conductor``) supplies k + i s from its dispersion, which adds
the envelope exp(-s tau . r) to the shared carrier, and a non-conducting
medium has k = omega / v and s = 0.  ``maxwell_residual`` scans every pair
as it is, so ``--verify`` certifies the B0 a run prints: where that B0
lost digits to underflow, the scan reads the loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, NormalizationError, TransversalityError
from .media import VACUUM, MediumParams
from .verify import (Grid4D, ResidualReport, Taylor, _relative, _scaled, curl, divergence,
                     magnitude, report_from_values)

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


@dataclass(frozen=True, eq=False)
class VacuumWaveSpec:
    """Parameters of one transverse plane wave: amplitude, direction, frequency.

    ``alpha`` is the polarization phase of the real-field form and is kept
    for bookkeeping; the complex amplitude already carries it as a factor.
    """

    E0: np.ndarray
    tau: np.ndarray
    omega: float
    alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "E0", _as_vec3(self.E0, "E0"))
        object.__setattr__(self, "tau", _check_direction(_as_vec3(self.tau, "tau", float)))
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise InvalidParameterError(f"omega must be positive, got {self.omega}")
        if not math.isfinite(self.alpha):
            raise InvalidParameterError(f"alpha must be finite, got {self.alpha}")
        _check_transverse(self.tau, self.E0)

    def to_dict(self) -> dict:
        return {
            "E0_re": [float(v) for v in self.E0.real],
            "E0_im": [float(v) for v in self.E0.imag],
            "tau": [float(v) for v in self.tau],
            "omega": float(self.omega),
            "alpha": float(self.alpha),
        }


class WavePair:
    """The conjugate (E, B) plane-wave pair of a transverse amplitude in a linear medium.

    Rejects non-transverse amplitudes and non-unit directions outright;
    nothing is silently projected or renormalized.  The complex amplitude
    ``E0`` carries the polarization phase, so ``alpha`` is only recorded.
    With ``real`` set the evaluators return real parts: the real pair of
    a linearly polarized E0R is ``WavePair(E0R * exp(1j * alpha), ...,
    alpha=alpha, real=True)``, E = E0R cos(k . r - omega t + alpha), with
    B in phase (trailing by the dispersion angle phi in a conductor).
    Evaluators take r with shape (..., 3) and broadcastable t and return
    (..., 3) arrays.  The wavenumber k and attenuation s come from
    ``_wavenumber``: omega / v and 0 here, the dispersion's in
    ``ConductorWavePair``.
    """

    def __init__(self, E0, tau, omega: float, medium: MediumParams = VACUUM,
                 alpha: float = 0.0, real: bool = False):
        self.spec = spec = VacuumWaveSpec(E0, tau, omega, alpha)
        self.medium = medium
        self.real = real
        self.k, self.s = self._wavenumber()
        with np.errstate(over="ignore", invalid="ignore"):
            self.B0 = (self.k + 1j * self.s) / spec.omega * np.cross(spec.tau, spec.E0)
        if not np.all(np.isfinite(self.B0)):
            raise InvalidParameterError(
                f"partner amplitude B0 overflows: ((k + i s) / omega) tau x E0 with k = "
                f"{self.k!r}, s = {self.s!r}, omega = {spec.omega!r}, |E0| = {_norm(spec.E0)!r}")

    def _wavenumber(self) -> tuple:
        if self.medium.is_conducting:
            raise InvalidParameterError(
                "conducting media need the attenuated pair, not the vacuum one"
            )
        return self.spec.omega / self.medium.wave_speed, 0.0

    @property
    def k_vector(self) -> np.ndarray:
        return self.k * self.spec.tau

    @property
    def e_scale(self) -> float:
        return _norm(self.spec.E0)

    @property
    def b_scale(self) -> float:
        return _norm(self.B0)

    def _carrier(self, r, t) -> np.ndarray:
        wave = np.exp(1j * (r @ self.k_vector - self.spec.omega * t))
        if self.s:
            wave = np.exp(-self.s * (r @ self.spec.tau)) * wave
        return wave

    def E(self, r, t) -> np.ndarray:
        wave = self._carrier(r, t)[..., None] * self.spec.E0
        return wave.real if self.real else wave

    def B(self, r, t) -> np.ndarray:
        wave = self._carrier(r, t)[..., None] * self.B0
        return wave.real if self.real else wave

    def default_grid(self, samples: int = 9) -> Grid4D:
        return Grid4D.for_wave(self.k, self.spec.omega, samples)

    def to_dict(self) -> dict:
        return self.spec.to_dict()


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


def _taylors(meshes, *fields) -> list:
    """Exact partials of each F(r, t) over an (x, y, z, t) mesh, r moved by _SPACETIME_AXES."""
    coords = (np.stack(meshes[:3], axis=-1), meshes[3])
    return [Taylor(F, coords, _SPACETIME_AXES) for F in fields]


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
    follow the contract of ``FieldPair``.
    """
    # an infinite scale would read every residual it divides as 0
    for name, scale in (("E", pair.e_scale), ("B", pair.b_scale)):
        if not math.isfinite(scale * pair.k):
            raise InvalidParameterError(f"normalization scale |{name}0| k = {scale * pair.k!r} "
                                        "overflows the float range")
    k = pair.k
    medium = pair.medium
    meshes = grid.mesh()
    E, B = _taylors(meshes, pair.E, pair.B)

    div_e, curl_e = _div_curl(E)
    div_b, curl_b = _div_curl(B)
    faraday = curl_e + B.d(3)
    ampere = curl_b - medium.epsilon * medium.mu * E.d(3)
    if medium.is_conducting:
        ampere = ampere - medium.mu * medium.sigma * E.center

    ndim = meshes[0].ndim
    rows = np.stack((
        _relative(magnitude(div_e, ndim), pair.e_scale, k),
        _relative(magnitude(div_b, ndim), pair.b_scale, k),
        _relative(magnitude(faraday, ndim), pair.e_scale, k),
        _relative(magnitude(ampere, ndim), pair.b_scale, k),
    ))
    return report_from_values(rows.max(axis=0), meshes)

