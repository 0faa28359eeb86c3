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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, NormalizationError, TransversalityError
from .media import VACUUM, MediumParams
from .verify import (Grid4D, ResidualReport, Stencil, curl, divergence, magnitude,
                     report_from_values)

_UNIT_TOL = 1e-12


def _as_vec3(value, name: str, dtype=complex) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    if arr.shape != (3,):
        raise InvalidParameterError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} must be finite")
    return arr


def _check_direction(tau: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(tau))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise NormalizationError(
            f"propagation direction must be unit length: |tau| = {norm!r}"
        )
    return tau


def _check_transverse(tau: np.ndarray, E0: np.ndarray) -> None:
    dot = complex(np.dot(tau, E0))
    scale = float(np.linalg.norm(E0))
    if abs(dot) > _UNIT_TOL * max(scale, 1e-300):
        raise TransversalityError(
            f"amplitude is not transverse: tau . E0 = {dot!r} (|E0| = {scale!r}); "
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
    """A conjugate (E, B) plane-wave pair in a non-conducting medium.

    Evaluators take r with shape (..., 3) and broadcastable t and return
    (..., 3) arrays; complex by default, real parts when ``real`` is set.
    """

    def __init__(self, spec: VacuumWaveSpec, medium: MediumParams = VACUUM,
                 real: bool = False):
        if medium.is_conducting:
            raise InvalidParameterError(
                "conducting media need the attenuated pair, not the vacuum one"
            )
        self.spec = spec
        self.medium = medium
        self.real = real
        self.k = spec.omega / medium.wave_speed
        self.B0 = np.cross(spec.tau, spec.E0) / medium.wave_speed

    @property
    def k_vector(self) -> np.ndarray:
        return self.k * self.spec.tau

    @property
    def e_scale(self) -> float:
        return float(np.linalg.norm(self.spec.E0))

    @property
    def b_scale(self) -> float:
        return float(np.linalg.norm(self.B0))

    def _carrier(self, r, t) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        phase = r @ self.k_vector - self.spec.omega * np.asarray(t)
        return np.exp(1j * phase)

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
    e.g. deliberately mismatched pairs in separation tests.
    """

    E: Callable
    B: Callable
    k: float
    e_scale: float
    b_scale: float


def conjugate_vacuum(E0, tau, omega: float, medium: MediumParams = VACUUM,
                     alpha: float = 0.0) -> WavePair:
    """Complete a transverse complex amplitude into a conjugate (E, B) pair.

    Rejects non-transverse amplitudes and non-unit directions outright;
    nothing is silently projected or renormalized.
    """
    return WavePair(VacuumWaveSpec(E0, tau, omega, alpha), medium)


def real_fields_vacuum(E0R, alpha: float, tau, omega: float,
                       medium: MediumParams = VACUUM) -> WavePair:
    """Real linearly-polarized pair: E = E0R cos(k.r - omega t + alpha)."""
    amplitude = _as_vec3(E0R, "E0R", float) * np.exp(1j * alpha)
    return WavePair(VacuumWaveSpec(amplitude, tau, omega, alpha), medium, real=True)


def plane_wave(F0, k_vector, omega: float) -> Callable:
    """Evaluator of F0 exp(i (k . r - omega t)) with no constraints attached."""
    F0 = np.asarray(F0, dtype=complex)
    k_vector = np.asarray(k_vector, dtype=float)

    def evaluate(r, t):
        phase = np.asarray(r, dtype=float) @ k_vector - omega * np.asarray(t)
        return np.exp(1j * phase)[..., None] * F0

    return evaluate


def _stencil(F: Callable, meshes, steps) -> Stencil:
    """Stencil of an evaluator F(r, t) over an (x, y, z, t) mesh."""
    return Stencil(lambda x, y, z, t: F(np.stack((x, y, z), axis=-1), t), meshes, steps)


def _div_curl(F: Stencil):
    d = [F.d(axis) for axis in range(3)]
    return divergence(d), curl(d)


def maxwell_residual(pair, grid: Grid4D, medium: MediumParams | None = None) -> ResidualReport:
    """Scan all four field equations over a spacetime grid.

    Works for non-conducting and conducting media alike; with sigma = 0 the
    conduction term, and the evaluation of E it needs, drops out.  Each
    equation is normalized by the natural scale of its leading term (|E0| k
    or |B0| k) so reports are comparable across units and frequencies.
    """
    if medium is None:
        medium = getattr(pair, "medium", VACUUM)
    meshes = grid.mesh()
    E, B = (_stencil(F, meshes, grid.steps) for F in (pair.E, pair.B))

    div_e, curl_e = _div_curl(E)
    div_b, curl_b = _div_curl(B)
    faraday = curl_e + B.d(3)
    ampere = curl_b - medium.epsilon * medium.mu * E.d(3)
    if medium.is_conducting:
        ampere = ampere - medium.mu * medium.sigma * E.center

    k = pair.k
    e_scale = max(pair.e_scale, 1e-300) * k
    b_scale = max(pair.b_scale, 1e-300) * k
    ndim = meshes[0].ndim
    rows = np.stack((
        magnitude(div_e, ndim) / e_scale,
        magnitude(div_b, ndim) / b_scale,
        magnitude(faraday, ndim) / e_scale,
        magnitude(ampere, ndim) / b_scale,
    ))
    return report_from_values(rows.max(axis=0), meshes)


def _wave_terms(F: Callable, grid: Grid4D):
    """Mesh, vector Laplacian, F_t and F_tt of an evaluator F(r, t) on ``grid``."""
    meshes = grid.mesh()
    stencil = _stencil(F, meshes, grid.steps)
    lap = stencil.diffs(0)[1] + stencil.diffs(1)[1] + stencil.diffs(2)[1]
    return (meshes, lap) + stencil.diffs(3)


def wave_residual(F: Callable, speed: float, grid: Grid4D,
                  scale: float = 1.0) -> ResidualReport:
    """Scan the d'Alembertian lap F - F_tt / speed^2 of a vector field.

    ``scale`` divides the raw residual; pass |F0| k^2 to make plane-wave
    reports dimensionless.  Second-derivative stencils hit their rounding
    floor sooner than first-derivative ones: for grid steps, a natural-units
    value near 5e-4 balances truncation against cancellation noise.
    """
    if not speed > 0.0:
        raise InvalidParameterError(f"wave speed must be positive, got {speed}")
    meshes, lap, _, ftt = _wave_terms(F, grid)
    residual = lap - ftt / speed ** 2
    vals = magnitude(residual, meshes[0].ndim) / max(scale, 1e-300)
    return report_from_values(vals, meshes)
