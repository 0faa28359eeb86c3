"""Attenuated plane waves in conducting media.

With conductivity sigma > 0 the source-free field equations pick up a
conduction term:

    div E = 0                curl E = -dB/dt
    div B = 0                curl B = mu sigma E + eps mu dE/dt

so each field component satisfies the damped wave equation

    lap F - eps mu F_tt - mu sigma F_t = 0.

The plane-wave ansatz acquires a real attenuation coefficient s alongside
the wavenumber k:

    E(r, t) = E0 exp(-s tau . r) exp(i (k tau . r - omega t)),

and substituting it into the damped wave equation couples (k, s) through

    s^2 - k^2 + eps mu omega^2 = 0
    mu sigma omega - 2 s k     = 0.

Eliminating s gives the closed form implemented here:

    k^2 = (eps mu omega^2 / 2) (1 + sqrt(1 + (sigma / (eps omega))^2)),
    s   = mu sigma omega / (2 k).

The first-order system then fixes the partner amplitude

    B0 = ((k + i s) / omega) tau x E0,

which trails E by the phase phi = arctan(s / k) of k + i s and exceeds it
in amplitude by sqrt(k^2 + s^2) / omega.  The remaining field equation,
(k + i s) tau x B0 = -(eps mu omega + i mu sigma) E0, follows from these
and is checked rather than imposed.

A conductor changes the construction of ``maxwell_vacuum`` only through
k + i s: ``ConductorWavePair`` is the ``WavePair`` that supplies k, s and B0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BtkitError, InvalidParameterError
from .maxwell_vacuum import VacuumWaveSpec, WavePair, _as_vec3, _finite_partner, _wave_terms
from .media import MediumParams
from .verify import Grid4D, ResidualReport, magnitude, report_from_values

_BRANCH_TOL = 1e-12


@dataclass(frozen=True)
class DispersionSolution:
    """Wavenumber k, attenuation s, and phase angle phi of k + i s.

    phi lies in [0, pi/4]: s = 0 for a non-conducting medium and s -> k in
    the good-conductor limit, never beyond.
    """

    k: float
    s: float
    phi: float
    omega: float

    def __post_init__(self):
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise InvalidParameterError(f"wavenumber must be positive, got {self.k}")
        if not (0.0 <= self.s <= self.k * (1.0 + 1e-12)):
            raise InvalidParameterError(
                f"attenuation must satisfy 0 <= s <= k, got s={self.s}, k={self.k}"
            )
        if not self.omega > 0.0:
            raise InvalidParameterError(f"omega must be positive, got {self.omega}")
        if abs(math.tan(self.phi) - self.s / self.k) > _BRANCH_TOL * max(1.0, self.s / self.k):
            raise InvalidParameterError(
                f"phi={self.phi} is not the phase of k + i s (tan phi != s/k)"
            )
        if not -1e-15 <= self.phi <= math.pi / 4.0 + 1e-15:
            raise InvalidParameterError(f"phi must lie in [0, pi/4], got {self.phi}")

    @property
    def skin_depth(self):
        """Penetration depth 1/s; None when the medium does not attenuate."""
        return 1.0 / self.s if self.s > 0.0 else None

    @property
    def phase_velocity(self) -> float:
        return self.omega / self.k

    @property
    def amplitude_ratio(self) -> float:
        """|B0| / |E0| = sqrt(k^2 + s^2) / omega."""
        return math.hypot(self.k, self.s) / self.omega

    def to_dict(self) -> dict:
        return {**asdict(self), "skin_depth": self.skin_depth}


def dispersion_solve(medium: MediumParams, omega: float) -> DispersionSolution:
    """Solve the (k, s) system for a medium at angular frequency omega.

    Closed form; exact in the sigma = 0 limit where k = omega sqrt(eps mu)
    and s = 0.  The result is self-checked against both defining equations
    to 1e-10 relative before it is returned.
    """
    if not (omega > 0.0 and math.isfinite(omega)):
        raise InvalidParameterError(f"omega must be positive, got {omega}")
    eps, mu, sigma = medium.epsilon, medium.mu, medium.sigma
    if eps * omega == 0.0:
        raise InvalidParameterError(
            f"epsilon * omega underflows to 0 (epsilon={eps}, omega={omega})")
    loss_tangent = sigma / (eps * omega)
    k = omega * math.sqrt(eps * mu) * math.sqrt((1.0 + math.hypot(1.0, loss_tangent)) / 2.0)
    if k * k == 0.0:
        raise InvalidParameterError(f"k * k underflows to 0 (k={k}, omega={omega})")
    s = mu * sigma * omega / (2.0 * k)
    phi = math.atan2(s, k)

    r1 = abs(s * s - k * k + eps * mu * omega * omega) / (k * k)
    r2 = abs(mu * sigma * omega - 2.0 * s * k) / (k * k)
    if r1 > 1e-10 or r2 > 1e-10:
        raise BtkitError(
            f"dispersion closed form failed its self-check: residuals ({r1}, {r2})"
        )
    return DispersionSolution(k=k, s=s, phi=phi, omega=omega)


class ConductorWavePair(WavePair):
    """Conjugate attenuated (E, B) pair in a conducting medium.

    The sigma > 0 case of ``WavePair``, which supplies the carrier and the
    evaluators: the complex wavenumber k + i s of ``dispersion`` sets the
    envelope exp(-s tau . r) both fields share and the magnetic amplitude,
    which trails the electric one by the dispersion angle phi.
    """

    def __init__(self, spec: VacuumWaveSpec, medium: MediumParams,
                 dispersion: DispersionSolution, real: bool = False):
        self.spec = spec
        self.medium = medium
        self.dispersion = dispersion
        self.real = real
        self.k = dispersion.k
        self.s = dispersion.s
        with np.errstate(over="ignore", invalid="ignore"):
            self.B0 = _finite_partner(
                (self.k + 1j * self.s) / dispersion.omega * np.cross(spec.tau, spec.E0))

    # WavePair's evaluators, bound here as well: the bench tracer
    # (bench/spans.py) wraps methods through each class's own __dict__
    E = WavePair.E
    B = WavePair.B

    def to_dict(self) -> dict:
        out = self.spec.to_dict()
        out["dispersion"] = self.dispersion.to_dict()
        return out


def conjugate_conducting(E0, tau, medium: MediumParams, omega: float,
                         alpha: float = 0.0) -> ConductorWavePair:
    """Complete a transverse amplitude into an attenuated conjugate pair.

    With sigma = 0 this reduces exactly to the non-conducting pair: s = 0,
    B0 = sqrt(eps mu) tau x E0, zero phase lag.
    """
    spec = VacuumWaveSpec(E0, tau, omega, alpha)
    return ConductorWavePair(spec, medium, dispersion_solve(medium, omega))


def real_fields_conducting(E0R, alpha: float, tau, medium: MediumParams,
                           omega: float) -> ConductorWavePair:
    """Real attenuated pair for a linearly polarized amplitude.

    E = E0R exp(-s tau.r) cos(k tau.r - omega t + alpha) and B carries the
    extra phase phi and amplitude factor sqrt(k^2 + s^2)/omega.
    """
    amplitude = _as_vec3(E0R, "E0R", float) * np.exp(1j * alpha)
    spec = VacuumWaveSpec(amplitude, tau, omega, alpha)
    return ConductorWavePair(spec, medium, dispersion_solve(medium, omega), real=True)


def modified_wave_residual(F, medium: MediumParams, grid: Grid4D,
                           scale: float = 1.0) -> ResidualReport:
    """Scan lap F - eps mu F_tt - mu sigma F_t over a spacetime grid.

    ``scale`` divides the raw residual; pass |F0| k^2 for plane waves.
    """
    meshes, lap, ft, ftt = _wave_terms(F, grid)
    residual = lap - medium.epsilon * medium.mu * ftt - medium.mu * medium.sigma * ft
    vals = magnitude(residual, meshes[0].ndim) / max(scale, 1e-300)
    return report_from_values(vals, meshes)
