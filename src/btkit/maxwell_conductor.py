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

Eliminating s gives the closed form

    k^2 = (eps mu omega^2 / 2) (1 + sqrt(1 + (sigma / (eps omega))^2)),
    s   = mu sigma omega / (2 k),

which ``dispersion_solve`` evaluates in a form with no overflow on the way
to a representable k.

The first-order system then fixes the partner amplitude

    B0 = ((k + i s) / omega) tau x E0,

which trails E by the phase phi = arctan(s / k) of k + i s and exceeds it
in amplitude by sqrt(k^2 + s^2) / omega.  The remaining field equation,
(k + i s) tau x B0 = -(eps mu omega + i mu sigma) E0, follows from these
and is checked rather than imposed.

A conductor changes the construction of ``maxwell_vacuum`` only through
k + i s: ``ConductorWavePair`` is the ``WavePair`` whose k and s are its
dispersion's.  ``wave_residual`` scans the damped wave equation of any
medium, the undamped one where sigma = 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import BtkitError, InvalidParameterError
from .maxwell_vacuum import WavePair, _slab_scan, _taylors
from .media import MediumParams
from .verify import (Grid4D, ResidualReport, _mantissas, _relative, _times, magnitude,
                     report_from_values)

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
            raise InvalidParameterError(f"wavenumber must be finite and positive, got {self.k}")
        if not (0.0 <= self.s <= self.k * (1.0 + 1e-12)):
            raise InvalidParameterError(
                f"attenuation must satisfy 0 <= s <= k, got s={self.s}, k={self.k}"
            )
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise InvalidParameterError(f"omega must be finite and positive, got {self.omega}")
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
    def amplitude_ratio(self) -> float:
        """|B0| / |E0| = sqrt(k^2 + s^2) / omega."""
        return math.hypot(self.k, self.s) / self.omega

    def to_dict(self) -> dict:
        return {**asdict(self), "skin_depth": self.skin_depth}


def _quotient(factors: tuple, divisors: tuple) -> float:
    """The product of ``factors`` over that of ``divisors``, through mantissas and exponents.

    No partial product over- or underflows, so the quotient is right
    wherever it is representable, and where neither product leaves the
    normal range it has the digits of the plain expression; past 2^1000 it
    is clipped there, still a failed check.
    """
    (num, up), (den, down) = _mantissas(factors), _mantissas(divisors)
    return math.ldexp(num / den, min(up - down, 1000))


def dispersion_solve(medium: MediumParams, omega: float) -> DispersionSolution:
    """Solve the (k, s) system for a medium at angular frequency omega.

    Closed form; exact in the sigma = 0 limit, where k is the medium's
    ``lossless_wavenumber`` and s = 0.  k + i s is the principal root of mu
    omega (eps omega + i sigma), taken over the larger of its two parts so
    that no step overflows on the way to a representable k: over eps omega
    through the loss tangent x = sigma / (eps omega) <= 1, where s / k = x /
    (1 + hypot(1, x)), and in a conductor over sigma through y = eps omega /
    sigma < 1, where s / k = 1 / (y + hypot(y, 1)).  Both ratios are taken
    through ``_quotient``, so a product eps omega that underflows costs no
    digits.  The result is self-checked against both defining equations,
    divided by k^2, to 1e-10 before it is returned; a NaN residual fails
    the check.
    """
    if not (omega > 0.0 and math.isfinite(omega)):
        raise InvalidParameterError(f"omega must be finite and positive, got {omega}")
    eps, mu, sigma = medium.epsilon, medium.mu, medium.sigma
    if sigma <= eps * omega:
        loss_tangent = _quotient((sigma,), (eps, omega))
        root = 1.0 + math.hypot(1.0, loss_tangent)
        k = medium.lossless_wavenumber(omega) * math.sqrt(root / 2.0)
        s = k * (loss_tangent / root)
    else:
        y = _quotient((eps, omega), (sigma,))
        root = y + math.hypot(y, 1.0)
        k = math.sqrt(omega / 2.0) * math.sqrt(mu) * math.sqrt(sigma) * math.sqrt(root)
        s = k / root
    if k * k == 0.0:
        raise InvalidParameterError(f"k * k underflows to 0 (k={k}, omega={omega})")
    solution = DispersionSolution(k=k, s=s, phi=math.atan2(s, k), omega=omega)

    ratio = s / k
    r1 = abs(ratio * ratio - 1.0 + _quotient((eps, mu, omega, omega), (k, k)))
    r2 = abs(_quotient((mu, sigma, omega), (k, k)) - 2.0 * ratio)
    if not (r1 <= 1e-10 and r2 <= 1e-10):
        raise BtkitError(
            f"dispersion closed form failed its self-check: residuals ({r1}, {r2})"
        )
    return solution


class ConductorWavePair(WavePair):
    """Conjugate attenuated (E, B) pair in a linear medium of any conductivity.

    ``WavePair`` with its arguments and its carrier and evaluators, whose
    complex wavenumber k + i s is that of the ``dispersion`` it solves: it
    sets the envelope exp(-s tau . r) both fields share and the magnetic
    amplitude, which exceeds the electric one by sqrt(k^2 + s^2) / omega
    and trails it by the dispersion angle phi.  With sigma = 0 it is the
    non-conducting pair, bit for bit: s = 0 and B0 = sqrt(eps) sqrt(mu) tau
    x E0, with its dispersion recorded.
    """

    def _wavenumber(self) -> tuple:
        self.dispersion = dispersion_solve(self.medium, self.omega)
        return self.dispersion.k, self.dispersion.s

    # WavePair's evaluators, bound here as well: the bench tracer
    # (bench/spans.py) wraps methods through each class's own __dict__
    E = WavePair.E
    B = WavePair.B


def wave_residual(F, medium: MediumParams, grid: Grid4D,
                  scale: float = 1.0) -> ResidualReport:
    """Scan lap F - eps mu F_tt - mu sigma F_t of a vector field over a spacetime grid.

    The wave equation each field of a ``medium``'s plane-wave pair obeys,
    damped where sigma > 0.  ``scale`` divides the raw residual; pass
    |F0| k^2 to make plane-wave reports dimensionless.  The partials are
    exact and each coefficient is applied with one rounding, so a genuine
    wave reads rounding level; ``F`` follows the evaluator contract of
    ``FieldPair``.  Like ``maxwell_residual``, it scans one x-slab at a time.
    """
    def slab_magnitudes(meshes):
        taylor, = _taylors(meshes, F)
        lap = taylor.diffs(0)[1] + taylor.diffs(1)[1] + taylor.diffs(2)[1]
        ft, ftt = taylor.diffs(3)
        residual = (lap - _times(ftt, medium.epsilon, medium.mu)
                    - _times(ft, medium.mu, medium.sigma))
        return _relative(magnitude(residual, meshes[0].ndim), scale)

    mags, meshes = _slab_scan(grid, slab_magnitudes)
    return report_from_values(mags, meshes)
