"""Electromagnetic constants and linear medium parameters.

CODATA 2018 values for the vacuum; a general linear medium is described by
its permittivity, permeability, and conductivity.  A non-conducting medium
is the sigma = 0 case and the vacuum is just one particular such medium.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import InvalidParameterError

EPSILON0 = 8.8541878128e-12   # F/m
MU0 = 1.25663706212e-6        # H/m


@dataclass(frozen=True)
class PhysicalConstants:
    """Vacuum constants with the derived light speed c = 1/sqrt(eps0 mu0)."""

    epsilon0: float = EPSILON0
    mu0: float = MU0

    def __post_init__(self):
        if not (self.epsilon0 > 0.0 and self.mu0 > 0.0):
            raise InvalidParameterError("vacuum constants must be positive")

    @property
    def c(self) -> float:
        return 1.0 / math.sqrt(self.epsilon0 * self.mu0)


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class MediumParams:
    """Linear isotropic medium: permittivity, permeability, conductivity."""

    epsilon: float
    mu: float
    sigma: float = 0.0

    def __post_init__(self):
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise InvalidParameterError(f"permittivity must be positive, got {self.epsilon}")
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise InvalidParameterError(f"permeability must be positive, got {self.mu}")
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise InvalidParameterError(f"conductivity must be non-negative, got {self.sigma}")
        # the wave speed and wavenumber need eps * mu itself to be representable
        if not 0.0 < self.epsilon * self.mu < math.inf:
            raise InvalidParameterError(
                f"epsilon * mu must be positive and finite, got {self.epsilon * self.mu}"
            )

    @property
    def is_conducting(self) -> bool:
        return self.sigma > 0.0

    @property
    def wave_speed(self) -> float:
        """Propagation speed 1/sqrt(eps mu) of the non-conducting wave equation."""
        return 1.0 / math.sqrt(self.epsilon * self.mu)

    @classmethod
    def relative(cls, epsilon_rel: float, mu_rel: float, sigma: float = 0.0) -> "MediumParams":
        """Medium from permittivity and permeability relative to the vacuum."""
        return cls(epsilon_rel * EPSILON0, mu_rel * MU0, sigma)

    def to_dict(self) -> dict:
        return asdict(self)


VACUUM = MediumParams(EPSILON0, MU0, 0.0)
