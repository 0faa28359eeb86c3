"""Electromagnetic constants and linear medium parameters.

CODATA 2018 values for the vacuum; a general linear medium is described by
its permittivity, permeability, and conductivity.  A non-conducting medium
is the sigma = 0 case and the vacuum is just one particular such medium;
its plane waves have the wavenumber k = omega sqrt(eps) sqrt(mu).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import InvalidParameterError

EPSILON0 = 8.8541878128e-12   # F/m
MU0 = 1.25663706212e-6        # H/m


@dataclass(frozen=True)
class MediumParams:
    """Linear isotropic medium: permittivity, permeability, conductivity, as Python floats."""

    epsilon: float
    mu: float
    sigma: float = 0.0

    def __post_init__(self):
        for name in ("epsilon", "mu", "sigma"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise InvalidParameterError(
                f"permittivity must be finite and positive, got {self.epsilon}")
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise InvalidParameterError(f"permeability must be finite and positive, got {self.mu}")
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise InvalidParameterError(
                f"conductivity must be finite and non-negative, got {self.sigma}")
        # an input check, not a need of btkit's arithmetic (k and the scans
        # never form eps * mu): the medium's 1/v^2 = eps mu must be a float,
        # so that its speed exists and a run's k checks as omega sqrt(eps mu)
        if not 0.0 < self.epsilon * self.mu < math.inf:
            raise InvalidParameterError(
                f"epsilon * mu must be positive and finite, got {self.epsilon * self.mu}"
            )

    @property
    def is_conducting(self) -> bool:
        return self.sigma > 0.0

    def lossless_wavenumber(self, omega: float) -> float:
        """k = omega sqrt(eps) sqrt(mu) of every non-conducting pair; eps mu is never rounded."""
        return omega * (math.sqrt(self.epsilon) * math.sqrt(self.mu))

    @classmethod
    def relative(cls, epsilon_rel: float, mu_rel: float, sigma: float = 0.0) -> "MediumParams":
        """Medium from permittivity and permeability relative to the vacuum."""
        return cls(epsilon_rel * EPSILON0, mu_rel * MU0, sigma)

    def to_dict(self) -> dict:
        return asdict(self)


VACUUM = MediumParams(EPSILON0, MU0, 0.0)
