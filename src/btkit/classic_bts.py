"""Classical transformation pairs for three integrable scalar equations.

Each transformation is a coupled first-order system relating two fields u
and v; its integrability condition is the target second-order equation.
Feeding a known solution v into the system and integrating produces a new
solution u, without solving the target equation directly.

Cauchy-Riemann relations (here the second variable is written t, read y):

    u_x = v_t            u_t = -v_x

whose integrability condition is the Laplace equation u_xx + u_tt = 0.

Liouville system, integrability condition u_xt = exp(u) for u (and the wave
equation v_xt = 0 for v):

    u_x + v_x = sqrt(2) exp((u - v) / 2)
    u_t - v_t = sqrt(2) exp((u + v) / 2)

Starting from the trivial solution v = 0 the system collapses to
u_x = u_t = sqrt(2) exp(u / 2) and integrates to

    u(x, t) = -2 ln(C - (x + t) / sqrt(2)),

defined where C - (x + t)/sqrt(2) > 0.

Sine-Gordon system with parameter a != 0, integrability condition
u_xt = sin(u) for both fields:

    (u + v)_x / 2 = a sin((u - v) / 2)
    (u - v)_t / 2 = (1 / a) sin((u + v) / 2)

From the vacuum v = 0 it collapses to u_x = 2a sin(u/2),
u_t = (2/a) sin(u/2) and integrates to the kink

    u(x, t) = 4 arctan(C exp(a x + t / a)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError
from .verify import DEFAULT_STEP, Grid2D, ResidualReport, Stencil, magnitude, report_from_values

_SQRT2 = math.sqrt(2.0)

def _harmonic_quadratic(p, x, t):
    return p["alpha"] * (x * x - t * t) + p["beta"] * x + p["gamma"] * t


def _harmonic_conjugate_quadratic(p, x, t):
    return 2.0 * p["alpha"] * x * t - p["gamma"] * x + p["beta"] * t


def _monomial_xy(p, x, t):
    return p["coefficient"] * x * t


def _liouville_soliton(p, x, t):
    arg = p["C"] - (np.asarray(x) + np.asarray(t)) / _SQRT2
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(arg > 0.0, -2.0 * np.log(np.where(arg > 0.0, arg, 1.0)), np.nan)
    if out.ndim == 0:
        return float(out)
    return out


def _sine_gordon_kink(p, x, t):
    with np.errstate(over="ignore"):
        return 4.0 * np.arctan(p["C"] * np.exp(p["a"] * np.asarray(x) + np.asarray(t) / p["a"]))


def _zero(p, x, t):
    return np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape)


_FAMILIES = {
    "harmonic_quadratic": _harmonic_quadratic,
    "harmonic_conjugate_quadratic": _harmonic_conjugate_quadratic,
    "monomial_xy": _monomial_xy,
    "liouville_soliton": _liouville_soliton,
    "sine_gordon_kink": _sine_gordon_kink,
    "zero": _zero,
}


@dataclass(frozen=True, eq=False)
class ScalarField2D:
    """A closed-form scalar field u(x, t) from a named family.

    Evaluators broadcast over numpy arrays.  Points outside a family's
    domain (the Liouville soliton blows up on a line) evaluate to NaN, which
    residual scans record as singular samples.
    """

    family: str
    params: dict

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidParameterError(f"unknown field family {self.family!r}")
        for name, value in self.params.items():
            if not math.isfinite(value):
                raise InvalidParameterError(f"parameter {name} must be finite, got {value}")

    def __call__(self, x, t):
        return _FAMILIES[self.family](self.params, x, t)

    def to_dict(self) -> dict:
        return {"family": self.family, "params": dict(sorted(self.params.items()))}


def harmonic_quadratic(alpha: float, beta: float, gamma: float) -> ScalarField2D:
    """u(x, t) = alpha (x^2 - t^2) + beta x + gamma t, harmonic for any parameters."""
    return ScalarField2D("harmonic_quadratic", {"alpha": alpha, "beta": beta, "gamma": gamma})


def harmonic_conjugate_quadratic(alpha: float, beta: float, gamma: float) -> ScalarField2D:
    """The conjugate partner 2 alpha x t - gamma x + beta t of harmonic_quadratic."""
    return ScalarField2D("harmonic_conjugate_quadratic",
                         {"alpha": alpha, "beta": beta, "gamma": gamma})


def monomial_xy(coefficient: float) -> ScalarField2D:
    """u(x, t) = c x t; harmonic, but conjugate to no nonzero member of itself."""
    return ScalarField2D("monomial_xy", {"coefficient": coefficient})


def zero_field() -> ScalarField2D:
    return ScalarField2D("zero", {})


def harmonic_conjugate_match(alpha: float, beta: float, gamma: float):
    """Harmonic pair (u, v) conjugate under the Cauchy-Riemann relations.

    For u = alpha (x^2 - t^2) + beta x + gamma t the general quadratic
    candidate v = kappa x t + lambda x + mu t matches exactly when

        kappa = 2 alpha,  mu = beta,  lambda = -gamma,

    so v = 2 alpha x t - gamma x + beta t.  The additive constant of v is
    fixed to zero; any other choice is equally conjugate.
    """
    u = harmonic_quadratic(alpha, beta, gamma)
    v = harmonic_conjugate_quadratic(alpha, beta, gamma)
    return u, v


@dataclass(frozen=True)
class XYMatchResult:
    """Outcome of matching u = alpha x t against candidates v = beta x t.

    The relations u_x = v_t, u_t = -v_x force alpha t = beta x and
    alpha x = -beta t for all (x, t): only alpha = beta = 0 survives.
    ``constraints`` carries the forced equations for inspection.
    """

    alpha: float
    beta: float
    conjugate: bool
    constraints: tuple
    u: ScalarField2D
    v: ScalarField2D


def xy_family_match(alpha: float, beta: float) -> XYMatchResult:
    """Test whether u = alpha x t and v = beta x t are a conjugate pair."""
    constraints = (
        "u_x - v_t = alpha*t - beta*x, zero for all (x, t) only if alpha = beta = 0",
        "u_t + v_x = alpha*x + beta*t, zero for all (x, t) only if alpha = beta = 0",
    )
    return XYMatchResult(
        alpha=alpha,
        beta=beta,
        conjugate=(alpha == 0.0 and beta == 0.0),
        constraints=constraints,
        u=monomial_xy(alpha),
        v=monomial_xy(beta),
    )


def liouville_from_trivial(C: float) -> ScalarField2D:
    """Solution of u_xt = exp(u) generated from the trivial seed v = 0.

    u = -2 ln(C - (x + t)/sqrt(2)); the constant C places the singular line.
    """
    return ScalarField2D("liouville_soliton", {"C": float(C)})


def sine_gordon_from_vacuum(a: float, C: float) -> ScalarField2D:
    """Kink solution of u_xt = sin(u) generated from the vacuum v = 0.

    u = 4 arctan(C exp(a x + t/a)).  The parameter a tilts the kink; a = 0
    makes the defining system meaningless and is rejected.
    """
    if a == 0.0:
        raise InvalidParameterError("sine-Gordon parameter a must be nonzero")
    return ScalarField2D("sine_gordon_kink", {"a": float(a), "C": float(C)})


# --- residual evaluators -------------------------------------------------
#
# All scans difference the closed-form evaluators with the central-difference
# step h, which must stay below a tenth of the grid spacing; domain
# violations at any stencil point surface as NaN and are excluded by the scan.

def _scan(grid: Grid2D, h: float, residuals: Callable, *fields) -> ResidualReport:
    """Report the pointwise max over the residual arrays ``residuals`` returns.

    ``residuals`` receives one Stencil of step ``h`` per field, all on the grid's mesh.
    """
    grid.check_step(h)
    X, T = grid.mesh()
    with np.errstate(all="ignore"):
        values = [magnitude(r, X.ndim)
                  for r in residuals(*(Stencil(f, (X, T), h) for f in fields))]
    return report_from_values(np.max(values, axis=0), (X, T))


def bt_residual_cr(u: Callable, v: Callable, grid: Grid2D,
                   h: float = DEFAULT_STEP) -> ResidualReport:
    """Max residual of the Cauchy-Riemann pair u_x = v_t, u_t = -v_x."""
    return _scan(grid, h, lambda u, v: (u.d(0) - v.d(1), u.d(1) + v.d(0)), u, v)


def bt_residual_liouville(u: Callable, v: Callable, grid: Grid2D,
                          h: float = DEFAULT_STEP) -> ResidualReport:
    """Max residual of the Liouville system over both coupled equations."""
    return _scan(grid, h, lambda u, v: (
        u.d(0) + v.d(0) - _SQRT2 * np.exp((u.center - v.center) / 2.0),
        u.d(1) - v.d(1) - _SQRT2 * np.exp((u.center + v.center) / 2.0),
    ), u, v)


def bt_residual_sine_gordon(u: Callable, v: Callable, a: float, grid: Grid2D,
                            h: float = DEFAULT_STEP) -> ResidualReport:
    """Max residual of the parametric sine-Gordon system over both equations."""
    if a == 0.0:
        raise InvalidParameterError("sine-Gordon parameter a must be nonzero")
    return _scan(grid, h, lambda u, v: (
        0.5 * (u.d(0) + v.d(0)) - a * np.sin((u.center - v.center) / 2.0),
        0.5 * (u.d(1) - v.d(1)) - (1.0 / a) * np.sin((u.center + v.center) / 2.0),
    ), u, v)


def laplace_residual(u: Callable, grid: Grid2D, h: float = DEFAULT_STEP) -> ResidualReport:
    """Residual of u_xx + u_tt = 0."""
    return _scan(grid, h, lambda u: (u.diffs(0)[1] + u.diffs(1)[1],), u)


def liouville_residual(u: Callable, grid: Grid2D, h: float = DEFAULT_STEP) -> ResidualReport:
    """Residual of u_xt = exp(u)."""
    return _scan(grid, h, lambda u: (u.dxy(0, 1) - np.exp(u.center),), u)


def sine_gordon_residual(u: Callable, grid: Grid2D, h: float = DEFAULT_STEP) -> ResidualReport:
    """Residual of u_xt = sin(u)."""
    return _scan(grid, h, lambda u: (u.dxy(0, 1) - np.sin(u.center),), u)
