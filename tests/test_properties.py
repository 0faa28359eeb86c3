"""Property tests that check both ways: genuine pairs pass, perturbed pairs fail.

``hypothesis`` draws the inputs, derandomized, so every run draws the same
ones.  Permittivity, permeability and frequency are log-uniform over
1e-300 ... 1e300, which puts eps * mu in the subnormal range as well.

An exponential chiral seed's conditioning is checked both ways too: the
bound from its generators' norms and the node-by-node check on its samples
give the same verdict, on seeds scaled to either side of the bound's limit.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from btkit.chiral_recursion import (  # noqa: E402
    _COND_BOUND_EXPONENT,
    ExpSeedField,
    _check_invertible,
)
from btkit.cli import TOLERANCES  # noqa: E402
from btkit.errors import (  # noqa: E402
    InvalidGridError,
    InvalidParameterError,
    SingularMatrixError,
)
from btkit.maxwell_conductor import ConductorWavePair  # noqa: E402
from btkit.maxwell_vacuum import FieldPair, WavePair, maxwell_residual  # noqa: E402
from btkit.media import MediumParams  # noqa: E402
from btkit.verify import Grid2D  # noqa: E402
from helpers import random_commuting_pair  # noqa: E402

TOLERANCE = TOLERANCES["em medium"]
E0, TAU = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
SAMPLES = 3

log_uniform = st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent)
draws = settings(derandomize=True, deadline=None, database=None, max_examples=200)


def _accepted(epsilon, mu, omega):
    """(pair, medium, grid) of a drawn medium, or None where one of them is refused.

    A refusal is exit 1 on the command line: ``MediumParams`` refuses an
    eps * mu out of range, ``WavePair`` a partner that overflows, and the
    pair's grid a wavelength or period past the float range (k = 0 too).
    """
    try:
        medium = MediumParams(epsilon, mu)
        pair = WavePair(E0, TAU, omega, medium)
        return pair, medium, pair.default_grid(SAMPLES)
    except (InvalidParameterError, InvalidGridError):
        return None


def _scannable(pair) -> bool:
    """Whether ``maxwell_residual`` takes the pair: its scale |B0| k is a float."""
    return math.isfinite(pair.b_scale * pair.k)


@draws
@given(log_uniform, log_uniform, log_uniform)
def test_a_genuine_pair_passes(epsilon, mu, omega):
    accepted = _accepted(epsilon, mu, omega)
    assume(accepted is not None and _scannable(accepted[0]))
    pair, _, grid = accepted
    assert maxwell_residual(pair, grid).max_abs < TOLERANCE


@draws
@given(log_uniform, log_uniform, log_uniform)
def test_the_zero_conductivity_pair_has_the_same_wavenumber(epsilon, mu, omega):
    accepted = _accepted(epsilon, mu, omega)
    assume(accepted is not None)
    pair, medium, _ = accepted
    if pair.k * pair.k == 0.0:
        # the dispersion's self-check divides by k^2: its documented refusal
        with pytest.raises(InvalidParameterError, match=r"k \* k underflows"):
            ConductorWavePair(E0, TAU, omega, medium)
    else:
        assert ConductorWavePair(E0, TAU, omega, medium).k == pair.k


@draws
@given(log_uniform, log_uniform, log_uniform)
def test_the_pair_of_a_medium_one_permille_off_fails(epsilon, mu, omega):
    accepted = _accepted(epsilon, mu, omega)
    other = _accepted(epsilon * 1.001, mu, omega)
    assume(accepted is not None and other is not None and _scannable(other[0]))
    (_, medium, _), (wrong, _, grid) = accepted, other
    probe = FieldPair(wrong.E, wrong.B, wrong.k, wrong.e_scale, wrong.b_scale, medium)
    assert maxwell_residual(probe, grid).max_abs >= TOLERANCE


# centred, off-centre and wide; few nodes, since the verdicts are per node
SEED_GRIDS = (Grid2D(nx=9, nt=7), Grid2D(2.0, 5.0, -3.0, -1.0, nx=9, nt=7),
              Grid2D(-40.0, 40.0, -30.0, 30.0, nx=9, nt=7))


def _seed_generators(n, seed, kind):
    """A commuting pair, generic complex or Hermitian.

    For a Hermitian pair cond_2 g is e^(spread of the spectrum of A x + B t).
    A "tight" pair has A's spectrum spanning -1 ... 1 and B a multiple of
    A, so for n > 1 that spread reaches 2 r at a corner of a centred grid:
    the bound e^(2 r) is attained.
    """
    rng = np.random.default_rng(seed)
    A, B = random_commuting_pair(rng, n, scale=1.0)
    if kind == "generic":
        return A, B
    h = (A + A.conj().T) / 2
    if kind == "hermitian":
        c = rng.standard_normal(3)
        return h, c[0] * np.eye(n) + c[1] * h + c[2] * h @ h
    w, u = np.linalg.eigh(h)
    w = w / np.max(np.abs(w))
    w[0], w[-1] = -1.0, 1.0
    A = (u * w) @ u.conj().T
    return A, rng.standard_normal() * A


def _verdict(check):
    """(point, cond) of the SingularMatrixError ``check()`` raises, or None."""
    try:
        check()
    except SingularMatrixError as exc:
        return exc.point, exc.cond
    return None


@draws
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(("generic", "hermitian", "tight")), st.sampled_from(SEED_GRIDS),
       # 2 r = e^log_ratio times the bound's limit, often just past it, where
       # a tight seed's cond_2 crosses 1e12 (2 r = ln 1e12)
       st.floats(-1.5, 1.5) | st.floats(0.0, 0.3))
def test_the_conditioning_bound_and_the_node_check_agree(n, seed, kind, grid, log_ratio):
    A, B = _seed_generators(n, seed, kind)
    r = ExpSeedField(A, B)._exponent_bound(grid)
    scale = math.exp(log_ratio) * _COND_BOUND_EXPONENT / (2.0 * r)
    g = ExpSeedField(scale * A, scale * B)
    by_bound = _verdict(lambda: g.connection(grid))
    assert by_bound == _verdict(lambda: _check_invertible(g.sample(grid), grid))
