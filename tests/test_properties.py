"""Property tests that check both ways: genuine pairs pass, perturbed pairs fail.

``hypothesis`` draws the inputs, derandomized, so every run draws the same
ones.  Permittivity, permeability and frequency are log-uniform over
1e-300 ... 1e300, which puts eps * mu in the subnormal range as well.
"""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from btkit.cli import TOLERANCES  # noqa: E402
from btkit.errors import InvalidGridError, InvalidParameterError  # noqa: E402
from btkit.maxwell_conductor import ConductorWavePair  # noqa: E402
from btkit.maxwell_vacuum import FieldPair, WavePair, maxwell_residual  # noqa: E402
from btkit.media import MediumParams  # noqa: E402

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
