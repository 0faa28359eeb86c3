"""Property tests that check both ways: genuine pairs pass, perturbed pairs fail.

``hypothesis`` draws the inputs, derandomized, so every run draws the same
ones.  Permittivity, permeability and frequency are log-uniform over
1e-300 ... 1e300, which puts eps * mu in the subnormal range as well.

An exponential chiral seed's conditioning is checked both ways too: the
bound from its generators' norms and the node-by-node check on its samples
give the same verdict, on seeds scaled to either side of the bound's limit.

``verify.magnitude``, the per-point reduction every scan ends in, is checked
against the plain max along each point's entries: real and complex tables
of 0 to 4 point axes with non-finite and zero-size entries.

The command line's two table writers are checked against the plain forms
they replace: the JSON of a float array against that of its ``tolist()``
rows, and the CSV of a block against one ``%`` per row, on tables of 0, 1
and many rows and 1 to 20 columns with subnormal, signed-zero and
near-overflow entries.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from btkit.chiral_recursion import (  # noqa: E402
    _COND_BOUND_EXPONENT,
    ExpSeedField,
    _check_invertible,
)
from btkit import cli  # noqa: E402
from btkit.cli import TOLERANCES  # noqa: E402
from btkit.errors import (  # noqa: E402
    BtkitError,
    InvalidGridError,
    InvalidParameterError,
    SingularMatrixError,
)
from btkit.maxwell_conductor import ConductorWavePair  # noqa: E402
from btkit.maxwell_vacuum import FieldPair, WavePair, maxwell_residual  # noqa: E402
from btkit.media import MediumParams  # noqa: E402
from btkit.verify import Grid2D, magnitude  # noqa: E402
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


# the float parts of a table: any finite value, signed zeros, subnormals,
# and often +-inf or NaN
parts = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
         | st.sampled_from((math.nan, math.inf, -math.inf)))


@st.composite
def residual_tables(draw):
    """(table, point_ndim): 0-4 point axes, 0-2 entry axes, now and then one side 0."""
    point_ndim = draw(st.integers(0, 4))
    shape = list(draw(hnp.array_shapes(min_dims=point_ndim, max_dims=point_ndim + 2,
                                       min_side=1, max_side=4)))
    if shape and draw(st.integers(0, 4)) == 0:
        shape[draw(st.integers(0, len(shape) - 1))] = 0
    if draw(st.booleans()):
        elements = st.builds(complex, parts, parts)
        dtype = np.complex128
    else:
        elements, dtype = parts, np.float64
    table = draw(hnp.arrays(dtype, tuple(shape), elements=elements))
    # a transposed layout: magnitude reads entries in C order whatever the layout
    if draw(st.booleans()):
        table = np.asfortranarray(table)
    return table, point_ndim


@draws
@given(residual_tables())
def test_magnitude_is_the_max_along_each_points_entries(drawn):
    values, point_ndim = drawn
    view = np.ascontiguousarray(values)
    if np.iscomplexobj(view):
        view = view.view(float)
    points = values.shape[:point_ndim]
    try:
        want = np.abs(view.reshape(points + (-1,))).max(axis=-1)
    except ValueError:
        # an empty table has no max: an ambiguous reshape or an empty reduction
        with pytest.raises(ValueError):
            magnitude(values, point_ndim)
        return
    got = magnitude(values, point_ndim)
    assert type(got) is type(want) and got.shape == want.shape == points
    assert got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    # bit for bit, but for a NaN's payload: which NaN a max keeps is numpy's choice
    assert got[~nan].tobytes() == want[~nan].tobytes()


finite_cells = (st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
                | st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                   1.7976931348623157e308, -1.7976931348623157e308,
                                   1e-308, -9.999999999999999e307, 0.1)))


@st.composite
def float_tables(draw):
    """A finite float table: 2-D (0, 1 or many rows) or 3-D (slabs of rows), 1-20 columns.

    Now and then a strided view, as a complex table's real part is.
    """
    columns = draw(st.integers(1, 20))
    rows = draw(st.sampled_from((0, 1)) | st.integers(2, 30))
    shape = (rows, columns)
    if draw(st.booleans()):
        shape = (draw(st.integers(0, 4)), draw(st.integers(1, 6)), columns)
    table = draw(hnp.arrays(np.float64, shape, elements=finite_cells))
    if draw(st.booleans()):
        table = (table + 1j * np.ones(shape)).real
        assert not table.flags.c_contiguous or table.size <= 1
    return table


def _rows_of(table):
    return table.reshape(-1, table.shape[-1]).tolist()


@draws
@given(float_tables(), st.integers(0, 10 ** 6), st.sampled_from((math.nan, math.inf, -math.inf)))
def test_a_float_array_is_written_as_the_json_of_its_rows(table, where, bad):
    assert cli._emit_json(table) == cli._emit_json(_rows_of(table))
    payload = {"before": 1.5, "table": table, "after": [2.5, None]}
    pieces = list(cli._json_pieces(payload, "\n"))
    assert "".join(pieces) == cli._emit_json({**payload, "table": _rows_of(table)}) + "\n"
    # one piece per slab of the leading axis, and the text after the last
    assert len(pieces) == len(table) + 1
    if not table.size:
        return
    # a non-finite entry is refused as a non-finite float is, before any piece
    spoiled = table.copy()
    spoiled.flat[where % table.size] = bad
    with pytest.raises(BtkitError) as refused:
        next(cli._json_pieces({"before": 1.5, "table": spoiled}))
    with pytest.raises(BtkitError) as listed:
        cli._emit_json({"before": 1.5, "table": _rows_of(spoiled)})
    assert str(refused.value) == str(listed.value)
    first = spoiled.ravel()[~np.isfinite(spoiled.ravel())][0]
    assert str(refused.value) == f"non-finite value {float(first)!r} cannot be serialized"


def _csv_per_row(table) -> str:
    """The CSV writer the block writer replaced: non-finite cells to NaN, one ``%`` per row."""
    table = table.copy()
    table[~np.isfinite(table)] = np.nan  # "%g" would write inf as inf
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join(row % tuple(cells.tolist()) for cells in table)


@draws
@given(float_tables(), st.lists(st.integers(0, 10 ** 6), max_size=6),
       st.sampled_from((math.nan, math.inf, -math.inf)), st.lists(st.integers(0, 30)))
def test_csv_blocks_are_their_rows_one_by_one(table, spoil, bad, cuts):
    table = np.array(table.reshape(-1, table.shape[-1]))
    for where in spoil:
        if table.size:
            table.flat[where % table.size] = bad
    want = _csv_per_row(table)
    assert ("nan" in want) == (not np.isfinite(table).all())
    columns = [f"c{k}" for k in range(table.shape[1])]
    header = ",".join(columns) + "\n"
    # the whole table as one block: the header, then the block in one piece
    assert list(cli._csv_pieces(columns, [table.copy()])) == [header, want]
    # cut into blocks anywhere, it is the same rows, a piece per block
    edges = sorted({min(cut, len(table)) for cut in cuts} | {0, len(table)})
    blocks = [table[lo:hi].copy() for lo, hi in zip(edges, edges[1:])] or [table.copy()]
    pieces = list(cli._csv_pieces(columns, blocks))
    assert pieces[0] == header and len(pieces) == len(blocks) + 1
    assert "".join(pieces) == header + want
