"""The benchmark's span tracer still installs on this library.

``bench/spans.py`` wraps btkit functions where their callers look them up:
module attributes, names imported into a module (``classic_bts`` and the
Maxwell modules call ``magnitude`` and ``report_from_values`` by those
names) and class attributes.  It raises on a missing target, so renaming
or inlining a traced name breaks every traced benchmark run.
"""

import importlib
from pathlib import Path

from btkit import classic_bts, cli, maxwell_conductor, maxwell_vacuum
from btkit.verify import Grid2D

BENCH = Path(__file__).resolve().parents[1] / "bench"
A_RE = '[[0.1, 0.2], [0.0, -0.1]]'
B_RE = '[[0.3, 0.1], [0.0, 0.2]]'
M_RE = '[[0.0, 1.0], [0.0, 0.0]]'


def _owner(module: str, path: str):
    owner = importlib.import_module(f"btkit.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _spans_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def test_tracer_wraps_every_target_and_restores_it(monkeypatch, capsys):
    spans = _spans_module(monkeypatch)
    targets = [_owner(module, path) for module, path, *_ in spans.TARGETS]
    originals = [vars(owner)[attr] for owner, attr in targets]

    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [vars(owner)[attr] for owner, attr in targets]
        u = classic_bts.harmonic_quadratic(1.0, 0.0, 0.0)
        classic_bts.laplace_residual(u, Grid2D(nx=6, nt=6))
        pair = maxwell_conductor.ConductorWavePair(
            [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0, maxwell_conductor.MediumParams(3.0, 1.0, 4.0))
        maxwell_vacuum.maxwell_residual(pair, pair.default_grid(3))
        # the CLI's own em runs: a dispersion solved or a field evaluated out
        # of the tracer's sight would read 0 s in the per-layer figures
        em_spans = len(tracer.spans)
        for sub in ("conductor", "vacuum"):
            assert cli.main(["em", sub, "--omega", "1e9", "--samples", "3", "--verify"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert all(new is not old for new, old in zip(wrapped, originals))
    assert all(vars(owner)[attr] is old for (owner, attr), old in zip(targets, originals))
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"classic_bts.scan", "classic_bts.ScalarField2D.__call__",
            "maxwell_vacuum.maxwell_residual", "maxwell_vacuum.field_eval",
            "verify.magnitude", "verify.report_from_values", "verify.mesh"} <= names
    em_names = {span[spans.NAME] for span in tracer.spans[em_spans:]}
    assert {"maxwell_conductor.dispersion_solve", "maxwell_vacuum.field_eval"} <= em_names


def test_json_only_runs_evaluate_nothing_for_the_table(monkeypatch, capsys):
    spans = _spans_module(monkeypatch)
    runs = [
        ["chiral", "hierarchy", "--a-re", A_RE, "--b-re", B_RE, "--m-re", M_RE, "--verify"],
        # a unitary seed past the conditioning bound: its check samples g
        ["chiral", "hierarchy", "--a-re", "[[0, 0], [0, 0]]", "--a-im", "[[14, 0], [0, -9]]",
         "--b-re", "[[0, 0], [0, 0]]", "--b-im", "[[3, 0], [0, 5]]", "--m-re", M_RE,
         "--verify"],
        ["classic", "laplace", "--verify"],
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op, argv in enumerate(runs):
            tracer.op = op
            assert cli.main(argv) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    capsys.readouterr()

    figures = spans.op_layers(tracer.spans, {op: True for op in range(len(runs))},
                              {op: 41 * 41 for op in range(len(runs))})
    # the README seed is within its conditioning bound, so nothing samples it
    assert figures[0]["cli.evaluated_points"] == 0
    # the unitary seed and the classic run evaluate, so the guard below is not vacuous
    assert figures[1]["cli.evaluated_points"] > 0
    assert figures[2]["cli.evaluated_points"] > 0
    for op in range(len(runs)):
        assert figures[op]["cli.unused_points"] == 0
