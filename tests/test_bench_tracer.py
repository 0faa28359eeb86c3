"""The benchmark's span tracer still installs on this library.

``bench/spans.py`` wraps btkit functions where their callers look them up:
module attributes, names imported into a module (``classic_bts`` and the
Maxwell modules call ``magnitude`` and ``report_from_values`` by those
names) and class attributes.  It raises on a missing target, so renaming
or inlining a traced name breaks every traced benchmark run.
"""

import importlib
from pathlib import Path

from btkit import classic_bts, maxwell_conductor, maxwell_vacuum
from btkit.verify import Grid2D

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _owner(module: str, path: str):
    owner = importlib.import_module(f"btkit.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_tracer_wraps_every_target_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    targets = [_owner(module, path) for module, path, *_ in spans.TARGETS]
    originals = [vars(owner)[attr] for owner, attr in targets]

    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [vars(owner)[attr] for owner, attr in targets]
        u = classic_bts.harmonic_quadratic(1.0, 0.0, 0.0)
        classic_bts.laplace_residual(u, Grid2D(nx=6, nt=6))
        pair = maxwell_conductor.conjugate_conducting(
            [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], maxwell_conductor.MediumParams(3.0, 1.0, 4.0), 1.0)
        maxwell_vacuum.maxwell_residual(pair, pair.default_grid(3))
    finally:
        tracer.uninstall()

    assert all(new is not old for new, old in zip(wrapped, originals))
    assert all(vars(owner)[attr] is old for (owner, attr), old in zip(targets, originals))
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"classic_bts.scan", "classic_bts.ScalarField2D.__call__",
            "maxwell_vacuum.maxwell_residual", "maxwell_vacuum.field_eval",
            "verify.magnitude", "verify.report_from_values", "verify.mesh"} <= names
