"""Spans around btkit's public functions, recorded from outside the program.

``install`` replaces each traced function with a wrapper at the place the
caller looks it up: module attributes for functions called through their
module (``cli`` calls ``chiral_recursion.hierarchy``), the importing module
for names imported with ``from ... import`` (``classic_bts`` and the Maxwell
modules hold their own ``report_from_values`` and ``magnitude``), and class
attributes for methods.  ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, op, n]``: ``parent`` indexes the
enclosing span (-1 at the top), ``op`` is the operation id, ``n`` a count
recorded at the boundary (points or matrices evaluated, points in a
residual report).  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import importlib
import json
import re
import statistics
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, OP, N = range(6)

# evaluators whose every call samples a field on a whole grid
EVALUATORS = ("chiral_recursion.ExpSeedField.__call__",
              "classic_bts.ScalarField2D.__call__",
              "maxwell_vacuum.field_eval")
# calls made by the CLI only to fill the CSV table
TABLE_CALLS = EVALUATORS + ("chiral_recursion.SymmetryCharacteristic.q_samples",
                            "chiral_recursion.chiral_defect_samples")

_CLASSIC_SCANS = ("bt_residual_cr", "bt_residual_liouville", "bt_residual_sine_gordon",
                  "laplace_residual", "liouville_residual", "sine_gordon_residual")


def _grid_points(x, t) -> int:
    return int(np.broadcast(np.asarray(x), np.asarray(t)).size)


def _wave_points(r, t) -> int:
    return int(np.broadcast(np.asarray(r)[..., 0], np.asarray(t)).size)


def _report_points(report) -> int:
    return int(report.n_points)


# (module, attribute path, span name, count of the inputs, count of the result)
TARGETS = [
    ("cli", "main", "cli.main", None, None),
    ("chiral_recursion", "hierarchy", "chiral_recursion.hierarchy", None, None),
    ("chiral_recursion", "recursion_step", "chiral_recursion.recursion_step", None, None),
    ("chiral_recursion", "symmetry_residual", "chiral_recursion.symmetry_residual", None, None),
    ("chiral_recursion", "chiral_residual", "chiral_recursion.chiral_residual", None, None),
    ("chiral_recursion", "chiral_defect_samples", "chiral_recursion.chiral_defect_samples",
     None, None),
    ("chiral_recursion", "potential", "chiral_recursion.potential", None, None),
    ("chiral_recursion", "ExpSeedField.__call__", "chiral_recursion.ExpSeedField.__call__",
     _grid_points, None),
    ("chiral_recursion", "TabulatedField.d1_samples",
     "chiral_recursion.TabulatedField.d1_samples", None, None),
    ("chiral_recursion", "TabulatedField.d2_samples",
     "chiral_recursion.TabulatedField.d2_samples", None, None),
    ("chiral_recursion", "SymmetryCharacteristic.q_samples",
     "chiral_recursion.SymmetryCharacteristic.q_samples", None, None),
    ("chiral_recursion", "report_from_values", "verify.report_from_values",
     None, _report_points),
    ("classic_bts", "ScalarField2D.__call__", "classic_bts.ScalarField2D.__call__",
     _grid_points, None),
    ("classic_bts", "magnitude", "verify.magnitude", None, None),
    ("classic_bts", "report_from_values", "verify.report_from_values", None, _report_points),
    ("maxwell_vacuum", "maxwell_residual", "maxwell_vacuum.maxwell_residual", None, None),
    ("maxwell_vacuum", "WavePair.E", "maxwell_vacuum.field_eval", _wave_points, None),
    ("maxwell_vacuum", "WavePair.B", "maxwell_vacuum.field_eval", _wave_points, None),
    ("maxwell_vacuum", "magnitude", "verify.magnitude", None, None),
    ("maxwell_vacuum", "report_from_values", "verify.report_from_values", None, _report_points),
    ("maxwell_conductor", "dispersion_solve", "maxwell_conductor.dispersion_solve", None, None),
    ("maxwell_conductor", "ConductorWavePair.E", "maxwell_vacuum.field_eval",
     _wave_points, None),
    ("maxwell_conductor", "ConductorWavePair.B", "maxwell_vacuum.field_eval",
     _wave_points, None),
    ("maxwell_conductor", "magnitude", "verify.magnitude", None, None),
    ("maxwell_conductor", "report_from_values", "verify.report_from_values",
     None, _report_points),
    ("verify", "magnitude", "verify.magnitude", None, None),
    ("verify", "Grid2D.mesh", "verify.mesh", None, None),
    ("verify", "Grid4D.mesh", "verify.mesh", None, None),
] + [("classic_bts", fn, "classic_bts.scan", None, None) for fn in _CLASSIC_SCANS]


class Tracer:
    """In-memory span recorder; ``op`` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patched = []

    def wrap(self, fn, name, count_in=None, count_out=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            if count_in is not None:
                record[N] = count_in(*args[-2:])
            spans.append(record)
            stack.append(len(spans) - 1)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if count_out is not None:
                record[N] = count_out(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; a missing target is an error, not a silent gap."""
        for module_name, path, name, count_in, count_out in TARGETS:
            owner = importlib.import_module(f"btkit.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, count_in, count_out))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


# --- analysis ------------------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _purpose_roots(spans):
    """For each span, the span just below its nearest enclosing cli.main."""
    roots = []
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if span[NAME] == "cli.main" or parent < 0:
            roots.append(-1)
        elif spans[parent][NAME] == "cli.main":
            roots.append(i)
        else:
            roots.append(roots[parent])
    return roots


def op_layers(spans, json_only: dict, grid_points: dict) -> dict:
    """Per-operation layer figures: {op: {metric: value}}.

    ``json_only[op]`` says whether the operation asked for JSON alone, so
    table evaluations are unused; ``grid_points[op]`` is its grid size.
    """
    selfs = self_times(spans)
    roots = _purpose_roots(spans)
    per_op = defaultdict(lambda: defaultdict(float))
    evals = defaultdict(lambda: [0, 0])        # op -> [unused points, all points]
    for i, span in enumerate(spans):
        name, op, figures = span[NAME], span[OP], per_op[span[OP]]
        figures[name + ".self_s"] += selfs[i]
        if name == "chiral_recursion.ExpSeedField.__call__":
            figures["chiral_recursion.seed_matrices"] += span[N]
            figures["chiral_recursion.seed_samplings"] += 1
        elif name == "classic_bts.ScalarField2D.__call__":
            figures["classic_bts.evaluated_points"] += span[N]
        elif name == "maxwell_vacuum.field_eval":
            figures["maxwell_vacuum.evaluated_points"] += span[N]
        elif name == "verify.report_from_values":
            figures["verify.points_certified"] += span[N]
        if name in EVALUATORS:
            evals[op][1] += span[N]
            root = roots[i]
            if json_only.get(op) and root >= 0 and spans[root][NAME] in TABLE_CALLS:
                evals[op][0] += span[N]
    for op, figures in per_op.items():
        for family in ("classic_bts", "maxwell_vacuum"):
            points = figures.pop(f"{family}.evaluated_points", 0)
            if points and grid_points.get(op):
                figures[f"{family}.evals_per_point"] = points / grid_points[op]
        figures["cli.unused_points"], figures["cli.evaluated_points"] = evals[op]
    return {op: dict(figures) for op, figures in per_op.items()}


# per-operation counts that op_layers derives from the spans
SPAN_FIGURES = ("chiral_recursion.seed_matrices", "chiral_recursion.seed_samplings",
                "classic_bts.evals_per_point", "maxwell_vacuum.evals_per_point",
                "verify.points_certified")


def median_over_ops(per_op: dict, names) -> dict:
    """Median of each figure over the operations in which that layer ran."""
    out = {}
    for name in names:
        values = [figures[name] for figures in per_op.values() if name in figures]
        out[name] = statistics.median(values) if values else 0.0
    return out


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def parse_importtime(stderr: str):
    """(btkit cumulative s, scipy share s) from ``python -X importtime`` output.

    The scipy share sums the cumulative time of every scipy module whose
    importer is not itself a scipy module.
    """
    entries = []
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            entries.append((len(match.group(3)), match.group(4), int(match.group(2))))
    parent = {}
    pending = []
    for i, (level, _, _) in enumerate(entries):
        while pending and entries[pending[-1]][0] > level:
            parent[pending.pop()] = i
        pending.append(i)
    btkit = next(cum for _, name, cum in entries if name == "btkit")
    scipy = sum(
        cum for i, (_, name, cum) in enumerate(entries)
        if name.split(".")[0] == "scipy"
        and (i not in parent or entries[parent[i]][1].split(".")[0] != "scipy")
    )
    return btkit * 1e-6, scipy * 1e-6
