"""Tests of the benchmark itself: inputs, oracle, span arithmetic, metric names.

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CSV_OUT, JSON_OUT  # noqa: E402


def _take(workload, seed, n):
    stream = workloads.operations(workload, seed)
    return [next(stream) for _ in range(n)]


def _call(op):
    """Run an operation in-process: (exit code, stdout, stderr)."""
    from btkit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op.argv))
    return code, out.getvalue(), err.getvalue()


def _small_laplace(fmt="json"):
    rng = workloads.np.random.default_rng(3)
    return workloads.classic_op(0, rng, "laplace", dict(workloads.DEFAULT_GRID, nx=9, nt=9), fmt)


# --- inputs ---------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operation_list_is_fixed_by_the_seed(workload):
    first = _take(workload, 7, 30)
    assert first == _take(workload, 7, 30)
    assert [op.argv for op in first] != [op.argv for op in _take(workload, 8, 30)]


def test_warmup_stream_shares_no_inputs_with_measured_stream():
    for workload in workloads.WORKLOADS:
        warm = {op.argv for op in workloads.operations(workload, 7, warmup=True)}
        assert warm.isdisjoint(op.argv for op in _take(workload, 7, 30))


def test_hierarchy_operations_never_repeat_a_seed():
    argvs = [op.argv for seed in (1, 2) for op in _take("chiral-hierarchy", seed, 20)]
    assert len(set(argvs)) == len(argvs)
    sizes = [json.loads(op.argv[op.argv.index("--a-re") + 1]) for op in _take("chiral-hierarchy", 1, 4)]
    assert [len(a) for a in sizes] == [2, 3, 2, 3]


def test_chiral_seeds_stay_within_the_certifiable_limits():
    ops = _take("chiral-hierarchy", 3, 10) + [
        op for op in _take("cli-verify", 3, 48) if op.kind.startswith("chiral")]
    for op in ops:
        a, b = (_matrix(op.argv, name) for name in ("a", "b"))
        growth, cond = workloads.seed_extremes(a, b, op.grid)
        assert growth <= workloads.SEED_GROWTH and cond <= workloads.SEED_COND
        assert max(workloads.np.linalg.norm(m, 2) for m in (a, b)) <= workloads.SEED_NORM


def test_em_directions_point_into_the_sampled_cube():
    ops = [op for op in _take("cli-verify", 3, 48) if op.kind.startswith("em")]
    assert ops
    for op in ops:
        assert min(op.params["tau"]) >= 0.0


def test_negative_floats_are_not_read_as_options():
    text = workloads._f(-5.349874542367322e-05)
    assert float(text) == -5.349874542367322e-05 and "e" not in text


def _matrix(argv, name):
    real, imag = (json.loads(argv[argv.index(f"--{name}-{part}") + 1]) for part in ("re", "im"))
    return workloads.np.array(real) + 1j * workloads.np.array(imag)


def test_cli_cycle_has_a_fixed_mix():
    ops = _take("cli-verify", 5, 24)
    for cycle in (ops[:12], ops[12:]):
        kinds = sorted(op.kind for op in cycle)
        assert kinds.count("spec") == 2 and kinds.count("usage") == 1
        assert kinds.count("precondition") == 1 and "chiral hierarchy" not in kinds
        assert sum(op.fmt == "both" for op in cycle) == 4


# --- oracle ---------------------------------------------------------------------

def test_genuine_outputs_pass_the_oracle():
    for op in [_small_laplace()] + [
            workloads.em_op(0, workloads.np.random.default_rng(9), sub, 5)
            for sub in ("vacuum", "medium", "conductor")]:
        code, out, err = _call(op)
        assert oracle.check(op, code, out, err) == ([], False), op.kind


def test_tampered_envelope_is_a_wrong_answer():
    op = _small_laplace()
    code, out, err = _call(op)
    env = json.loads(out)

    reordered = {k: env[k] for k in ("params", "command", "grid", "result", "verify")}
    problems, wrong = oracle.check(op, code, json.dumps(reordered), err)
    assert problems and wrong

    echo = dict(env, params=dict(env["params"], alpha=env["params"]["alpha"] * (1 + 1e-15)))
    problems, wrong = oracle.check(op, code, json.dumps(echo), err)
    assert any("params.alpha" in p for p in problems) and wrong

    problems, wrong = oracle.check(op, code, out[:-5], err)
    assert any("unparseable" in p for p in problems) and wrong


def test_wrong_exit_code_is_a_failure():
    op = _small_laplace()
    code, out, err = _call(op)
    problems, wrong = oracle.check(op, 2, out, err)
    assert any("exit 2" in p for p in problems) and wrong  # contradicts verify.passed

    usage = workloads.usage_op(0, workloads.np.random.default_rng(0))
    assert oracle.check(usage, 64, "", "usage: ...") == ([], False)
    problems, wrong = oracle.check(usage, 0, "", "")
    assert problems and wrong


def test_self_reported_verify_failure_is_failed_not_wrong():
    op = _small_laplace()
    code, out, err = _call(op)
    env = json.loads(out)
    scans = {name: dict(scan, max_abs=1.0) for name, scan in env["verify"]["scans"].items()}
    env["verify"] = dict(env["verify"], passed=False, scans=scans)
    problems, wrong = oracle.check(op, 2, json.dumps(env), err)
    assert any(p.startswith("verify failed") for p in problems)
    assert not wrong


def test_tampered_csv_value_is_caught(tmp_path, monkeypatch):
    op = _small_laplace(fmt="both")
    monkeypatch.chdir(tmp_path)
    code, out, err = _call(op)
    files = {name: (tmp_path / name).read_text() for name in (JSON_OUT, CSV_OUT)}
    assert oracle.check(op, code, out, err, files) == ([], False)
    lines = files[CSV_OUT].splitlines()
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[5] = ",".join(cells)
    bad = dict(files, **{CSV_OUT: "\n".join(lines) + "\n"})
    problems, wrong = oracle.check(op, code, out, err, bad)
    assert any("CSV column u" in p for p in problems) and wrong
    short = dict(files, **{CSV_OUT: "\n".join(lines[:-1]) + "\n"})
    assert any("rows" in p for p in oracle.check(op, code, out, err, short)[0])


# --- spans ------------------------------------------------------------------------

def _span(name, start, end, parent, op=0, n=0):
    return [name, start, end, parent, op, n]


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),      # overlaps a: covered once
        _span("a.child", 2.0, 3.0, 1),
        _span("late", 9.5, 12.0, 0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([4.5, 2.0, 3.0, 1.0, 2.5])


def test_unused_evaluations_are_table_calls_on_json_only_runs():
    seed_call = "chiral_recursion.ExpSeedField.__call__"
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("chiral_recursion.hierarchy", 1.0, 5.0, 0),
        _span(seed_call, 2.0, 3.0, 1, n=90),
        _span("chiral_recursion.SymmetryCharacteristic.q_samples", 6.0, 8.0, 0),
        _span(seed_call, 6.5, 7.5, 3, n=10),
    ]
    figures = spans.op_layers(tree, {0: True}, {0: 100})[0]
    assert (figures["cli.unused_points"], figures["cli.evaluated_points"]) == (10, 100)
    assert figures["chiral_recursion.seed_samplings"] == 2
    assert figures["chiral_recursion.seed_matrices"] == 100
    assert figures["cli.main.self_s"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert spans.op_layers(tree, {0: False}, {0: 100})[0]["cli.unused_points"] == 0


def test_tracer_counts_a_real_hierarchy_and_restores_the_library():
    from btkit import chiral_recursion

    original = chiral_recursion.ExpSeedField.__call__
    op = workloads.chiral_op(0, workloads.np.random.default_rng(1), "hierarchy",
                             grid=dict(workloads.DEFAULT_GRID, nx=7, nt=7))
    tracer = spans.Tracer()
    tracer.install()
    try:
        code, out, err = _call(op)
    finally:
        tracer.uninstall()
    assert chiral_recursion.ExpSeedField.__call__ is original
    assert oracle.check(op, code, out, err) == ([], False)
    figures = spans.op_layers(tracer.spans, {-1: True}, {-1: 49})[-1]
    assert figures["chiral_recursion.seed_samplings"] == 39
    assert figures["chiral_recursion.seed_matrices"] == 39 * 49
    assert figures["cli.unused_points"] == 4 * 49
    assert tracer.spans[0][spans.NAME] == "cli.main"


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       400 |        450 |     scipy",
        "import time:        25 |         25 |     scipy.linalg._misc",
        "import time:       500 |        975 |   scipy.linalg",
        "import time:        10 |       1300 | btkit",
    ])
    assert spans.parse_importtime(text) == pytest.approx((1300e-6, 975e-6))


# --- metric names -------------------------------------------------------------------

def test_emitted_metrics_are_the_ones_in_benchmark_json(monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    op = _small_laplace()
    outcomes = [run.Outcome(op, 0.1 * (i + 1), [], False, 100, 2048, i % 2 == 0, [])
                for i in range(12)]
    for workload in workloads.WORKLOADS:
        assert list(run.end_to_end(outcomes, [0.5, 0.6, 0.7], workload)) == list(run.END_TO_END)
    monkeypatch.setattr(run, "import_times", lambda work: (0.4, 0.3))
    assert list(run.per_layer(outcomes, ROOT)) == list(run.PER_LAYER)


def test_tail_leaves_ten_samples_beyond():
    assert run.tail([float(i) for i in range(40)]) == (29.0, 30, 40)
