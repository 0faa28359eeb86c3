"""Benchmark of btkit's certification paths, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``btkit`` is imported from ``src/`` there
and nowhere else.  Workloads (see bench/README.md):

  cli-verify        fresh ``python -m btkit.cli`` processes, one at a time
  chiral-hierarchy  in-process ``chiral hierarchy --levels 3 --verify``, 41x41

Each operation is checked by ``oracle.check``.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
The lines before it print every metric with its unit, the oracle verdict and
the machine.
"""

import argparse
import contextlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS/OpenMP thread in this process and in every child, set before numpy
# loads: with the default pools the 41x41 hierarchy ran 2.03-2.47 s at
# CPU/wall 2.0 on two cores, pinned 1.34-1.65 s at CPU/wall 1.0.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import oracle  # noqa: E402  (numpy loads here)
from cli_driver import private_peak_kb  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

SUBPROCESS_WORKLOADS = ("cli-verify",)

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_out": "count",
    "cli.unused_eval_share": "ratio",
    "chiral_recursion.ExpSeedField.__call__.self_s": "s",
    "chiral_recursion.seed_matrices": "count",
    "chiral_recursion.seed_samplings": "count",
    "chiral_recursion.recursion_step.self_s": "s",
    "chiral_recursion.symmetry_residual.self_s": "s",
    "chiral_recursion.SymmetryCharacteristic.q_samples.self_s": "s",
    "chiral_recursion.TabulatedField.d1_samples.self_s": "s",
    "chiral_recursion.TabulatedField.d2_samples.self_s": "s",
    "chiral_recursion.chiral_defect_samples.self_s": "s",
    "chiral_recursion.potential.self_s": "s",
    "classic_bts.scan.self_s": "s",
    "classic_bts.ScalarField2D.__call__.self_s": "s",
    "classic_bts.evals_per_point": "count",
    "maxwell_vacuum.maxwell_residual.self_s": "s",
    "maxwell_vacuum.field_eval.self_s": "s",
    "maxwell_vacuum.evals_per_point": "count",
    "maxwell_conductor.dispersion_solve.self_s": "s",
    "verify.report_from_values.self_s": "s",
    "verify.magnitude.self_s": "s",
    "verify.mesh.self_s": "s",
    "verify.points_certified": "count",
    "trace.overhead": "ratio",
}

SETUP_REPEATS = 5      # set-up probes per run; setup_s is their median
IMPORT_REPEATS = 3     # fresh-interpreter import probes per traced run
TAIL_BEYOND = 10       # samples the tail latency must leave above it
OP_TIMEOUT_S = 120.0   # a hung operation is killed and counted as failed


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class Outcome:
    """One measured operation."""

    op: workloads.Op
    seconds: float
    problems: list
    wrong: bool
    bytes_out: int
    rss_kb: int = 0
    traced: bool = False
    spans: list = field(default_factory=list)


# --- running one operation ---------------------------------------------------

class InProcess:
    """Calls ``btkit.cli.main`` in this process, output captured in memory."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import btkit.cli

        self.cli = btkit.cli

    def run(self, op, traced=False):
        out, err = io.StringIO(), io.StringIO()
        tracer = spans.Tracer()
        if traced:
            tracer.op = op.index
            tracer.install()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = self.cli.main(list(op.argv))
                except Exception:  # an escaped exception is a failed operation
                    code = -1
                    err.write(traceback.format_exc())
                seconds = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        return seconds, code, out.getvalue(), err.getvalue(), {}, 0, tracer.spans


class Subprocess:
    """Runs each operation as a fresh ``python -m btkit.cli`` process.

    The process is started through ``cli_driver.py``, which runs the module
    as ``-m`` does and records its memory (and, traced, its spans).
    """

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.outputs = (workloads.JSON_OUT, workloads.CSV_OUT)
        self.spec_file = work / workloads.SPEC_FILE

    def run(self, op, traced=False):
        for name in self.outputs:
            (self.work / name).unlink(missing_ok=True)
        if op.spec is not None:
            self.spec_file.write_text(json.dumps(op.spec), encoding="utf-8")
        spans_file, memory_file = self.work / "spans.json", self.work / "memory"
        memory_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "cli_driver.py"), str(memory_file)]
        if traced:
            cmd += [str(spans_file), str(op.index)]
        seconds, code = self._spawn(cmd + ["--", *op.argv])
        stdout = (self.work / "stdout").read_text(encoding="utf-8", errors="replace")
        stderr = (self.work / "stderr").read_text(encoding="utf-8", errors="replace")
        files = {name: (self.work / name).read_text(encoding="utf-8")
                 for name in self.outputs if (self.work / name).exists()}
        recorded = []
        if traced and spans_file.exists():
            recorded = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
        peak_kb = int(memory_file.read_text()) if memory_file.exists() else 0
        return seconds, code, stdout, stderr, files, peak_kb, recorded

    def _spawn(self, cmd):
        with open(self.work / "stdout", "wb") as out, open(self.work / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        return seconds, code


def execute(runner, op, traced=False) -> Outcome:
    seconds, code, stdout, stderr, files, rss_kb, recorded = runner.run(op, traced)
    problems, wrong = oracle.check(op, code, stdout, stderr, files)
    bytes_out = len(stdout.encode()) + sum(len(text.encode()) for text in files.values())
    return Outcome(op, seconds, problems, wrong, bytes_out, rss_kb, traced, recorded)


# --- set-up --------------------------------------------------------------------

def prepare(workload: str, seed: int, work: Path):
    """Import btkit, draw the inputs, warm up; returns (runner, operation stream)."""
    runner = Subprocess(work) if workload in SUBPROCESS_WORKLOADS else InProcess()
    stream = workloads.operations(workload, seed)
    drawn = [next(stream) for _ in range(64)]
    for op in workloads.operations(workload, seed, warmup=True):
        execute(runner, op)
    return runner, itertools.chain(drawn, stream)


def timed_setups(args) -> list:
    """Wall time of fresh processes that set up exactly as a measured run does."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline().strip() == "ready"
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=OP_TIMEOUT_S)
        if not ready or code != 0:
            raise RuntimeError(f"set-up probe exited {code} without getting ready")
    return times


def import_times(work: Path):
    """(btkit, scipy share) medians of fresh ``python -X importtime -c 'import btkit'``."""
    btkit, scipy = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import btkit"],
                              cwd=work, env=child_env(), capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S, check=True)
        total, part = spans.parse_importtime(proc.stderr)
        btkit.append(total)
        scipy.append(part)
    return statistics.median(btkit), statistics.median(scipy)


# --- measuring -------------------------------------------------------------------

def measure(runner, stream, seconds: float, trace: bool) -> list:
    """Closed loop, one client: the next operation starts when the last ends.

    With tracing, whole cycles of the workload's mix alternate between traced
    and untraced, so both halves see the same mix and the ratio of their mean
    latencies is the tracing overhead.
    """
    outcomes = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = next(stream)
        outcomes.append(execute(runner, op, traced=trace and op.cycle % 2 == 0))
    return outcomes


def tail(latencies):
    """(value, rank, count): highest nearest-rank percentile with TAIL_BEYOND above it.

    Runs too short to leave TAIL_BEYOND samples above any rank report the median.
    """
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        rank = (len(ordered) + 1) // 2
    return ordered[rank - 1], rank, len(ordered)


def end_to_end(outcomes, setups, workload: str) -> dict:
    latencies = [o.seconds for o in outcomes]
    if workload in SUBPROCESS_WORKLOADS:
        peak_kb = max(o.rss_kb for o in outcomes)
    else:
        peak_kb = private_peak_kb()
    return {
        "ops_per_s": len(outcomes) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail(latencies)[0],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(outcomes, work: Path) -> dict:
    merged, json_only, grid_points = [], {}, {}
    for o in outcomes:
        base = len(merged)
        for span in o.spans:
            span = list(span)
            if span[spans.PARENT] >= 0:
                span[spans.PARENT] += base
            merged.append(span)
        json_only[o.op.index] = o.op.fmt == "json"
        grid = o.op.grid
        grid_points[o.op.index] = grid["nx"] * grid["nt"] if grid else o.op.samples ** 4
    figures = spans.op_layers(merged, json_only, grid_points)
    names = [n for n in PER_LAYER if n in spans.SPAN_FIGURES or n.endswith(".self_s")]
    metrics = spans.median_over_ops(figures, names)
    evaluated = sum(f.get("cli.evaluated_points", 0) for f in figures.values())
    unused = sum(f.get("cli.unused_points", 0) for f in figures.values())
    metrics["cli.unused_eval_share"] = unused / evaluated if evaluated else 0.0
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = import_times(work)
    metrics["cli.bytes_out"] = statistics.median(o.bytes_out for o in outcomes)
    traced = [o.seconds for o in outcomes if o.traced]
    plain = [o.seconds for o in outcomes if not o.traced]
    metrics["trace.overhead"] = (
        statistics.fmean(traced) / statistics.fmean(plain) if traced and plain else 1.0)
    return {name: metrics[name] for name in PER_LAYER}


# --- reporting -------------------------------------------------------------------

def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def report(args, outcomes, metrics, units) -> None:
    failed = [o for o in outcomes if o.problems]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(machine()))
    for name, value in metrics.items():
        line = f"  {name:<58} {value:>14.6g} {units[name]}"
        if name == "latency_tail_s":
            _, rank, count = tail([o.seconds for o in outcomes])
            line += f"  (p{100 * rank / count:.1f} of {count} operations, {count - rank} beyond)"
        print(line)
    wrong = sum(1 for o in failed if o.wrong)
    verdict = "PASS" if not failed else ("WRONG OUTPUT" if wrong else "FAILED OPERATIONS")
    print(f"oracle: {len(outcomes)} attempted, {len(failed)} failed "
          f"({wrong} wrong answers) -> {verdict}")
    for o in failed[:10]:
        print(f"  op {o.op.index} {o.op.kind}: " + "; ".join(o.problems[:3]))


def probe(args) -> int:
    """Set up as a measured run would, say so, and stop."""
    work = WORK_ROOT / f"probe-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        prepare(args.workload, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("ready", flush=True)
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "btkit" / "__init__.py").is_file():
        print(f"bench: no btkit sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.probe:
        return probe(args)
    setups = [] if args.trace else timed_setups(args)
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner, stream = prepare(args.workload, args.seed, work)
        outcomes = measure(runner, stream, args.seconds, bool(args.trace))
        if args.trace:
            metrics, units = per_layer(outcomes, work), PER_LAYER
        else:
            metrics, units = end_to_end(outcomes, setups, args.workload), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    report(args, outcomes, metrics, units)
    print(json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.problems),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
