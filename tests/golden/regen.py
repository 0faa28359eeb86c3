"""Golden corpus of ``btkit`` command-line runs: write it, or check against it.

    python tests/golden/regen.py            # rewrite tests/golden/cases/*.json
    python tests/golden/regen.py NAME...    # write only the named cases
    python tests/golden/regen.py --check    # compare; exit 1 naming each changed case

A full rewrite also rewrites records whose numbers differ only in their
last digits under another BLAS or libm, so a change that records or moves a
few cases writes those by name, and the diff of ``tests/golden/cases`` shows
only them.

Each case is one argv (and environment) run through ``btkit.cli.main`` in
this process, twice: the two runs must give identical bytes on stdout and
stderr and the same warnings, which is the determinism half of the CLI
contract.  A case file records the exit code, stderr, the warnings raised
(category and message, no source location), the JSON envelope, and for CSV
output its header, row count, a fixed sample of rows and the ``sha256`` of
the whole table on the machine that wrote the file: a regenerated table
whose digest is unchanged is byte-identical there.  ``--check`` does not
compare digests, so that another BLAS or libm can pass.

Comparison rules: exit codes, keys and their order, strings, booleans and
stderr exactly; numbers to 1e-12 relative, which is exact for counts.  A
residual statistic (a report's ``max_abs`` and ``rms``,
``path_disagreement``) may sit on a rounding floor, where relative digits
mean nothing: it must keep its verdict under the command's tolerance and
lie within ``RESIDUAL_ABS * tolerance`` of the recorded value, and a
passing report's ``worst_point`` is not compared.  CSV cells compare to
1e-12 of the larger of the two cells and their column's largest sampled
magnitude.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CASES_DIR = HERE / "cases"
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE.parent))

from btkit import cli  # noqa: E402
from helpers import random_commuting_pair, random_matrix  # noqa: E402

REL = 1e-12
RESIDUAL_ABS = 1e-3   # residual figures may move by this fraction of the tolerance
SAMPLE_ROWS = 24      # CSV rows kept per table, evenly spaced, plus the last
REPORT_KEYS = ["max_abs", "rms", "n_points", "worst_point", "n_singular"]

A_RE = "[[0.1, 0.2], [0.0, -0.1]]"
B_RE = "[[0.3, 0.1], [0.0, 0.2]]"
M_RE = "[[0.0, 1.0], [0.0, 0.0]]"

# the examples of README.md's "Examples" section, in order
README_EXAMPLES = {
    "laplace": ["classic", "laplace", "--alpha", "1", "--beta", "0", "--gamma", "0",
                "--verify"],
    "liouville": ["classic", "liouville", "--C", "2", "--verify"],
    "sine-gordon": ["classic", "sine-gordon", "--a", "1", "--C", "1", "--x-min", "-2",
                    "--x-max", "2", "--t-min", "-2", "--t-max", "2", "--verify"],
    "em-vacuum": ["em", "vacuum", "--freq", "5e14", "--e0-re", "1", "0", "0",
                  "--tau", "0", "0", "1"],
    "em-conductor": ["em", "conductor", "--epsilon-rel", "1", "--mu-rel", "1",
                     "--sigma", "5.8e7", "--freq", "1e6", "--verify"],
    "em-loss-tangent": ["em", "conductor", "--epsilon-rel", "3", "--mu-rel", "1",
                        "--sigma-over-eps-omega", "2", "--omega", "1e9"],
    "chiral-residual": ["chiral", "residual", "--a-re", A_RE, "--b-re", B_RE, "--verify"],
    "chiral-potential": ["chiral", "potential", "--a-re", A_RE, "--b-re", B_RE],
    "chiral-hierarchy": ["chiral", "hierarchy", "--a-re", A_RE, "--b-re", B_RE,
                         "--m-re", M_RE, "--levels", "3", "--verify"],
}

# scale and step cases of ROADMAP item 3, the step's echo and refusals, and
# lattice, grid-span and matrix-flag edges
EDGE_CASES = {
    "laplace-alpha-1e3": ["classic", "laplace", "--alpha", "1000", "--verify"],
    "laplace-alpha-1e7": ["classic", "laplace", "--alpha", "1e7", "--beta", "3",
                          "--gamma", "-2", "--verify"],
    "laplace-alpha-1e200": ["classic", "laplace", "--alpha", "1e200", "--verify"],
    "laplace-alpha-1e308": ["classic", "laplace", "--alpha", "1e308", "--verify"],
    "laplace-fine-x": ["classic", "laplace", "--nx", "2001", "--nt", "6", "--verify"],
    "liouville-C-1": ["classic", "liouville", "--C", "1", "--verify"],
    "vacuum-omega-1e308": ["em", "vacuum", "--omega", "1e308", "--samples", "10", "--verify"],
    "conductor-growing-envelope": [
        "em", "conductor", "--epsilon-rel", "3", "--mu-rel", "1",
        "--sigma-over-eps-omega", "20", "--omega", "1e9", "--tau", "-0.6", "-0.8", "0",
        "--e0-re", "0", "0", "1", "--verify"],
    "conductor-overflowing-loss": ["em", "conductor", "--epsilon", "1e-300", "--mu", "1e300",
                                   "--sigma", "1", "--omega", "1e-10"],
    "conductor-overflowing-product": ["em", "conductor", "--omega", "1e300", "--sigma", "1e300",
                                      "--verify"],
    "conductor-eps-omega-underflow": ["em", "conductor", "--omega", "1e-30", "--epsilon",
                                      "1e-300", "--mu", "1e300", "--sigma", "1", "--verify"],
    "vacuum-amplitude-1e-320": ["em", "vacuum", "--omega", "1e9", "--e0-re", "1e-320", "0", "0",
                                "--verify"],
    "vacuum-amplitude-1e-305": ["em", "vacuum", "--omega", "1e9", "--e0-re", "1e-305", "0", "0",
                                "--verify"],
    "classic-span-overflow": ["classic", "laplace", "--x-min", "-1e308", "--x-max", "1e308",
                              "--verify"],
    "chiral-span-overflow": ["chiral", "residual", "--a-re", "[[0]]", "--b-re", "[[0]]",
                             "--x-min", "-1e308", "--x-max", "1e308", "--verify"],
    "chiral-narrow-lattice": ["chiral", "hierarchy", "--a-re", "[[0.1]]", "--b-re", "[[0.2]]",
                              "--m-re", "[[1]]", "--t-min", "-1e-160", "--t-max", "1e-160",
                              "--verify"],
    "chiral-wide-lattice-potential": ["chiral", "potential", "--a-re", "[[0]]", "--b-re", "[[0]]",
                                      "--x-min", "-1e300", "--x-max", "1e300"],
    "chiral-string-entry": ["chiral", "residual", "--a-re", '[["1"]]', "--b-re", "[[1]]"],
    "classic-step-2e-4": ["classic", "liouville", "--h", "2e-4", "--verify"],
    "classic-step-zero": ["classic", "laplace", "--h", "0"],
    "classic-ten-steps-wide": ["classic", "laplace", "--x-min", "0", "--x-max", "0.01",
                               "--nx", "11", "--verify"],
    "chiral-step-1e308": ["chiral", "residual", "--a-re", A_RE, "--b-re", B_RE,
                          "--h", "1e308", "--verify"],
    "chiral-step-nan": ["chiral", "residual", "--a-re", A_RE, "--b-re", B_RE, "--h", "nan"],
    "em-step-half": ["em", "vacuum", "--omega", "1e9", "--h", "0.5", "--verify"],
    "em-step-negative": ["em", "medium", "--epsilon-rel", "2", "--omega", "1e9",
                         "--h", "-1", "--verify"],
    "grid-error-before-step": ["classic", "sine-gordon", "--nx", "1", "--h", "0"],
}
# em paths that no README example takes: a dielectric medium, the sigma = 0
# conductor with its dispersion, a complex amplitude with a phase alpha,
# media whose eps * mu is subnormal, which k and the scans never round alone,
# and waves whose k underflows or whose wavelength overflows, refused
EM_PATHS = {
    "medium-dielectric-json": ["em", "medium", "--epsilon-rel", "2.25", "--mu-rel", "1",
                               "--omega", "1e9", "--verify", "--format", "json"],
    "medium-dielectric-both": ["em", "medium", "--epsilon-rel", "2.25", "--mu-rel", "1",
                               "--omega", "1e9", "--verify", "--format", "both"],
    "conductor-sigma-zero": ["em", "conductor", "--epsilon-rel", "4", "--sigma", "0",
                             "--omega", "1e9", "--verify"],
    "vacuum-complex-amplitude-alpha": [
        "em", "vacuum", "--omega", "1e9", "--e0-re", "0", "1", "0", "--e0-im", "0", "0.5", "0",
        "--tau", "1", "0", "0", "--alpha", "0.3", "--verify", "--format", "both"],
    "medium-subnormal-eps-mu": ["em", "medium", "--epsilon", "1e-300", "--mu", "3e-24",
                                "--omega", "1e200", "--verify"],
    "conductor-subnormal-eps-mu-sigma-zero": [
        "em", "conductor", "--epsilon", "1e-300", "--mu", "3e-24", "--sigma", "0",
        "--omega", "1e200", "--verify"],
    "conductor-subnormal-eps-mu-sigma-1e-100": [
        "em", "conductor", "--epsilon", "1e-300", "--mu", "3e-24", "--sigma", "1e-100",
        "--omega", "1e200", "--verify"],
    "conductor-subnormal-eps-mu-sigma-1e-300": [
        "em", "conductor", "--epsilon", "1e-300", "--mu", "1e-20", "--sigma", "1e-300",
        "--omega", "1e200", "--verify"],
    "medium-wavenumber-underflow": ["em", "medium", "--epsilon", "1", "--mu", "1e-48",
                                    "--omega", "1e-300"],
    "medium-wavelength-overflow": ["em", "medium", "--epsilon", "1", "--mu", "1e-15",
                                   "--omega", "1e-300"],
    "vacuum-wavelength-overflow": ["em", "vacuum", "--omega", "1e-310"],
}
# exponential seeds past the conditioning bound cond_2 g <= e^(2 r) <= 1e11,
# decided node by node on their samples: e^(20 x) reaches cond e^40 at
# x = -1 and is refused; a unitary seed of any norm passes, also on a grid
# whose centre x0 = (x_min + x_max) / 2 would overflow
CONDITIONING = {
    "chiral-residual-ill-conditioned": ["chiral", "residual", "--a-re", "[[20, 0], [0, -20]]",
                                        "--b-re", "[[0, 0], [0, 0]]", "--verify"],
    "chiral-hierarchy-unitary-large-norm": [
        "chiral", "hierarchy", "--a-re", "[[0, 0], [0, 0]]", "--a-im", "[[14, 0], [0, -9]]",
        "--b-re", "[[0, 0], [0, 0]]", "--b-im", "[[3, 0], [0, 5]]", "--m-re", "[[0, 1], [1, 0]]",
        "--levels", "3", "--verify"],
    "chiral-residual-far-grid-unitary": ["chiral", "residual", "--a-re", "[[0.0]]",
                                         "--a-im", "[[1e-300]]", "--b-re", "[[0.0]]",
                                         "--x-min", "1e308", "--x-max", "1.7e308", "--verify"],
}
ENVIRONMENTS = {
    "env-step-1e-5": (["classic", "sine-gordon", "--verify"], {"BTKIT_H": "1e-5"}),
    "env-step-malformed": (["classic", "laplace", "--nx", "1"], {"BTKIT_H": "tiny"}),
    "em-env-step": (["em", "vacuum", "--omega", "1e9", "--verify"], {"BTKIT_H": "2e-4"}),
}


def _matrix_text(values) -> str:
    return json.dumps([[float(v) for v in row] for row in values])


def _hierarchy_flags(A, B, M) -> list:
    """A level-3 hierarchy on the default 41 x 41 grid, every matrix complex."""
    argv = ["chiral", "hierarchy"]
    for name, mat in (("a", A), ("b", B), ("m", M)):
        argv += [f"--{name}-re", _matrix_text(mat.real), f"--{name}-im", _matrix_text(mat.imag)]
    return argv + ["--levels", "3", "--verify"]


def _hierarchy_argv(seed: int) -> list:
    """A hierarchy on commuting generators B = p(A), n = 2 or 3."""
    rng = np.random.default_rng(seed)
    n = 2 if seed < 6 else 3
    A = 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    c = rng.uniform(-0.5, 0.5, 3)
    B = c[0] * A + c[1] * np.eye(n) + c[2] * (A @ A)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _hierarchy_flags(A, B, M)


def _complex_hierarchy_argv() -> list:
    """The 3 x 3 seed and M of the library tests' ``default_rng(1003)``.

    Its generators are dense and complex at the scale of the benchmark's
    seeds, so every real and imaginary block of a commutator carries weight.
    """
    rng = np.random.default_rng(1003)
    A, B = random_commuting_pair(rng, 3)
    return _hierarchy_flags(A, B, random_matrix(rng, 3))


def cases() -> dict:
    """Every case: name -> (argv, environment)."""
    out = {}
    for name, argv in README_EXAMPLES.items():
        plain = [a for a in argv if a not in ("--format", "both")]
        out[f"readme-{name}-json"] = (plain + ["--format", "json"], {})
        out[f"readme-{name}-both"] = (plain + ["--format", "both"], {})
    out.update((name, (argv, {}))
               for name, argv in {**EDGE_CASES, **EM_PATHS, **CONDITIONING}.items())
    out.update(ENVIRONMENTS)
    out.update((f"hierarchy-seed-{seed:02d}", (_hierarchy_argv(seed), {})) for seed in range(12))
    out["chiral-hierarchy-3x3-complex"] = (_complex_hierarchy_argv(), {})
    return out


@contextlib.contextmanager
def _environment(env: dict):
    """``env`` set, ``BTKIT_H`` unset unless ``env`` names it, and 80 columns.

    argparse wraps a usage message to the terminal's width, which ``COLUMNS``
    fixes.
    """
    env = {"BTKIT_H": None, "COLUMNS": "80", **env}
    saved = {key: os.environ.get(key) for key in env}
    for key, value in env.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _run_once(argv, env):
    out, err = io.StringIO(), io.StringIO()
    with _environment(env), warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(list(argv))
    seen = [f"{w.category.__name__}: {w.message}" for w in caught]
    return code, out.getvalue(), err.getvalue(), seen


def run_case(argv, env) -> dict:
    """The record of one case, after checking that a second run is byte-identical."""
    first = _run_once(argv, env)
    if _run_once(argv, env) != first:
        raise AssertionError(f"two runs of {argv!r} differ")
    code, stdout, stderr, seen = first
    record = {"argv": list(argv), "env": dict(env), "exit": code, "stderr": stderr,
              "warnings": seen, "json": None, "csv": None}
    text = stdout
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt != "csv" and text:
        line, _, text = text.partition("\n")
        record["json"] = json.loads(line)
    if text:
        header, *rows = text.splitlines()
        step = max(1, len(rows) // SAMPLE_ROWS)
        keep = sorted(set(range(0, len(rows), step)) | {len(rows) - 1})
        record["csv"] = {"header": header, "rows": len(rows),
                         "sample": {str(i): rows[i] for i in keep},
                         "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return record


# --- comparison ----------------------------------------------------------------

def _close(want: float, got: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= REL * max(abs(want), abs(got), scale)


def _residual_problems(path, want, got, tolerance):
    if (want < tolerance) != (got < tolerance):
        return [f"{path}: verdict changed, {want!r} -> {got!r} against {tolerance!r}"]
    if abs(got - want) > max(RESIDUAL_ABS * tolerance, REL * abs(want)):
        return [f"{path}: {want!r} -> {got!r}"]
    return []


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare(path, want, got, tolerance) -> list:
    if _is_number(want) and _is_number(got):
        return [] if _close(want, got) else [f"{path}: {want!r} -> {got!r}"]
    if type(want) is not type(got):
        return [f"{path}: {want!r} -> {got!r}"]
    if isinstance(want, dict):
        if list(want) != list(got):
            return [f"{path}: keys {list(want)} -> {list(got)}"]
        if list(want) == REPORT_KEYS and tolerance is not None:
            return _report_problems(path, want, got, tolerance)
        out = []
        for key in want:
            if key == "path_disagreement" and tolerance is not None:
                out += _residual_problems(f"{path}.{key}", want[key], got[key], tolerance)
            else:
                out += _compare(f"{path}.{key}", want[key], got[key], tolerance)
        return out
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} -> {len(got)}"]
        return [p for i, (w, g) in enumerate(zip(want, got))
                for p in _compare(f"{path}[{i}]", w, g, tolerance)]
    return [] if want == got else [f"{path}: {want!r} -> {got!r}"]


def _report_problems(path, want, got, tolerance):
    out = []
    for key in ("n_points", "n_singular"):
        if want[key] != got[key]:
            out.append(f"{path}.{key}: {want[key]!r} -> {got[key]!r}")
    for key in ("max_abs", "rms"):
        out += _residual_problems(f"{path}.{key}", want[key], got[key], tolerance)
    if want["max_abs"] >= tolerance:
        out += _compare(f"{path}.worst_point", want["worst_point"], got["worst_point"], None)
    return out


def _cells(line: str):
    return [float(cell) for cell in line.split(",")]


def _csv_problems(want, got) -> list:
    if want is None or got is None:
        return [] if want == got else [f"csv: {want is not None} -> {got is not None}"]
    if (want["header"], want["rows"], list(want["sample"])) != (
            got["header"], got["rows"], list(got["sample"])):
        return [f"csv: header or row count {want['header']!r} x {want['rows']} -> "
                f"{got['header']!r} x {got['rows']}"]
    rows = {i: (_cells(w), _cells(got["sample"][i])) for i, w in want["sample"].items()}
    scales = [max((abs(v) for v in column if not math.isnan(v)), default=0.0)
              for column in zip(*(w for w, _ in rows.values()))]
    out = []
    for i, (w_row, g_row) in rows.items():
        for j, (w, g) in enumerate(zip(w_row, g_row)):
            same = (math.isnan(w) and math.isnan(g)) or _close(w, g, scales[j])
            if not same:
                out.append(f"csv row {i} column {j}: {w!r} -> {g!r}")
    return out


def compare(want: dict, got: dict) -> list:
    """What changed between two records of one case, as readable lines."""
    out = []
    for key in ("argv", "env", "exit", "stderr", "warnings"):
        if want[key] != got[key]:
            out.append(f"{key}: {want[key]!r} -> {got[key]!r}")
    envelope = want["json"]
    tolerance = None
    if isinstance(envelope, dict) and isinstance(envelope.get("command"), str):
        tolerance = cli.TOLERANCES.get(envelope["command"])
    out += _compare("json", want["json"], got["json"], tolerance)
    return out + _csv_problems(want["csv"], got["csv"])


def _dump(record: dict) -> str:
    return json.dumps(record, indent=1) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the recorded corpus instead of rewriting it")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="write only these cases, leaving every other file as it is")
    args = parser.parse_args(argv)
    if args.check and args.names:
        parser.error("--check compares the whole corpus; it takes no case names")
    wanted = cases()
    unknown = [name for name in args.names if name not in wanted]
    if unknown:
        parser.error(f"not a case: {', '.join(unknown)}")
    recorded = {path.stem for path in CASES_DIR.glob("*.json")}
    if args.check:
        changed = sorted(recorded ^ set(wanted))
        for name in changed:
            print(f"{name}: {'not recorded' if name in wanted else 'no longer a case'}")
        for name, (case_argv, env) in wanted.items():
            if name not in recorded:
                continue
            want = json.loads((CASES_DIR / f"{name}.json").read_text(encoding="utf-8"))
            problems = compare(want, run_case(case_argv, env))
            if problems:
                changed.append(name)
                print(f"{name}:")
                print("\n".join(f"  {line}" for line in problems))
        print(f"{len(wanted) - len(changed)} of {len(wanted)} cases unchanged")
        return 1 if changed else 0
    CASES_DIR.mkdir(exist_ok=True)
    if args.names:
        wanted = {name: wanted[name] for name in dict.fromkeys(args.names)}
    else:
        for name in recorded - set(wanted):
            (CASES_DIR / f"{name}.json").unlink()
    for name, (case_argv, env) in wanted.items():
        (CASES_DIR / f"{name}.json").write_text(_dump(run_case(case_argv, env)),
                                                encoding="utf-8")
    print(f"wrote {len(wanted)} cases to {CASES_DIR.relative_to(HERE.parents[1])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
