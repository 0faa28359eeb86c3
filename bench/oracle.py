"""Output oracle: checks each operation against facts the benchmark derives.

The oracle never asks ``btkit`` whether it was right.  It checks the exit
code, the envelope layout, the echo of every input, the self-consistency of
the verify block, and closed forms computed here: plane-wave wavenumbers,
the conductor's (k, s) from a complex square root, the classic fields at
every exported CSV row.

``check`` returns ``(problems, wrong)``.  Any problem makes the operation
failed.  ``wrong`` marks the subset where the program reported success on a
wrong output, or emitted a malformed or self-contradicting envelope; a
refusal the program itself reports (exit 1, 2 or 64 on a genuine input) is
a failure but not a wrong answer.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

import numpy as np

from workloads import CSV_OUT, JSON_OUT, Op

ENVELOPE_KEYS = ["command", "params", "grid", "result", "verify"]
EXIT_CODES = (0, 1, 2, 64)

# documented per-subcommand --verify tolerances
TOLERANCES = {
    "classic laplace": 1e-6, "classic liouville": 1e-6, "classic sine-gordon": 1e-6,
    "em vacuum": 1e-6, "em medium": 1e-6, "em conductor": 1e-5,
    "chiral residual": 1e-6, "chiral potential": 1e-6, "chiral hierarchy": 1e-5,
}

EPSILON0 = 8.8541878128e-12   # F/m, CODATA 2018
MU0 = 1.25663706212e-6        # H/m, CODATA 2018

_REL = 1e-12                  # closed forms recomputed by another route


def _close(a, b, rel=_REL, abs_tol=0.0) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


def _echo_problems(got, want, path="params"):
    """Exact comparison; floats must round-trip to the same double."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{path}: keys {list(got) if isinstance(got, dict) else got!r} "
                    f"!= {list(want)}"]
        out = []
        for key in want:
            out += _echo_problems(got[key], want[key], f"{path}.{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += _echo_problems(g, w, f"{path}[{i}]")
        return out
    # the program prints 17 significant digits, so equal doubles compare equal
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


# --- closed forms ------------------------------------------------------------

def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _em_result_problems(op: Op, result: dict):
    omega = op.params["omega"]
    medium = op.medium or {}
    eps = medium.get("epsilon_rel", 1.0) * EPSILON0
    mu = medium.get("mu_rel", 1.0) * MU0
    sigma = medium.get("sigma", 0.0)
    e0 = [complex(r, i) for r, i in zip(op.params["E0_re"], op.params["E0_im"])]
    tau = op.params["tau"]
    out = []
    if op.command == "em conductor":
        # k + i s is the principal root of omega^2 mu (eps + i sigma / omega)
        ks = omega * cmath.sqrt(mu * complex(eps, sigma / omega))
        k, s = ks.real, ks.imag
        disp = result.get("dispersion", {})
        if not _close(disp.get("k", math.nan), k):
            out.append(f"dispersion.k {disp.get('k')!r} != {k!r}")
        if not _close(disp.get("s", math.nan), s, abs_tol=1e-300):
            out.append(f"dispersion.s {disp.get('s')!r} != {s!r}")
        depth = disp.get("skin_depth")
        if s > 0.0 and (depth is None or not _close(depth, 1.0 / s)):
            out.append(f"skin_depth {depth!r} != {1.0 / s!r}")
        factor = ks / omega
    else:
        k = omega * math.sqrt(eps * mu)
        if not _close(result.get("k", math.nan), k):
            out.append(f"k {result.get('k')!r} != omega/v = {k!r}")
        factor = math.sqrt(eps * mu)
    b0 = [factor * c for c in _cross(tau, e0)]
    got = result.get("B0", {})
    scale = max(abs(c) for c in b0)
    for c, want in enumerate(b0):
        have = complex(got["re"][c], got["im"][c]) if got else complex(math.nan)
        if not abs(have - want) <= 1e-12 * scale:
            out.append(f"B0[{c}] {have!r} != {want!r}")
            break
    return out


def classic_fields(command: str, params: dict, x, t):
    """Closed-form fields of the classic generators, one array per CSV column."""
    if command == "classic laplace":
        a, b, c = params["alpha"], params["beta"], params["gamma"]
        return [a * (x * x - t * t) + b * x + c * t, 2.0 * a * x * t - c * x + b * t]
    if command == "classic liouville":
        return [-2.0 * np.log(params["C"] - (x + t) / math.sqrt(2.0))]
    a, C = params["a"], params["C"]
    return [4.0 * np.arctan(C * np.exp(a * x + t / a))]


def _csv_problems(op: Op, text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return ["CSV is empty"]
    header, body = rows[0], rows[1:]
    if op.command.startswith("em"):
        expected_rows, width = op.samples ** 4, 16
    else:
        expected_rows, width = op.grid["nx"] * op.grid["nt"], None
    out = []
    if len(body) != expected_rows:
        out.append(f"CSV has {len(body)} rows, expected {expected_rows}")
    if header[:2] != (["x", "y"] if width else ["x", "t"]) or (
            width and len(header) != width):
        out.append(f"CSV header {header[:4]!r}... is not the documented one")
    if out or not op.command.startswith("classic"):
        return out
    data = np.array(body, dtype=float)
    for column, want in enumerate(classic_fields(op.command, op.params, data[:, 0], data[:, 1])):
        got = data[:, 2 + column]
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        if not np.all(err <= 1e-12):
            out.append(f"CSV column {header[2 + column]} off by {float(np.max(err)):.3g}")
    return out


# --- the oracle ---------------------------------------------------------------

def check(op: Op, code: int, stdout: str, stderr: str, files: dict | None = None):
    """Problems found in one operation's outcome, and whether it was a wrong answer."""
    files = files or {}
    problems, wrong = [], False
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
        wrong = True
    if code != op.expect_exit:
        problems.append(f"exit {code}, expected {op.expect_exit}")
        if code == 0 or code not in EXIT_CODES or op.expect_exit != 0:
            wrong = True
    if op.expect_exit != 0:
        if stdout.strip():
            problems.append("output on stdout for a rejected call")
            wrong = True
        return problems, wrong
    if code not in (0, 2):
        return problems, wrong

    text = files.get(JSON_OUT, "") if op.fmt == "both" else stdout
    try:
        env = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"unparseable envelope: {exc}"], True
    found = _envelope_problems(op, env, code)
    if op.fmt == "both":
        if stdout.strip():
            found.append("stdout not empty although both outputs went to files")
        found += _csv_problems(op, files.get(CSV_OUT, ""))
    verdict = [p for p in found if p.startswith("verify failed")]
    return problems + found, wrong or len(found) > len(verdict)


def _envelope_problems(op: Op, env, code: int):
    if not isinstance(env, dict) or list(env) != ENVELOPE_KEYS:
        return [f"envelope keys {list(env) if isinstance(env, dict) else env!r} "
                f"!= {ENVELOPE_KEYS}"]
    out = []
    if env["command"] != op.command:
        out.append(f"command {env['command']!r} != {op.command!r}")
    params, want = env["params"], op.params
    if op.command.startswith("em") and isinstance(params, dict) and "omega" in params:
        # omega = 2 pi freq is derived when the call gave --freq: allow the last bit
        if not _close(params["omega"], want["omega"], rel=4e-16):
            out.append(f"params.omega {params['omega']!r} != {want['omega']!r}")
        params = dict(params, omega=want["omega"])
    out += _echo_problems(params, want)
    grid = env["grid"]
    if op.grid is not None:
        out += _echo_problems(grid, op.grid, "grid")
    elif [grid.get(k) for k in ("nx", "ny", "nz", "nt")] != [op.samples] * 4:
        out.append(f"grid nodes {grid!r} != {op.samples} per axis")
    result = env["result"]
    if op.command.startswith("em"):
        out += _em_result_problems(op, result)
    elif op.command == "chiral hierarchy":
        levels = [item.get("level") for item in result.get("levels", [])]
        if levels != list(range(op.params["levels"] + 1)):
            out.append(f"hierarchy levels {levels!r}")
    elif op.command.startswith("classic"):
        fields = [result.get(k) for k in (("u", "v") if "laplace" in op.command else ("field",))]
        if any(not isinstance(f, dict) or f.get("params") != op.params for f in fields):
            out.append("result field parameters do not echo the inputs")
    return out + _verify_problems(op, env["verify"], code)


def _verify_problems(op: Op, block, code: int):
    if not isinstance(block, dict) or list(block) != ["tolerance", "passed", "scans"]:
        return [f"malformed verify block {block!r}"]
    tol = TOLERANCES[op.command]
    out = []
    if block["tolerance"] != tol:
        out.append(f"tolerance {block['tolerance']!r} != documented {tol!r}")
    worst = max((s["max_abs"] for s in block["scans"].values()), default=math.nan)
    if block["passed"] != all(s["max_abs"] < tol for s in block["scans"].values()):
        out.append(f"verify.passed={block['passed']} contradicts max_abs {worst!r}")
    if (code == 2) != (block["passed"] is False):
        out.append(f"exit {code} contradicts verify.passed={block['passed']}")
    if block["passed"] is not True:
        out.append(f"verify failed on a genuine input: max_abs {worst!r} >= {tol!r}")
    return out
