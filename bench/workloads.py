"""Seeded operation streams for the two benchmark workloads.

An operation is one ``btkit`` invocation: its argv, the exit code a correct
program gives, and the inputs the oracle expects to see echoed back.  Each
workload is an endless stream drawn from ``numpy.random.default_rng`` keyed
on (seed, workload, position), so a seed fixes the whole list and a faster
commit simply runs a longer prefix of the same list.

Operation mixes are fixed per cycle and only their order and parameters are
drawn, so every run of a workload covers the same kinds of work in the same
proportions.  Nothing here imports ``btkit``: the inputs are built from the
documented command line alone.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_GRID = {"x_min": -1.0, "x_max": 1.0, "t_min": -1.0, "t_max": 1.0,
                "nx": 41, "nt": 41, "h": 1e-4}
WIDE_GRID = dict(DEFAULT_GRID, x_min=-2.0, x_max=2.0, t_min=-2.0, t_max=2.0)

# output file names, relative to the directory a subprocess operation runs in
JSON_OUT = "out.json"
CSV_OUT = "out.csv"
SPEC_FILE = "spec.json"

SEED_SCALE = 0.6      # chiral seeds are drawn like the acceptance tests' criterion 6
# Limits on a chiral seed g = exp(A x + B t).  The finite-difference
# connection g^-1 g_x errs by about h^2 |B|^3, amplified where g grows or is
# ill-conditioned.  Genuine 41x41 hierarchies with cond(g) above about 1800,
# or with |B| near 7 and growth near e^6, failed the 1e-5 tolerance (a false
# failure); such seeds are redrawn.
SEED_NORM = 6.0       # largest spectral norm of A and B
SEED_GROWTH = 4.5     # largest Re eig(A x + B t) over the grid corners
SEED_COND = 250.0     # largest cond(g) over the grid corners
LEVELS = 3            # hierarchy depth of every chiral-hierarchy operation

_WORKLOAD_KEYS = {"cli-verify": 1, "chiral-hierarchy": 2}
_WARMUP_KEY = 1000


@dataclass(frozen=True)
class Op:
    """One invocation and what a correct program does with it."""

    index: int
    kind: str                   # "classic laplace", ..., "spec", "usage", "precondition"
    argv: tuple
    expect_exit: int = 0
    command: str = ""           # envelope "command" for exit-0 operations
    params: dict = field(default_factory=dict)
    grid: dict | None = None    # expected 2-D grid echo; None for em
    samples: int = 0            # em nodes per axis
    medium: dict | None = None  # em epsilon_rel, mu_rel, sigma as given (absent: vacuum)
    fmt: str = "json"           # "json" or "both" (files JSON_OUT and CSV_OUT)
    spec: dict | None = None    # content of SPEC_FILE for "btkit verify" re-runs
    cycle: int = 0              # operations of one cycle form the workload's fixed mix


def _f(value) -> str:
    """Shortest round-trip text of a float, positional, as a user would paste it.

    Positional because the CLI's argparse reads a negative number in
    exponent form (``-5e-05``) as an option and exits 64.
    """
    return np.format_float_positional(float(value), trim="-")


def _matrix_text(values) -> str:
    return json.dumps([[float(v) for v in row] for row in np.asarray(values)])


def _matrix_echo(values) -> dict:
    arr = np.asarray(values, dtype=complex)
    return {"re": [[float(v) for v in row] for row in arr.real],
            "im": [[float(v) for v in row] for row in arr.imag]}


def _grid_flags(grid: dict) -> list:
    out = []
    for key in ("x_min", "x_max", "t_min", "t_max"):
        out += ["--" + key.replace("_", "-"), _f(grid[key])]
    return out + ["--nx", str(grid["nx"]), "--nt", str(grid["nt"])]


def _output_flags(fmt: str) -> list:
    if fmt == "json":
        return []
    return ["--format", "both", "--output", JSON_OUT, "--csv-output", CSV_OUT]


# --- seeded inputs ----------------------------------------------------------

def random_commuting_pair(rng, n: int):
    """Two commuting n x n complex matrices: B is a polynomial in A."""
    a = random_matrix(rng, n)
    coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = SEED_SCALE * (coeffs[0] * np.eye(n) + coeffs[1] * a + coeffs[2] * a @ a)
    return a, b


def seed_extremes(a, b, grid: dict):
    """(largest Re eig(A x + B t), largest cond(g)) over the corners of ``grid``.

    B is a polynomial in A, so A's eigenvectors V diagonalize both and
    g = V exp(diag(w x + mu t)) V^-1.  Re eig(A x + B t) and its spread,
    which bounds cond(g) with cond(V)^2, are largest at a corner.
    """
    w, V = np.linalg.eig(a)
    Vi = np.linalg.inv(V)
    mu = np.diag(Vi @ b @ V)
    exponents = [w * x + mu * t for x in (grid["x_min"], grid["x_max"])
                 for t in (grid["t_min"], grid["t_max"])]
    growth = max(float(np.max(z.real)) for z in exponents)
    cond = max(float(np.linalg.cond(V @ np.diag(np.exp(z)) @ Vi)) for z in exponents)
    return growth, cond


def certifiable_pair(rng, n: int, grid: dict):
    """A commuting pair within SEED_NORM, SEED_GROWTH and SEED_COND on ``grid``."""
    while True:
        a, b = random_commuting_pair(rng, n)
        if max(np.linalg.norm(a, 2), np.linalg.norm(b, 2)) > SEED_NORM:
            continue
        growth, cond = seed_extremes(a, b, grid)
        if growth <= SEED_GROWTH and cond <= SEED_COND:
            return a, b


def random_matrix(rng, n: int):
    return SEED_SCALE * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _transverse_wave(rng):
    """Unit direction tau and a complex amplitude orthogonal to it.

    tau has no negative component, so it points into the sampled cube
    [0, wavelength]^3 and a conductor's envelope exp(-s tau.r) is largest at
    the origin.  Pointing out of it, the envelope grows up to e^10 across the
    cube while ``--verify`` normalizes by |E0| k at the origin, and genuine
    high-loss conductors fail the 1e-5 tolerance (a false failure).
    """
    tau = np.abs(rng.standard_normal(3))
    tau /= np.linalg.norm(tau)
    e1 = rng.standard_normal(3)
    e1 -= np.dot(e1, tau) * tau
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(tau, e1)
    c = rng.uniform(-1.0, 1.0, 4)
    e0 = (c[0] + 1j * c[1]) * e1 + (c[2] + 1j * c[3]) * e2
    return tau, e0


def _log_uniform(rng, lo_exp: float, hi_exp: float) -> float:
    return float(10.0 ** rng.uniform(lo_exp, hi_exp))


# --- operation builders -----------------------------------------------------

def classic_op(index, rng, sub, grid, fmt="json"):
    if sub == "laplace":
        a, b, c = (float(v) for v in rng.uniform(-2.0, 2.0, 3))
        params = {"alpha": a, "beta": b, "gamma": c}
        flags = ["--alpha", _f(a), "--beta", _f(b), "--gamma", _f(c)]
    elif sub == "liouville":
        C = float(rng.uniform(2.0, 4.0))
        params = {"C": C}
        flags = ["--C", _f(C)]
    else:
        a = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        C = float(rng.uniform(0.2, 2.0))
        params = {"a": a, "C": C}
        flags = ["--a", _f(a), "--C", _f(C)]
    argv = ["classic", sub] + flags + _grid_flags(grid) + ["--verify"] + _output_flags(fmt)
    return Op(index, f"classic {sub}", tuple(argv), command=f"classic {sub}",
              params=params, grid=dict(grid), fmt=fmt)


def _em_inputs(rng, sub):
    """Seeded medium and wave; flags and the spec-file parameter names."""
    tau, e0 = _transverse_wave(rng)
    named = {}
    if sub == "vacuum":
        named["freq"] = _log_uniform(rng, 6.0, 15.0)
    elif sub == "medium":
        named["epsilon_rel"] = float(rng.uniform(1.0, 10.0))
        named["mu_rel"] = float(rng.uniform(1.0, 3.0))
        named["omega"] = _log_uniform(rng, 6.0, 12.0)
    else:
        named["epsilon_rel"] = float(rng.uniform(1.0, 10.0))
        named["mu_rel"] = float(rng.uniform(1.0, 2.0))
        named["sigma"] = _log_uniform(rng, -3.0, 8.0)
        named["freq"] = _log_uniform(rng, 3.0, 9.0)
    named["e0_re"] = [float(v) for v in e0.real]
    named["e0_im"] = [float(v) for v in e0.imag]
    named["tau"] = [float(v) for v in tau]
    omega = named["omega"] if "omega" in named else 2.0 * math.pi * named["freq"]
    echo = {"E0_re": named["e0_re"], "E0_im": named["e0_im"], "tau": named["tau"],
            "omega": omega, "alpha": 0.0}
    medium = {k: named[k] for k in ("epsilon_rel", "mu_rel", "sigma") if k in named}
    return named, echo, medium


def _named_flags(named: dict) -> list:
    out = []
    for key, value in named.items():
        flag = "--" + key.replace("_", "-")
        out += [flag] + ([_f(v) for v in value] if isinstance(value, list) else [_f(value)])
    return out


def em_op(index, rng, sub, samples, fmt="json"):
    named, echo, medium = _em_inputs(rng, sub)
    argv = (["em", sub] + _named_flags(named) + ["--samples", str(samples), "--verify"]
            + _output_flags(fmt))
    return Op(index, f"em {sub}", tuple(argv), command=f"em {sub}", params=echo,
              samples=samples, medium=medium, fmt=fmt)


def chiral_op(index, rng, sub, fmt="json", n=2, grid=DEFAULT_GRID):
    A, B = certifiable_pair(rng, n, grid)
    argv = ["chiral", sub]
    for name, mat in (("a", A), ("b", B)):
        argv += [f"--{name}-re", _matrix_text(mat.real), f"--{name}-im", _matrix_text(mat.imag)]
    params = {"A": _matrix_echo(A), "B": _matrix_echo(B)}
    if sub == "potential":
        params["base"] = None
    if sub == "hierarchy":
        M = random_matrix(rng, n)
        argv += ["--m-re", _matrix_text(M.real), "--m-im", _matrix_text(M.imag),
                 "--levels", str(LEVELS)]
        params["M"] = _matrix_echo(M)
        params["levels"] = LEVELS
    argv += _grid_flags(grid) + ["--verify"] + _output_flags(fmt)
    return Op(index, f"chiral {sub}", tuple(argv), command=f"chiral {sub}",
              params=params, grid=dict(grid), fmt=fmt)


def spec_op(index, rng, family):
    """``btkit verify spec.json`` re-running a recorded classic or em call."""
    if family == "classic":
        sub = str(rng.choice(["laplace", "liouville", "sine-gordon"]))
        base = classic_op(index, rng, sub, DEFAULT_GRID)
        spec = {"command": ["classic", sub], "params": base.params,
                "grid": {k: DEFAULT_GRID[k] for k in ("x_min", "x_max", "t_min", "t_max")}}
        return Op(index, "spec", ("verify", SPEC_FILE), command=base.command,
                  params=base.params, grid=dict(DEFAULT_GRID), spec=spec)
    sub = str(rng.choice(["vacuum", "medium", "conductor"]))
    named, echo, medium = _em_inputs(rng, sub)
    spec = {"command": ["em", sub], "params": named}
    return Op(index, "spec", ("verify", SPEC_FILE), command=f"em {sub}", params=echo,
              samples=9, medium=medium, spec=spec)


def usage_op(index, rng):
    """Malformed calls: every one must exit 64 with nothing on stdout."""
    choices = [
        ("classic", "laplace", "--alpha", "abc"),
        ("classic", "liouville", "--C", "1,5"),
        ("em", "vacuum", "--e0-re", "1", "0", "0"),
        ("em", "conductor", "--freq", "1e6", "--sigma", "oops"),
        ("chiral", "residual", "--a-re", "[[0.1, 0.2]", "--b-re", "[[0.3]]"),
        ("classic", "wave"),
        ("verify", "missing-spec.json"),
    ]
    argv = choices[int(rng.integers(len(choices)))]
    return Op(index, "usage", tuple(argv), expect_exit=64)


def precondition_op(index, rng):
    """Well-formed calls the library must reject with exit 1."""
    kind = int(rng.integers(4))
    if kind == 0:
        argv = ("em", "vacuum", "--freq", "1e9", "--tau", "0", "0", "2")
    elif kind == 1:
        argv = ("em", "vacuum", "--freq", "1e9", "--e0-re", "0", "0", "1",
                "--tau", "0", "0", "1")
    elif kind == 2:
        argv = ("classic", "sine-gordon", "--a", "0", "--C", _f(rng.uniform(0.2, 2.0)))
    else:
        A, B = random_matrix(rng, 2), random_matrix(rng, 2)
        argv = ("chiral", "residual", "--a-re", _matrix_text(A.real),
                "--b-re", _matrix_text(B.real))
    return Op(index, "precondition", argv, expect_exit=1)


# --- workloads ---------------------------------------------------------------

def _cli_cycle(rng, cycle):
    """Twelve CLI operations: the README examples except chiral hierarchy.

    Half the generating calls export JSON and CSV to files; the halves swap
    every cycle, so two cycles export every kind once.
    """
    builders = [
        lambda i, fmt: classic_op(i, rng, "laplace", DEFAULT_GRID, fmt),
        lambda i, fmt: classic_op(i, rng, "liouville", DEFAULT_GRID, fmt),
        lambda i, fmt: classic_op(i, rng, "sine-gordon", WIDE_GRID, fmt),
        lambda i, fmt: em_op(i, rng, "vacuum", 9, fmt),
        lambda i, fmt: em_op(i, rng, "medium", 9, fmt),
        lambda i, fmt: em_op(i, rng, "conductor", 9, fmt),
        lambda i, fmt: chiral_op(i, rng, "residual", fmt),
        lambda i, fmt: chiral_op(i, rng, "potential", fmt),
    ]
    plan = [functools.partial(make, fmt="both" if k % 2 == cycle % 2 else "json")
            for k, make in enumerate(builders)]
    return plan + [lambda i: spec_op(i, rng, "classic"), lambda i: spec_op(i, rng, "em"),
                   lambda i: usage_op(i, rng), lambda i: precondition_op(i, rng)]


def _hierarchy_cycle(rng, cycle):
    """One level-3 hierarchy on the default grid; 2x2 and 3x3 seeds alternate.

    Each operation gets its own generator, so no two operations share a seed.
    """
    return [lambda i: chiral_op(i, rng, "hierarchy", n=2 + cycle % 2)]


_CYCLES = {"cli-verify": _cli_cycle, "chiral-hierarchy": _hierarchy_cycle}


def operations(workload: str, seed: int, warmup: bool = False):
    """Endless operation stream of ``workload``; identical for identical seeds.

    ``warmup`` gives a separate stream of small operations that touch the
    same code paths; it shares no draws with the measured stream.
    """
    key = _WORKLOAD_KEYS[workload] + (_WARMUP_KEY if warmup else 0)
    if warmup:
        yield from _warmup_ops(workload, np.random.default_rng([seed, key]))
        return
    index = 0
    for cycle in itertools.count():
        rng = np.random.default_rng([seed, key, cycle])
        plan = _CYCLES[workload](rng, cycle)
        # a hierarchy's mix is one 2x2 and one 3x3 operation
        mix = cycle // 2 if workload == "chiral-hierarchy" else cycle
        for slot in rng.permutation(len(plan)):
            yield dataclasses.replace(plan[slot](index), cycle=mix)
            index += 1


def _warmup_ops(workload, rng):
    small = dict(DEFAULT_GRID, nx=11, nt=11)
    if workload == "cli-verify":
        yield classic_op(0, rng, "laplace", small)
    else:
        for i, n in enumerate((2, 3)):
            yield chiral_op(i, rng, "hierarchy", n=n, grid=small)


WORKLOADS = tuple(_WORKLOAD_KEYS)
