"""Command-line front end: generators, conjugacy solvers, verification scans.

Subcommand grammar::

    btkit classic {laplace|liouville|sine-gordon} [flags]
    btkit em      {vacuum|medium|conductor}       [flags]
    btkit chiral  {residual|potential|hierarchy}  [flags]
    btkit verify  <spec-file>

All flags are long-form.  Output is JSON (default), CSV, or both; JSON is
byte-identical for identical argv: keys are emitted in fixed order and
floats with 17 significant digits.  CSV always carries a header row and a
``.`` decimal point.  The environment variable BTKIT_H overrides the
default finite-difference step; an explicit --h flag wins over it.

Exit codes: 0 success; 1 precondition rejected by the library (the message
names the violated constraint); 2 a --verify scan exceeded its documented
tolerance; 64 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from functools import lru_cache

import numpy as np

from . import classic_bts, chiral_recursion, maxwell_conductor, maxwell_vacuum
from .chiral_recursion import _matrix_pair
from .errors import BtkitError, InvalidParameterError
from .media import EPSILON0, MU0, MediumParams, VACUUM
from .verify import DEFAULT_STEP, Grid2D, Grid4D, report_from_values

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_VERIFY = 2
EXIT_USAGE = 64

# documented per-subcommand scan tolerances (normalized residuals)
TOLERANCES = {
    "classic laplace": 1e-6,
    "classic liouville": 1e-6,
    "classic sine-gordon": 1e-6,
    "em vacuum": 1e-6,
    "em medium": 1e-6,
    "em conductor": 1e-5,
    "chiral residual": 1e-6,
    "chiral potential": 1e-6,
    "chiral hierarchy": 1e-5,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the usage code instead of 2.

    Negative numbers in exponent form (``-5.3e-05``) are read as values, not
    as unknown options.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# --- deterministic serialization -------------------------------------------

def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise BtkitError(f"non-finite value {value!r} cannot be serialized")
    return format(float(value), ".17g")


def _emit_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_emit_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _complex_columns(labels):
    return [f"{label}_{part}" for label in labels for part in ("re", "im")]


def _entry_columns(prefix: str, n: int):
    return _complex_columns(f"{prefix}_{r}_{c}" for r in range(n) for c in range(n))


def _grid_table(meshes, *blocks) -> np.ndarray:
    """The CSV table of a grid as one float array, a row per node in C order.

    A row holds the node's mesh coordinates, then each block's entries at
    that node; a complex entry fills two columns, its real then its
    imaginary part.
    """
    n = np.size(meshes[0])
    parts = [np.reshape(m, (n, 1)) for m in meshes]
    for block in blocks:
        if np.iscomplexobj(block):
            parts.append(np.ascontiguousarray(block, dtype=complex).reshape(n, -1).view(float))
        else:
            parts.append(np.asarray(block, dtype=float).reshape(n, -1))
    return np.hstack(parts)


# --- shared argument plumbing ----------------------------------------------

def _add_output_flags(parser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "both"), default="json")
    parser.add_argument("--output", default=None, help="JSON destination (default stdout)")
    parser.add_argument("--csv-output", default=None, help="CSV destination (default stdout)")
    parser.add_argument("--verify", action="store_true",
                        help="run residual scans; exit 2 if any exceeds tolerance")
    parser.add_argument("--h", type=float, default=None,
                        help="finite-difference step (beats BTKIT_H)")


def _add_grid2d_flags(parser) -> None:
    parser.add_argument("--x-min", type=float, default=-1.0)
    parser.add_argument("--x-max", type=float, default=1.0)
    parser.add_argument("--t-min", type=float, default=-1.0)
    parser.add_argument("--t-max", type=float, default=1.0)
    parser.add_argument("--nx", type=int, default=41)
    parser.add_argument("--nt", type=int, default=41)


def _add_em_flags(parser) -> None:
    parser.add_argument("--e0-re", type=float, nargs=3, default=[1.0, 0.0, 0.0],
                        metavar=("EX", "EY", "EZ"))
    parser.add_argument("--e0-im", type=float, nargs=3, default=[0.0, 0.0, 0.0],
                        metavar=("EX", "EY", "EZ"))
    parser.add_argument("--tau", type=float, nargs=3, default=[0.0, 0.0, 1.0],
                        metavar=("TX", "TY", "TZ"))
    parser.add_argument("--alpha", type=float, default=0.0, help="polarization phase, only "
                        "recorded in params/spec: the complex amplitude carries the phase")
    parser.add_argument("--samples", type=int, default=9)
    freq = parser.add_mutually_exclusive_group(required=True)
    freq.add_argument("--omega", type=float, help="angular frequency, rad/s")
    freq.add_argument("--freq", type=float, help="frequency in Hz (omega = 2 pi freq)")


def _add_medium_flags(parser) -> None:
    eps = parser.add_mutually_exclusive_group()
    eps.add_argument("--epsilon", type=float, help="absolute permittivity, F/m")
    eps.add_argument("--epsilon-rel", type=float, help="relative permittivity")
    mu = parser.add_mutually_exclusive_group()
    mu.add_argument("--mu", type=float, help="absolute permeability, H/m")
    mu.add_argument("--mu-rel", type=float, help="relative permeability")


def _json_matrix(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}") from exc
    return data


def _add_matrix_flag(parser, name: str, required: bool) -> None:
    parser.add_argument(f"--{name}-re", type=_json_matrix, required=required,
                        default=None, metavar="JSON")
    parser.add_argument(f"--{name}-im", type=_json_matrix, default=None,
                        metavar="JSON")


def _complex_matrix(re, im, name: str) -> np.ndarray:
    try:
        re_arr = np.asarray(re, dtype=float)
        im_arr = np.zeros_like(re_arr) if im is None else np.asarray(im, dtype=float)
        if re_arr.shape != im_arr.shape:
            raise ValueError(f"real part has shape {re_arr.shape}, imaginary {im_arr.shape}")
    except (ValueError, TypeError) as exc:
        raise InvalidParameterError(f"{name}: {exc}") from exc
    return re_arr + 1j * im_arr


def _resolve_step(args) -> float:
    if args.h is not None:
        return args.h
    env = os.environ.get("BTKIT_H")
    if env is None:
        return DEFAULT_STEP
    try:
        return float(env)
    except ValueError as exc:
        raise _UsageError(f"BTKIT_H is not a number: {env!r}") from exc


def _grid2d(args, step: float, lattice_only: bool = False) -> Grid2D:
    return Grid2D(args.x_min, args.x_max, args.t_min, args.t_max,
                  args.nx, args.nt, h=step, lattice_only=lattice_only)


def _resolve_omega(args) -> float:
    if args.omega is not None:
        return args.omega
    return 2.0 * math.pi * args.freq


def _absolute(args, name: str, unit: float) -> float:
    """``--NAME`` if given, else ``--NAME-rel`` times ``unit``, else ``unit``."""
    if getattr(args, name) is not None:
        return getattr(args, name)
    relative = getattr(args, f"{name}_rel")
    return unit if relative is None else relative * unit


def _resolve_medium(args, omega: float, conducting: bool) -> MediumParams:
    epsilon = _absolute(args, "epsilon", EPSILON0)
    mu = _absolute(args, "mu", MU0)
    sigma = 0.0
    if conducting:
        if args.sigma_over_eps_omega is not None:
            sigma = args.sigma_over_eps_omega * epsilon * omega
        elif args.sigma is not None:
            sigma = args.sigma
    return MediumParams(epsilon, mu, sigma)


# --- subcommand runners ------------------------------------------------------

def _verify_block(scans: dict, tolerance: float):
    passed = all(report.passed(tolerance) for report in scans.values())
    block = {
        "tolerance": tolerance,
        "passed": passed,
        "scans": {name: report.to_dict() for name, report in scans.items()},
    }
    return block, passed


def _run_classic(args):
    step = _resolve_step(args)
    grid = _grid2d(args, step)
    if args.sub == "laplace":
        u, v = classic_bts.harmonic_conjugate_match(args.alpha, args.beta, args.gamma)
        params = {"alpha": args.alpha, "beta": args.beta, "gamma": args.gamma}
        result = {"u": u.to_dict(), "v": v.to_dict()}
        scans = {
            "cauchy_riemann": classic_bts.bt_residual_cr(u, v, grid),
            "laplace_u": classic_bts.laplace_residual(u, grid),
            "laplace_v": classic_bts.laplace_residual(v, grid),
        } if args.verify else {}
        fields = [("u", u), ("v", v)]
    elif args.sub == "liouville":
        u = classic_bts.liouville_from_trivial(args.C)
        v = classic_bts.zero_field()
        params = {"C": args.C}
        result = {"field": u.to_dict()}
        scans = {
            "pde": classic_bts.liouville_residual(u, grid),
            "bt": classic_bts.bt_residual_liouville(u, v, grid),
        } if args.verify else {}
        fields = [("u", u)]
    else:
        u = classic_bts.sine_gordon_from_vacuum(args.a, args.C)
        v = classic_bts.zero_field()
        params = {"a": args.a, "C": args.C}
        result = {"field": u.to_dict()}
        scans = {
            "pde": classic_bts.sine_gordon_residual(u, grid),
            "bt": classic_bts.bt_residual_sine_gordon(u, v, args.a, grid),
        } if args.verify else {}
        fields = [("u", u)]

    columns = ["x", "t"] + [name for name, _ in fields]

    def rows():
        X, T = grid.mesh()
        return _grid_table((X, T), *(f(X, T) for _, f in fields))

    return params, grid.to_dict(), result, scans, (columns, rows)


_EM_COLUMNS = ["x", "y", "z", "t"] + _complex_columns(f + c for f in "EB" for c in "xyz")


def _run_em(args):
    step = _resolve_step(args)
    omega = _resolve_omega(args)
    conducting = args.sub == "conductor"
    if args.sub == "vacuum":
        medium = VACUUM
    else:
        medium = _resolve_medium(args, omega, conducting)
    E0 = np.asarray(args.e0_re, dtype=float) + 1j * np.asarray(args.e0_im, dtype=float)
    if conducting:
        pair = maxwell_conductor.conjugate_conducting(
            E0, args.tau, medium, omega, alpha=args.alpha
        )
        wavenumber = {"dispersion": pair.dispersion.to_dict()}
    else:
        pair = maxwell_vacuum.conjugate_vacuum(
            E0, args.tau, omega, medium=medium, alpha=args.alpha
        )
        wavenumber = {"k": pair.k}
    result = {"spec": pair.spec.to_dict(), "medium": medium.to_dict(), **wavenumber,
              "B0": _matrix_pair(pair.B0)}
    params = pair.spec.to_dict()
    grid = Grid4D.for_wave(pair.k, omega, samples=args.samples, step_scale=step)
    scans = {"maxwell": maxwell_vacuum.maxwell_residual(pair, grid)} if args.verify else {}

    def rows():
        meshes = grid.mesh()
        R = np.stack(meshes[:3], axis=-1)
        return _grid_table(meshes, pair.E(R, meshes[3]), pair.B(R, meshes[3]))

    return params, grid.to_dict(), result, scans, (_EM_COLUMNS, rows)


def _run_chiral(args):
    step = _resolve_step(args)
    # every chiral scan differences the lattice; h is only echoed
    grid = _grid2d(args, step, lattice_only=True)
    A = _complex_matrix(args.a_re, args.a_im, "A")
    B = _complex_matrix(args.b_re, args.b_im, "B")
    g = chiral_recursion.ExpSeedField(A, B)
    params = {"A": _matrix_pair(A), "B": _matrix_pair(B)}
    X, T = grid.mesh()

    if args.sub == "residual":
        values = chiral_recursion.chiral_defect_samples(g, grid)
        report = report_from_values(values, (X, T))
        result = {"seed": g.to_dict(), "report": report.to_dict()}
        scans = {"chiral": report} if args.verify else {}
        table = (["x", "t", "residual"], lambda: _grid_table((X, T), values))
        return params, grid.to_dict(), result, scans, table

    if args.sub == "potential":
        base = None
        if args.base_re is not None:
            base = _complex_matrix(args.base_re, args.base_im, "base")
            params["base"] = _matrix_pair(base)
        else:
            params["base"] = None
        pot = chiral_recursion.potential(g, grid, base=base)
        result = {
            "seed": g.to_dict(),
            "potential": pot.to_dict(),
            "path_disagreement": pot.path_disagreement,
        }
        scans = {"chiral": chiral_recursion.chiral_residual(g, grid)} if args.verify else {}
        table = (["x", "t"] + _entry_columns("X", g.n),
                 lambda: _grid_table((X, T), pot.values))
        return params, grid.to_dict(), result, scans, table

    M = _complex_matrix(args.m_re, args.m_im, "M")
    params["M"] = _matrix_pair(M)
    params["levels"] = args.levels
    levels = chiral_recursion.hierarchy(g, M, args.levels, grid)
    reports = {
        f"level_{item.level}": chiral_recursion.symmetry_residual(item.phi, g, grid)
        for item in levels
    }
    result = {
        "seed": g.to_dict(),
        "levels": [
            {"level": item.level,
             "symmetry_residual": reports[f"level_{item.level}"].to_dict()}
            for item in levels
        ],
    }
    scans = reports if args.verify else {}
    columns = ["level", "x", "t"] + _entry_columns("phi", g.n) + _entry_columns("q", g.n)

    def rows():
        return np.vstack([_grid_table((np.full_like(X, item.level), X, T),
                                      item.phi.sample(grid), item.q_samples(grid))
                          for item in levels])

    return params, grid.to_dict(), result, scans, (columns, rows)


# --- verify spec files -------------------------------------------------------

def _spec_flag_tokens(key: str, value) -> list:
    flag = "--" + str(key).replace("_", "-").lstrip("-")
    if isinstance(value, list) and all(isinstance(v, (int, float)) for v in value):
        return [flag] + [repr(float(v)) for v in value]
    if isinstance(value, (list, dict)):
        return [flag, json.dumps(value)]
    if isinstance(value, bool):
        return [flag] if value else []
    return [flag, repr(value) if not isinstance(value, str) else value]


def _argv_from_spec(path: str) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"spec file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _UsageError("spec file must hold a JSON object")
    command = data.get("command")
    if (not isinstance(command, list) or not command
            or not all(isinstance(c, str) for c in command)):
        raise _UsageError('spec file needs "command": ["group", "subcommand"]')
    argv = list(command)
    for section in ("params", "grid"):
        block = data.get(section) or {}
        if not isinstance(block, dict):
            raise _UsageError(f'spec file section "{section}" must be an object')
        for key, value in block.items():
            argv.extend(_spec_flag_tokens(key, value))
    argv.append("--verify")
    return argv


# --- entry point -------------------------------------------------------------

@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by every call."""
    parser = _Parser(prog="btkit", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True, parser_class=_Parser)

    classic = groups.add_parser("classic", help="scalar BT solution generators")
    classic_subs = classic.add_subparsers(dest="sub", required=True, parser_class=_Parser)
    laplace = classic_subs.add_parser("laplace", help="harmonic conjugate pair")
    laplace.add_argument("--alpha", type=float, default=1.0)
    laplace.add_argument("--beta", type=float, default=0.0)
    laplace.add_argument("--gamma", type=float, default=0.0)
    liouville = classic_subs.add_parser("liouville", help="solution from the trivial seed")
    liouville.add_argument("--C", type=float, default=2.0)
    sine_gordon = classic_subs.add_parser("sine-gordon", help="kink from the vacuum seed")
    sine_gordon.add_argument("--a", type=float, default=1.0)
    sine_gordon.add_argument("--C", type=float, default=1.0)
    for sub in (laplace, liouville, sine_gordon):
        _add_grid2d_flags(sub)
        _add_output_flags(sub)

    em = groups.add_parser("em", help="conjugate plane-wave pairs")
    em_subs = em.add_subparsers(dest="sub", required=True, parser_class=_Parser)
    vacuum = em_subs.add_parser("vacuum", help="vacuum pair")
    medium = em_subs.add_parser("medium", help="non-conducting linear medium")
    conductor = em_subs.add_parser("conductor", help="attenuated pair in a conductor")
    _add_medium_flags(medium)
    _add_medium_flags(conductor)
    sigma = conductor.add_mutually_exclusive_group()
    sigma.add_argument("--sigma", type=float, help="conductivity, S/m")
    sigma.add_argument("--sigma-over-eps-omega", type=float,
                       help="loss tangent; sigma = value * epsilon * omega")
    for sub in (vacuum, medium, conductor):
        _add_em_flags(sub)
        _add_output_flags(sub)

    chiral = groups.add_parser("chiral", help="chiral-field recursion operator")
    chiral_subs = chiral.add_subparsers(dest="sub", required=True, parser_class=_Parser)
    residual = chiral_subs.add_parser("residual", help="field-equation scan of a seed")
    potential = chiral_subs.add_parser("potential", help="integrate the connection potential")
    hierarchy = chiral_subs.add_parser("hierarchy", help="build symmetry levels")
    for sub in (residual, potential, hierarchy):
        _add_matrix_flag(sub, "a", required=True)
        _add_matrix_flag(sub, "b", required=True)
    _add_matrix_flag(potential, "base", required=False)
    _add_matrix_flag(hierarchy, "m", required=True)
    hierarchy.add_argument("--levels", type=int, default=3)
    for sub in (residual, potential, hierarchy):
        _add_grid2d_flags(sub)
        _add_output_flags(sub)

    verify = groups.add_parser("verify", help="re-run the scans described by a JSON file")
    verify.add_argument("spec_file")
    return parser


_RUNNERS = {"classic": _run_classic, "em": _run_em, "chiral": _run_chiral}


def _write(chunks, path) -> None:
    """Write the strings ``chunks`` to ``path``, or to stdout when no path is given."""
    try:
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
    except OSError as exc:
        raise _UsageError(f"cannot write output: {exc}") from exc


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.group == "verify":
            return main(_argv_from_spec(args.spec_file))
        name = f"{args.group} {args.sub}"
        params, grid_dict, result, scans, (columns, rows) = _RUNNERS[args.group](args)
        block, passed = _verify_block(scans, TOLERANCES[name]) if args.verify else (None, True)
        payload = {"command": name, "params": params, "grid": grid_dict, "result": result,
                   "verify": block}
        if args.format in ("json", "both"):
            _write([_emit_json(payload), "\n"], args.output)
        if args.format in ("csv", "both"):
            table = rows()
            table[~np.isfinite(table)] = np.nan  # "%g" would write inf as inf
            row = ",".join(["%.17g"] * len(columns)) + "\n"
            _write(itertools.chain([",".join(columns) + "\n"],
                                   (row % tuple(cells.tolist()) for cells in table)),
                   args.csv_output)
    except (_UsageError, BtkitError) as exc:
        print(f"btkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, _UsageError) else EXIT_PRECONDITION
    return EXIT_OK if passed else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
