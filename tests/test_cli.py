"""End-to-end tests of the command-line front end.

Each test drives ``main`` with an argv list and inspects exit code,
stdout, or written files.  Determinism checks compare raw bytes.
"""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import btkit
from btkit import classic_bts, cli, maxwell_conductor, maxwell_vacuum
from btkit.chiral_recursion import (ExpSeedField, SymmetryCharacteristic, TabulatedField,
                                    chiral_defect_samples, chiral_residual, hierarchy,
                                    potential)
from btkit.cli import EXIT_OK, EXIT_PRECONDITION, EXIT_USAGE, EXIT_VERIFY, main
from btkit.errors import BtkitError
from btkit.maxwell_vacuum import WavePair
from btkit.media import VACUUM, MediumParams
from btkit.verify import Grid2D, Grid4D, ResidualReport

README = Path(__file__).resolve().parents[1] / "README.md"
A_RE = '[[0.1, 0.2], [0.0, -0.1]]'
B_RE = '[[0.3, 0.1], [0.0, 0.2]]'
M_RE = '[[0.0, 1.0], [0.0, 0.0]]'
# commuting 3 x 3 generators: B3 = A3 / 2 + I / 10
A3_RE = '[[0.1, 0.2, 0.0], [0.0, -0.1, 0.3], [0.0, 0.0, 0.05]]'
B3_RE = '[[0.15, 0.1, 0.0], [0.0, 0.05, 0.15], [0.0, 0.0, 0.125]]'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _scale_family(monkeypatch, family: str, factor: float) -> None:
    """Make the classic generator of ``family`` return ``factor`` times its field."""
    original = classic_bts._FAMILIES[family]
    monkeypatch.setitem(classic_bts._FAMILIES, family,
                        lambda p, x, t: factor * original(p, x, t))


def _src_env() -> dict:
    """The environment with this btkit first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(btkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_python(source: str):
    """Run ``source`` in a fresh interpreter that imports this btkit."""
    return subprocess.run([sys.executable, "-c", textwrap.dedent(source)],
                          capture_output=True, text=True, env=_src_env(), timeout=120)


def run_cli(*argv):
    """Run ``btkit`` in a fresh interpreter that turns RuntimeWarnings into errors."""
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "btkit.cli",
                           *argv], capture_output=True, text=True, env=_src_env(), timeout=120)


class TestExitCodes:
    def test_sine_gordon_verify_passes(self, capsys):
        code, out, _ = run(capsys, "classic", "sine-gordon", "--a", "1", "--C", "1",
                           "--verify")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verify"]["passed"] is True
        for scan in payload["verify"]["scans"].values():
            assert scan["max_abs"] < 1e-6

    def test_malformed_ratio_is_usage_error(self, capsys):
        code, _, err = run(capsys, "em", "conductor", "--epsilon", "1", "--mu", "1",
                           "--sigma-over-eps-omega", "bogus", "--omega", "1")
        assert code == EXIT_USAGE
        assert "invalid float" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "classic", "helmholtz")
        assert code == EXIT_USAGE

    def test_missing_omega_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "em", "vacuum")
        assert code == EXIT_USAGE

    def test_longitudinal_amplitude_is_precondition_error(self, capsys):
        code, _, err = run(capsys, "em", "vacuum", "--omega", "1e9",
                           "--tau", "0", "0", "1", "--e0-re", "0", "0", "1")
        assert code == EXIT_PRECONDITION
        assert "transverse" in err

    def test_zero_parameter_is_precondition_error(self, capsys):
        code, _, err = run(capsys, "classic", "sine-gordon", "--a", "0")
        assert code == EXIT_PRECONDITION
        assert "a" in err

    def test_noncommuting_seed_is_precondition_error(self, capsys):
        code, _, err = run(capsys, "chiral", "residual",
                           "--a-re", "[[0,1],[0,0]]", "--b-re", "[[0,0],[1,0]]")
        assert code == EXIT_PRECONDITION
        assert "commute" in err

    def test_failing_scan_exits_two(self, capsys, monkeypatch):
        # a generator that returns 1.5 u, which solves neither equation
        _scale_family(monkeypatch, "liouville_soliton", 1.5)
        code, out, err = run(capsys, "classic", "liouville", "--C", "2", "--verify")
        assert (code, err) == (EXIT_VERIFY, "")
        payload = json.loads(out)
        assert payload["verify"]["passed"] is False

    def test_huge_residual_is_a_verify_failure_not_a_traceback(self):
        # residuals near 1e188 overflowed sqrt(mean(v*v)) to inf; the pair
        # gains cubic defects 1e-6 alpha x^3 and 1e-6 alpha t^3, which every
        # scan reads (about 6e194 here)
        proc = run_python("""
            import sys
            from btkit import classic_bts
            from btkit.cli import main
            u = classic_bts._FAMILIES["harmonic_quadratic"]
            v = classic_bts._FAMILIES["harmonic_conjugate_quadratic"]
            classic_bts._FAMILIES.update(
                harmonic_quadratic=lambda p, x, t: u(p, x, t) + 1e-6 * p["alpha"] * x * x * x,
                harmonic_conjugate_quadratic=lambda p, x, t: (
                    v(p, x, t) + 1e-6 * p["alpha"] * t * t * t))
            sys.exit(main(["classic", "laplace", "--alpha", "1e200", "--verify"]))
        """)
        assert proc.returncode == EXIT_VERIFY
        assert proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert list(payload) == ["command", "params", "grid", "result", "verify"]
        assert payload["verify"]["passed"] is False
        for scan in payload["verify"]["scans"].values():
            assert 0.0 < scan["rms"] <= scan["max_abs"] < float("inf")

    @pytest.mark.parametrize("argv", [
        ["classic", "laplace", "--alpha", "nan"],
        ["classic", "liouville", "--C", "nan"],
        ["em", "vacuum", "--omega", "nan"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_non_finite_parameter_is_one_error_line(self, argv):
        # unchecked, each would compute its result, then fail to serialize the parameter
        proc = run_python(f"""
            import sys
            from btkit.cli import main
            sys.exit(main({argv!r}))
        """)
        assert proc.returncode == EXIT_PRECONDITION
        assert proc.stdout == ""
        assert proc.stderr.startswith("btkit: error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["em", "medium", "--omega", "1", "--epsilon-rel", "1e300", "--mu-rel", "1e300"],
         "epsilon * mu must be positive and finite"),
        (["em", "medium", "--omega", "1", "--epsilon", "1e-200", "--mu", "1e-200"],
         "epsilon * mu must be positive and finite"),
        (["em", "conductor", "--omega", "1", "--epsilon", "1e-200", "--mu", "1e-200",
          "--sigma", "1"], "epsilon * mu must be positive and finite"),
        (["em", "conductor", "--omega", "1e-154", "--epsilon-rel", "1e-154"],
         "k * k underflows to 0"),
    ], ids=["medium-overflow", "medium-underflow", "conductor-underflow",
            "k-squared-underflow"])
    def test_unrepresentable_medium_is_one_error_line(self, argv, message):
        # eps * mu over- or underflows although each factor is finite and
        # positive; or k * k underflows to 0, which the self-check divides by
        proc = run_python(f"""
            import sys
            from btkit.cli import main
            sys.exit(main({argv!r}))
        """)
        assert proc.returncode == EXIT_PRECONDITION
        assert proc.stdout == ""
        assert proc.stderr.startswith("btkit: error: " + message)
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["em", "medium", "--epsilon", "1", "--mu", "1e-48", "--omega", "1e-300"],
         "wavenumber is 0 or underflows to 0 (k=0.0, omega=1e-300): no wavelength to span"),
        (["em", "medium", "--epsilon", "1", "--mu", "1e-15", "--omega", "1e-300"],
         "wavelength 2 pi / k overflows the float range "
         "(k=3.162277660168379e-308, omega=1e-300)"),
        (["em", "vacuum", "--omega", "1e-310"],
         "wavelength 2 pi / k overflows the float range (k=3.33563e-319, omega=1e-310)"),
    ], ids=["k-underflow", "wavelength-overflow", "vacuum-wavelength-overflow"])
    def test_wave_with_no_grid_is_one_error_line_naming_k_and_omega(self, argv, message):
        # the grid refused these waves without naming them: "for_wave needs
        # positive wavenumber and omega", or "x bounds must satisfy min <
        # max, got [0.0, inf]"
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_PRECONDITION, "", f"btkit: error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["em", "vacuum", "--omega", "1", "--e0-re", "1e200", "0", "1e200", "--verify"],
         "amplitude is not transverse"),
        (["em", "medium", "--omega", "1", "--epsilon", "1e100", "--mu", "1e100",
          "--e0-re", "1e300", "0", "0"], "partner amplitude B0 overflows"),
        (["em", "medium", "--omega", "1", "--epsilon", "1e100", "--mu", "1e100",
          "--e0-re", "1e300", "0", "0", "--format", "csv"], "partner amplitude B0 overflows"),
        (["em", "vacuum", "--omega", "1", "--e0-re", "1.5e308", "1.5e308", "0", "--verify"],
         "normalization scale |E0| k = inf overflows"),
        (["chiral", "potential", "--a-re", "[[1e-152]]", "--b-re", "[[1e160]]",
          "--x-min", "-2e151", "--x-max", "2e151", "--t-min", "-1e-300", "--t-max", "1e-300"],
         "axis-ordered integrals overflow"),
        (["chiral", "hierarchy", "--a-re", "[[0]]", "--b-re", "[[0]]", "--m-re", "[[1]]",
          "--x-min", "-1e160", "--x-max", "1e160", "--verify"],
         "lattice spacing dx = 5e+158 is too wide to square"),
        (["chiral", "hierarchy", "--a-re", "[[0.1]]", "--b-re", "[[0.2]]", "--m-re", "[[1]]",
          "--t-min", "-1e-160", "--t-max", "1e-160", "--verify"],
         "lattice spacing dt = 5e-162 is too narrow to square\n"),
        (["chiral", "hierarchy", "--a-re", "[[0.1]]", "--b-re", "[[0.2]]", "--m-re", "[[1]]",
          "--t-min", "-1e-300", "--t-max", "1e-300", "--verify"],
         "lattice spacing dt = 5e-302 is too narrow to square\n"),
        (["chiral", "residual", "--a-re", "[[0.1]]", "--b-re", "[[0.2]]",
          "--t-min", "-1e-310", "--t-max", "1e-310", "--verify"],
         "lattice spacing dt = 5e-312 is not a normal float\n"),
        (["chiral", "potential", "--a-re", "[[1]]", "--b-re", "[[0]]",
          "--x-min", "-1e300", "--x-max", "1e300"], "matrix field is singular"),
        (["chiral", "potential", "--a-re", "[[2]]", "--b-re", "[[0]]",
          "--x-min", "-1e300", "--x-max", "1e300"], "matrix field is singular"),
        (["chiral", "residual", "--a-re", "[[1e200, 1e200], [1e200, 1e200]]",
          "--b-re", "[[1e200, 0], [0, -1e200]]"], "seed generators do not commute"),
        (["classic", "laplace", "--x-min", "-1e308", "--x-max", "1e308", "--verify"],
         "x span max - min overflows the float range, got [-1e+308, 1e+308]\n"),
        (["chiral", "residual", "--a-re", "[[0]]", "--b-re", "[[0]]",
          "--x-min", "-1e308", "--x-max", "1e308", "--verify"],
         "x span max - min overflows the float range, got [-1e+308, 1e+308]\n"),
        (["em", "vacuum", "--freq", "1e308"], "omega must be finite and positive, got inf\n"),
        (["em", "conductor", "--omega", "1e300", "--epsilon", "1", "--sigma-over-eps-omega",
          "1e300"], "conductivity must be finite and non-negative, got inf\n"),
        (["em", "conductor", "--omega", "1e9", "--sigma-over-eps-omega", "nan"],
         "conductivity must be finite and non-negative, got nan\n"),
    ], ids=["longitudinal-1e200", "partner-overflow-json", "partner-overflow-csv",
            "normalization-overflow", "potential-overflow", "hierarchy-wide-lattice",
            "hierarchy-narrow-lattice", "hierarchy-narrow-lattice-1e-300",
            "residual-subnormal-lattice",
            "potential-wide-lattice-seed-1", "potential-wide-lattice-seed-2",
            "commutator-overflow", "classic-span-overflow", "chiral-span-overflow",
            "omega-overflow", "loss-tangent-overflow", "loss-tangent-nan"])
    def test_overflowing_input_is_one_error_line(self, argv, message):
        # each once passed wrongly, wrote nan cells or ended in a traceback,
        # with a RuntimeWarning ahead of it
        proc = run_cli(*argv)
        assert proc.returncode == EXIT_PRECONDITION
        assert proc.stdout == ""
        assert proc.stderr.startswith("btkit: error: " + message)
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("e0", [["1e-320", "0", "0"], ["1e-310", "1e-310", "0"],
                                    ["0", "0", "0"]], ids=["1e-320", "1e-310-pair", "zero"])
    def test_tiny_transverse_amplitude_verifies_without_warnings(self, e0):
        # at 1e-320 four RuntimeWarnings once came ahead of a wrong exit-1
        # line that blamed a nan normalization scale.  --verify certifies
        # the printed B0: where it underflowed to 0 (1e-320) or lost digits
        # as a subnormal (1e-310) the run fails its scan, exit 2
        proc = run_cli("em", "vacuum", "--omega", "1e9", "--e0-re", *e0, "--verify")
        passes = e0[0] == "0"
        assert proc.returncode == (EXIT_OK if passes else EXIT_VERIFY)
        assert proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert payload["verify"]["passed"] is passes
        if e0[0] == "1e-320":
            assert payload["result"]["B0"] == {"re": [0, 0, 0], "im": [0, 0, 0]}
            assert payload["verify"]["scans"]["maxwell"]["max_abs"] == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("argv, message", [
        (["--e0-re", "1e-320", "0", "1e-320"], "amplitude is not transverse: "
         "tau . E0 = (1e-320+0j)"),
        (["--e0-re", "1e-302", "0", "1e-302"], "amplitude is not transverse: "
         "tau . E0 = (1e-302+0j)"),
        (["--tau", "1e200", "0", "1e200"],
         "propagation direction must be unit length: |tau| = 1.414213562373095e+200\n"),
        (["--tau", "0", "0", "1e300"],
         "propagation direction must be unit length: |tau| = 1e+300\n"),
    ], ids=["longitudinal-1e-320", "longitudinal-1e-302", "tau-1e200", "tau-1e300"])
    def test_extreme_wave_input_is_one_error_line(self, argv, message):
        # the huge directions once printed numpy's overflow warning first
        proc = run_cli("em", "vacuum", "--omega", "1e9", *argv, "--verify")
        assert proc.returncode == EXIT_PRECONDITION
        assert proc.stdout == ""
        assert proc.stderr.startswith("btkit: error: " + message)
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("output", [["--verify"], ["--format", "csv"]],
                             ids=["verify", "csv"])
    def test_grid_too_large_to_allocate_is_one_error_line(self, output):
        # a 3000^4 mesh is 589 TiB: no 64-bit address space maps it, so the
        # allocator refuses at once; the first CSV block, and the mesh it
        # needs, come before the header
        proc = run_cli("em", "vacuum", "--omega", "1e9", "--samples", "3000", *output)
        assert proc.returncode == EXIT_PRECONDITION
        assert proc.stdout == ""
        assert proc.stderr.startswith("btkit: error: Unable to allocate 589. TiB for an array")
        assert proc.stderr.count("\n") == 1

    def test_non_finite_table_entry_writes_nothing(self, capsys, monkeypatch, tmp_path):
        # the whole payload is checked before its first piece is written
        table = np.array([[[0.5, 1.0]], [[2.0, -np.inf]]])
        monkeypatch.setitem(cli._RUNNERS, "classic", lambda args: (
            {}, {}, {"before": [0.5], "table": table, "after": 1.0}, {}, (["x"], None)))
        old = tmp_path / "old.json"
        old.write_text("kept\n")
        for output in ([], ["--output", str(old)]):
            code, out, err = run(capsys, "classic", "laplace", *output)
            assert (code, out) == (EXIT_PRECONDITION, "")
            assert err == "btkit: error: non-finite value -inf cannot be serialized\n"
        assert old.read_text() == "kept\n"

    @pytest.mark.parametrize("error, message", [
        (MemoryError(), "out of memory"),
        (MemoryError("no room for the mesh"), "no room for the mesh"),
    ], ids=["bare", "with-message"])
    def test_memory_error_in_a_runner_is_one_error_line(self, capsys, monkeypatch, error,
                                                         message):
        def runner(args):
            raise error
        monkeypatch.setitem(cli._RUNNERS, "chiral", runner)
        code, out, err = run(capsys, "chiral", "residual", "--a-re", A_RE, "--b-re", B_RE)
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err == f"btkit: error: {message}\n"

    def test_non_finite_json_value_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._RUNNERS, "classic", lambda args: (
            {}, {}, {"value": float("-inf")}, {}, (["x"], None)))
        code, out, err = run(capsys, "classic", "laplace")
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == "btkit: error: non-finite value -inf cannot be serialized\n"

    @pytest.mark.parametrize("base", ["[[1]]", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"],
                             ids=["1x1", "3x3"])
    def test_misshaped_base_is_precondition_error(self, capsys, base):
        code, out, err = run(capsys, "chiral", "potential", "--a-re", A_RE, "--b-re", B_RE,
                             "--base-re", base)
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err.startswith("btkit: error: base must be 2 x 2")

    def test_imaginary_part_of_another_shape_is_precondition_error(self, capsys):
        code, out, err = run(capsys, "chiral", "residual", "--a-re", "[[1,2],[3,4]]",
                             "--a-im", "[[1]]", "--b-re", "[[1,0],[0,1]]")
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err == "btkit: error: A: real part has shape (2, 2), imaginary (1, 1)\n"

    def test_overflowing_seed_is_one_error_line(self):
        # exp(800) overflows inside expm; the seed is rejected as singular
        # with no RuntimeWarning printed ahead of the error line
        proc = run_python("""
            import sys
            from btkit.cli import main
            sys.exit(main(["chiral", "residual", "--a-re", "[[800.0, 0.0], [0.0, 1.0]]",
                           "--b-re", "[[0.0, 0.0], [0.0, 0.0]]", "--verify"]))
        """)
        assert proc.returncode == EXIT_PRECONDITION
        assert proc.stdout == ""
        assert proc.stderr.startswith("btkit: error: ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


class TestNegativeNumbers:
    def test_exponent_form_is_a_value_not_an_option(self, capsys):
        code, out, _ = run(capsys, "em", "vacuum", "--omega", "1e9",
                           "--e0-re", "-1.5E+00", "0", "0", "--e0-im", "-5.3e-05", "0.2", "0")
        assert code == EXIT_OK
        params = json.loads(out)["params"]
        assert params["E0_re"] == [-1.5, 0.0, 0.0]
        assert params["E0_im"] == [-5.3e-05, 0.2, 0.0]

    @pytest.mark.parametrize("value", ["-2e0", "-2.e0", "-.5e1", "-1e-300"])
    def test_grid_bounds_in_exponent_form(self, capsys, value):
        code, out, _ = run(capsys, "classic", "liouville", "--x-min", value)
        assert code == EXIT_OK
        assert json.loads(out)["grid"]["x_min"] == float(value)

    def test_unknown_dash_token_is_still_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "classic", "liouville", "--x-min", "-e5")
        assert code == EXIT_USAGE


class TestDeterminism:
    def test_repeated_invocations_are_byte_identical(self, capsys):
        argv = ("classic", "liouville", "--C", "2", "--verify")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_float_formatting_is_fixed(self, capsys):
        _, out, _ = run(capsys, "classic", "laplace")
        assert '"h": 0.0001' in out
        assert out.endswith("\n")

    def test_key_order_is_fixed(self, capsys):
        _, out, _ = run(capsys, "classic", "liouville")
        payload = json.loads(out)
        assert list(payload) == ["command", "params", "grid", "result", "verify"]
        assert payload["verify"] is None

    def test_a_row_of_floats_is_emitted_as_each_float_alone(self):
        # the one-call row format against the value-by-value one
        row = [0.1, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -123456789012345678.0, 1e16, 1e-5, 1.0, 3.0]
        want = "[" + ", ".join(cli._emit_json(v) for v in row) + "]"
        for value in (row, tuple(row), [row, row[:3]], {"re": [row], "im": [[]]}):
            assert json.loads(cli._emit_json(value)) == json.loads(json.dumps(value))
        assert cli._emit_json(row) == want
        # numpy scalars and mixed rows take the value-by-value path
        mixed = [np.float64(0.1), np.int64(3), 2, True, None, 0.5]
        assert cli._emit_json(mixed) == "[0.10000000000000001, 3, 2, true, null, 0.5]"

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_float_in_a_row_is_the_same_error(self, bad):
        with pytest.raises(BtkitError, match=f"^non-finite value {bad!r} cannot be serialized$"):
            cli._emit_json([1.0, bad, 2.0])


def _reference_table(coords, *blocks):
    """The expected CSV body, built entry by entry in node order.

    Columns are the coordinates, then each block's entries at the node, a
    complex entry as its real then its imaginary part.
    """
    n = np.size(coords[0])
    columns = [np.ravel(c) for c in coords]
    for block in blocks:
        flat = np.asarray(block).reshape(n, -1)
        for j in range(flat.shape[1]):
            entry = flat[:, j]
            columns += [entry.real, entry.imag] if np.iscomplexobj(entry) else [entry]
    return np.column_stack(columns)


def _entries(prefix, n):
    return [f"{prefix}_{r}_{c}_{part}" for r in range(n) for c in range(n)
            for part in ("re", "im")]


def _classic_pair_table():
    grid = Grid2D(nx=7, nt=5)
    X, T = grid.mesh()
    u = classic_bts.harmonic_quadratic(1.0, 2.0, -3.0)
    v = classic_bts.harmonic_conjugate_quadratic(1.0, 2.0, -3.0)
    argv = ["classic", "laplace", "--alpha", "1", "--beta", "2", "--gamma", "-3",
            "--nx", "7", "--nt", "5"]
    return argv, ["x", "t", "u", "v"], _reference_table((X, T), u(X, T), v(X, T))


def _single_field_table():
    grid = Grid2D(nx=9, nt=6)
    X, T = grid.mesh()
    u = classic_bts.liouville_from_trivial(1.0)
    expected = _reference_table((X, T), u(X, T))
    assert np.isnan(expected).any()  # C = 1 puts the blow-up line on the grid
    argv = ["classic", "liouville", "--C", "1", "--nx", "9", "--nt", "6"]
    return argv, ["x", "t", "u"], expected


def _em_table():
    pair = WavePair(np.array([1.0, 0.0, 0.0]) + 1j * np.array([0.0, 0.5, 0.0]),
                    [0.0, 0.0, 1.0], 1e9)
    meshes = Grid4D.for_wave(pair.k, 1e9, samples=3).mesh()
    R = np.stack(meshes[:3], axis=-1)
    argv = ["em", "vacuum", "--omega", "1e9", "--e0-im", "0", "0.5", "0", "--samples", "3"]
    header = ["x", "y", "z", "t"] + [f"{f}{c}_{part}" for f in "EB" for c in "xyz"
                                     for part in ("re", "im")]
    return argv, header, _reference_table(meshes, pair.E(R, meshes[3]), pair.B(R, meshes[3]))


def _chiral_residual_table():
    grid = Grid2D(nx=8, nt=6)
    g = ExpSeedField(json.loads(A_RE), json.loads(B_RE))
    argv = ["chiral", "residual", "--a-re", A_RE, "--b-re", B_RE, "--nx", "8", "--nt", "6"]
    return (argv, ["x", "t", "residual"],
            _reference_table(grid.mesh(), chiral_defect_samples(g, grid)))


def _chiral_potential_table():
    grid = Grid2D(nx=8, nt=6)
    g = ExpSeedField(json.loads(A_RE), json.loads(B_RE))
    base = np.array([[1.0, 2.0], [3.0, 4.0]]) + 1j * np.array([[0.5, 0.0], [0.0, -0.25]])
    argv = ["chiral", "potential", "--a-re", A_RE, "--b-re", B_RE, "--nx", "8", "--nt", "6",
            "--base-re", "[[1, 2], [3, 4]]", "--base-im", "[[0.5, 0], [0, -0.25]]"]
    return (argv, ["x", "t"] + _entries("X", 2),
            _reference_table(grid.mesh(), potential(g, grid, base=base).values))


def _hierarchy_table():
    grid = Grid2D(nx=8, nt=8)
    X, T = grid.mesh()
    m_re = "[[0, 1, 0], [0, 0, 1], [0.5, 0, 0]]"
    m_im = "[[0.1, 0, 0], [0, -0.2, 0], [0, 0, 0.3]]"
    g = ExpSeedField(json.loads(A3_RE), json.loads(B3_RE))
    M = np.array(json.loads(m_re)) + 1j * np.array(json.loads(m_im))
    levels = hierarchy(g, M, 2, grid)
    argv = ["chiral", "hierarchy", "--a-re", A3_RE, "--b-re", B3_RE, "--m-re", m_re,
            "--m-im", m_im, "--levels", "2", "--nx", "8", "--nt", "8"]
    expected = np.vstack([
        _reference_table((np.full(X.shape, item.level), X, T),
                         item.phi.sample(grid), item.q_samples(grid))
        for item in levels
    ])
    return argv, ["level", "x", "t"] + _entries("phi", 3) + _entries("q", 3), expected


CSV_TABLES = {
    "classic pair": _classic_pair_table,
    "single field": _single_field_table,
    "em": _em_table,
    "chiral residual": _chiral_residual_table,
    "chiral potential": _chiral_potential_table,
    "chiral hierarchy": _hierarchy_table,
}


class TestCsv:
    def test_classic_pair_header_and_shape(self, capsys):
        _, out, _ = run(capsys, "classic", "laplace", "--alpha", "1", "--beta", "2",
                        "--gamma", "3", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "x,t,u,v"
        assert len(lines) == 1 + 41 * 41
        x, t, u, v = (float(c) for c in lines[1].split(","))
        assert u == pytest.approx(x * x - t * t + 2 * x + 3 * t)
        assert v == pytest.approx(2 * x * t - 3 * x + 2 * t)

    def test_single_field_header(self, capsys):
        _, out, _ = run(capsys, "classic", "liouville", "--format", "csv")
        assert out.split("\n", 1)[0] == "x,t,u"

    def test_em_header(self, capsys):
        _, out, _ = run(capsys, "em", "vacuum", "--omega", "1e9", "--samples", "3",
                        "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == ("x,y,z,t,Ex_re,Ex_im,Ey_re,Ey_im,Ez_re,Ez_im,"
                            "Bx_re,Bx_im,By_re,By_im,Bz_re,Bz_im")
        assert len(lines) == 1 + 3 ** 4
        pair = WavePair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1e9)
        meshes = Grid4D.for_wave(pair.k, 1e9, samples=3).mesh()
        idx = (1, 2, 0, 1)
        r = np.array([m[idx] for m in meshes[:3]])
        cells = [float(c) for c in lines[1 + np.ravel_multi_index(idx, (3,) * 4)].split(",")]
        assert cells[:4] == [m[idx] for m in meshes]
        t = meshes[3][idx]
        for offset, value, scale in ((4, pair.E(r, t), pair.e_scale),
                                     (10, pair.B(r, t), pair.b_scale)):
            expected = [part for v in value for part in (v.real, v.imag)]
            np.testing.assert_allclose(cells[offset:offset + 6], expected,
                                       rtol=0, atol=1e-12 * scale)

    def test_chiral_residual_header(self, capsys):
        _, out, _ = run(capsys, "chiral", "residual", "--a-re", A_RE, "--b-re", B_RE,
                        "--format", "csv", "--nx", "8", "--nt", "8")
        lines = out.strip().split("\n")
        assert lines[0] == "x,t,residual"
        assert len(lines) == 1 + 64

    def test_hierarchy_csv_has_level_column(self, capsys):
        _, out, _ = run(capsys, "chiral", "hierarchy", "--a-re", A_RE, "--b-re", B_RE,
                        "--m-re", M_RE, "--levels", "1", "--format", "csv",
                        "--nx", "8", "--nt", "8")
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header[:3] == ["level", "x", "t"]
        assert "phi_0_0_re" in header and "q_1_1_im" in header
        assert len(lines) == 1 + 2 * 64
        grid = Grid2D(nx=8, nt=8)
        g = ExpSeedField(json.loads(A_RE), json.loads(B_RE))
        item = hierarchy(g, json.loads(M_RE), 1, grid)[1]
        cells = [float(c) for c in lines[1 + 64 + 3 * 8 + 5].split(",")]
        assert cells[:3] == [1.0, grid.xs[3], grid.ts[5]]
        for offset, matrix in ((3, item.phi.sample(grid)), (11, item.q_samples(grid))):
            entries = matrix[3, 5].ravel()
            assert cells[offset:offset + 8] == [p for v in entries for p in (v.real, v.imag)]

    def test_cells_are_17_significant_digits_and_non_finite_cells_nan(self, capsys,
                                                                        monkeypatch):
        values = [0.1, -0.0, 5e-324, 1.7976931348623157e308, np.nan, np.inf, -np.inf]
        columns = [f"c{k}" for k in range(len(values))]
        monkeypatch.setitem(cli._RUNNERS, "classic", lambda args: (
            {}, {}, {}, {}, (columns, lambda: iter([np.array([values, values[::-1]])]))))
        code, out, _ = run(capsys, "classic", "laplace", "--format", "csv")
        assert code == EXIT_OK
        cells = [format(v, ".17g") if np.isfinite(v) else "nan" for v in values]
        assert cells[:4] == ["0.10000000000000001", "-0", "4.9406564584124654e-324",
                             "1.7976931348623157e+308"]
        assert out == "\n".join([",".join(columns), ",".join(cells),
                                 ",".join(cells[::-1])]) + "\n"

    @pytest.mark.parametrize("kind", CSV_TABLES)
    def test_rows_match_library_in_node_order(self, capsys, kind):
        argv, header, expected = CSV_TABLES[kind]()
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == EXIT_OK
        lines = out.split("\n")
        assert lines[0].split(",") == header
        assert lines[-1] == ""
        rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:-1]])
        assert rows.shape == expected.shape
        np.testing.assert_array_equal(rows, expected)


# The records' hand-written dicts from before they serialized with
# dataclasses.asdict, kept as the reference for the JSON bytes.
def _reference_report(r):
    return {"max_abs": r.max_abs, "rms": r.rms, "n_points": r.n_points,
            "worst_point": list(r.worst_point), "n_singular": r.n_singular}


def _reference_grid4d(g):
    return {"x_min": g.x_min, "x_max": g.x_max, "y_min": g.y_min, "y_max": g.y_max,
            "z_min": g.z_min, "z_max": g.z_max, "t_min": g.t_min, "t_max": g.t_max,
            "nx": g.nx, "ny": g.ny, "nz": g.nz, "nt": g.nt}


def _reference_medium(m):
    return {"epsilon": m.epsilon, "mu": m.mu, "sigma": m.sigma}


def _reference_dispersion(d):
    return {"k": d.k, "s": d.s, "phi": d.phi, "omega": d.omega, "skin_depth": d.skin_depth}


def _records():
    pair = WavePair([1.0, 0.5j, 0.0], [0.0, 0.0, 1.0], 1e9)
    grid = pair.default_grid(5)
    yield _reference_report, maxwell_vacuum.maxwell_residual(pair, grid)
    yield _reference_report, classic_bts.liouville_residual(
        classic_bts.liouville_from_trivial(0.5), Grid2D(nx=9, nt=9))
    yield _reference_report, ResidualReport(1.0, 0.5, 4, (0.0, 0.0), 2)
    yield _reference_grid4d, grid
    yield _reference_grid4d, Grid4D(0, 1, 0, 2, 0, 3, -1, 1, 5, 6, 7, 8)
    yield _reference_grid4d, Grid4D(0, 1, 0, 1, 0, 1, 0, 1e-9)
    for medium in (VACUUM, MediumParams.relative(2.25, 1.0, 4.0), MediumParams(3, 1, 0)):
        yield _reference_medium, medium
        yield _reference_dispersion, maxwell_conductor.dispersion_solve(medium, 1e9)


class TestRecordJson:
    @pytest.mark.parametrize("reference, record", list(_records()))
    def test_record_json_bytes_match_the_hand_written_dicts(self, reference, record):
        assert cli._emit_json(record.to_dict()) == cli._emit_json(reference(record))


class TestJsonOnlyRuns:
    """The CSV table is computed only when CSV is written."""

    def test_hierarchy_computes_no_characteristics(self, capsys, monkeypatch):
        calls = []
        q_samples = SymmetryCharacteristic.q_samples
        monkeypatch.setattr(SymmetryCharacteristic, "q_samples",
                            lambda item, grid: calls.append(item) or q_samples(item, grid))
        code, _, _ = run(capsys, "chiral", "hierarchy", "--a-re", A_RE, "--b-re", B_RE,
                         "--m-re", M_RE, "--nx", "8", "--nt", "8", "--verify")
        assert code == EXIT_OK
        assert calls == []

    def test_classic_evaluates_fields_only_for_its_scans(self, capsys, monkeypatch):
        calls = []
        evaluate = classic_bts.ScalarField2D.__call__
        monkeypatch.setattr(classic_bts.ScalarField2D, "__call__",
                            lambda field, x, t: calls.append(field) or evaluate(field, x, t))
        code, _, _ = run(capsys, "classic", "laplace", "--verify")
        assert code == EXIT_OK
        # Cauchy-Riemann 8 and two Laplacians of 5 (tests/test_verify.py counts)
        assert len(calls) <= 8 + 5 + 5


class TestCsvOnlyRuns:
    """The potential's JSON node table is listed only when JSON is written."""

    def test_potential_lists_its_table_only_for_json(self, capsys, monkeypatch):
        calls = []
        to_dict = TabulatedField.to_dict
        monkeypatch.setattr(TabulatedField, "to_dict",
                            lambda field: calls.append(field) or to_dict(field))
        argv = ["chiral", "potential", "--a-re", A3_RE, "--b-re", B3_RE,
                "--nx", "12", "--nt", "10", "--verify", "--format"]
        outputs = {}
        for fmt in ("json", "csv", "both"):
            calls.clear()
            code, outputs[fmt], err = run(capsys, *argv, fmt)
            assert (code, err) == (EXIT_OK, "")
            assert len(calls) == (0 if fmt == "csv" else 1)
        assert outputs["csv"].startswith("x,t,X_0_0_re,")
        assert outputs["both"] == outputs["json"] + outputs["csv"]


class TestChiralResidual:
    def test_report_matches_library_scan(self, capsys):
        grid = Grid2D(nx=12, nt=12)
        _, out, _ = run(capsys, "chiral", "residual", "--a-re", A_RE, "--b-re", B_RE,
                        "--nx", "12", "--nt", "12", "--verify")
        payload = json.loads(out)
        g = ExpSeedField(json.loads(A_RE), json.loads(B_RE))
        expected = chiral_residual(g, grid).to_dict()
        expected["worst_point"] = list(expected["worst_point"])
        assert payload["result"]["report"] == expected
        assert payload["verify"]["scans"]["chiral"] == expected


class TestChiralPotential:
    def test_a_spacing_too_wide_to_square_is_integrated(self):
        # the integral scales its product by dx and squares nothing: the zero
        # seed's potential is zero on any lattice
        proc = run_cli("chiral", "potential", "--a-re", "[[0]]", "--b-re", "[[0]]",
                       "--x-min", "-1e300", "--x-max", "1e300", "--verify")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        result = json.loads(proc.stdout)["result"]
        assert result["path_disagreement"] == 0.0
        assert not np.any(result["potential"]["values"]["re"])

    def test_payload_is_the_library_field(self, capsys):
        grid = Grid2D(nx=12, nt=10)
        _, out, _ = run(capsys, "chiral", "potential", "--a-re", A3_RE, "--b-re", B3_RE,
                        "--nx", "12", "--nt", "10")
        payload = json.loads(out)
        pot = potential(ExpSeedField(json.loads(A3_RE), json.loads(B3_RE)), grid)
        assert payload["result"]["path_disagreement"] == pot.path_disagreement
        # to_dict hands over arrays; the payload is their JSON, a row per node
        assert payload["result"]["potential"] == json.loads(cli._emit_json(pot.to_dict()))
        rows = pot.values.reshape(grid.nx * grid.nt, -1)
        assert payload["result"]["potential"]["values"] == {"re": rows.real.tolist(),
                                                            "im": rows.imag.tolist()}

    def test_a_large_table_is_written_without_a_whole_copy(self, capsys, tmp_path):
        # 321 x 321 nodes of 2 x 2 matrices: the table as lists and as one
        # string peaked at 70.6 MB here, against 30.3 MB written slab by slab
        out_json = tmp_path / "potential.json"
        argv = ["chiral", "potential", "--a-re", A_RE, "--b-re", B_RE, "--nx", "321",
                "--nt", "321", "--output", str(out_json)]
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (EXIT_OK, "", "")
        values = json.loads(out_json.read_text())["result"]["potential"]["values"]
        assert len(values["re"]) == len(values["im"]) == 321 ** 2
        assert peak < 45 * 2 ** 20


def _readme_examples():
    """Each command of the README's example block, continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    block = text.split("### Examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (line.strip() for line in block.replace("\\\n", " ").splitlines())
    return [shlex.split(line) for line in lines if line and not line.startswith("#")]


README_EXAMPLES = _readme_examples()


class TestReadmeExamples:
    def test_examples_are_btkit_commands(self):
        assert len(README_EXAMPLES) == 9
        assert all(argv[0] == "btkit" for argv in README_EXAMPLES)

    @pytest.mark.parametrize("argv", README_EXAMPLES, ids=lambda argv: " ".join(argv[1:3]))
    def test_example_exits_zero_with_documented_keys(self, capsys, argv):
        code, out, err = run(capsys, *argv[1:])
        assert code == EXIT_OK, err
        payload = json.loads(out.splitlines()[0])
        assert list(payload) == ["command", "params", "grid", "result", "verify"]
        if "--verify" not in argv:
            assert payload["verify"] is None
            return
        assert list(payload["verify"]) == ["tolerance", "passed", "scans"]
        assert payload["verify"]["scans"]
        for scan in payload["verify"]["scans"].values():
            assert list(scan) == ["max_abs", "rms", "n_points", "worst_point", "n_singular"]


CHIRAL_VERIFY = (
    ["chiral", "residual", "--a-re", A_RE, "--b-re", B_RE, "--nx", "8", "--nt", "8", "--verify"],
    ["chiral", "potential", "--a-re", A_RE, "--b-re", B_RE, "--nx", "8", "--nt", "8",
     "--verify"],
    ["chiral", "hierarchy", "--a-re", A_RE, "--b-re", B_RE, "--m-re", M_RE, "--levels", "2",
     "--nx", "8", "--nt", "8", "--verify"],
)


# the benchmark's usage-error calls (bench/workloads.py, usage_op)
USAGE_ERRORS = (
    ["classic", "laplace", "--alpha", "abc"],
    ["classic", "liouville", "--C", "1,5"],
    ["em", "vacuum", "--e0-re", "1", "0", "0"],
    ["em", "conductor", "--freq", "1e6", "--sigma", "oops"],
    ["chiral", "residual", "--a-re", "[[0.1, 0.2]", "--b-re", "[[0.3]]"],
    ["classic", "wave"],
    ["verify", "missing-spec.json"],
    ["classic", "liouville", "--h", "2e-4", "--verify"],
    ["em", "vacuum", "--omega", "1e9", "--alpha", "0.3"],
)
# a matrix flag whose entry is not a JSON number: argv, the flag, the entry shown
MATRIX_ENTRY_ERRORS = (
    (["chiral", "residual", "--a-re", '[["1"]]', "--b-re", "[[1]]"], "--a-re", '"1"'),
    (["chiral", "residual", "--a-re", "[[true]]", "--b-re", "[[1]]"], "--a-re", "true"),
    (["chiral", "residual", "--a-re", "[[1]]", "--b-re", "[[null]]"], "--b-re", "null"),
    (["chiral", "hierarchy", "--a-re", "[[1]]", "--b-re", "[[1]]", "--m-re", '"x"'],
     "--m-re", '"x"'),
    (["chiral", "potential", "--a-re", "[[1]]", "--b-re", "[[1]]", "--base-re",
      '[[{"re": 1}]]'], "--base-re", '{"re": 1}'),
    (["chiral", "residual", "--a-re", "[[1]]", "--b-re", "[[1]]", "--b-im", "[[false]]"],
     "--b-im", "false"),
)
GROUP_FAMILIES = {"classic": {"classic_bts"}, "em": {"maxwell_vacuum", "maxwell_conductor"},
                  "chiral": {"chiral_recursion"}}
FAMILIES = set().union(*GROUP_FAMILIES.values())


def imports_logged_by(*argv):
    """Exit code of a fresh ``python -X importtime -m btkit.cli ARGV`` and its import log.

    The log names each module imported by an import statement's own
    machinery: ``numpy`` and its submodules, but not a ``from . import``
    of a btkit module.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "btkit.cli", *argv],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    return proc.returncode, [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                             if line.startswith("import time:") and "|" in line]


def modules_loaded_by(*argv):
    """Exit code of a fresh process that runs ``btkit.cli`` as ``-m`` does, and its modules.

    The modules are the keys of ``sys.modules`` at exit, btkit's without
    their package prefix (``classic_bts``).
    """
    source = f"""
        import atexit, json, runpy, sys
        atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.__stderr__))
        sys.argv[1:] = {list(argv)!r}
        runpy.run_module("btkit.cli", run_name="__main__", alter_sys=True)
    """
    proc = run_python(source)
    names = json.loads(proc.stderr.splitlines()[-1])
    return proc.returncode, {name.removeprefix("btkit.") for name in names}


class TestImportBoundary:
    def test_no_command_loads_scipy(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"command": ["classic", "liouville"],
                                    "params": {"C": 2.0}}))
        proc = run_python(f"""
            import contextlib, io, json, sys
            import btkit
            from btkit.cli import main
            seen = [["import btkit", 0, "scipy" in sys.modules]]
            for argv in (["classic", "laplace", "--nx", "8", "--nt", "8", "--verify"],
                         ["em", "vacuum", "--omega", "1e9", "--samples", "3", "--verify"],
                         ["verify", {str(spec)!r}],
                         *{list(CHIRAL_VERIFY)!r}):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                seen.append([" ".join(argv[:2]), code, "scipy" in sys.modules])
            print(json.dumps(seen))
        """)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            ["import btkit", 0, False],
            ["classic laplace", EXIT_OK, False],
            ["em vacuum", EXIT_OK, False],
            ["verify " + str(spec), EXIT_OK, False],
            ["chiral residual", EXIT_OK, False],
            ["chiral potential", EXIT_OK, False],
            ["chiral hierarchy", EXIT_OK, False],
        ]

    def test_usage_errors_exit_before_numpy_loads(self):
        for argv in USAGE_ERRORS:
            code, logged = imports_logged_by(*argv)
            assert code == EXIT_USAGE, argv
            assert "btkit" in logged and "numpy" not in logged, argv
            code, loaded = modules_loaded_by(*argv)
            assert code == EXIT_USAGE, argv
            assert loaded & ({"numpy"} | FAMILIES) == set(), argv

    @pytest.mark.parametrize("argv, flag, entry", MATRIX_ENTRY_ERRORS,
                             ids=[f"{flag} {entry}" for _, flag, entry in MATRIX_ENTRY_ERRORS])
    def test_a_matrix_entry_that_is_not_a_number_exits_64_before_numpy(self, argv, flag,
                                                                         entry):
        # "1" and true were read as the number 1; "x" and null failed in numpy
        code, logged = imports_logged_by(*argv)
        assert code == EXIT_USAGE
        assert "btkit" in logged and "numpy" not in logged
        code, loaded = modules_loaded_by(*argv)
        assert code == EXIT_USAGE
        assert loaded & ({"numpy"} | FAMILIES) == set()
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert proc.stderr.endswith(f"error: argument {flag}: not a JSON number: {entry}\n")

    @pytest.mark.parametrize("matrix, message", [
        ("[[1, 2]]", "A must be a square matrix, got shape (1, 2)"),
        ("7", "A must be a square matrix, got shape ()"),
        ("[[1], [2, 3]]", "A: setting an array element with a sequence"),
    ], ids=["row", "scalar", "ragged"])
    def test_a_matrix_of_numbers_in_the_wrong_shape_stays_exit_1(self, matrix, message):
        proc = run_cli("chiral", "residual", "--a-re", matrix, "--b-re", "[[1]]")
        assert (proc.returncode, proc.stdout) == (EXIT_PRECONDITION, "")
        assert proc.stderr.startswith("btkit: error: " + message)

    def test_import_btkit_loads_no_family_and_no_numpy(self):
        proc = run_python("""
            import json, sys
            import btkit
            print(json.dumps(sorted(sys.modules)))
        """)
        loaded = set(json.loads(proc.stdout))
        assert {"btkit", "numpy"} & loaded == {"btkit"}
        assert {name for name in loaded if name.startswith("btkit.")} == set()

    @pytest.mark.parametrize("argv", [
        *(["classic", sub, "--nx", "8", "--nt", "8"] for sub in ("laplace", "liouville",
                                                                "sine-gordon")),
        *(["em", sub, "--omega", "1e9", "--samples", "3"] for sub in ("vacuum", "medium",
                                                                     "conductor")),
        *(argv[:-1] for argv in CHIRAL_VERIFY),
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_each_group_loads_only_its_family(self, argv):
        for args in (argv, argv + ["--verify", "--format", "both"]):
            code, loaded = modules_loaded_by(*args)
            assert code == EXIT_OK
            assert loaded & FAMILIES == GROUP_FAMILIES[argv[0]]

    @pytest.mark.parametrize("command, params", [
        (["classic", "liouville"], {"C": 2.0}),
        (["em", "vacuum"], {"omega": 1e9, "samples": 3}),
        (["chiral", "residual"], {"a_re": [[0.1, 0.2], [0.0, -0.1]],
                                  "b_re": [[0.3, 0.1], [0.0, 0.2]]}),
    ], ids=["classic", "em", "chiral"])
    def test_spec_file_loads_only_the_family_it_names(self, tmp_path, command, params):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"command": command, "params": params}))
        code, loaded = modules_loaded_by("verify", str(spec))
        assert code == EXIT_OK
        assert loaded & FAMILIES == GROUP_FAMILIES[command[0]]

    def test_chiral_commands_run_with_scipy_unimportable(self):
        # a None entry in sys.modules makes every scipy import raise ImportError
        proc = run_python(f"""
            import contextlib, io, json, sys
            sys.modules["scipy"] = None
            from btkit.cli import main
            seen = []
            for argv in {list(CHIRAL_VERIFY)!r}:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                seen.append([argv[1], code, list(json.loads(out.getvalue()))])
            print(json.dumps(seen))
        """)
        assert proc.returncode == 0, proc.stderr
        envelope = ["command", "params", "grid", "result", "verify"]
        assert json.loads(proc.stdout) == [[name, EXIT_OK, envelope]
                                           for name in ("residual", "potential", "hierarchy")]


class TestRemovedInputs:
    """No flag or variable sets what no computation reads, and no flag is abbreviated."""

    @pytest.mark.parametrize("argv", [
        ("classic", "liouville", "--verify"),
        ("em", "vacuum", "--omega", "1e9", "--verify", "--format", "both"),
        ("chiral", "residual", "--a-re", A_RE, "--b-re", B_RE, "--verify"),
    ], ids=lambda argv: argv[0])
    def test_btkit_h_changes_no_output(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("BTKIT_H", raising=False)
        plain = run(capsys, *argv)
        monkeypatch.setenv("BTKIT_H", "tiny")
        assert run(capsys, *argv) == plain
        assert plain[0] == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ("classic", "liouville", "--h", "2e-4", "--verify"),
        ("em", "vacuum", "--omega", "1e9", "--h", "2e-4"),
        ("chiral", "residual", "--a-re", A_RE, "--b-re", B_RE, "--h", "2e-4", "--verify"),
        ("em", "vacuum", "--omega", "1e9", "--alpha", "0.3"),
        ("em", "conductor", "--omega", "1e9", "--alpha", "0", "--sigma", "1"),
        ("classic", "laplace", "--h", "2e-4"),
        ("classic", "sine-gordon", "--h", "1e-3", "--verify"),
        ("em", "medium", "--omega", "1e9", "--h", "2e-4"),
        ("em", "conductor", "--omega", "1e9", "--sigma", "1", "--h", "2e-4"),
        ("chiral", "potential", "--a-re", A_RE, "--b-re", B_RE, "--h", "2e-4"),
        ("chiral", "hierarchy", "--a-re", A_RE, "--b-re", B_RE, "--m-re", M_RE, "--h", "2e-4"),
        ("em", "medium", "--omega", "1e9", "--alpha", "0.3"),
    ], ids=["classic-h", "em-h", "chiral-h", "vacuum-alpha", "conductor-alpha",
            "laplace-h", "sine-gordon-h", "medium-h", "conductor-h", "potential-h",
            "hierarchy-h", "medium-alpha"])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        # with prefixes allowed, argparse would read --h as --help: help text, exit 0
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        flag = next(a for a in argv if a in ("--h", "--alpha"))
        value = argv[argv.index(flag) + 1]
        assert err.endswith(f"error: unrecognized arguments: {flag} {value}\n")

    @pytest.mark.parametrize("argv, rest", [
        (("chiral", "hierarchy", "--a-re", A_RE, "--b-re", B_RE, "--m-re", M_RE), ("--lev", "2")),
        (("classic", "liouville"), ("--verif",)),
        (("classic", "laplace"), ("--alph", "2")),
        (("em", "vacuum", "--omega", "1e9"), ("--samp", "3")),
        (("em", "conductor", "--omega", "1e9"), ("--sigma-over", "2")),
    ], ids=["levels", "verify", "alpha", "samples", "sigma-over-eps-omega"])
    def test_a_prefix_of_a_flag_is_a_usage_error(self, capsys, argv, rest):
        code, out, err = run(capsys, *argv, *rest)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith(f"error: unrecognized arguments: {' '.join(rest)}\n")
        # the subcommand's own usage, which lists the flag that was meant
        usage = err[:err.index(f"\nbtkit {argv[0]} {argv[1]}: error: ")]
        assert usage.startswith(f"usage: btkit {argv[0]} {argv[1]} [-h] ")
        assert re.search(rf"{re.escape(rest[0])}[\w-]", usage)

    @pytest.mark.parametrize("spec, argv", [
        ({"command": ["classic", "liouville"], "grid": {"h": 2e-4}},
         ("classic", "liouville", "--h", "0.0002")),
        ({"command": ["em", "vacuum"], "params": {"omega": 1e9}, "grid": {"h": 2e-4}},
         ("em", "vacuum", "--omega", "1e9", "--h", "0.0002")),
        ({"command": ["chiral", "residual"], "params": {"a_re": A_RE, "b_re": B_RE},
          "grid": {"h": 2e-4}},
         ("chiral", "residual", "--a-re", A_RE, "--b-re", B_RE, "--h", "0.0002")),
        ({"command": ["em", "vacuum"], "params": {"omega": 1e9, "alpha": 0.3}},
         ("em", "vacuum", "--omega", "1e9", "--alpha", "0.3")),
        ({"command": ["em", "conductor"], "params": {"omega": 1e9, "sigma": 1, "alpha": 0}},
         ("em", "conductor", "--omega", "1e9", "--sigma", "1", "--alpha", "0")),
    ], ids=["classic-h", "em-h", "chiral-h", "vacuum-alpha", "conductor-alpha"])
    def test_a_spec_naming_a_removed_input_is_a_usage_error(self, capsys, tmp_path, spec,
                                                            argv):
        # a spec's grid and params become flags, so it is refused as the direct call is
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == run(capsys, *argv, "--verify")[:2] == (EXIT_USAGE, "")
        value = argv[-1]
        assert err.endswith(f"error: unrecognized arguments: {argv[-2]} {value}\n")

    def test_em_params_end_with_the_fixed_alpha(self, capsys):
        # as grid.h ends every grid (TestEchoedStep); result.spec echoes params
        for sub in ("vacuum", "medium", "conductor"):
            doc = json.loads(run(capsys, "em", sub, "--omega", "1e9")[1])
            assert list(doc["params"].items())[-1] == ("alpha", 0.0)
            assert doc["result"]["spec"] == doc["params"]


class TestExactScans:
    """Genuine inputs that a 1e-4 central-difference step once failed."""

    @pytest.mark.parametrize("argv, bound", [
        (["classic", "laplace", "--alpha", "1000"], 0.0),          # read 6.8e-5
        (["classic", "laplace", "--alpha", "1e7", "--beta", "3", "--gamma", "-2"], 0.0),  # 0.75
        (["classic", "laplace", "--alpha", "1e200"], 0.0),         # 5.8e92
        (["classic", "laplace", "--nx", "2001", "--nt", "6"], 0.0),  # was refused: dx < 10 h
        (["classic", "liouville", "--C", "1"], 1e-11),             # 0.98
        (["classic", "sine-gordon", "--a", "1", "--C", "1"], 1e-15),
        (["em", "vacuum", "--omega", "1e308", "--samples", "10"], 1e-15),  # every node nan
        (["em", "conductor", "--epsilon-rel", "3", "--mu-rel", "1", "--sigma-over-eps-omega",
          "20", "--omega", "1e9", "--tau", "-0.6", "-0.8", "0", "--e0-re", "0", "0", "1"],
         1e-11),                                                   # 1.16e-5
    ], ids=["alpha-1e3", "alpha-1e7", "alpha-1e200", "nx-2001", "liouville-C-1",
            "sine-gordon", "vacuum-omega-1e308", "conductor-growing-envelope"])
    def test_genuine_solution_passes_at_rounding_level(self, argv, bound):
        proc = run_cli(*argv, "--verify")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        block = json.loads(proc.stdout)["verify"]
        assert block["passed"] is True
        for scan in block["scans"].values():
            assert scan["max_abs"] <= bound
        if "liouville" in argv:
            assert {scan["n_singular"] for scan in block["scans"].values()} == {78}

    def test_second_derivative_past_the_float_range_is_singular(self, capsys):
        # u_xx = 2e308 is not representable: every node of laplace_u is singular
        code, out, err = run(capsys, "classic", "laplace", "--alpha", "1e308", "--verify")
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err == "btkit: error: all grid points were singular\n"

    def test_a_cubic_defect_fails_at_the_unchanged_tolerance(self, capsys, monkeypatch):
        u = classic_bts._FAMILIES["harmonic_quadratic"]
        monkeypatch.setitem(classic_bts._FAMILIES, "harmonic_quadratic",
                            lambda p, x, t: u(p, x, t) + 1e-6 * x * x * x)
        code, out, _ = run(capsys, "classic", "laplace", "--alpha", "1000", "--verify")
        assert code == EXIT_VERIFY
        scans = json.loads(out)["verify"]["scans"]
        assert 5e-6 < scans["laplace_u"]["max_abs"] < 7e-6       # 6 * 1e-6 * |x|
        assert scans["laplace_v"]["max_abs"] == 0.0


class TestEchoedStep:
    # no scan reads the step: dx = 1e-3, exactly ten default steps, once
    # made every classic command exit 1 ("need h < spacing/10")
    FINE = ("--x-min", "0", "--x-max", "0.01", "--nx", "11")
    CHIRAL = {
        "residual": (),
        "potential": (),
        "hierarchy": ("--m-re", M_RE, "--levels", "2"),
    }

    @pytest.mark.parametrize("sub", list(CHIRAL))
    def test_chiral_runs_accept_it_and_echo_the_step(self, capsys, sub):
        code, out, err = run(capsys, "chiral", sub, "--a-re", A_RE, "--b-re", B_RE,
                             *self.CHIRAL[sub], *self.FINE, "--verify")
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert doc["grid"]["h"] == 1e-4 and doc["grid"]["nx"] == 11
        assert doc["verify"]["passed"] is True

    @pytest.mark.parametrize("sub", ["laplace", "liouville", "sine-gordon"])
    def test_classic_runs_accept_it_and_echo_the_step(self, capsys, sub):
        code, out, err = run(capsys, "classic", sub, *self.FINE, "--verify")
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert doc["grid"]["h"] == 1e-4 and doc["grid"]["nx"] == 11
        assert doc["verify"]["passed"] is True
        for scan in doc["verify"]["scans"].values():
            assert scan["max_abs"] < 1e-12

    def test_em_echoes_the_scalar_step_after_its_lattice(self, capsys):
        _, out, _ = run(capsys, "em", "vacuum", "--omega", "1e9")
        assert list(json.loads(out)["grid"]) == [
            "x_min", "x_max", "y_min", "y_max", "z_min", "z_max", "t_min", "t_max",
            "nx", "ny", "nz", "nt", "h"]
        assert json.loads(out)["grid"]["h"] == 1e-4


class TestFileOutputs:
    def test_json_and_csv_files(self, capsys, tmp_path):
        out_json = tmp_path / "run.json"
        out_csv = tmp_path / "run.csv"
        code, out, _ = run(capsys, "classic", "sine-gordon", "--format", "both",
                           "--output", str(out_json), "--csv-output", str(out_csv))
        assert code == EXIT_OK
        assert out == ""
        payload = json.loads(out_json.read_text())
        assert payload["command"] == "classic sine-gordon"
        assert out_csv.read_text().startswith("x,t,u\n")

    def test_unwritable_path_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "classic", "sine-gordon",
                           "--output", str(tmp_path / "no" / "such" / "dir.json"))
        assert code == EXIT_USAGE
        assert "cannot write" in err


class TestConductorOutput:
    def test_copper_like_dispersion_fields(self, capsys):
        code, out, _ = run(capsys, "em", "conductor", "--epsilon-rel", "1",
                           "--mu-rel", "1", "--sigma", "5.8e7", "--freq", "1e6")
        assert code == EXIT_OK
        disp = json.loads(out)["result"]["dispersion"]
        assert disp["k"] > 0 and disp["s"] > 0
        assert disp["phi"] == pytest.approx(np.pi / 4, abs=1e-4)
        assert disp["skin_depth"] == pytest.approx(1.0 / disp["s"], rel=1e-12)

    def test_ratio_flag_matches_explicit_sigma(self, capsys):
        _, via_ratio, _ = run(capsys, "em", "conductor", "--epsilon", "3", "--mu", "1",
                              "--omega", "1", "--sigma-over-eps-omega", "2")
        _, via_sigma, _ = run(capsys, "em", "conductor", "--epsilon", "3", "--mu", "1",
                              "--omega", "1", "--sigma", "6")
        assert via_ratio == via_sigma

    @pytest.mark.parametrize("argv, k, s", [
        (["--epsilon", "1e-300", "--mu", "1e300", "--sigma", "1", "--omega", "1e-10"],
         7.0710678118654752e144, 7.0710678118654752e144),
        (["--omega", "1e300", "--sigma", "1e300"], 7.926654597404653e296, 7.926654597334469e296),
        (["--omega", "1e-30", "--epsilon", "1e-300", "--mu", "1e300", "--sigma", "1"],
         7.0710678118654752e134, 7.0710678118654752e134),
        (["--omega", "1e-30", "--epsilon", "1e-300", "--mu", "1e300", "--sigma", "0"],
         1e-30, 0.0),
    ], ids=["loss-tangent-overflow", "mu-sigma-omega-overflow",
            "eps-omega-underflow-conducting", "eps-omega-underflow-non-conducting"])
    def test_dispersion_of_extreme_media_is_representable(self, argv, k, s):
        # sigma / (eps omega) and mu sigma omega overflowed on the way to a
        # finite k: "wavenumber must be positive, got inf" and "attenuation
        # must satisfy 0 <= s <= k, got s=inf"; eps omega underflowed to 0
        # and was refused although k is representable
        proc = run_cli("em", "conductor", *argv, "--verify")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        payload = json.loads(proc.stdout)
        disp = payload["result"]["dispersion"]
        assert disp["k"] == pytest.approx(k, rel=1e-13)
        assert disp["s"] == pytest.approx(s, rel=1e-13)
        assert payload["verify"]["passed"] is True

    def test_medium_and_zero_conductivity_conductor_print_one_wavenumber(self, capsys):
        # two formulas printed 6.671281903962896 and 6.671281903962895
        _, medium, _ = run(capsys, "em", "medium", "--epsilon-rel", "4", "--omega", "1e9")
        _, conductor, _ = run(capsys, "em", "conductor", "--epsilon-rel", "4", "--sigma", "0",
                              "--omega", "1e9")
        assert json.loads(medium)["result"]["k"] == 6.671281903962895
        assert json.loads(conductor)["result"]["dispersion"]["k"] == 6.671281903962895

    @pytest.mark.parametrize("argv, k", [
        (["medium", "--epsilon", "1e-300", "--mu", "3e-24"], 1.732050807568877e38),
        (["conductor", "--epsilon", "1e-300", "--mu", "3e-24", "--sigma", "0"],
         1.732050807568877e38),
        (["conductor", "--epsilon", "1e-300", "--mu", "3e-24", "--sigma", "1e-100"], None),
        (["conductor", "--epsilon", "1e-300", "--mu", "1e-20", "--sigma", "1e-300"], None),
    ], ids=["medium", "conductor-sigma-0", "conductor-sigma-1e-100", "conductor-sigma-1e-300"])
    def test_media_whose_eps_mu_is_subnormal_verify(self, capsys, argv, k):
        # eps mu rounds to a subnormal: the medium printed a k 28% high and
        # passed, and each conductor failed its scan (0.647, 0.495, 1.1e-5)
        code, out, err = run(capsys, "em", *argv, "--omega", "1e200", "--verify")
        assert (code, err) == (EXIT_OK, "")
        payload = json.loads(out)
        assert payload["verify"]["scans"]["maxwell"]["max_abs"] < 1e-15
        if k is not None:
            result = payload["result"]
            assert result.get("k", result.get("dispersion", {}).get("k")) == k

    def test_conductor_verify_passes(self, capsys):
        code, out, _ = run(capsys, "em", "conductor", "--epsilon", "3", "--mu", "1",
                           "--omega", "1", "--sigma", "4", "--verify")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["result"]["dispersion"]["k"] == pytest.approx(2.0, rel=1e-12)
        assert payload["result"]["dispersion"]["s"] == pytest.approx(1.0, rel=1e-12)
        assert payload["verify"]["passed"] is True


class TestVerifySpecFiles:
    def test_spec_file_roundtrip(self, capsys, tmp_path):
        spec = tmp_path / "scan.json"
        spec.write_text(json.dumps({
            "command": ["classic", "liouville"],
            "params": {"C": 2.0},
            "grid": {"x_min": -0.5, "x_max": 0.5, "t_min": -0.5, "t_max": 0.5},
        }))
        code, out, _ = run(capsys, "verify", str(spec))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["grid"]["x_min"] == -0.5
        assert payload["verify"]["passed"] is True

    def test_chiral_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "seed.json"
        spec.write_text(json.dumps({
            "command": ["chiral", "hierarchy"],
            "params": {"a_re": json.loads(A_RE), "b_re": json.loads(B_RE),
                       "m_re": json.loads(M_RE), "levels": 2},
        }))
        code, out, _ = run(capsys, "verify", str(spec))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [lv["level"] for lv in payload["result"]["levels"]] == [0, 1, 2]

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == EXIT_USAGE
        assert "cannot read" in err

    def test_invalid_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, _, _ = run(capsys, "verify", str(bad))
        assert code == EXIT_USAGE

    def test_missing_command_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "nocmd.json"
        bad.write_text(json.dumps({"params": {"C": 2.0}}))
        code, _, err = run(capsys, "verify", str(bad))
        assert code == EXIT_USAGE
        assert "command" in err

    def test_failing_spec_exits_two(self, capsys, tmp_path, monkeypatch):
        # a generator that returns 1.5 u, which solves neither equation
        _scale_family(monkeypatch, "liouville_soliton", 1.5)
        spec = tmp_path / "fail.json"
        spec.write_text(json.dumps({"command": ["classic", "liouville"],
                                    "params": {"C": 2.0}}))
        code, _, err = run(capsys, "verify", str(spec))
        assert (code, err) == (EXIT_VERIFY, "")

    def test_em_spec_file_with_vector_and_boolean_params(self, capsys, tmp_path):
        # the form of the benchmark's em spec operations: list values become
        # one flag and its numbers, a true boolean a bare flag
        spec = tmp_path / "wave.json"
        spec.write_text(json.dumps({
            "command": ["em", "medium"],
            "params": {"e0_re": [1, 0, 0], "tau": [0, 0, 1], "epsilon_rel": 2.25,
                       "omega": 1e9, "verify": True},
        }))
        code, out, err = run(capsys, "verify", str(spec))
        assert (code, err) == (EXIT_OK, "")
        payload = json.loads(out)
        assert payload["params"]["E0_re"] == [1.0, 0.0, 0.0]
        assert payload["params"]["tau"] == [0.0, 0.0, 1.0]
        assert payload["verify"]["passed"] is True

    @pytest.mark.parametrize("params, flags, exit_code", [
        ({"omega": 1e9, "e0_re": [True, False, False]},
         ["--omega", "1e9", "--e0-re", "true", "false", "false"], EXIT_USAGE),
        ({"omega": 1e9, "e0_re": [0, 1, 0], "tau": [1, 0, 0]},
         ["--omega", "1e9", "--e0-re", "0", "1", "0", "--tau", "1", "0", "0"], EXIT_OK),
    ], ids=["booleans", "numbers"])
    def test_a_spec_and_its_direct_call_agree(self, capsys, tmp_path, params, flags,
                                              exit_code):
        # a list of booleans was read as the numbers 1 and 0: exit 0 where
        # the direct call exits 64
        spec = tmp_path / "wave.json"
        spec.write_text(json.dumps({"command": ["em", "vacuum"], "params": params}))
        code, out, _ = run(capsys, "verify", str(spec))
        assert (code, out) == run(capsys, "em", "vacuum", *flags, "--verify")[:2]
        assert code == exit_code

    def test_section_that_is_not_an_object_is_usage_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"command": ["classic", "liouville"], "params": [2.0]}))
        code, out, err = run(capsys, "verify", str(spec))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == 'btkit: error: spec file section "params" must be an object\n'

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"x"'], ids=["list", "number", "string"])
    def test_top_level_not_an_object_is_one_error_line(self, tmp_path, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        proc = run_python(f"""
            import sys
            from btkit.cli import main
            sys.exit(main(["verify", {str(spec)!r}]))
        """)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr == "btkit: error: spec file must hold a JSON object\n"


class TestParserReuse:
    def test_main_calls_share_one_parser(self, capsys, monkeypatch):
        seen = []
        parse_args = cli._Parser.parse_args

        def recording(self, *args, **kwargs):
            seen.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_args", recording)
        for _ in range(2):
            assert run(capsys, "classic", "liouville")[0] == EXIT_OK
        assert len(seen) == 2 and seen[0] is seen[1]

    def test_spec_re_entry_parses_again(self, capsys, tmp_path):
        spec = tmp_path / "scan.json"
        spec.write_text(json.dumps({"command": ["classic", "liouville"],
                                    "params": {"C": 3.0}}))
        for _ in range(2):
            code, out, _ = run(capsys, "verify", str(spec))
            assert code == EXIT_OK
            payload = json.loads(out)
            assert payload["params"]["C"] == 3.0 and payload["verify"]["passed"] is True
        # defaults are not carried over from the previous parse
        code, out, _ = run(capsys, "classic", "liouville")
        assert code == EXIT_OK
        assert json.loads(out)["params"]["C"] == 2.0 and json.loads(out)["verify"] is None

    def test_usage_error_after_a_success_exits_64(self, capsys):
        assert run(capsys, "classic", "laplace", "--verify")[0] == EXIT_OK
        code, out, err = run(capsys, "classic", "laplace", "--alpha", "bogus")
        assert code == EXIT_USAGE
        assert out == "" and "invalid float" in err
        assert run(capsys, "classic", "laplace")[0] == EXIT_OK
