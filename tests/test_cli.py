"""End-to-end tests of the command-line front end.

Each test drives ``main`` with an argv list and inspects exit code,
stdout, or written files.  Determinism checks compare raw bytes.
"""

import json
import os
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import btkit
from btkit import classic_bts, cli, maxwell_conductor, maxwell_vacuum
from btkit.chiral_recursion import (ExpSeedField, SymmetryCharacteristic, chiral_defect_samples,
                                    chiral_residual, hierarchy, potential)
from btkit.cli import EXIT_OK, EXIT_PRECONDITION, EXIT_USAGE, EXIT_VERIFY, main
from btkit.maxwell_vacuum import conjugate_vacuum
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


def run_python(source: str):
    """Run ``source`` in a fresh interpreter that imports this btkit."""
    env = dict(os.environ)
    src = str(Path(btkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(source)],
                          capture_output=True, text=True, env=env, timeout=120)


def run_cli(*argv):
    """Run ``btkit`` in a fresh interpreter that turns RuntimeWarnings into errors."""
    env = dict(os.environ)
    src = str(Path(btkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "btkit.cli",
                           *argv], capture_output=True, text=True, env=env, timeout=120)


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

    def test_failing_scan_exits_two(self, capsys):
        # C=1 puts the blow-up line inside the default grid: honest failure
        code, out, _ = run(capsys, "classic", "liouville", "--C", "1", "--verify")
        assert code == EXIT_VERIFY
        payload = json.loads(out)
        assert payload["verify"]["passed"] is False

    def test_huge_residual_is_a_verify_failure_not_a_traceback(self):
        # residuals near 1e188 overflowed sqrt(mean(v*v)) to inf
        proc = run_python("""
            import sys
            from btkit.cli import main
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
        ["em", "vacuum", "--freq", "1e9", "--alpha", "inf"],
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
        (["em", "conductor", "--omega", "1e-30", "--epsilon", "1e-300", "--mu", "1e300",
          "--sigma", "1"], "epsilon * omega underflows to 0"),
        (["em", "conductor", "--omega", "1e-30", "--epsilon", "1e-300", "--mu", "1e300",
          "--sigma", "0"], "epsilon * omega underflows to 0"),
        (["em", "conductor", "--omega", "1e-154", "--epsilon-rel", "1e-154"],
         "k * k underflows to 0"),
    ], ids=["medium-overflow", "medium-underflow", "conductor-underflow",
            "eps-omega-underflow-conducting", "eps-omega-underflow-non-conducting",
            "k-squared-underflow"])
    def test_unrepresentable_medium_is_one_error_line(self, argv, message):
        # eps * mu over- or underflows although each factor is finite and
        # positive; or eps * mu = 1 but eps * omega underflows to 0, where the
        # loss tangent sigma / (eps omega) once divided by zero
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
        (["em", "vacuum", "--omega", "1", "--e0-re", "1e200", "0", "1e200", "--verify"],
         "amplitude is not transverse"),
        (["em", "medium", "--omega", "1", "--epsilon", "1e100", "--mu", "1e100",
          "--e0-re", "1e300", "0", "0"], "partner amplitude B0 overflows"),
        (["em", "medium", "--omega", "1", "--epsilon", "1e100", "--mu", "1e100",
          "--e0-re", "1e300", "0", "0", "--format", "csv"], "partner amplitude B0 overflows"),
        (["em", "vacuum", "--omega", "1", "--e0-re", "1.5e308", "1.5e308", "0", "--verify"],
         "normalization scale |E0| k = inf overflows"),
        (["chiral", "potential", "--a-re", "[[1e-152]]", "--b-re", "[[1e160]]",
          "--x-min", "-2e151", "--x-max", "2e151", "--t-min", "-1e-300", "--t-max", "1e-300",
          "--h", "1e-304"], "axis-ordered integrals overflow"),
        (["chiral", "potential", "--a-re", "[[0]]", "--b-re", "[[0]]",
          "--x-min", "-1e300", "--x-max", "1e300"],
         "lattice spacing dx = 5e+298 is too wide to square"),
        (["chiral", "hierarchy", "--a-re", "[[0]]", "--b-re", "[[0]]", "--m-re", "[[1]]",
          "--x-min", "-1e160", "--x-max", "1e160", "--verify"],
         "lattice spacing dx = 5e+158 is too wide to square"),
        (["chiral", "residual", "--a-re", "[[1e200, 1e200], [1e200, 1e200]]",
          "--b-re", "[[1e200, 0], [0, -1e200]]"], "seed generators do not commute"),
    ], ids=["longitudinal-1e200", "partner-overflow-json", "partner-overflow-csv",
            "normalization-overflow", "potential-overflow", "potential-wide-lattice",
            "hierarchy-wide-lattice", "commutator-overflow"])
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
        # line that blamed a nan normalization scale
        proc = run_cli("em", "vacuum", "--omega", "1e9", "--e0-re", *e0, "--verify")
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert payload["verify"]["passed"] is True
        if e0[0] == "1e-320":
            assert payload["result"]["B0"] == {"re": [0, 0, 0], "im": [0, 0, 0]}

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

    def test_grid_too_large_to_allocate_is_one_error_line(self):
        # a 3000^4 mesh is 589 TiB: no 64-bit address space maps it, so the
        # allocator refuses at once
        proc = run_cli("em", "vacuum", "--omega", "1e9", "--samples", "3000", "--verify")
        assert proc.returncode == EXIT_PRECONDITION
        assert proc.stdout == ""
        assert proc.stderr.startswith("btkit: error: Unable to allocate 589. TiB for an array")
        assert proc.stderr.count("\n") == 1

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
                           "--e0-im", "-5.3e-05", "0.2", "0", "--alpha", "-1.5E+00")
        assert code == EXIT_OK
        params = json.loads(out)["params"]
        assert params["E0_im"] == [-5.3e-05, 0.2, 0.0]
        assert params["alpha"] == -1.5

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
    u, v = classic_bts.harmonic_conjugate_match(1.0, 2.0, -3.0)
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
    pair = conjugate_vacuum(np.array([1.0, 0.0, 0.0]) + 1j * np.array([0.0, 0.5, 0.0]),
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
        pair = conjugate_vacuum([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1e9)
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
            {}, {}, {}, {}, (columns, lambda: np.array([values, values[::-1]]))))
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
    h = g.h if np.isscalar(g.h) else list(g.steps)
    return {"x_min": g.x_min, "x_max": g.x_max, "y_min": g.y_min, "y_max": g.y_max,
            "z_min": g.z_min, "z_max": g.z_max, "t_min": g.t_min, "t_max": g.t_max,
            "nx": g.nx, "ny": g.ny, "nz": g.nz, "nt": g.nt, "h": h}


def _reference_medium(m):
    return {"epsilon": m.epsilon, "mu": m.mu, "sigma": m.sigma}


def _reference_dispersion(d):
    return {"k": d.k, "s": d.s, "phi": d.phi, "omega": d.omega, "skin_depth": d.skin_depth}


def _records():
    pair = conjugate_vacuum([1.0, 0.5j, 0.0], [0.0, 0.0, 1.0], 1e9)
    grid = pair.default_grid(5)
    yield _reference_report, maxwell_vacuum.maxwell_residual(pair, grid)
    yield _reference_report, classic_bts.liouville_residual(
        classic_bts.liouville_from_trivial(0.5), Grid2D(nx=9, nt=9))
    yield _reference_report, ResidualReport(1.0, 0.5, 4, (0.0, 0.0), 2)
    yield _reference_grid4d, grid
    yield _reference_grid4d, Grid4D(0, 1, 0, 2, 0, 3, -1, 1, 5, 6, 7, 8, h=1e-3)
    yield _reference_grid4d, Grid4D(0, 1, 0, 1, 0, 1, 0, 1e-9, h=[1e-3, 1e-3, 1e-3, 1e-12])
    yield _reference_grid4d, Grid4D(0, 1, 0, 1, 0, 1, 0, 1, h=(1e-3, 1e-3, 2e-3, np.float64(1e-2)))
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
    def test_payload_is_the_library_field(self, capsys):
        grid = Grid2D(nx=12, nt=10)
        _, out, _ = run(capsys, "chiral", "potential", "--a-re", A3_RE, "--b-re", B3_RE,
                        "--nx", "12", "--nt", "10")
        payload = json.loads(out)
        pot = potential(ExpSeedField(json.loads(A3_RE), json.loads(B3_RE)), grid)
        assert payload["result"]["path_disagreement"] == pot.path_disagreement
        assert payload["result"]["potential"] == pot.to_dict()


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


class TestStepOverrides:
    def test_env_var_sets_step(self, capsys, monkeypatch):
        monkeypatch.setenv("BTKIT_H", "1e-5")
        _, out, _ = run(capsys, "classic", "liouville")
        assert json.loads(out)["grid"]["h"] == 1e-5

    def test_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("BTKIT_H", "1e-5")
        _, out, _ = run(capsys, "classic", "liouville", "--h", "2e-4")
        assert json.loads(out)["grid"]["h"] == 2e-4

    def test_malformed_env_var_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BTKIT_H", "tiny")
        code, _, err = run(capsys, "classic", "liouville")
        assert code == EXIT_USAGE
        assert "BTKIT_H" in err


class TestLatticeFinerThanTenSteps:
    # dx = 1e-3 is exactly ten default steps: the closed-form stencils need
    # h < spacing/10, the chiral lattice operators never read h
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

    @pytest.mark.parametrize("verify", [("--verify",), ()], ids=["verify", "no-verify"])
    @pytest.mark.parametrize("sub", ["laplace", "liouville", "sine-gordon"])
    def test_classic_runs_keep_refusing_it(self, capsys, sub, verify):
        code, out, err = run(capsys, "classic", sub, *self.FINE, *verify)
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err == ("btkit: error: stencil step 0.0001 too coarse for smallest "
                       "spacing 0.001: need h < spacing/10\n")

    @pytest.mark.parametrize("step", ["1e308", "0.5"])
    def test_chiral_runs_accept_any_finite_positive_step(self, capsys, step):
        code, out, err = run(capsys, "chiral", "residual", "--a-re", A_RE, "--b-re", B_RE,
                             "--h", step, "--verify")
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert doc["grid"]["h"] == float(step)
        assert list(doc["grid"]) == ["x_min", "x_max", "t_min", "t_max", "nx", "nt", "h"]

    @pytest.mark.parametrize("group", [
        ("classic", "laplace"),
        ("chiral", "residual", "--a-re", A_RE, "--b-re", B_RE),
    ], ids=["classic", "chiral"])
    def test_step_errors_come_after_usage_and_grid_errors(self, capsys, monkeypatch, group):
        monkeypatch.setenv("BTKIT_H", "tiny")
        code, _, err = run(capsys, *group, "--nx", "1")
        assert code == EXIT_USAGE and "BTKIT_H" in err
        monkeypatch.delenv("BTKIT_H")
        code, _, err = run(capsys, *group, "--nx", "1", "--h", "0")
        assert (code, err) == (EXIT_PRECONDITION,
                               "btkit: error: x needs at least 2 samples, got 1\n")

    @pytest.mark.parametrize("step", ["0", "-1e-4", "nan", "inf"])
    def test_chiral_step_must_still_be_finite_and_positive(self, capsys, step):
        code, out, err = run(capsys, "chiral", "residual", "--a-re", A_RE, "--b-re", B_RE,
                             *self.FINE, "--h", step)
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err.startswith("btkit: error: stencil step must be finite and positive")


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

    def test_failing_spec_exits_two(self, capsys, tmp_path):
        spec = tmp_path / "fail.json"
        spec.write_text(json.dumps({"command": ["classic", "liouville"],
                                    "params": {"C": 1.0}}))
        code, _, _ = run(capsys, "verify", str(spec))
        assert code == EXIT_VERIFY

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
