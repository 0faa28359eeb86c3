"""The public surface: the names btkit exports and the README's library tour."""

import contextlib
import io
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import btkit

README = Path(__file__).resolve().parents[1] / "README.md"

# Every name of btkit.__all__.  A change to the public API has to change
# this list too, so it shows up in review.
PUBLIC_API = [
    "BtkitError",
    "ConductorWavePair",
    "ConstantField",
    "DispersionSolution",
    "EPSILON0",
    "EmptyDomainError",
    "ExpSeedField",
    "FieldPair",
    "Grid2D",
    "Grid4D",
    "IntegrabilityError",
    "InvalidGridError",
    "InvalidParameterError",
    "MU0",
    "MatrixField",
    "MediumParams",
    "NonCommutingError",
    "NormalizationError",
    "PathDependenceError",
    "ResidualReport",
    "ScalarField2D",
    "SingularMatrixError",
    "SymmetryCharacteristic",
    "TabulatedField",
    "TransversalityError",
    "VACUUM",
    "WavePair",
    "bt_residual_cr",
    "bt_residual_liouville",
    "bt_residual_sine_gordon",
    "chiral_defect_samples",
    "chiral_residual",
    "dispersion_solve",
    "harmonic_conjugate_quadratic",
    "harmonic_quadratic",
    "hierarchy",
    "laplace_residual",
    "liouville_from_trivial",
    "liouville_residual",
    "maxwell_residual",
    "monomial_xy",
    "plane_wave",
    "potential",
    "recursion_step",
    "report_from_values",
    "sine_gordon_from_vacuum",
    "sine_gordon_residual",
    "symmetry_residual",
    "wave_residual",
    "zero_field",
]


class TestPublicApi:
    def test_all_matches_the_snapshot(self):
        assert len(PUBLIC_API) == 50
        assert sorted(btkit.__all__) == PUBLIC_API

    def test_every_name_resolves(self):
        assert [name for name in PUBLIC_API if not hasattr(btkit, name)] == []

    def test_dir_and_star_import_list_every_name(self):
        assert set(PUBLIC_API) <= set(dir(btkit))
        namespace = {}
        exec("from btkit import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_API

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'btkit' has no attribute 'Stencil'$"):
            btkit.Stencil
        assert not hasattr(btkit, "cli_main")

    def test_names_and_submodules_load_on_first_access(self):
        # a fresh interpreter: this one has loaded every family already
        source = """
            import sys
            import btkit
            assert "btkit.classic_bts" not in sys.modules
            assert btkit.classic_bts.harmonic_quadratic is btkit.harmonic_quadratic
            assert btkit.verify is sys.modules["btkit.verify"]
            assert "btkit.chiral_recursion" not in sys.modules
            assert btkit.hierarchy.__module__ == "btkit.chiral_recursion"
        """
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(btkit.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(source)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def _claimed(comment: str) -> tuple:
    """A comment's value and whether it is approximate ("~2e-8")."""
    approximate = comment.startswith("~")
    value = eval(comment.lstrip("~"), {"__builtins__": {}, "arctan": math.atan})
    return float(value), approximate


class TestQuickTour:
    def test_printed_values_match_their_comments(self):
        source = _quick_tour()
        comments = [line.split("#", 1)[1].split()
                    for line in source.splitlines() if line.startswith("print(")]
        assert len(comments) == 6
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(source, str(README), "exec"), {})
        printed = [line.split() for line in out.getvalue().splitlines()]
        assert [len(p) for p in printed] == [len(c) for c in comments]
        for values, claims in zip(printed, comments):
            for value, claim in zip(values, claims):
                expected, approximate = _claimed(claim)
                if approximate:
                    # an order-of-magnitude claim holds within a factor of 10
                    assert 0.1 < float(value) / expected < 10.0, (value, claim)
                else:
                    assert float(value) == pytest.approx(expected, rel=1e-12), (value, claim)
