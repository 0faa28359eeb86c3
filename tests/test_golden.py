"""The command-line runs of ``tests/golden`` against their recorded outputs.

``tests/golden/regen.py`` rewrites the corpus; a change that moves an
output on purpose regenerates it, and the diff of ``tests/golden/cases``
shows what moved.
"""

import importlib.util
import json
import shlex
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)
CASES = regen.cases()


def test_every_case_is_recorded_and_every_record_is_a_case():
    assert sorted(path.stem for path in regen.CASES_DIR.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_case_matches_its_record(name):
    argv, env = CASES[name]
    want = json.loads((regen.CASES_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert regen.compare(want, regen.run_case(argv, env)) == []


def test_a_moved_number_is_reported():
    argv, env = CASES["readme-em-conductor-json"]
    record = regen.run_case(argv, env)
    moved = json.loads(json.dumps(record))
    moved["json"]["result"]["dispersion"]["k"] *= 1.0 + 1e-11
    moved["json"]["verify"]["scans"]["maxwell"]["max_abs"] = 1e-5
    moved["stderr"] = "x"
    problems = regen.compare(record, moved)
    assert problems[0].startswith("stderr: ")
    assert problems[1].startswith("json.result.dispersion.k: ")
    assert problems[2].startswith("json.verify.scans.maxwell.max_abs: verdict changed")


def test_a_residual_on_its_floor_may_move_within_the_bound():
    argv, env = CASES["readme-chiral-residual-json"]
    record = regen.run_case(argv, env)
    moved = json.loads(json.dumps(record))
    report = moved["json"]["verify"]["scans"]["chiral"]
    report["max_abs"] *= 3.0
    report["worst_point"] = [0.5, 0.5]
    assert regen.compare(record, moved) == []
    report["max_abs"] = 2e-9
    assert regen.compare(record, moved) != []


def test_the_readme_cases_are_the_readme_examples():
    text = (GOLDEN.parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("### Examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (line.strip() for line in block.replace("\\\n", " ").splitlines())
    examples = [shlex.split(line)[1:] for line in lines if line and not line.startswith("#")]
    recorded = [[a for a in argv if a not in ("--format", "both")] for argv in examples]
    assert recorded == list(regen.README_EXAMPLES.values())
