"""Command outputs against the copies kept in ``tests/golden/``.

``verify suites/standard.json`` and ``verify tests/golden/suite_coverage.json``
(each JSON report without the timestamp, and each CSV body) and ``trace`` on
the proof benchmark's input (the h=1/512 unit disk, ``max(0, 1 - r*r)`` with
lipschitz 2, eps 0.05) and the printed ``estimate-hm`` lines on the covering
benchmark's inputs (the h=1/64 unit ball with d=2, delta=0.125 and the h=1/1024
unit disk with d=1, delta=0.2) must reproduce the kept files: keys, labels and
verdicts exactly, floats to 1e-12 relative,
which absorbs last-bit libm differences across hosts.  A refactor that
should not move a number is checked here.  A change that means to move one
rewrites the files with ``PYTHONPATH=src python tests/test_golden_outputs.py``
and says so.
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from gmtlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SUITE = str(ROOT / "suites" / "standard.json")
# every check id, both modes, every parameter, a 3D entry and two entry errors
COVERAGE = str(GOLDEN / "suite_coverage.json")
REL_TOL = 1e-12
PROOF_DOMAIN = {"kind": "ball", "params": {"r": 1.0}, "h": 1 / 512}
PROOF_FUNCTION = {"expr": "max(0, 1 - r*r)", "lipschitz": 2.0}
# the covering benchmark's seed-0 inputs: (file name, domain spec, --d, --delta)
COVERING = (
    ("ball3d.json", {"kind": "ball", "params": {"r": 1.0, "center": [0.0, 0.0, 0.0]}, "h": 1 / 64}, "2", "0.125"),
    ("disk2d.json", {"kind": "ball", "params": {"r": 1.0}, "h": 1 / 1024}, "1", "0.2"),
)
NAMES = ["verify_standard.json", "verify_standard.csv", "verify_coverage.json", "verify_coverage.csv",
         "trace_proof.json", "estimate_covering.txt"]


def _outputs(tmp: Path) -> dict:
    """{golden file name: the text the current code gives for it}, run under ``tmp``."""
    domain, function = tmp / "disk.json", tmp / "func.json"
    domain.write_text(json.dumps(PROOF_DOMAIN), encoding="utf-8")
    function.write_text(json.dumps(PROOF_FUNCTION), encoding="utf-8")
    calls = {  # golden file name -> (command, its exit code)
        "verify_standard.json": (["verify", SUITE], 0),
        "verify_standard.csv": (["verify", SUITE], 0),
        "verify_coverage.json": (["verify", COVERAGE], 1),
        "verify_coverage.csv": (["verify", COVERAGE], 1),
        "trace_proof.json": (["trace", str(domain), str(function), "--eps", "0.05"], 0),
    }
    texts = {}
    for name, (argv, code) in calls.items():
        path = tmp / name
        if main(argv + ["--out", str(path)]) != code:
            raise AssertionError(f"{name}: the command did not exit {code}")
        text = path.read_text(encoding="utf-8")
        if name.endswith(".csv"):
            text = text.split("\n", 1)[1]  # the first line holds the run's timestamp
        else:
            data = json.loads(text)
            data.pop("timestamp", None)
            text = json.dumps(data, indent=1) + "\n"
        texts[name] = text
    lines = io.StringIO()
    for name, spec, d, delta in COVERING:
        (tmp / name).write_text(json.dumps(spec), encoding="utf-8")
        with contextlib.redirect_stdout(lines):
            if main(["estimate-hm", str(tmp / name), "--d", d, "--delta", delta]) != 0:
                raise AssertionError(f"estimate-hm {name}: the command did not exit 0")
    texts["estimate_covering.txt"] = lines.getvalue()
    return texts


def _close(got, want, where="") -> None:
    if isinstance(want, float) and type(got) is float:
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for key in want:
            _close(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _cell(field: str):
    try:
        return float(field)
    except ValueError:
        return field


def _csv_cells(text: str) -> list:
    """The CSV rows with every field that parses as a float replaced by that float."""
    return [[_cell(f) for f in row] for row in csv.reader(io.StringIO(text))]


def _words(text: str) -> list:
    """The lines split on whitespace, with every word that parses as a float replaced by that float."""
    return [[_cell(w) for w in line.split()] for line in text.splitlines()]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", NAMES)
def test_matches_golden(outputs, name):
    want = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".csv"):
        _close(_csv_cells(outputs[name]), _csv_cells(want), name)
    elif name.endswith(".txt"):
        _close(_words(outputs[name]), _words(want), name)
    else:
        _close(json.loads(outputs[name]), json.loads(want), name)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _outputs(Path(tmp)).items():
            (GOLDEN / name).write_text(text, encoding="utf-8")
            print("wrote", GOLDEN / name, file=sys.stderr)
