"""The by-hand mutation probe (``tools/mutation_probe.py``) on a tiny tree made in a temporary directory."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutation_probe.py"

# Four mutants: the two boundary flips are equivalent (at x == lo, or x == hi,
# either branch returns the same value), and the test kills both arithmetic swaps.
TINY_MODULE = '''\
def clamp(x, lo, hi):
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x


def midpoint(a, b):
    return (a + b) / 2  # a comment holding "+" and "/" is not an operator
'''

TINY_TEST = '''\
from tiny import clamp, midpoint


def test_clamp():
    assert [clamp(x, 0, 10) for x in (-1, 5, 11)] == [0, 5, 10]


def test_midpoint():
    assert midpoint(2, 6) == 4
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("mutation_probe", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.fixture
def tiny_tree(tmp_path):
    root = tmp_path / "tree"
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "pyproject.toml").write_text('[tool.pytest.ini_options]\npythonpath = ["src"]\n')
    (root / "src" / "tiny.py").write_text(TINY_MODULE)
    # Named outside pytest's test_*.py pattern: only a selection that names it runs it.
    (root / "tests" / "check_tiny.py").write_text(TINY_TEST)
    return root


def test_finds_each_operator_token_in_place(tool):
    mutants = tool.find_mutants(TINY_MODULE)
    assert [(m.line, m.old, m.new) for m in mutants] == [(2, "<", "<="), (4, ">", ">="), (10, "+", "-"), (10, "/", "*")]
    lines = TINY_MODULE.splitlines(keepends=True)
    assert mutants[2].apply(lines)[9] == '    return (a - b) / 2  # a comment holding "+" and "/" is not an operator\n'
    assert mutants[3].apply(lines)[9] == '    return (a + b) * 2  # a comment holding "+" and "/" is not an operator\n'


def test_report_of_a_tiny_module(tool, tiny_tree, tmp_path):
    before = {path: path.read_bytes() for path in tiny_tree.rglob("*") if path.is_file()}
    out = tmp_path / "report.json"
    assert tool.main(["src/tiny.py", "tests/check_tiny.py", "--root", str(tiny_tree), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"module", "tests", "mutants", "killed", "survived", "timed_out", "survivors"}
    assert (report["module"], report["tests"]) == ("src/tiny.py", ["tests/check_tiny.py"])
    assert (report["mutants"], report["killed"], report["survived"], report["timed_out"]) == (4, 2, 2, 0)
    assert report["survivors"] == [
        {"line": 2, "col": 9, "old": "<", "new": "<=", "source": "if x < lo:"},
        {"line": 4, "col": 9, "old": ">", "new": ">=", "source": "if x > hi:"},
    ]
    # The tree it was given is only read.
    assert {path: path.read_bytes() for path in tiny_tree.rglob("*") if path.is_file()} == before


def test_refuses_tests_that_fail_unmutated(tool, tiny_tree, tmp_path):
    (tiny_tree / "tests" / "check_tiny.py").write_text(TINY_TEST.replace("== 4", "== 5"))
    with pytest.raises(SystemExit, match="do not pass"):
        tool.main(["src/tiny.py", "tests/check_tiny.py", "--root", str(tiny_tree), "--out", str(tmp_path / "r.json")])
