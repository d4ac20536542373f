"""Mutation probe: flip one operator of a module at a time and see whether its tests notice.

Each mutant swaps one comparison (``<``/``<=``, ``>``/``>=``, ``==``/``!=``)
or one arithmetic operator (``+``/``-``, ``*``/``/``) of the module, and
nothing else: the operator token is rewritten in place, so every other byte
and every line number stay as they were. The tests then run once per mutant
with ``-x``; a failing run kills the mutant, a passing one lets it survive. A
survivor is either a gap in the tests or an equivalent mutant, such as ``<``
against ``<=`` at a boundary no input reaches.

All of it happens in a temporary copy of the tree; the tree given is only
read. The unmutated tests must pass in the copy first. Standard library only.

Run it by hand from the repository root, for example::

    python tools/mutation_probe.py src/engpred/metrics.py tests/test_metrics.py --out mutants-metrics.json
    python tools/mutation_probe.py src/engpred/records.py --out mutants-records.json -- tests/test_records.py -k "not property"

The JSON report holds the module, the test selection, the counts of mutants,
killed, survived and timed out (a timed-out run counts as killed), and each
survivor's line, column, operator swap and source line.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from dataclasses import asdict, dataclass
from pathlib import Path

SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
}
# Seconds per test run; a mutant that makes a loop run on is killed at this limit.
TEST_TIMEOUT_S = 300.0
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.pyc")


@dataclass(frozen=True)
class Mutant:
    line: int  # 1-based
    col: int  # character column of the operator token
    old: str
    new: str
    source: str  # the unmutated line, stripped

    def apply(self, lines: list[str]) -> list[str]:
        text = lines[self.line - 1]
        assert text[self.col : self.col + len(self.old)] == self.old
        out = list(lines)
        out[self.line - 1] = text[: self.col] + self.new + text[self.col + len(self.old) :]
        return out


def _char_pos(lines: list[str], line: int, byte_col: int) -> tuple[int, int]:
    """An ast (line, UTF-8 byte column) position as a (line, character column) one."""
    return line, len(lines[line - 1].encode("utf-8")[:byte_col].decode("utf-8"))


def find_mutants(source: str) -> list[Mutant]:
    """One mutant per swappable operator of ``source``, in source order."""
    lines = io.StringIO(source).readlines()
    ops = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline) if tok.type == tokenize.OP]
    # (operator class, end of the operand before it, start of the operand after it)
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            spans.append((type(node.op), node.left, node.right))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            spans += [(type(op), a, b) for op, a, b in zip(node.ops, operands, operands[1:])]
    mutants = []
    for op_type, before, after in spans:
        if op_type not in SWAPS:
            continue
        old, new = SWAPS[op_type]
        lo = _char_pos(lines, before.end_lineno, before.end_col_offset)
        hi = _char_pos(lines, after.lineno, after.col_offset)
        tok = next(t for t in ops if t.string == old and lo <= t.start < hi)
        row, col = tok.start
        mutants.append(Mutant(row, col, old, new, lines[row - 1].strip()))
    return sorted(mutants, key=lambda m: (m.line, m.col))


def _run_tests(tree: Path, tests: list[str]) -> str:
    """``"passed"``, ``"failed"`` or ``"timeout"`` for one run of the selection in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def probe(root: Path, module: str, tests: list[str]) -> dict:
    """Run every mutant of ``root/module`` against ``tests`` in a copy of ``root``; the report as a dict."""
    source = (root / module).read_text(encoding="utf-8")
    mutants = find_mutants(source)
    lines = io.StringIO(source).readlines()
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=IGNORED)
        target = tree / module
        if _run_tests(tree, tests) != "passed":
            raise SystemExit(f"the unmutated tests {tests} do not pass in a copy of {root}")
        outcomes = []
        for mutant in mutants:
            target.write_text("".join(mutant.apply(lines)), encoding="utf-8")
            outcomes.append(_run_tests(tree, tests))
        target.write_text(source, encoding="utf-8")
    survivors = [asdict(m) for m, outcome in zip(mutants, outcomes) if outcome == "passed"]
    return {
        "module": module,
        "tests": tests,
        "mutants": len(mutants),
        "killed": len(mutants) - len(survivors),
        "survived": len(survivors),
        "timed_out": outcomes.count("timeout"),
        "survivors": survivors,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module to mutate, relative to --root")
    parser.add_argument("tests", nargs="+", help="pytest selection, run from --root (put options after --)")
    parser.add_argument("--root", type=Path, default=Path.cwd(), help="tree to copy (default: the current directory)")
    parser.add_argument("--out", type=Path, required=True, help="JSON report to write")
    args = parser.parse_args(argv)
    report = probe(args.root.resolve(), args.module, args.tests)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"{args.module}: {report['mutants']} mutants, {report['killed']} killed, {report['survived']} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
