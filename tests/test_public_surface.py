"""The names engpred offers resolve: every entry of ``engpred.__all__``, and every
engpred name a file under ``benchmarks/`` imports or reads from an imported
engpred module. The benchmark files are parsed, never run."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import engpred

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_name_in_all_resolves():
    # A stale entry breaks only ``from engpred import *``.
    assert [name for name in engpred.__all__ if not hasattr(engpred, name)] == []


def _engpred_names(path: Path) -> set[tuple[str, str]]:
    """``(module, name)`` for each engpred name the file imports, or reads as an
    attribute of a module it imports from engpred."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules: dict[str, str] = {}  # local name -> engpred module
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "engpred":
                    # ``import engpred.cli`` binds ``engpred``; ``import engpred.cli as cli`` binds ``cli``.
                    modules[alias.asname or "engpred"] = alias.name if alias.asname else "engpred"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "engpred":
            for alias in node.names:
                value = getattr(importlib.import_module(node.module), alias.name, None)
                if isinstance(value, types.ModuleType):  # ``from engpred import records``
                    modules[alias.asname or alias.name] = value.__name__
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add((modules[node.value.id], node.attr))
    return names


BENCH_NAMES = sorted(set().union(*map(_engpred_names, sorted(BENCHMARKS.glob("*.py")))))


def test_both_kinds_of_use_are_found():
    # ``from engpred.model import forward``, and ``cli.main`` after ``import engpred.cli as cli``.
    assert {("engpred.model", "forward"), ("engpred.cli", "main")} <= set(BENCH_NAMES)


@pytest.mark.parametrize("module, name", BENCH_NAMES, ids=[f"{m}.{n}" for m, n in BENCH_NAMES])
def test_every_engpred_name_the_benchmarks_use_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
