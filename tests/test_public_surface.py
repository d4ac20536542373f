"""The names engpred offers resolve: every entry of ``engpred.__all__``, and every
engpred name a file under ``benchmarks/`` imports or reads from an imported engpred
module. Each ``autodiff`` function is used by another engpred module or by the
benchmark. The files are parsed, never run."""

import ast
import importlib
import inspect
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
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "engpred"):
            # A relative import is one from the ``engpred`` package, whose modules all sit at its top level.
            module = ".".join(filter(None, ["engpred" if node.level else "", node.module]))
            for alias in node.names:
                value = getattr(importlib.import_module(module), alias.name, None)
                if isinstance(value, types.ModuleType):  # ``from engpred import records``, ``from . import autodiff``
                    modules[alias.asname or alias.name] = value.__name__
                else:
                    names.add((module, alias.name))
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


SRC_NAMES = set().union(
    *(_engpred_names(path) for path in Path(engpred.__file__).parent.glob("*.py") if path.name != "autodiff.py")
)


def test_every_autodiff_function_is_used_by_a_stage_or_the_benchmark():
    assert {("engpred.autodiff", "linear"), ("engpred.autodiff", "Tape")} <= SRC_NAMES
    used = {name for module, name in SRC_NAMES.union(BENCH_NAMES) if module == "engpred.autodiff"}
    # An op only tests call belongs beside them, as the references in ``tests/reference_ops.py`` do.
    assert [name for name, f in inspect.getmembers(engpred.autodiff, inspect.isfunction)
            if f.__module__ == "engpred.autodiff" and name[0] != "_" and name not in used] == []
