"""numpy stays the only runtime dependency of engpred."""

import ast
import sys
from pathlib import Path

import pytest

import engpred

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "engpred"}
PACKAGE = Path(engpred.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _imported_roots(path: Path) -> set[str]:
    """The top-level package of every absolute import in a module, wherever it stands."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_module_is_found():
    assert {"cli", "model", "trainer"} <= {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[path.relative_to(PACKAGE).as_posix() for path in MODULES])
def test_imports_only_the_standard_library_numpy_and_engpred(path):
    assert sorted(_imported_roots(path) - ALLOWED) == []
