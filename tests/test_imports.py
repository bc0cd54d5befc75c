"""Every import in src/, tests/ and scripts/ is used.

A name bound by an import counts as used when the module reads it: as a
name, as the root of an attribute chain, inside a string annotation, or
in __all__.  Package __init__ modules are exempt, since their imports
are the package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for top in ("src", "tests", "scripts")
    for path in (ROOT / top).rglob("*.py") if path.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations and __all__ entries
            try:
                used |= _used_names(ast.parse(node.value, mode="eval"))
            except (SyntaxError, ValueError):
                pass
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [f"line {line}: {name}"
            for name, line in sorted(_imported_names(tree).items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_check_sees_an_unused_import():
    source = ("from typing import Optional, Sequence\nimport os.path\n"
              "def f(x: 'Sequence[int]') -> None:\n    return None\n")
    assert unused_imports(source) == ["line 1: Optional", "line 2: os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
