"""Every import in src/, tests/ and scripts/ is used, and the package has
no run-time dependency: pyproject.toml lists none, every module-level
import is of the standard library or of the package, mpmath is imported
only inside trigpoly's function bodies, and every command runs with
mpmath hidden from the import system.  No result rests on libm: only
certify's float centre scan and RationalAngle.__float__ read math.cos,
math.sin or math.pi.

A name bound by an import counts as used when the module reads it: as a
name, as the root of an attribute chain, inside a string annotation, or
in __all__.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for top in ("src", "tests", "scripts")
    for path in (ROOT / top).rglob("*.py"))


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


def _imported_modules(tree: ast.AST) -> set[str]:
    """Top-level names of the absolute modules a module imports."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


PACKAGE = sorted((ROOT / "src").rglob("*.py"))

# trigpoly imports libmp inside TrigPoly.eval_interval only, kept
# because the benchmark's traced run pins it (ROADMAP item 1).
MPMATH_IMPORTERS = {"trigpoly.py"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_the_package_does_not_import_numpy(path):
    assert "numpy" not in _imported_modules(ast.parse(path.read_text()))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_trigpoly_imports_mpmath(path):
    imported = "mpmath" in _imported_modules(ast.parse(path.read_text()))
    assert not imported or path.name in MPMATH_IMPORTERS


def test_the_package_declares_no_run_time_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    extras = project["optional-dependencies"]
    assert all(any(d.startswith("mpmath") for d in extras[x]) for x in ("test", "bench"))


def _module_level_roots(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute modules imported outside function
    bodies."""
    roots = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            roots |= _imported_modules(node)
        todo.extend(ast.iter_child_nodes(node))
    return roots


def test_the_module_level_check_skips_function_bodies():
    source = ("import os\nfrom . import x\nif True:\n    import json.decoder\n"
              "class A:\n    import re\n    def f(self):\n        import mpmath\n"
              "def g():\n    from mpmath import iv\n")
    assert _module_level_roots(ast.parse(source)) == {"os", "json", "re"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_level_imports_are_the_standard_library(path):
    """Relative imports, the package's own, are not counted; mpmath may
    only be imported where test_only_trigpoly_imports_mpmath allows, and
    this keeps it inside function bodies there."""
    roots = _module_level_roots(ast.parse(path.read_text()))
    assert roots - set(sys.stdlib_module_names) - {"sphertet"} == set()


# The float readers of libm's trigonometry: the centre scan ranks
# candidate centres, each then certified exactly.
LIBM_READERS = {("certify.py", "_float_vertices"), ("certify.py", "_longitudes"),
                ("angles.py", "RationalAngle.__float__")}
_LIBM = {"cos", "sin", "pi"}


def libm_reads(source: str) -> list[tuple[str, int]]:
    """(enclosing qualified name, line) of every read of math.cos,
    math.sin or math.pi, under any alias of math or of the name."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names |= {a.asname or a.name for a in node.names if a.name in _LIBM}
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Attribute) and node.attr in _LIBM
                and isinstance(node.value, ast.Name) and node.value.id in modules
                or isinstance(node, ast.Name) and node.id in names):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_the_libm_check_sees_every_form():
    source = ("import math as m\nfrom math import cos as c, gcd\n"
              "class A:\n    def f(self):\n        return m.pi + c(1) + gcd(2, 4)\n"
              "x = m.sin(0) + m.tau\n")
    assert libm_reads(source) == [("A.f", 5), ("A.f", 5), ("", 6)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_result_reads_libm_trigonometry(path):
    """A read counts as its reader's when it lies in the reader's body,
    nested functions included."""
    readers = {scope for name, scope in LIBM_READERS if name == path.name}
    stray = [(scope, line) for scope, line in libm_reads(path.read_text())
             if not any(f"{scope}.".startswith(f"{r}.") for r in readers)]
    assert stray == []


def _fresh(code: str, *args: str) -> list[str]:
    """The printed words of code run in a fresh interpreter on src/."""
    env = {k: v for k, v in os.environ.items() if k != "SPHERTET_OUT_DIR"}
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT / "src", env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.split()


def test_the_package_root_loads_no_module():
    assert _fresh("import sys, sphertet; print(sorted(m for m in sys.modules"
                  " if m.startswith(('sphertet.', 'mpmath'))))") == ["[]"]


def test_the_cyclotomic_core_loads_no_mpmath():
    assert _fresh("import sys, sphertet.cyclotomic;"
                  "print(any(m.startswith('mpmath') for m in sys.modules))") == ["False"]


_LOADED = "print(*sorted(m for m in sys.modules if m.startswith('sphertet.')))"


def test_records_sits_on_angles_alone():
    """The search, Lambert and geometry types in records name annotations
    only, so the fixture reader loads no other package module."""
    assert _fresh("import sys, sphertet.records\n" + _LOADED) == [
        "sphertet.angles", "sphertet.records"]


# Run the command line in-process with its stdout silenced, then report
# whether it exited 0 and whether mpmath was loaded.
_CLI = ("import contextlib, io, sys; from sphertet import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()): rc = cli.main(sys.argv[1:])\n"
        "print(rc, 'mpmath' in sys.modules)")


@pytest.mark.parametrize("command", ["verify-families", "search-quadruples",
                                     "search-triples", "search-lambert", "catalog"])
def test_the_searches_and_family_checks_leave_mpmath_unloaded(command):
    assert _fresh(_CLI, command) == ["0", "False"]


def test_the_certificate_leaves_mpmath_unloaded():
    assert _fresh(_CLI, "certify", "--paper-example") == ["0", "False"]


def test_the_catalog_leaves_the_obstruction_code_unloaded():
    """catalog reads the Coxeter rows through records, not through certify."""
    assert _fresh(_CLI + "\nprint('sphertet.certify' in sys.modules)", "catalog") == [
        "0", "False", "False"]


@pytest.mark.parametrize("command", [
    ["certify", "--paper-example"], ["catalog"], ["verify-families"],
    ["search-quadruples"], ["search-triples"], ["search-lambert"]], ids=lambda c: c[0])
def test_every_command_runs_with_mpmath_hidden(command):
    """A None entry in sys.modules makes every import of mpmath raise."""
    assert _fresh("import sys; sys.modules['mpmath'] = None\n" + _CLI, *command)[0] == "0"


def test_the_readme_library_example_runs():
    """The README's python block, run as written, gives pi^2/162."""
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    scope: dict = {}
    exec(block, scope)
    assert scope["volume"](scope["quad"]).value == Fraction(1, 162)
    assert scope["inst"].vol.value == Fraction(1, 162)
    assert scope["recheck_obstruction"](scope["cert"].to_payload())


def test_setup_leaves_numpy_unimported():
    """A fresh interpreter that imports sphertet and its command line and
    loads the fixtures and the family catalog as the benchmark worker
    does has not imported numpy."""
    code = ("import sys; from pathlib import Path; sys.path.insert(0, '.');"
            "from perfbench import worker; worker.setup(Path('.').resolve());"
            "import sphertet, sphertet.cli; print('numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split() == ["False"]


def test_setup_loads_no_search_and_no_certificate_code():
    """The benchmark worker's set-up loads the fixtures and the family
    catalog: the modules they need and no search, Lambert, certify or cli."""
    code = ("import sys; from pathlib import Path; sys.path.insert(0, '.');"
            "from perfbench import worker; worker.setup(Path('.').resolve())\n" + _LOADED)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split() == [f"sphertet.{m}" for m in (
        "angles", "cyclotomic", "families", "geometry", "records", "trigpoly")]
