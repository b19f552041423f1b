"""Source hygiene checks over the package, using only the stdlib ``ast``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "aieo"
MODULES = sorted(PACKAGE.glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    """The names a module-level ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Each name the source imports and never reads, as ``line: name``.
    ``__all__`` counts as a read, and an import with ``# noqa: F401`` on its
    first line (a re-export block) or on the name's own line is exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if any("noqa: F401" in lines[n - 1] for n in (node.lineno, alias.lineno)):
                    continue
                imported.setdefault(alias.asname or alias.name.split(".")[0], alias.lineno)
    read = _exported(tree)
    read.update(n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in read]


def test_the_check_sees_unused_and_exempt_imports():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "from operator import attrgetter, itemgetter\n"
        "from typing import Callable\n"
        "from .model import (  # noqa: F401  (re-exported)\n"
        "    Iri,\n"
        ")\n"
        "from .model import Field\n"
        "__all__ = ['Field']\n"
        "def f(x: Callable[[], None]) -> None:\n"
        "    return attrgetter('a')(x)\n"
    )
    assert unused_imports(source) == ["2: json", "3: itemgetter"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _defined(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function or class, or the
    plain names an assignment binds, dunder names such as ``__all__`` aside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)
            and not (t.id.startswith("__") and t.id.endswith("__"))]


def unread_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Each top-level function, class and assigned name of the modules in
    ``sources`` (name -> text) that no module reads and ``exported`` does
    not list, as ``module.name``. A read is a name loaded or an attribute
    taken."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set(exported)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}.{name}" for module, tree in trees.items() for node in tree.body
            for name in _defined(node) if name not in read]


def test_the_check_sees_unread_definitions():
    sources = {
        "a": "def used(): pass\ndef unused(): pass\nclass Public: pass\nclass _Hidden: pass\n"
             "__all__ = ['Public']\nTABLE = {}\nLIMIT: int = 3\n_LEFT = 0\nx, y = 1, 2\n",
        "b": "from .a import used\nimport a\nused()\na._Hidden\na.TABLE\nLIMIT\n",
    }
    assert unread_definitions(sources, {"Public"}) == ["a.unused", "a._LEFT"]


def test_every_definition_is_read_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    exported = _exported(ast.parse(sources["__init__"]))
    assert unread_definitions(sources, exported) == []


def _imports(tree: ast.Module) -> set[str]:
    """The top-level names of every module the tree imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_the_cli_imports_gc():
    # The CLI owns its process and pauses the collector for each command; a
    # library call leaves the caller's collector as it is.
    importers = [path.name for path in MODULES
                 if "gc" in _imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == ["cli.py"]


def test_no_module_imports_dataclasses():
    # Every value class is a model._Record; the dataclasses module alone
    # costs an import of inspect, ast, dis and tokenize.
    importers = [path.name for path in MODULES
                 if "dataclasses" in _imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == []


def _fresh_python(code: str) -> str:
    """The standard output of ``code`` run in a new interpreter that imports
    this checkout's package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_importing_the_package_and_cli_leaves_out_dataclasses():
    assert _fresh_python(
        "import sys, aieo, aieo.cli; print('dataclasses' in sys.modules)") == "False\n"


def test_the_package_imports_whenever_the_collector_runs():
    # A collection at every allocation: a record type whose field getters
    # were read from an unreferenced namedtuple class found its dict cleared.
    assert _fresh_python("import gc; gc.set_threshold(1); import aieo, aieo.cli; print('ok')"
                         ) == "ok\n"


def test_records_read_their_fields_where_the_c_getter_is_missing():
    # The fallback namedtuple itself uses: a property over an itemgetter.
    assert _fresh_python(
        "import _collections; del _collections._tuplegetter\n"
        "from aieo.model import AnnotationValue\n"
        "v = AnnotationValue('x', 'en')\n"
        "print(type(vars(AnnotationValue)['text']).__name__, v.text, v.language_tag, v)"
    ) == "property x en AnnotationValue(text='x', language_tag='en')\n"
