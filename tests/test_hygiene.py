"""Source hygiene checks over the package, using only the stdlib ``ast``."""

import ast
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
