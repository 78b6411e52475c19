"""Every name a module of the package imports is used by it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "sgsolve").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads.  A name listed
    in ``__all__`` is read: the module exports it."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_sources_found():
    assert {"__init__.py", "ecsolve.py", "graph.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "from typing import Callable, Optional\n"
        "import math\n"
        "from .model import Player\n"
        "__all__ = ['Player']\n"
        "x: Optional[int] = None\n"
    )
    assert unused_imports(source) == ["Callable (line 1)", "math (line 2)"]
