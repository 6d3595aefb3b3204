"""Tooling guard: no module imports a name that it never uses.

An AST scan of `src/curvegp/*.py`, `tests/*.py` and `scripts/*.py`. A name counts as used when it appears as
an identifier anywhere in the module, inside a string annotation, or in the
module's `__all__`. `from __future__` imports are compiler directives and
are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for pattern in ("src/curvegp/*.py", "tests/*.py", "scripts/*.py")
                 for path in ROOT.glob(pattern))


def _imported(tree):
    """Bound name -> line of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _string_annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _string_annotations(tree):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _used(ast.parse(annotation.value, mode="eval"))
    for node in tree.body if isinstance(tree, ast.Module) else ():
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list:
    """Imported names that the module never uses, as 'name (line N)'."""
    tree = ast.parse(source)
    used = _used(tree)
    return [f"{name} (line {line})"
            for name, line in sorted(_imported(tree).items()) if name not in used]


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "import xml.etree.ElementTree\n"
              "from typing import Any, Sequence\n"
              "from .x import exported\n"
              "__all__ = ['exported']\n"
              "def f(a: 'Sequence[int]') -> np.ndarray:\n"
              "    return xml.etree\n")
    assert unused_imports(source) == ["Any (line 5)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
