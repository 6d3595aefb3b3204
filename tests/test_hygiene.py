"""Tooling guards, by AST scan and, for line length, by text.

No module of `src/curvegp`, `tests` or `scripts` imports a name that it
never uses. A name counts as used when it appears as an identifier anywhere
in the module, inside a string annotation, or in the module's `__all__`.
`from __future__` imports are compiler directives and are skipped. No line
of those modules is longer than 100 characters.

No module-level function, class or constant of `src/curvegp` is dead: each
is referenced by another line of the package or of `scripts`, or exported
in its own module's `__all__`. References from the tests do not count, so a
name that only the tests call fails here. Nor do the package's import
lines: a name that `__init__` re-exports and nothing uses is dead.

No method or property of a class of `src/curvegp` is dead either: each is
read as an attribute by the package, `scripts` or the benchmark in
`perfbench`, or named in the benchmark tracer's `TARGETS`. Dunder methods
are protocol and dataclass fields are data, so neither is scanned.

Nor is an instance attribute dead: each that a method of a class of
`src/curvegp` assigns on ``self`` is read by the package, `scripts` or
`perfbench`, an attribute load or an in-place update such as ``+=``. Names
match by name, as the member scan's do, so an attribute that shares its
name with another class's read one passes.
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
    return used | _exported(tree)


def _exported(tree):
    """The names in the module's `__all__`."""
    for node in tree.body if isinstance(tree, ast.Module) else ():
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


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


MAX_LINE = 100


def long_lines(source: str) -> list:
    """The numbers of the lines longer than `MAX_LINE` characters."""
    return [k for k, line in enumerate(source.splitlines(), 1) if len(line) > MAX_LINE]


def test_scan_finds_long_lines():
    assert long_lines("x = 1\n" + "y" * MAX_LINE + "\n" + "z" * (MAX_LINE + 1)) == [3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_line_over_100_characters(path):
    assert long_lines(path.read_text()) == []


def _definitions(tree):
    """Name -> line of every module-level function, class and constant.
    Dunder names (`__all__`, `__version__`) are module protocol, not API."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return {name: line for name, line in names.items()
            if not (name.startswith("__") and name.endswith("__"))}


def _references(tree, imports=True):
    """(name, line) of every name read, attribute, imported name (unless
    ``imports`` is false) and name in a string annotation."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif imports and isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
    for annotation in _string_annotations(tree):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            for name in _used(ast.parse(annotation.value, mode="eval")):
                yield name, annotation.lineno


def _members(tree):
    """'Class.member' -> line of every method and property of the module's
    classes, dunder methods left out."""
    return {f"{node.name}.{item.name}": item.lineno
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))}


def _attributes(tree):
    """'Class.attribute' -> first line of every attribute that a method of
    the module's classes assigns on ``self``."""
    assigned = {}
    for node in tree.body:
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.args.args and item.args.args[0].arg == "self"):
                for target in ast.walk(item):
                    if (isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
                            and isinstance(target.value, ast.Name) and target.value.id == "self"):
                        path = f"{node.name}.{target.attr}"
                        assigned[path] = min(target.lineno, assigned.get(path, target.lineno))
    return assigned


def _read_attributes(tree):
    """The attribute names that the module reads: each attribute load and
    each attribute target of an in-place update."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            yield node.target.attr


def _traced(tree):
    """The 'Class.member' paths that the tracer's `TARGETS` list names:
    the third entry of each of its tuples, when it holds a dot."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return {target.elts[2].value for target in node.value.elts
                    if "." in target.elts[2].value}
    return set()


def dead_names(package: dict, scripts=(), benchmark=()) -> list:
    """Names of the package (module name -> source) that nothing uses, as
    'module.name (line N)':

    - module-level names that no other line of the package or of the
      scripts references and their own module's `__all__` does not export.
      An import line of the package is no reference (a package module that
      imports a name without using it fails `test_no_unused_imports`); one
      of a script is;
    - methods and properties, as 'module.Class.member (line N)', that no
      attribute of the package, the scripts or the benchmark sources reads
      and no `TARGETS` list of the scripts or benchmark sources names;
    - instance attributes that a method assigns on ``self``, as
      'module.Class.attribute (line N)' with the first such line, that no
      line of the package, the scripts or the benchmark sources reads."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    references = {(module, name, line) for module, tree in trees.items()
                  for name, line in _references(tree, imports=False)}
    references |= {(None, name, line) for source in scripts
                   for name, line in _references(ast.parse(source))}
    external = [ast.parse(source) for source in (*scripts, *benchmark)]
    attributes = {node.attr for tree in (*trees.values(), *external)
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    traced = set().union(*map(_traced, external))
    read = {name for tree in (*trees.values(), *external) for name in _read_attributes(tree)}
    dead = []
    for module, tree in sorted(trees.items()):
        names = {name: line for name, line in _definitions(tree).items()
                 if name not in _exported(tree)
                 and not any(n == name and (m, ln) != (module, line)
                             for m, n, ln in references)}
        names.update((path, line) for path, line in _members(tree).items()
                     if path not in traced and path.split(".")[1] not in attributes)
        names.update((path, line) for path, line in _attributes(tree).items()
                     if path.split(".")[1] not in read)
        dead += [f"{module}.{name} (line {line})"
                 for name, line in sorted(names.items(), key=lambda d: d[1])]
    return dead


def test_scan_finds_dead_names():
    package = {
        "a": ("BASIS = (1, 2)\n"
              "LADDER = (0.0,)\n"
              "def helper():\n"
              "    return LADDER\n"
              "def _orphan(x: 'Used'):\n"
              "    return helper()\n"
              "class Used:\n"
              "    pass\n"
              "def for_scripts():\n"
              "    pass\n"
              "def reexported():\n"
              "    pass\n"),
        "__init__": ("from .a import Used, reexported\n"
                     "__all__ = ['exported', 'reexported']\n"
                     "def exported():\n"
                     "    pass\n"
                     "__version__ = '1'\n")}
    # a re-export in `__init__` (its import and its `__all__` entry) is no
    # use of `a.reexported`
    dead = ["a.BASIS (line 1)", "a._orphan (line 5)", "a.for_scripts (line 9)",
            "a.reexported (line 11)"]
    assert dead_names(package, ["from curvegp.a import for_scripts\n"]) == [
        name for name in dead if "for_scripts" not in name]
    assert dead_names(package) == dead


def test_scan_finds_dead_members():
    package = {"m": ("from dataclasses import dataclass\n"
                     "__all__ = ['Fit']\n"
                     "@dataclass\n"
                     "class Fit:\n"
                     "    grid: list\n"
                     "    def __post_init__(self):\n"
                     "        self.grid = list(self.grid)\n"
                     "    @property\n"
                     "    def size(self):\n"
                     "        return len(self.grid)\n"
                     "    def for_tests(self):\n"
                     "        return self.size\n"
                     "    def traced(self):\n"
                     "        pass\n"
                     "    def benchmarked(self):\n"
                     "        pass\n")}
    benchmark = ("TARGETS = [('m.traced', 'curvegp.m', 'Fit.traced', None)]\n"
                 "Fit([]).benchmarked()\n")
    # a test calling `for_tests` is no use; the field `grid`, the dunder,
    # and the property the package reads are not scanned or are used
    assert dead_names(package, benchmark=[benchmark]) == ["m.Fit.for_tests (line 11)"]
    assert dead_names(package) == ["m.Fit.for_tests (line 11)", "m.Fit.traced (line 13)",
                                   "m.Fit.benchmarked (line 15)"]


def test_scan_finds_dead_attributes():
    package = {"m": ("__all__ = ['Work']\n"
                     "class Work:\n"
                     "    def __init__(self, n):\n"
                     "        self.size, self.count = n, 0\n"
                     "        self.kept = None\n"
                     "        self.rows = [n]\n"
                     "        self.for_tests = n\n"
                     "        self.benchmarked = n\n"
                     "    def step(self):\n"
                     "        self.count += 1\n"
                     "        self.kept = self.rows[0]\n"
                     "        return self.size\n"
                     "    def forget(self):\n"
                     "        del self.rows\n")}
    benchmark = "w = Work(1)\nw.step()\nw.forget()\nprint(w.benchmarked)\n"
    # `count` is read by its in-place update and `rows` by `step`; `kept`,
    # assigned twice and never read, is dead at its first line, and so is
    # `for_tests`, since a test reading it is no use
    assert dead_names(package, benchmark=[benchmark]) == [
        "m.Work.kept (line 5)", "m.Work.for_tests (line 7)"]
    assert dead_names(package) == [
        "m.Work.kept (line 5)", "m.Work.for_tests (line 7)", "m.Work.benchmarked (line 8)",
        "m.Work.step (line 9)", "m.Work.forget (line 13)"]


def test_no_dead_names():
    package = {path.stem: path.read_text() for path in ROOT.glob("src/curvegp/*.py")}
    scripts = [path.read_text() for path in ROOT.glob("scripts/*.py")]
    benchmark = [path.read_text() for path in ROOT.glob("perfbench/*.py")]
    assert dead_names(package, scripts, benchmark) == []
