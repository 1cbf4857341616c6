"""Every name a module of the package imports is used in that module,
every exported function is used outside its own module, and no module
imports scipy, a test dependency."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import edgeqet

MODULES = sorted(p for p in Path(edgeqet.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the import statements of ``source`` that no other
    expression reads; ``from __future__ import annotations`` is a
    compiler directive, not a name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "annotations":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [
        "os (line 1)"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_importing_every_module_loads_no_scipy():
    """scipy is a test dependency: importing the package and every
    module in it, in a fresh interpreter, loads no scipy module
    (``oracle.expm`` imports scipy.linalg only when it is called)."""
    names = ["edgeqet"] + [f"edgeqet.{p.stem}" for p in MODULES]
    code = ("import importlib, sys\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module(name)\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    src = str(Path(edgeqet.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def names_read(source: str) -> set:
    """The names and attribute names that expressions of ``source``
    read."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_exported_function_has_a_caller():
    """No public API only tests use: each function in ``edgeqet.__all__``
    is read by a package module other than ``__init__`` and the one that
    defines it, or named in the benchmark's scripts (perfbench/*.py)."""
    read_by = {path.stem: names_read(path.read_text(encoding="utf-8"))
               for path in MODULES}
    perfbench = Path(edgeqet.__file__).resolve().parents[2] / "perfbench"
    bench_text = "\n".join(p.read_text(encoding="utf-8")
                           for p in sorted(perfbench.glob("*.py")))
    uncalled = []
    for name in edgeqet.__all__:
        fn = getattr(edgeqet, name)
        if not inspect.isfunction(fn):
            continue
        home = fn.__module__.rpartition(".")[2]
        if not (any(name in names for stem, names in read_by.items()
                    if stem != home)
                or re.search(rf"\b{name}\b", bench_text)):
            uncalled.append(name)
    assert uncalled == []
