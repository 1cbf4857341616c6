"""The functions the benchmark wraps and probes still exist in edgeqet.

``perfbench/tracing.TARGETS`` names each traced function by module and
attribute, and the traced run's probe (``perfbench/worker._run_probe``)
calls oracle functions by attribute; a cleanup that removes one of them
breaks ``perfbench/run.py --trace 1``.  The suite also runs on the
thread pools perfbench pins.  These tests read perfbench's sources and
change nothing in it.
"""

import ast
import importlib
import importlib.util
import os
from pathlib import Path

import conftest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _probe_reads():
    """{(module, attribute)} of every edgeqet name ``_run_probe`` reads:
    the names it imports from an edgeqet module and the attributes it
    takes of an edgeqet module it imports."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    probe = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_run_probe")
    modules, reads = {}, set()
    for node in ast.walk(probe):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("edgeqet"):
                    modules[alias.asname or alias.name] = alias.name
        elif (isinstance(node, ast.ImportFrom)
              and node.module.startswith("edgeqet")):
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                try:                     # a submodule, or a name in one
                    importlib.import_module(name)
                    modules[alias.asname or alias.name] = name
                except ModuleNotFoundError:
                    reads.add((node.module, alias.name))
    for node in ast.walk(probe):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.add((modules[node.value.id], node.attr))
    return reads


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for span, module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), span


def test_probe_calls_resolve():
    reads = _probe_reads()
    assert ("edgeqet.oracle", "run_protocol") in reads
    for module_name, attr in reads:
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), f"{module_name}.{attr}"


def test_suite_pins_thread_pools_like_perfbench():
    """conftest sets every thread variable perfbench's ``THREAD_VARS``
    names to one thread, and does so before numpy loads, which is when
    OpenBLAS reads them."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "THREAD_VARS")
    assert names and all(os.environ[name] == "1" for name in names)
    assert not conftest.NUMPY_BEFORE_PINNING
