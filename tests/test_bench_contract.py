"""The names the benchmark harness reads from the package still exist.

The tracer of ``perfbench/spans.py`` wraps every ``(module, attribute)``
of ``SPANS`` with a bare ``getattr``, and ``perfbench/workloads.py``
builds its inputs from attributes of ``dqs`` modules, so renaming or
deleting any of them breaks traced runs.  Both files are only parsed
here, never imported or run.
"""

import ast
import importlib
from functools import reduce
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_ast(name):
    return ast.parse((PERFBENCH / name).read_text())


def _spans():
    """The (module, attribute, layer) triples of ``SPANS``."""
    for node in _module_ast("spans.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no SPANS")


def _workload_reads():
    """(module, attribute) of every ``module.attribute`` that
    ``workloads.py`` reads from a module it imports from ``dqs``."""
    tree = _module_ast("workloads.py")
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "dqs"
               for alias in node.names}
    return sorted({(modules[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


def test_the_harness_reads_some_names():
    assert len(_spans()) > 10 and len(_workload_reads()) > 3


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _spans()])
def test_every_span_resolves(module, attr):
    owner = importlib.import_module(f"dqs.{module}")
    assert callable(reduce(getattr, attr.split("."), owner))


@pytest.mark.parametrize("module, attr", _workload_reads())
def test_every_workload_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"dqs.{module}"), attr)
