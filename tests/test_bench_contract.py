"""The names the benchmark harness reads from the package still exist.

The tracer of ``perfbench/spans.py`` wraps every ``(module, attribute)``
of ``SPANS`` with a bare ``getattr``, and ``perfbench/workloads.py``
builds its inputs from attributes of ``dqs`` modules, so renaming or
deleting any of them breaks traced runs.  Both files are parsed here;
only the input keys of the tracer (``spans._extra``), which must stay
hashable, are computed.
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


def test_the_tracer_keys_hash_for_a_parsed_surface_with_a_basis():
    """The tracer puts the surface and basis keys of its spans into sets, so
    a field of ``QuadComplex`` or ``Cycle`` that cannot be hashed would break
    traced runs only."""
    from dqs import gen_torus, standard_torus_basis
    from dqs.io import parse_dqs, serialize_dqs

    path = PERFBENCH / "spans.py"
    spans = {"__name__": "perfbench_spans"}  # run without writing bytecode next to it
    exec(compile(path.read_text(), str(path), "exec"), spans)
    extra = spans["_extra"]
    torus = gen_torus(4, 4, 0.1 + 1.1j)
    cx, basis = parse_dqs(serialize_dqs(torus, standard_torus_basis(torus, 4, 4)))
    keys = {extra("homology.homology_basis")((cx,)),
            extra("differentials.canonical_bases")((cx, basis))}
    assert len(keys) == 2
