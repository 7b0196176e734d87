"""No function, class, method, constant or attribute of the package goes
unreferenced.

A name that occurs exactly once across the package and the tests occurs
only at its own definition, so nothing calls, imports or tests it.  The
scan covers module-level definitions and assignments and the methods
and assignments of module-level classes; dunder names are read by
Python itself and are left out.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dqs").glob("*.py"))
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """The names a statement of a module or class body defines."""
    if isinstance(node, _DEFINITIONS):
        return [node.name]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Tuple, ast.List)):
        return [name for elt in node.elts for name in _names(elt)]
    if isinstance(node, ast.Assign):
        return [name for t in node.targets for name in _names(t)]
    if isinstance(node, ast.AnnAssign):
        return _names(node.target)
    return []


def _definitions(path):
    """qualified name -> name of each top-level definition or assignment
    and of each one in a top-level class."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for name in _names(node):
            out[f"{path.stem}.{name}"] = name
        out.update({f"{path.stem}.{node.name}.{name}": name
                    for m in members for name in _names(m)})
    return {qual: name for qual, name in out.items()
            if not (name.startswith("__") and name.endswith("__"))}


def test_no_unreferenced_definitions():
    files = SOURCES + sorted((ROOT / "tests").glob("*.py"))
    words = Counter(w for p in files for w in re.findall(r"\w+", p.read_text()))
    defined = {qual: name for path in SOURCES for qual, name in _definitions(path).items()}
    dead = sorted(qual for qual, name in defined.items() if words[name] == 1)
    assert dead == []
