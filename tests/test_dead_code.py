"""No function, class or method of the package goes unreferenced.

A name that occurs exactly once across the package and the tests occurs
only at its own definition, so nothing calls, imports or tests it.  The
scan covers module-level definitions and the methods of module-level
classes; dunder methods are called by Python itself and are left out.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dqs").glob("*.py"))
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(path):
    """qualified name -> name of each top-level definition and class method."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, _DEFINITIONS):
            continue
        out[f"{path.stem}.{node.name}"] = node.name
        if isinstance(node, ast.ClassDef):
            out.update({f"{path.stem}.{node.name}.{m.name}": m.name for m in node.body
                        if isinstance(m, _DEFINITIONS)
                        and not (m.name.startswith("__") and m.name.endswith("__"))})
    return out


def test_no_unreferenced_definitions():
    files = SOURCES + sorted((ROOT / "tests").glob("*.py"))
    words = Counter(w for p in files for w in re.findall(r"\w+", p.read_text()))
    defined = {qual: name for path in SOURCES for qual, name in _definitions(path).items()}
    dead = sorted(qual for qual, name in defined.items() if words[name] == 1)
    assert dead == []
