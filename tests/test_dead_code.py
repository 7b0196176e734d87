"""No module-level function or class of the package goes unreferenced.

A name that occurs exactly once across the package and the tests occurs
only at its own definition, so nothing calls, imports or tests it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dqs").glob("*.py"))


def test_no_unreferenced_definitions():
    files = SOURCES + sorted((ROOT / "tests").glob("*.py"))
    words = Counter(w for p in files for w in re.findall(r"\w+", p.read_text()))
    defined = {
        f"{path.stem}.{node.name}": node.name
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    dead = sorted(qual for qual, name in defined.items() if words[name] == 1)
    assert dead == []
