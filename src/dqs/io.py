"""File formats: DQS surfaces, map bundles, forms, OBJ meshes.

The DQS format is UTF-8 JSON: {"vertices": [{"id", "color"}...],
"quads": [{"id", "bm", "wm", "bp", "wp", "rho": [re, im]}...]} with
dense ids and "b"/"w" colors.  An optional "basis" key stores homology
cycles as signed medial edge keys so that generated surfaces carry
their preferred meridian/longitude basis through pipelines.

A loaded document becomes a complex in one pass over its vertices and
one over its quads, which builds the ``QuadComplex`` directly; the first
entry that breaks the schema raises ``ParseError`` with its path, and no
message is formatted for entries that pass.  Map bundles parse inline
surfaces with the same function, without writing them out again.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .errors import ParseError
from .calculus import DiamondForm
from .homology import Cycle, HomologyBasis, build_basis
from .surface import BLACK, WHITE, QuadComplex


def _require(cond, path, msg):
    if not cond:
        raise ParseError(path, msg)


def _load_json(text: str, name: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(name, f"invalid JSON: {exc}") from None


# Types json.loads gives JSON numbers.  Checks compare type(x) exactly:
# true and false load as bool, a subclass of int, and are not numbers here.
_NUMBER = (int, float)

def parse_dqs(text: str, name: str = "<dqs>"):
    """Parse a DQS document; returns (complex, basis-or-None)."""
    return _dqs_from_doc(_load_json(text, name), name)


def _dqs_from_doc(doc, name: str):
    """Complex and embedded basis of a loaded DQS document."""
    _require(isinstance(doc, dict), name, "top level must be an object")
    _require("vertices" in doc, name, "missing 'vertices'")
    _require("quads" in doc, name, "missing 'quads'")
    colors = _parse_vertices(doc["vertices"], f"{name}:vertices")
    quads, rho = _parse_quads(doc["quads"], len(colors), f"{name}:quads")
    cx = QuadComplex(colors, quads, rho)
    basis = None
    if "basis" in doc:
        basis = _parse_basis(doc["basis"], cx, f"{name}:basis")
    return cx, basis


def _parse_vertices(verts, path):
    """Colors by vertex id of the 'vertices' array."""
    _require(isinstance(verts, list), path, "must be an array")
    colors = {}
    for i, v in enumerate(verts):
        if not isinstance(v, dict):
            raise ParseError(f"{path}[{i}]", "must be an object")
        if "id" not in v or "color" not in v:
            raise ParseError(f"{path}[{i}]", "needs 'id' and 'color'")
        c = v["color"]
        if c not in ("b", "w"):
            raise ParseError(f"{path}[{i}]", f"color {c!r} not 'b' or 'w'")
        vid = v["id"]
        if type(vid) is not int or vid < 0:
            raise ParseError(f"{path}[{i}]", "id must be a nonnegative integer")
        if vid in colors:
            raise ParseError(f"{path}[{i}]", f"duplicate vertex id {vid}")
        colors[vid] = BLACK if c == "b" else WHITE
    n = len(colors)
    _require(sorted(colors) == list(range(n)), path, "vertex ids must be dense 0..n-1")
    return tuple(map(colors.__getitem__, range(n)))


def _parse_quads(quads_doc, nv, path):
    """Corner tuples and weights by quad id of the 'quads' array."""
    _require(isinstance(quads_doc, list), path, "must be an array")
    quads = {}
    rho = {}
    for i, q in enumerate(quads_doc):
        if not isinstance(q, dict):
            raise ParseError(f"{path}[{i}]", "must be an object")
        try:
            qid = q["id"]
            t = (q["bm"], q["wm"], q["bp"], q["wp"])
        except KeyError:
            key = next(k for k in ("id", "bm", "wm", "bp", "wp") if k not in q)
            raise ParseError(f"{path}[{i}]", f"missing '{key}'" + (
                f" (quad id {q['id']})" if key != "id" else "")) from None
        if type(qid) is not int or qid < 0:
            raise ParseError(f"{path}[{i}]", "id must be a nonnegative integer")
        if qid in quads:
            raise ParseError(f"{path}[{i}]", f"duplicate quad id {qid}")
        if "rho" not in q:
            raise ParseError(f"{path}[{i}]", f"missing 'rho' (quad id {qid})")
        r = q["rho"]
        if not isinstance(r, list) or len(r) != 2:
            raise ParseError(f"{path}[{i}].rho", f"rho of quad {qid} must be [re, im]")
        for v in t:
            if type(v) is not int or not 0 <= v < nv:
                raise ParseError(f"{path}[{i}]", f"quad {qid} references unknown vertex {v}")
        re, im = r
        try:
            if type(re) not in _NUMBER or type(im) not in _NUMBER:
                raise TypeError
            z = complex(float(re), float(im))
        except (TypeError, OverflowError):
            raise ParseError(f"{path}[{i}].rho",
                             f"rho of quad {qid} must be two numbers, got {r}") from None
        if not cmath.isfinite(z):
            raise ParseError(f"{path}[{i}].rho", f"rho of quad {qid} must be finite, got {r}")
        quads[qid] = t
        rho[qid] = z
    n = len(quads)
    _require(sorted(quads) == list(range(n)), path, "quad ids must be dense 0..n-1")
    return tuple(map(quads.__getitem__, range(n))), tuple(map(rho.__getitem__, range(n)))


def _parse_basis(doc, cx, path):
    _require(isinstance(doc, dict) and "a" in doc and "b" in doc, path,
             "basis needs 'a' and 'b' cycle arrays")

    def cycles(key):
        _require(isinstance(doc[key], list), f"{path}.{key}", "must be an array of cycles")
        out = []
        for i, edges in enumerate(doc[key]):
            if not isinstance(edges, list):
                raise ParseError(f"{path}.{key}[{i}]", "cycle must be an array of edges")
            cyc = []
            for e in edges:
                if not (isinstance(e, list) and len(e) == 3):
                    raise ParseError(f"{path}.{key}[{i}]", "edge must be [quad, corner, sign]")
                q, corner, sign = e
                if not (type(q) is int and type(corner) is int and type(sign) is int
                        and 0 <= q < cx.nq and 0 <= corner < 4 and sign in (1, -1)):
                    raise ParseError(f"{path}.{key}[{i}]", f"bad edge key {e}")
                cyc.append((4 * q + corner, sign))
            out.append(Cycle(tuple(cyc)))
        return out
    return build_basis(cx, cycles("a"), cycles("b"))


def dqs_doc(cx: QuadComplex, basis: HomologyBasis = None) -> dict:
    """The DQS document of a surface, as JSON-ready Python values."""
    doc = {
        "vertices": [{"id": i, "color": "b" if c == BLACK else "w"}
                     for i, c in enumerate(cx.colors)],
        "quads": [{"id": i, "bm": t[0], "wm": t[1], "bp": t[2], "wp": t[3],
                   "rho": [cx.rho[i].real, cx.rho[i].imag]}
                  for i, t in enumerate(cx.quads)],
    }
    if basis is not None and basis.g:
        doc["basis"] = {
            key: [[[e // 4, e % 4, s] for (e, s) in c.edges] for c in group]
            for key, group in (("a", basis.a), ("b", basis.b))
        }
    return doc


def serialize_dqs(cx: QuadComplex, basis: HomologyBasis = None) -> str:
    return json.dumps(dqs_doc(cx, basis))


# ---------------------------------------------------------------------------
# forms and functions


def oneform_doc(omega: DiamondForm) -> dict:
    """The oneform-diamond document of a form, as JSON-ready Python values."""
    vals = np.column_stack([omega.black.real, omega.black.imag,
                            omega.white.real, omega.white.imag]).tolist()
    return {"type": "oneform-diamond",
            "values": [[q, [br, bi], [wr, wi]] for q, (br, bi, wr, wi) in enumerate(vals)]}


def serialize_oneform(omega: DiamondForm) -> str:
    return json.dumps(oneform_doc(omega))


def parse_oneform(text: str, cx: QuadComplex, name: str = "<form>") -> DiamondForm:
    """The form of a oneform-diamond document: exactly one row per quad."""
    doc = _load_json(text, name)
    _require(isinstance(doc, dict), name, "top level must be an object")
    _require(doc.get("type") == "oneform-diamond", name,
             "type must be 'oneform-diamond'")
    rows = doc.get("values", [])
    _require(isinstance(rows, list), f"{name}:values", "must be an array")
    black = np.zeros(cx.nq, complex)
    white = np.zeros(cx.nq, complex)
    seen = np.zeros(cx.nq, bool)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 3:
            raise ParseError(f"{name}:values[{i}]", "row must be [quad, black, white]")
        q, b, w = row
        if type(q) is not int or not 0 <= q < cx.nq:
            raise ParseError(f"{name}:values[{i}]", f"unknown quad {q!r}")
        if seen[q]:
            raise ParseError(f"{name}:values[{i}]", f"repeated quad {q}")
        seen[q] = True
        black[q] = _complex_pair(b, f"{name}:values[{i}]", f"black value of quad {q}")
        white[q] = _complex_pair(w, f"{name}:values[{i}]", f"white value of quad {q}")
    if not seen.all():
        raise ParseError(f"{name}:values", f"missing quad {int(np.argmin(seen))}")
    return DiamondForm(black, white)


def _complex_pair(r, path, what) -> complex:
    """The finite complex number of a JSON [re, im] pair of numbers.

    ``_parse_quads`` makes the same checks inline: a call per quad adds
    about 8 % to the parse time of a large surface.
    """
    if not isinstance(r, list) or len(r) != 2:
        raise ParseError(path, f"{what} must be [re, im]")
    re, im = r
    try:
        if type(re) not in _NUMBER or type(im) not in _NUMBER:
            raise TypeError
        z = complex(float(re), float(im))
    except (TypeError, OverflowError):
        raise ParseError(path, f"{what} must be two numbers, got {r}") from None
    if not cmath.isfinite(z):
        raise ParseError(path, f"{what} must be finite, got {r}")
    return z


def serialize_function(f) -> str:
    f = np.asarray(f, dtype=complex)
    return json.dumps({str(i): [f[i].real, f[i].imag] for i in range(len(f))})


# ---------------------------------------------------------------------------
# map bundles


def parse_map_bundle(text: str, name: str = "<map>", loader=None):
    """Covering-map JSON: source/target as inline DQS objects or paths.

    Returns (source, target, vertex_map, source_basis, target_basis).
    """
    doc = _load_json(text, name)
    _require(isinstance(doc, dict), name, "top level must be an object")
    for key in ("source", "target", "vertex_map"):
        _require(key in doc, name, f"missing '{key}'")

    def load_side(side):
        val = doc[side]
        if isinstance(val, str):
            if loader is None:
                raise ParseError(name, f"'{side}' is a path but no loader given")
            return parse_dqs(loader(val), val)
        return _dqs_from_doc(val, f"{name}:{side}")

    source, sb = load_side("source")
    target, tb = load_side("target")
    _require(isinstance(doc["vertex_map"], list), f"{name}:vertex_map", "must be an array")
    vm = [0] * source.nv
    seen = set()
    for i, pair in enumerate(doc["vertex_map"]):
        _require(isinstance(pair, list) and len(pair) == 2, f"{name}:vertex_map[{i}]",
                 "entries must be [source, target]")
        s, t = pair
        _require(type(s) is int and type(t) is int and 0 <= s < source.nv and 0 <= t < target.nv,
                 f"{name}:vertex_map[{i}]",
                 f"bad pair {pair}")
        _require(s not in seen, f"{name}:vertex_map[{i}]", f"duplicate source vertex {s}")
        seen.add(s)
        vm[s] = t
    _require(len(seen) == source.nv, name, "vertex_map must cover every source vertex")
    return source, target, vm, sb, tb


def serialize_map_bundle(source: QuadComplex, target: QuadComplex, vertex_map,
                         source_basis=None, target_basis=None) -> str:
    return json.dumps({
        "source": dqs_doc(source, source_basis),
        "target": dqs_doc(target, target_basis),
        "vertex_map": [[i, int(t)] for i, t in enumerate(vertex_map)],
    })


# ---------------------------------------------------------------------------
# OBJ triangle meshes


def parse_obj(text: str, name: str = "<obj>"):
    """Wavefront OBJ subset: v and f records, triangles only.

    Coordinates must be finite numbers and each face three distinct
    integers in 1..(number of vertices); the first record that breaks
    this raises ParseError with its line number.
    """
    verts = []
    faces = []
    for ln, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            _require(len(parts) >= 4, f"{name}:{ln}", "vertex needs 3 coordinates")
            try:
                xyz = [float(x) for x in parts[1:4]]
            except ValueError:
                raise ParseError(f"{name}:{ln}", f"bad coordinates {parts[1:4]}") from None
            if not all(map(math.isfinite, xyz)):
                raise ParseError(f"{name}:{ln}", f"coordinates {parts[1:4]} must be finite")
            verts.append(xyz)
        elif parts[0] == "f":
            idx = [p.split("/")[0] for p in parts[1:]]
            _require(len(idx) == 3, f"{name}:{ln}", "faces must be triangles")
            try:
                face = tuple(int(i) for i in idx)
            except ValueError:
                raise ParseError(f"{name}:{ln}", f"bad vertex indices {idx}") from None
            faces.append((ln, face))
    _require(len(verts) > 0 and len(faces) > 0, name, "no geometry found")
    for ln, face in faces:
        if not all(1 <= i <= len(verts) for i in face):
            raise ParseError(f"{name}:{ln}",
                             f"vertex index out of range 1..{len(verts)} in {list(face)}")
        if len(set(face)) != 3:
            raise ParseError(f"{name}:{ln}", f"face {list(face)} repeats a vertex")
    return np.array(verts, dtype=float), [tuple(i - 1 for i in face) for _, face in faces]


# ---------------------------------------------------------------------------
# divisors


def parse_divisor_string(terms: str):
    """Parse "v:3=-1,q:7=-2" into vertex and quad coefficient dicts.

    Each vertex or quad may occur in one term only.
    """
    from .riemann_roch import Divisor

    vc, qc = {}, {}
    if terms.strip():
        for tok in terms.split(","):
            tok = tok.strip()
            try:
                kind_id, coef = tok.split("=")
                kind, ident = kind_id.split(":")
                ident, coef = int(ident), int(coef)
            except ValueError:
                raise ParseError("<divisor>", f"bad term {tok!r}; use v:ID=C or q:ID=C")
            if kind not in ("v", "q"):
                raise ParseError("<divisor>", f"unknown kind {kind!r} in {tok!r}")
            coeffs = vc if kind == "v" else qc
            if ident in coeffs:
                raise ParseError("<divisor>", f"repeated term {kind}:{ident} in {tok!r}")
            coeffs[ident] = coef
    return Divisor(vc, qc)
