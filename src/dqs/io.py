"""File formats: DQS surfaces, map bundles, forms, OBJ meshes.

The DQS format is UTF-8 JSON: {"vertices": [{"id", "color"}...],
"quads": [{"id", "bm", "wm", "bp", "wp", "rho": [re, im]}...]} with
dense ids and "b"/"w" colors.  An optional "basis" key stores homology
cycles as signed medial edge keys so that generated surfaces carry
their preferred meridian/longitude basis through pipelines.

DQS documents and map bundles are read on one of two paths with the
same results.  The array path decodes the text with ``orjson``, where
that package is installed, else with the stdlib ``json``, and pulls
every field out of the decoded lists with ``operator.itemgetter``: the
vertex ids and colors, the quad ids, corners and weights, and the
vertex map.  It checks types (exact ``int``, never
``bool``), ranges, duplicates, id density in any order and finiteness
as numpy passes, and the new ``QuadComplex`` starts with the read-only
``quad_array`` and ``rho_array`` those passes built.  A document that
the decoder refuses or any array check rejects is read again on the
exact path: the stdlib decoder, then one pass over the vertices and one
over the quads, whose first entry that breaks the schema raises
``ParseError`` with its path, no message being formatted for entries
that pass.  So every accepted document gives the same complex on either
path, and every rejected one the exact path's message.  This covers
what orjson decodes differently: it reads integers beyond 64 bits as
floats (the array checks take floats for weights only, below 2^63 in
magnitude) and refuses NaN and Infinity literals and lone surrogates.
One difference remains: the stdlib decoder stops at about 1000 levels
of nesting (``invalid JSON``), orjson does not, so a document whose
ignored extra keys nest that deep is accepted with orjson and rejected
without it.  An embedded basis, a few edges per cycle, has one reader
on both paths, ``_parse_basis``, whose ``ParseError`` sends the
document to the exact path like any other rejection.  Forms
(``parse_oneform``) are read on the exact path only.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import DqsError, ParseError
from .calculus import DiamondForm
from .homology import Cycle, HomologyBasis, build_basis
from .surface import BLACK, WHITE, QuadComplex, read_only

try:
    import orjson
except ImportError:  # the stdlib decoder then reads for the array path too
    orjson = None

# The decoder of the array path; tests replace it to compare decoders and
# to force the exact path.
_decode = json.loads if orjson is None else orjson.loads


def _require(cond, path, msg):
    if not cond:
        raise ParseError(path, msg)


def _load_json(text: str, name: str):
    """The stdlib decoding of text; invalid or too deeply nested JSON raises ParseError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(name, f"invalid JSON: {exc}") from None


def _read(text: str, name: str, from_arrays, from_doc):
    """``from_arrays`` of the ``_decode`` decoding of text, or, where the
    decoder or an array check rejects it, ``from_doc`` of its stdlib decoding."""
    try:
        doc = _decode(text)
    except (ValueError, RecursionError):  # JSONDecodeError of either decoder
        pass
    else:
        # a DqsError here comes from the checks of a bundle or from a side
        # file it names; the exact path gives it, or the message json's
        # decoding leads to, where that differs
        try:
            return from_arrays(doc)
        except (_Rejected, DqsError):
            pass
    return from_doc(_load_json(text, name))


# Types json.loads gives JSON numbers.  Checks compare type(x) exactly:
# true and false load as bool, a subclass of int, and are not numbers here.
_NUMBER = (int, float)

def parse_dqs(text: str, name: str = "<dqs>"):
    """Parse a DQS document; returns (complex, basis-or-None)."""
    return _read(text, name, lambda doc: _dqs_from_arrays(doc, name),
                 lambda doc: _dqs_from_doc(doc, name))


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
        rho[qid] = _complex_pair(q["rho"], f"{path}[{i}].rho", f"rho of quad {qid}")
        for v in t:
            if type(v) is not int or not 0 <= v < nv:
                raise ParseError(f"{path}[{i}]", f"quad {qid} references unknown vertex {v}")
        quads[qid] = t
    n = len(quads)
    _require(sorted(quads) == list(range(n)), path, "quad ids must be dense 0..n-1")
    return tuple(map(quads.__getitem__, range(n))), tuple(map(rho.__getitem__, range(n)))


def _parse_basis(doc, cx, path):
    _require(isinstance(doc, dict) and "a" in doc and "b" in doc, path,
             "basis needs 'a' and 'b' cycle arrays")
    for key in "ab":
        _require(isinstance(doc[key], list), f"{path}.{key}", "must be an array of cycles")
        for i, edges in enumerate(doc[key]):
            if not isinstance(edges, list):
                raise ParseError(f"{path}.{key}[{i}]", "cycle must be an array of edges")
            for e in edges:
                if not (isinstance(e, list) and len(e) == 3):
                    raise ParseError(f"{path}.{key}[{i}]", "edge must be [quad, corner, sign]")
                q, corner, sign = e
                if not (type(q) is int and type(corner) is int and type(sign) is int
                        and 0 <= q < cx.nq and 0 <= corner < 4 and sign in (1, -1)):
                    raise ParseError(f"{path}.{key}[{i}]", f"bad edge key {e}")
    cycles = [Cycle(tuple((4 * q + corner, sign) for q, corner, sign in edges))
              for edges in doc["a"] + doc["b"]]
    na = len(doc["a"])
    return build_basis(cx, cycles[:na], cycles[na:])


# ---------------------------------------------------------------------------
# the array path


class _Rejected(Exception):
    """An array check failed: the exact path reads the document."""


def _accept(cond):
    if not cond:
        raise _Rejected


_ID, _COLOR, _CORNERS, _RHO = (itemgetter("id"), itemgetter("color"),
                               itemgetter("bm", "wm", "bp", "wp"), itemgetter("rho"))
_COLOR_OF = {"b": BLACK, "w": WHITE}


def _fields(getter, entries) -> list:
    """getter of every entry of a nonempty JSON array of objects."""
    _accept(type(entries) is list and entries)
    try:
        return list(map(getter, entries))
    except (KeyError, TypeError):  # a missing key, or an entry that is no object
        raise _Rejected from None


def _ints(values, width: int = 0) -> np.ndarray:
    """values, a nonempty list of exact ints (or of rows of width of them),
    as an int64 array; bools, floats and ints beyond 64 bits fail."""
    _accept(set(map(type, _flat(values, width))) == {int})
    try:
        out = np.fromiter(_flat(values, width), np.int64, len(values) * max(width, 1))
    except OverflowError:
        raise _Rejected from None
    return out.reshape(-1, width) if width else out


def _flat(values, width):
    return chain.from_iterable(values) if width else values


def _int_rows(doc, width: int) -> np.ndarray:
    """A nonempty JSON array of arrays of width exact ints, as an n x width array."""
    _accept(type(doc) is list and set(map(type, doc)) == {list}
            and set(map(len, doc)) == {width})
    return _ints(doc, width)


def _positions(ids: np.ndarray, n: int) -> np.ndarray:
    """The index in ids of each of 0..n-1, which ids must hold once each."""
    _accept(len(ids) == n and ids.min() >= 0 and ids.max() < n)
    pos = np.full(n, -1)
    pos[ids] = np.arange(n)
    _accept((pos >= 0).all())  # a repeated id leaves out another one
    return pos


def _ordered(items: list, pos: np.ndarray) -> list:
    """items in the order of pos, a permutation."""
    if (pos[1:] > pos[:-1]).all():
        return items
    return list(map(items.__getitem__, pos.tolist()))


def _dqs_from_arrays(doc, name: str):
    """Complex and embedded basis of a decoded DQS document, by array
    checks; the basis, a few edges per cycle, by ``_parse_basis``."""
    _accept(type(doc) is dict and "vertices" in doc and "quads" in doc)
    verts = doc["vertices"]
    try:
        colors = list(map(_COLOR_OF.__getitem__, _fields(_COLOR, verts)))
    except (KeyError, TypeError):  # a color not "b" or "w", or unhashable
        raise _Rejected from None
    ids = _ints(_fields(_ID, verts))
    colors = tuple(_ordered(colors, _positions(ids, len(ids))))
    quads = doc["quads"]
    pos = _positions(_ints(_fields(_ID, quads)), len(quads))
    corners = _fields(_CORNERS, quads)
    Q = _ints(corners, 4)
    _accept(Q.min() >= 0 and Q.max() < len(colors))
    parts = _fields(_RHO, quads)
    _accept(set(map(type, parts)) == {list} and set(map(len, parts)) == {2}
            and set(map(type, chain.from_iterable(parts))) <= {int, float})
    try:
        W = np.fromiter(chain.from_iterable(parts), float, 2 * len(parts)).reshape(-1, 2)[pos]
    except OverflowError:  # an integer beyond the float range, from json
        raise _Rejected from None
    # finite and below 2^63: orjson reads longer integers as floats
    _accept((np.abs(W) < 2.0 ** 63).all())
    R = np.empty(len(W), dtype=complex)
    R.real, R.imag = W[:, 0], W[:, 1]  # re + 1j*im would turn -0.0 into 0.0
    cx = QuadComplex(colors, tuple(_ordered(corners, pos)), tuple(R.tolist())).seeded(
        quad_array=read_only(Q[pos]), rho_array=read_only(R))
    return cx, _parse_basis(doc["basis"], cx, f"{name}:basis") if "basis" in doc else None


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
    """The finite complex number of a JSON [re, im] pair of numbers."""
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
    return _read(text, name,
                 lambda doc: _bundle(doc, name, loader, _dqs_from_arrays, _vertex_map_arrays),
                 lambda doc: _bundle(doc, name, loader, _dqs_from_doc, _parse_vertex_map))


def _bundle(doc, name, loader, read_side, read_vertex_map):
    """The map bundle of a decoded document, its inline sides read by
    read_side(doc, path) and its vertex map by read_vertex_map."""
    _require(isinstance(doc, dict), name, "top level must be an object")
    for key in ("source", "target", "vertex_map"):
        _require(key in doc, name, f"missing '{key}'")

    def load_side(side):
        val = doc[side]
        if isinstance(val, str):
            if loader is None:
                raise ParseError(name, f"'{side}' is a path but no loader given")
            return parse_dqs(loader(val), val)
        return read_side(val, f"{name}:{side}")

    source, sb = load_side("source")
    target, tb = load_side("target")
    vm = read_vertex_map(doc["vertex_map"], source.nv, target.nv, name)
    return source, target, vm, sb, tb


def _parse_vertex_map(pairs, nv, nt, name):
    """The target of every source vertex, from the exact path's checks."""
    _require(isinstance(pairs, list), f"{name}:vertex_map", "must be an array")
    vm = [0] * nv
    seen = set()
    for i, pair in enumerate(pairs):
        _require(isinstance(pair, list) and len(pair) == 2, f"{name}:vertex_map[{i}]",
                 "entries must be [source, target]")
        s, t = pair
        _require(type(s) is int and type(t) is int and 0 <= s < nv and 0 <= t < nt,
                 f"{name}:vertex_map[{i}]",
                 f"bad pair {pair}")
        _require(s not in seen, f"{name}:vertex_map[{i}]", f"duplicate source vertex {s}")
        seen.add(s)
        vm[s] = t
    _require(len(seen) == nv, name, "vertex_map must cover every source vertex")
    return vm


def _vertex_map_arrays(pairs, nv, nt, name):
    """The target of every source vertex, from array checks."""
    P = _int_rows(pairs, 2)
    _accept(P[:, 1].min() >= 0 and P[:, 1].max() < nt)
    return P[_positions(P[:, 0], nv), 1].tolist()


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


# an id or coefficient of a divisor term: ASCII decimal digits, signed,
# without the underscores and other scripts' digits that int() reads
_DIVISOR_INT = re.compile(r"\s*[+-]?[0-9]+\s*")


def parse_divisor_string(terms: str):
    """Parse "v:3=-1,q:7=-2" into vertex and quad coefficient dicts.

    Ids and coefficients are ASCII decimal integers.  Each vertex or quad
    may occur in one term only.
    """
    from .riemann_roch import Divisor

    vc, qc = {}, {}
    if terms.strip():
        for tok in terms.split(","):
            tok = tok.strip()
            try:
                kind_id, coef = tok.split("=")
                kind, ident = kind_id.split(":")
                if not (_DIVISOR_INT.fullmatch(ident) and _DIVISOR_INT.fullmatch(coef)):
                    raise ValueError
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
