"""The DQS reader gives the same results with orjson, with the stdlib
decoder and on the exact path alone.

``io._decode`` is the decoder of the array path.  Every document here
is parsed three ways: decoded by orjson, decoded by json, and with a
decoder that refuses everything, so that the exact path (the stdlib
decoder and the per-entry checks) reads it.  The results, or the
``ParseError`` texts, must be identical; weights are compared bit for
bit, since -0.0 == 0.0.
"""

import json
import random

import numpy as np
import pytest

from dqs import io
from dqs.coverings import gen_cube_double_cover, gen_torus_unbranched_cover
from dqs.errors import ParseError
from dqs.generators import gen_torus
from dqs.homology import standard_torus_basis
from dqs.io import parse_dqs, parse_map_bundle, parse_oneform, serialize_dqs, serialize_map_bundle
from dqs.surface import QuadComplex

orjson = pytest.importorskip("orjson")

_TORUS = gen_torus(4, 4, 0.2 + 1.1j)
_DOC = json.loads(serialize_dqs(_TORUS, standard_torus_basis(_TORUS, 4, 4)))
_BIG = 2 ** 70


def _copy(doc):
    return json.loads(json.dumps(doc))


def _bits(values):
    return np.asarray(values, dtype=complex).tobytes()


def _complex_key(cx):
    return cx.colors, cx.quads, _bits(cx.rho)


def _basis_key(basis):
    if basis is None:
        return None
    return ([c.edges for c in basis.all_cycles()], basis.intersection.tolist(),
            basis.a_shadow_steps.tobytes(), basis.b_shadow_steps.tobytes())


def _key(result):
    """What a parse returned, with weights and step rows as bytes."""
    if isinstance(result, io.DiamondForm):
        return _bits(result.black), _bits(result.white)
    if len(result) == 2:  # parse_dqs
        return _complex_key(result[0]), _basis_key(result[1])
    source, target, vm, sb, tb = result
    return (_complex_key(source), _complex_key(target), vm, _basis_key(sb),
            _basis_key(tb))


def _refuse(text):
    raise ValueError("read on the exact path")


def _outcome(monkeypatch, decoder, parse, text, *args):
    with monkeypatch.context() as m:
        m.setattr(io, "_decode", decoder)
        try:
            return _key(parse(text, *args))
        except ParseError as exc:
            return str(exc)


def _alike(monkeypatch, parse, text, *args):
    """The outcome of parse with either decoder and on the exact path, which must agree."""
    exact = _outcome(monkeypatch, _refuse, parse, text, *args)
    for decoder in (orjson.loads, json.loads):
        assert _outcome(monkeypatch, decoder, parse, text, *args) == exact
    return exact


def _shuffled(doc, seed):
    doc = _copy(doc)
    rng = random.Random(seed)
    rng.shuffle(doc["vertices"])
    rng.shuffle(doc["quads"])
    return doc


def _edit(path, value, doc=_DOC):
    """doc with the entry at path (keys and indices) set to value."""
    doc = _copy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_DQS_DOCUMENTS = {
    "torus": _DOC,
    "shuffled": _shuffled(_DOC, 1),
    "shuffled-vertices": {**_copy(_DOC), "vertices": _shuffled(_DOC, 2)["vertices"]},
    "integer-weights": _edit(("quads", 3, "rho"), [1, 2]),
    "negative-zero": _edit(("quads", 5, "rho"), [1.0, -0.0]),
    "negative-zero-real": _edit(("quads", 0, "rho"), [-0.0, 1.0]),
    "big-weight": _edit(("quads", 2, "rho"), [1.0, 12345678901234567890123]),
    "2^63-weight": _edit(("quads", 2, "rho"), [2 ** 63, 1]),
    "big-vertex-id": _edit(("vertices", 4, "id"), _BIG),
    "big-quad-id": _edit(("quads", 4, "id"), _BIG),
    "big-corner": _edit(("quads", 4, "wp"), _BIG),
    "big-basis-quad": _edit(("basis", "a", 0, 0, 0), _BIG),
    "big-basis-sign": _edit(("basis", "b", 0, 1, 2), -_BIG),
    "bool-corner": _edit(("quads", 1, "bm"), True),
    "float-id": _edit(("quads", 1, "id"), 1.0),
    "repeated-quad-id": _edit(("quads", 1, "id"), 0),
    "extra-key": _edit(("quads", 1, "note"), [1, {"x": None}]),
    "empty-basis": _edit(("basis",), {"a": [], "b": []}),
    "empty-cycle": _edit(("basis", "a", 0), []),
}

_LITERAL_DOCUMENTS = {
    "nan": json.dumps(_edit(("quads", 0, "rho"), [1.0, 7.5])).replace("7.5", "NaN"),
    "infinity": json.dumps(_edit(("quads", 0, "rho"), [1.0, 7.5])).replace("7.5", "Infinity"),
    "1e400": json.dumps(_edit(("quads", 0, "rho"), [1.0, 7.5])).replace("7.5", "1e400"),
    "1e400-ignored": json.dumps(_edit(("note",), 7.5)).replace("7.5", "1e400"),
    "nan-ignored": json.dumps(_edit(("note",), 7.5)).replace("7.5", "NaN"),
    "lone-surrogate-ignored": json.dumps(_edit(("note",), "\ud800")),
    "lone-surrogate-color": json.dumps(_edit(("vertices", 0, "color"), "\udc00")),
    "raw-lone-surrogate": json.dumps(_edit(("note",), "x")).replace('"x"', '"\ud800"'),
    "big-literal": json.dumps(_edit(("vertices", 0, "id"), 7)).replace(
        '"id": 7', '"id": 1' + "0" * 400),
    "big-weight-literal": json.dumps(_edit(("quads", 0, "rho"), [1.0, 7.5])).replace(
        "7.5", "1" + "0" * 400),
    "not-json": json.dumps(_DOC)[:-1],
    "bom": "﻿" + json.dumps(_DOC),
}


@pytest.mark.parametrize("name", sorted(_DQS_DOCUMENTS))
def test_dqs_documents_parse_alike(name, monkeypatch):
    _alike(monkeypatch, parse_dqs, json.dumps(_DQS_DOCUMENTS[name]), "doc.dqs")


@pytest.mark.parametrize("name", sorted(_LITERAL_DOCUMENTS))
def test_decoder_differences_parse_alike(name, monkeypatch):
    _alike(monkeypatch, parse_dqs, _LITERAL_DOCUMENTS[name], "doc.dqs")


def test_accepted_documents_keep_their_values(monkeypatch):
    """The equivalence above is not vacuous: these documents are accepted
    with the edited values, and the big integers stay exact."""
    shuffled = _alike(monkeypatch, parse_dqs, json.dumps(_DQS_DOCUMENTS["shuffled"]))
    assert shuffled == _key((_TORUS, standard_torus_basis(_TORUS, 4, 4)))
    cx, _ = parse_dqs(json.dumps(_DQS_DOCUMENTS["negative-zero"]))
    assert np.signbit(cx.rho[5].imag) and not np.signbit(cx.rho[5].real)
    cx, _ = parse_dqs(json.dumps(_DQS_DOCUMENTS["big-weight"]))
    assert cx.rho[2].imag == float(12345678901234567890123)
    with pytest.raises(ParseError, match=f"references unknown vertex {_BIG}"):
        parse_dqs(json.dumps(_DQS_DOCUMENTS["big-corner"]))


@pytest.mark.parametrize("decoder", ["orjson", "json"])
def test_the_array_path_reads_valid_documents(decoder, monkeypatch):
    """Valid documents take the array path with either decoder, which seeds
    the complex's arrays; the exact path leaves them to the cached properties."""
    text = json.dumps(_DQS_DOCUMENTS["shuffled"])
    monkeypatch.setattr(io, "_decode", {"orjson": orjson.loads, "json": json.loads}[decoder])
    fast, _ = parse_dqs(text)
    assert {"quad_array", "rho_array"} <= set(vars(fast))
    monkeypatch.setattr(io, "_decode", _refuse)
    exact, _ = parse_dqs(text)
    assert not {"quad_array", "rho_array"} & set(vars(exact))


@pytest.mark.parametrize("name", ["torus", "shuffled", "integer-weights", "negative-zero",
                                  "negative-zero-real"])
def test_seeded_arrays_equal_the_cached_properties(name):
    cx, _ = parse_dqs(json.dumps(_DQS_DOCUMENTS[name]))
    seeded = {key: vars(cx)[key] for key in ("quad_array", "rho_array")}
    fresh = QuadComplex(cx.colors, cx.quads, cx.rho)
    for key, array in seeded.items():
        built = getattr(fresh, key)
        assert array.dtype == built.dtype and array.shape == built.shape
        assert array.tobytes() == built.tobytes()
        assert not array.flags.writeable


def test_random_weights_decode_alike(monkeypatch):
    """Weights written by repr and with many digits read the same floats
    on the array path."""
    rng = np.random.default_rng(5)
    doc = _copy(_DOC)
    values = rng.normal(size=32) * 10.0 ** rng.integers(-300, 17, 32)
    for q, (re, im) in zip(doc["quads"], values.reshape(-1, 2)):
        q["rho"] = [abs(float(re)), float(im)]
    _alike(monkeypatch, parse_dqs, json.dumps(doc))
    many = json.dumps(_edit(("quads", 0, "rho"), [7.5, 8.5])).replace(
        "7.5", "1.00000000000000011102230246251565404236316680908203125").replace(
        "8.5", "2.2250738585072011e-308")
    _alike(monkeypatch, parse_dqs, many)
    assert "rho_array" in vars(parse_dqs(many)[0])


def _bundle_doc():
    source, target, cmap = gen_torus_unbranched_cover(4, 4, 0.2 + 1.1j)
    return json.loads(serialize_map_bundle(source, target, cmap.vertex_map))


_BUNDLE = _bundle_doc()
_BUNDLES = {
    "cover": _BUNDLE,
    "shuffled-map": {**_copy(_BUNDLE), "vertex_map": random.Random(3).sample(
        _BUNDLE["vertex_map"], len(_BUNDLE["vertex_map"]))},
    "shuffled-source": {**_copy(_BUNDLE), "source": _shuffled(_BUNDLE["source"], 4)},
    "big-source-vertex": _edit(("vertex_map", 3, 0), _BIG, _BUNDLE),
    "big-target-vertex": _edit(("vertex_map", 3, 1), _BIG, _BUNDLE),
    "repeated-source-vertex": _edit(("vertex_map", 3, 0), 0, _BUNDLE),
    "short-map": {**_copy(_BUNDLE), "vertex_map": _BUNDLE["vertex_map"][:-1]},
    "bad-side": _edit(("target", "quads", 0, "rho"), [1, "x"], _BUNDLE),
    "path-side": _edit(("target",), "target.dqs", _BUNDLE),
}


@pytest.mark.parametrize("name", sorted(_BUNDLES))
def test_map_bundles_parse_alike(name, monkeypatch):
    target = json.dumps(_BUNDLE["target"])
    _alike(monkeypatch, parse_map_bundle, json.dumps(_BUNDLES[name]), "map.json",
           lambda path: target)


def test_cube_cover_bundle_parses_alike(monkeypatch):
    total, base, cmap = gen_cube_double_cover()
    text = serialize_map_bundle(total, base, cmap.vertex_map)
    assert _alike(monkeypatch, parse_map_bundle, text, "map.json")[2] == list(cmap.vertex_map)


@pytest.mark.parametrize("text", [
    '{"type": "oneform-diamond", "values": [[0, [1, -0.0], [2, 0]]]}',
    '{"type": "oneform-diamond", "values": [[0, [NaN, 0], [2, 0]]]}',
    '{"type": "oneform-diamond", "values": [[%d, [1, 0], [2, 0]]]}' % _BIG,
    '{"type": "oneform-diamond", "values": [[0, [1, %d], [2, 0]]]}' % _BIG,
])
def test_forms_parse_alike(text, monkeypatch):
    rows = ", ".join(f"[{q}, [1, 0], [0, 1]]" for q in range(1, _TORUS.nq))
    _alike(monkeypatch, parse_oneform, text.replace("]]]}", "]], " + rows + "]}"), _TORUS)


def test_deep_ignored_keys_are_the_one_difference(monkeypatch):
    """The stdlib decoder stops at about 1000 levels of nesting, orjson
    does not: an ignored key nested that deep is accepted with orjson only."""
    text = json.dumps(_edit(("note",), 0)).replace('"note": 0', '"note": ' + "[" * 1500 + "]" * 1500)
    assert _outcome(monkeypatch, orjson.loads, parse_dqs, text, "deep.dqs") \
        == _key((_TORUS, standard_torus_basis(_TORUS, 4, 4)))
    for decoder in (json.loads, _refuse):
        assert _outcome(monkeypatch, decoder, parse_dqs, text, "deep.dqs").startswith(
            "deep.dqs: invalid JSON: maximum recursion depth exceeded")
