"""The surfaces a process keeps across CLI commands, and the basis a
complex keeps.

``cli._read_surface`` keeps the parsed, validated surface of a text read
a second time among the last ``SURFACES_KEPT`` distinct inputs, keyed by
the SHA-256 of the text; ``QuadComplex.homology_basis`` caches the
tree-cotree basis on the complex.  A kept surface must give the reports
a fresh read gives.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from dqs import cli, gen_torus, homology, standard_torus_basis
from dqs.io import parse_divisor_string, serialize_dqs
from dqs.errors import ParseError


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _masked(out):
    return [{k: v for k, v in json.loads(line).items() if k != "wall_time"}
            for line in out.splitlines()]


def _write(path, tau=1j, basis=False):
    cx = gen_torus(4, 4, tau)
    path.write_text(serialize_dqs(cx, standard_torus_basis(cx, 4, 4) if basis else None))
    return str(path)


@pytest.fixture()
def counted(monkeypatch):
    """Counts of the parses and tree-cotree bases the CLI makes from now on."""
    calls = {"parse": 0, "basis": 0}
    parse, basis = cli.parse_dqs, homology.homology_basis

    def counting_parse(*args):
        calls["parse"] += 1
        return parse(*args)

    def counting_basis(cx):
        calls["basis"] += 1
        return basis(cx)

    monkeypatch.setattr(cli, "parse_dqs", counting_parse)
    monkeypatch.setattr(homology, "homology_basis", counting_basis)
    return calls


def _kept():
    return [surface for surface in cli._recent.values() if surface is not None]


@pytest.mark.parametrize("argv", [
    ["riemann-roch", "--divisor", "q:5=-2,v:3=-1,q:9=1"],
    ["periods", "--complete"],
    ["abelian", "--second", "3"],
    ["abelian", "--third", "0", "2"],
    ["homology"],
    ["abel-jacobi", "--base", "1", "--point", "6"],
    ["harmonic"],
], ids=lambda argv: "-".join(argv[:2]))
@pytest.mark.parametrize("basis", [False, True], ids=["tree-cotree", "embedded"])
def test_a_third_read_reuses_the_kept_surface(argv, basis, tmp_path, counted):
    path = _write(tmp_path / "t.dqs", 0.1 + 1.1j, basis)
    runs = [_run(argv + ["--format", "json", path]) for _ in range(3)]
    assert all(code == 0 and err == "" for code, _, err in runs)
    assert counted["parse"] == 2  # the first read and the one that keeps it
    reports = [_masked(out) for _, out, _ in runs]
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert len(_kept()) == 1


def test_a_kept_surface_keeps_its_basis(tmp_path, counted):
    path = _write(tmp_path / "t.dqs")
    for argv in (["homology"], ["homology"], ["periods"], ["abelian", "--second", "2"],
                 ["riemann-roch", "--divisor", "q:1=1"], ["homology"]):
        assert _run(argv + [path])[0] == 0
    assert counted == {"parse": 2, "basis": 2}


def test_the_key_is_the_text_not_the_name(tmp_path, counted):
    first = _write(tmp_path / "a.dqs")
    second = _write(tmp_path / "b.dqs")
    for path in (first, second, first, second):
        assert _run(["genus", path])[0] == 0
    assert counted["parse"] == 2 and len(_kept()) == 1


def test_a_rewritten_file_is_parsed_afresh(tmp_path, counted):
    path = _write(tmp_path / "t.dqs", 1j)
    runs = [_masked(_run(["periods", "--format", "json", path])[1]) for _ in range(3)]
    assert counted["parse"] == 2 and len(_kept()) == 1
    _write(tmp_path / "t.dqs", 0.3 + 1.2j)
    after = _masked(_run(["periods", "--format", "json", path])[1])
    assert counted["parse"] == 3
    assert after[0]["input_digest"] != runs[0][0]["input_digest"]
    assert after[0]["outputs"]["Pi"] != runs[0][0]["outputs"]["Pi"]


def _negative_weight():
    doc = json.loads(serialize_dqs(gen_torus(4, 4, 1j)))
    doc["quads"][3]["rho"] = [-1.0, 0.0]
    return json.dumps(doc)


@pytest.mark.parametrize("text", ["{not json", _negative_weight()],
                         ids=["unparsed", "invalid"])
def test_an_invalid_input_gives_its_error_every_time(text, tmp_path, counted):
    path = tmp_path / "bad.dqs"
    path.write_text(text)
    runs = [_run(["periods", str(path)]) for _ in range(4)]
    assert runs[0][0] == 1 and runs[0][2].startswith("error: ")
    assert all(run == runs[0] for run in runs)
    assert counted["parse"] == 4
    assert cli._recent == {}


def test_inputs_read_once_keep_nothing(tmp_path, counted):
    for k in range(20):
        assert _run(["genus", _write(tmp_path / f"t{k}.dqs", 0.05 * k + 1j)])[0] == 0
    assert counted["parse"] == 20
    assert _kept() == [] and len(cli._recent) == cli.SURFACES_KEPT


def test_at_most_surfaces_kept_are_kept(tmp_path, counted):
    paths = [_write(tmp_path / f"t{k}.dqs", 0.05 * k + 1j) for k in range(cli.SURFACES_KEPT + 4)]
    for path in paths:
        for _ in range(3):
            assert _run(["genus", path])[0] == 0
            assert len(_kept()) <= cli.SURFACES_KEPT
    assert counted["parse"] == 2 * len(paths)
    assert len(_kept()) == cli.SURFACES_KEPT
    # the oldest was dropped: its next two reads parse it again
    for _ in range(2):
        assert _run(["genus", paths[0]])[0] == 0
    assert counted["parse"] == 2 * len(paths) + 2


def test_the_cached_basis_is_the_tree_cotree_one(cube_cover):
    cx = cube_cover[0]
    basis = cx.homology_basis
    assert basis is cx.homology_basis
    for a in (basis.intersection, basis.a_shadow_steps, basis.b_shadow_steps):
        assert not a.flags.writeable
    fresh = homology.homology_basis(cx)
    assert basis.all_cycles() == fresh.all_cycles()
    assert np.array_equal(basis.intersection, fresh.intersection)


def test_a_weight_draw_builds_its_own_basis(torus44):
    draw = torus44.with_rho([1.5 + 0.1j] * torus44.nq)
    assert draw.homology_basis is not torus44.homology_basis


@pytest.mark.parametrize("terms", ["q:1_0=1", "q:\uff11=1", "v:0=-\u0661", "q:1=1_0"])
def test_divisor_ids_and_coefficients_are_ascii_decimals(terms, tmp_path):
    with pytest.raises(ParseError, match="bad term"):
        parse_divisor_string(terms)
    code, out, err = _run(["riemann-roch", "--divisor", terms, _write(tmp_path / "t.dqs")])
    assert code == 1 and out == ""
    assert err == f"error: <divisor>: bad term {terms!r}; use v:ID=C or q:ID=C\n"


def test_divisor_terms_may_have_whitespace_around_them():
    d = parse_divisor_string(" q:1=1 ,\tv:0=-1 , q:+2=+2")
    assert d.quad_coeffs == {1: 1, 2: 2} and d.vertex_coeffs == {0: -1}
