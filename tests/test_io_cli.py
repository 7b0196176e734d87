import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dqs import DiamondForm, gen_cube, gen_torus, standard_torus_basis
from dqs import io as dqs_io
from dqs.cli import main
from dqs.coverings import gen_cube_double_cover, gen_torus_unbranched_cover
from dqs.errors import ParseError
from dqs.io import (
    parse_divisor_string,
    parse_dqs,
    parse_map_bundle,
    parse_obj,
    parse_oneform,
    serialize_dqs,
    serialize_map_bundle,
    serialize_oneform,
)


class TestDqsRoundTrip:
    def test_torus_round_trip(self, torus44):
        text = serialize_dqs(torus44)
        back, basis = parse_dqs(text)
        assert back.colors == torus44.colors
        assert back.quads == torus44.quads
        assert back.rho == torus44.rho
        assert basis is None

    def test_rho_parses_exactly(self):
        text = json.dumps({
            "vertices": [{"id": 0, "color": "b"}, {"id": 1, "color": "w"},
                         {"id": 2, "color": "b"}, {"id": 3, "color": "w"}],
            "quads": [{"id": 0, "bm": 0, "wm": 1, "bp": 2, "wp": 3,
                       "rho": [0.5, 0.25]}],
        })
        cx, _ = parse_dqs(text)
        assert cx.rho[0] == 0.5 + 0.25j

    def test_awkward_float_round_trip(self, torus46):
        # weights with no short decimal representation survive exactly
        text = serialize_dqs(torus46)
        back, _ = parse_dqs(text)
        assert back.rho == torus46.rho

    def test_missing_rho_names_quad(self):
        text = json.dumps({
            "vertices": [{"id": 0, "color": "b"}, {"id": 1, "color": "w"},
                         {"id": 2, "color": "b"}, {"id": 3, "color": "w"}],
            "quads": [{"id": 7, "bm": 0, "wm": 1, "bp": 2, "wp": 3}],
        })
        with pytest.raises(ParseError) as err:
            parse_dqs(text, "bad.dqs")
        assert "rho" in str(err.value) and "7" in str(err.value)

    def test_sparse_ids_rejected(self):
        text = json.dumps({
            "vertices": [{"id": 0, "color": "b"}, {"id": 2, "color": "w"}],
            "quads": [],
        })
        with pytest.raises(ParseError):
            parse_dqs(text)

    def test_basis_round_trip(self, torus44):
        basis = standard_torus_basis(torus44, 4, 4)
        text = serialize_dqs(torus44, basis)
        back, basis2 = parse_dqs(text)
        assert basis2 is not None
        assert basis2.intersection.tolist() == [[0, 1], [-1, 0]]
        assert basis2.a[0].edges == basis.a[0].edges


class TestFormsAndMaps:
    def test_oneform_round_trip(self, torus44, rng):
        omega = DiamondForm(rng.normal(size=16) + 1j * rng.normal(size=16),
                            rng.normal(size=16) + 1j * rng.normal(size=16))
        back = parse_oneform(serialize_oneform(omega), torus44)
        assert (back - omega).norm() == 0.0

    @pytest.mark.parametrize("text, path", [
        ("5", "<form>"),
        ('{"type": "oneform-diamond", "values": 5}', "<form>:values"),
        ('{"type": "oneform-diamond", "values": {"0": [1, 0]}}', "<form>:values"),
        ("[7]", "<form>:values[0]"),
        ("[[0, [1, 0], [1, 2]], [0, [1, 0]]]", "<form>:values[1]"),
        ('[[0, "ab", [1, 2]]]', "<form>:values[0]"),
        ("[[0, [1, 0], [1, 2, 3]]]", "<form>:values[0]"),
        ("[[0, [1, 0], [null, 2]]]", "<form>:values[0]"),
        ("[[0, [true, 0], [1, 2]]]", "<form>:values[0]"),
        ("[[1.5, [1, 0], [1, 2]]]", "<form>:values[0]"),
        ("[[true, [1, 0], [1, 2]]]", "<form>:values[0]"),
        ("[[16, [1, 0], [1, 2]]]", "<form>:values[0]"),
        ("[[-1, [1, 0], [1, 2]]]", "<form>:values[0]"),
        ("[[0, [1e999, 0], [1, 2]]]", "<form>:values[0]"),
        ("[[0, [1, 0], [NaN, 2]]]", "<form>:values[0]"),
        pytest.param("[[0, [1" + "0" * 400 + ", 0], [1, 2]]]", "<form>:values[0]",
                     id="int-overflow"),
        pytest.param("[[1, [1, 0], [1, 2]], [0, [1, 0], [1, 2]], [1, [5, 0], [6, 0]]]",
                     "<form>:values[2]", id="repeated-quad"),
        pytest.param("[" + ", ".join(f"[{q}, [1, 0], [1, 2]]" for q in range(16) if q != 5)
                     + "]", "<form>:values", id="missing-quad"),
    ])
    def test_malformed_oneforms_are_clean_errors(self, torus44, text, path):
        if text.startswith("["):
            text = '{"type": "oneform-diamond", "values": %s}' % text
        with pytest.raises(ParseError) as exc:
            parse_oneform(text, torus44)
        assert exc.value.path == path

    def test_map_bundle_round_trip(self, torus44):
        text = serialize_map_bundle(torus44, torus44, list(range(16)))
        src, tgt, vm, _, _ = parse_map_bundle(text)
        assert src.quads == torus44.quads
        assert vm == list(range(16))

    def test_obj_parsing(self):
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1/1 3/2 4/3\n"
        verts, faces = parse_obj(text)
        assert verts.shape == (4, 3)
        assert faces == [(0, 1, 2), (0, 2, 3)]

    def test_divisor_string(self):
        d = parse_divisor_string("v:3=-1,q:7=-2,q:9=1")
        assert d.vertex_coeffs == {3: -1}
        assert d.quad_coeffs == {7: -2, 9: 1}
        with pytest.raises(ParseError):
            parse_divisor_string("x:1=2")


class TestCli:
    def run(self, argv, stdin_text=None, capsys=None, monkeypatch=None):
        import io as _io
        import sys

        if stdin_text is not None:
            monkeypatch.setattr(sys, "stdin", _io.StringIO(stdin_text))
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_gen_periods_pipeline(self, capsys, monkeypatch):
        code, out, _ = self.run(["gen", "torus", "--m", "4", "--n", "4",
                                 "--tau", "0+1i"], capsys=capsys)
        assert code == 0
        code, out, _ = self.run(["periods"], stdin_text=out, capsys=capsys,
                                monkeypatch=monkeypatch)
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("Pi:"))
        pi = json.loads(line.split(":", 1)[1])
        assert abs(pi[0][0][0]) < 1e-9 and abs(pi[0][0][1] - 1) < 1e-9

    def test_cube_cover_hurwitz_pipeline(self, capsys, monkeypatch):
        code, out, _ = self.run(["gen", "cube-cover"], capsys=capsys)
        assert code == 0
        code, out, _ = self.run(["hurwitz", "--format", "json"], stdin_text=out,
                                capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["sheets"] == 2
        assert doc["outputs"]["total_branching"] == 8
        assert all(c["pass"] for c in doc["checks"])

    def test_check_pillow_fails(self, tmp_path, capsys):
        pillow = {
            "vertices": [{"id": 0, "color": "b"}, {"id": 1, "color": "w"},
                         {"id": 2, "color": "b"}, {"id": 3, "color": "w"}],
            "quads": [{"id": 0, "bm": 0, "wm": 1, "bp": 2, "wp": 3, "rho": [1, 0]},
                      {"id": 1, "bm": 2, "wm": 1, "bp": 0, "wp": 3, "rho": [1, 0]}],
        }
        path = tmp_path / "pillow.dqs"
        path.write_text(json.dumps(pillow))
        code, out, _ = self.run(["check", str(path)], capsys=capsys)
        assert code == 1
        assert "strong-regularity" in out

    def test_riemann_roch_command(self, tmp_path, capsys):
        from dqs.io import serialize_dqs

        path = tmp_path / "t.dqs"
        path.write_text(serialize_dqs(gen_torus(4, 4, 1j)))
        code, out, _ = self.run(["riemann-roch", "--divisor", "q:5=-2", str(path)],
                                capsys=capsys)
        assert code == 0
        assert "[ok] riemann-roch-identity" in out

    def test_genus_and_homology(self, tmp_path, capsys):
        path = tmp_path / "t.dqs"
        path.write_text(serialize_dqs(gen_torus(2, 4, 1j),
                                      standard_torus_basis(gen_torus(2, 4, 1j), 2, 4)))
        code, out, _ = self.run(["genus", str(path)], capsys=capsys)
        assert code == 0 and "genus: 1" in out
        code, out, _ = self.run(["homology", str(path)], capsys=capsys)
        assert code == 0 and "intersection_matrix: [[0, 1], [-1, 0]]" in out

    def test_abelian_third_command(self, tmp_path, capsys):
        cx = gen_torus(4, 4, 1j)
        path = tmp_path / "t.dqs"
        path.write_text(serialize_dqs(cx, standard_torus_basis(cx, 4, 4)))
        code, out, _ = self.run(["abelian", "--third", "5", "7", str(path)],
                                capsys=capsys)
        assert code == 0
        assert "[ok] a-periods-vanish" in out

    def test_abel_jacobi_command(self, tmp_path, capsys):
        cx = gen_torus(4, 4, 1j)
        path = tmp_path / "t.dqs"
        path.write_text(serialize_dqs(cx, standard_torus_basis(cx, 4, 4)))
        code, out, _ = self.run(["abel-jacobi", "--base", "0", "--point", "10",
                                 str(path)], capsys=capsys)
        assert code == 0
        assert "holomorphic-components" in out

    def test_malformed_input_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.dqs"
        path.write_text('{"vertices": []}')
        code, _, err = self.run(["genus", str(path)], capsys=capsys)
        assert code == 1
        assert "quads" in err

    def test_harmonic_command(self, tmp_path, capsys):
        cx = gen_torus(4, 4, 1j)
        path = tmp_path / "t.dqs"
        path.write_text(serialize_dqs(cx, standard_torus_basis(cx, 4, 4)))
        code, out, _ = self.run(["harmonic", "--targets", "1,1,0+1i,0+1i",
                                 str(path)], capsys=capsys)
        assert code == 0
        assert "[ok] co-closed" in out

    def test_abelian_second_command(self, tmp_path, capsys):
        cx = gen_torus(4, 4, 1j)
        path = tmp_path / "t.dqs"
        path.write_text(serialize_dqs(cx, standard_torus_basis(cx, 4, 4)))
        code, out, _ = self.run(["abelian", "--second", "5", str(path)],
                                capsys=capsys)
        assert code == 0
        assert "[ok] b-period-law" in out

    def test_gen_one_pole_command(self, tmp_path, capsys, monkeypatch):
        cx = gen_torus(4, 4, 1j)
        base = tmp_path / "t.dqs"
        base.write_text(serialize_dqs(cx, standard_torus_basis(cx, 4, 4)))
        fpath = tmp_path / "f.json"
        code, out, _ = self.run(["gen", "one-pole", "--base", str(base),
                                 "--quad", "10", "--rho1", "1+0.5i",
                                 "--rho2", "0.8", "--function-out", str(fpath)],
                                capsys=capsys)
        assert code == 0
        surf, basis = parse_dqs(out)
        assert surf.nq == 20 and basis is not None
        f = json.loads(fpath.read_text())
        assert f[str(surf.nv - 4)] == [1.0, 0.0]

    def test_gen_delaunay_command(self, capsys, monkeypatch):
        obj = "v 1 1 1\nv 1 -1 -1\nv -1 1 -1\nv -1 -1 1\n" \
              "f 1 2 3\nf 1 4 2\nf 1 3 4\nf 2 4 3\n"
        code, out, _ = self.run(["gen", "delaunay"], stdin_text=obj,
                                capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        surf, _ = parse_dqs(out)
        assert surf.nq == 6 and surf.nv == 8


@pytest.mark.parametrize("argv", [
    ["riemann-roch", "--divisor", "v:999=-1"],
    ["riemann-roch", "--divisor", "q:-1=1"],
    ["abelian", "--second", "999"],
    ["abelian", "--second", "-1"],
    ["abelian", "--third", "0", "999"],
    ["abel-jacobi", "--base", "99", "--point", "0"],
    ["abel-jacobi", "--base", "0", "--point", "999"],
    ["gen", "one-pole", "--quad", "-1", "--rho1", "1", "--rho2", "1", "--base"],
])
def test_out_of_range_ids_are_clean_errors(argv, tmp_path, capsys):
    cx = gen_torus(4, 4, 1j)
    path = tmp_path / "t.dqs"
    path.write_text(serialize_dqs(cx, standard_torus_basis(cx, 4, 4)))
    code = main(argv + [str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "out of range" in err


def _torus_file(tmp_path, rho3=None):
    cx = gen_torus(4, 4, 1j)
    doc = json.loads(serialize_dqs(cx, standard_torus_basis(cx, 4, 4)))
    if rho3 is not None:
        doc["quads"][3]["rho"] = rho3
    path = tmp_path / "t.dqs"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("rho3", [[float("nan"), 0.0], [1.0, float("inf")], ["x", 0.0],
                                  [None, 1.0], ["1.5", 0.0], [True, 0.0], [1.0, False]])
@pytest.mark.parametrize("command", [["check"], ["periods"], ["harmonic"],
                                     ["abelian", "--second", "1"]])
def test_bad_weights_are_clean_errors(rho3, command, tmp_path, capsys):
    code = main(command + [_torus_file(tmp_path, rho3)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "rho of quad 3" in err


@pytest.mark.parametrize("argv", [
    ["harmonic", "--targets=nan+0i,1,1,1"],
    ["harmonic", "--targets=inf+0i,1,1,1"],
    ["harmonic", "--targets=1,abc,1,1"],
    ["gen", "torus", "--m", "4", "--n", "4", "--tau", "abc"],
    ["gen", "torus", "--m", "4", "--n", "4", "--tau", "inf+0i"],
    ["gen", "one-pole", "--quad", "1", "--rho1", "nan", "--rho2", "1", "--base"],
])
def test_bad_complex_arguments_are_clean_errors(argv, tmp_path, capsys):
    code = main(argv + ([] if argv[0] == "gen" and argv[1] == "torus"
                        else [_torus_file(tmp_path)]))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "complex number" in err


def test_cli_import_leaves_scipy_out():
    """scipy would add to every process start; the solvers need numpy only."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "import sys, dqs.cli; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_solver_commands_below_the_crossover_leave_scipy_out(tmp_path):
    """The 108-quad genus-3 cover and an 8 x 8 torus are solved densely, without scipy."""
    cover = gen_cube_double_cover()[0]
    torus = gen_torus(8, 8, 1j)
    argvs = []
    for name, cx, basis in (("cover", cover, None),
                            ("torus", torus, standard_torus_basis(torus, 8, 8))):
        path = tmp_path / f"{name}.dqs"
        path.write_text(serialize_dqs(cx, basis))
        v2 = next(v for v in range(2, cx.nv) if cx.colors[v] == cx.colors[0])
        argvs += [[cmd, *extra, str(path)] for cmd, *extra in
                  (["periods"], ["harmonic"], ["abelian", "--second", "1"],
                   ["abelian", "--third", "0", str(v2)])]
    code = ("import sys, io, contextlib, dqs.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    for argv in {argvs!r}:\n"
            "        assert dqs.cli.main(argv) == 0, argv\n"
            "sys.exit('scipy' in sys.modules)\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_topology_commands_import_nothing_more(tmp_path):
    """A job must not pull in numpy submodules after start-up (np.unique
    imports numpy.ma on its first call in numpy 2.x), which every fresh
    process would pay for."""
    cx = gen_torus(8, 8, 1j)
    surface = tmp_path / "t.dqs"
    surface.write_text(serialize_dqs(cx))
    bundle = tmp_path / "m.json"
    bundle.write_text(serialize_map_bundle(cx, cx, range(cx.nv)))
    code = (
        "import sys, io, contextlib, dqs.cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in (['check', {str(surface)!r}], ['homology', {str(surface)!r}],\n"
        f"                 ['hurwitz', {str(bundle)!r}]):\n"
        "        assert dqs.cli.main(argv) == 0\n"
        "new = [m for m in set(sys.modules) - before if m.split('.')[0] in ('numpy', 'scipy')]\n"
        "sys.exit(str(sorted(new)) if new else 0)\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("rho3", [[0.0, 0.0], [-1.0, 0.5]])
@pytest.mark.parametrize("command", [["periods"], ["harmonic"], ["abelian", "--second", "1"],
                                     ["abel-jacobi", "--base", "0", "--point", "0"],
                                     ["riemann-roch", "--divisor", "v:0=1"]])
def test_non_positive_weights_are_clean_errors(rho3, command, tmp_path, capsys):
    code = main(command + [_torus_file(tmp_path, rho3)])
    err = capsys.readouterr().err
    assert code == 1
    r = complex(*rho3)
    assert err == f"error: quad 3 has rho={r} with Re <= 0\n"


def _recolor_vertex_5(doc):
    doc["vertices"][5]["color"] = "w" if doc["vertices"][5]["color"] == "b" else "b"


def _repeat_bm_in_quad_3(doc):
    doc["quads"][3]["bp"] = doc["quads"][3]["bm"]


def _reflect_quad_3(doc):
    q = doc["quads"][3]
    q["wm"], q["wp"] = q["wp"], q["wm"]


def _second_copy(shared=()):
    """Append a copy of the surface whose vertices in shared are the originals."""
    def edit(doc):
        vertices, quads = doc["vertices"], doc["quads"]
        new = {}
        for v in list(vertices):
            if v["id"] in shared:
                new[v["id"]] = v["id"]
            else:
                new[v["id"]] = len(vertices)
                vertices.append(dict(v, id=len(vertices)))
        for q in list(quads):
            corners = {c: new[q[c]] for c in ("bm", "wm", "bp", "wp")}
            quads.append(dict(q, id=len(quads), **corners))
    return edit


@pytest.mark.parametrize("edit, message", [
    (_recolor_vertex_5, "quad 0 corner colors (0, 1, 1, 1) are not (b, w, b, w)"),
    (_repeat_bm_in_quad_3, "quad 3 has repeated vertices"),
    (_reflect_quad_3, "edge (0, 3) traversed 2x forward, 0x backward"),
    (_second_copy(), "only 16 of 32 vertices connected"),
    (_second_copy(shared=(0,)), "link of vertex 0 is not a single cycle"),
])
@pytest.mark.parametrize("command", [["periods"], ["harmonic"], ["abelian", "--second", "2"],
                                     ["abelian", "--third", "0", "2"],
                                     ["abel-jacobi", "--base", "0", "--point", "0"],
                                     ["riemann-roch"], ["genus"], ["homology"]])
def test_solver_commands_refuse_malformed_quads(edit, message, command, tmp_path, capsys):
    """Every surface command but ``check`` runs ``require_surface`` and stops
    at the first violation of ``validate``, as ``check`` lists it; the
    embedded basis does not let a command skip the check."""
    cx = gen_torus(4, 4, 0.1 + 1.1j)
    doc = json.loads(serialize_dqs(cx, standard_torus_basis(cx, 4, 4)))
    edit(doc)
    path = tmp_path / "t.dqs"
    path.write_text(json.dumps(doc))
    assert main(command + [str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["check", "--format", "json", str(path)]) == 1
    violations = json.loads(capsys.readouterr().out)["outputs"]["violations"]
    assert violations[0].endswith(f"] {message}")


def test_check_still_lists_non_positive_weight(tmp_path, capsys):
    code = main(["check", "--format", "json", _torus_file(tmp_path, [0.0, 0.0])])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["outputs"]["violations"] == ["[rho-positivity] quad 3 has rho=0j with Re <= 0"]


def _edit(section, index, key, value):
    def edit(doc):
        doc[section][index][key] = value
    return edit


def _edit_basis_sign(doc):
    doc["basis"]["a"][0][0][2] = True  # the sign is 1


@pytest.mark.parametrize("edit", [
    _edit("quads", 0, "wm", True),  # quad 0's wm is vertex 1 = true
    _edit("quads", 1, "id", True),
    _edit("quads", 1, "id", 1.0),
    _edit("vertices", 1, "id", True),
    _edit_basis_sign,
], ids=["vertex-true", "quad-id-true", "quad-id-float", "vertex-id-true", "basis-sign-true"])
def test_ids_are_not_coerced(edit, tmp_path, capsys):
    """Each edit gives back the original surface if true or 1.0 is read as 1."""
    cx = gen_torus(4, 4, 1j)
    doc = json.loads(serialize_dqs(cx, standard_torus_basis(cx, 4, 4)))
    edit(doc)
    path = tmp_path / "t.dqs"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        parse_dqs(path.read_text())
    code = main(["check", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_map_bundle_rejects_non_integer_vertex_map(torus44):
    doc = json.loads(serialize_map_bundle(torus44, torus44, range(16)))
    doc["vertex_map"][0] = [0.0, 0]
    with pytest.raises(ParseError):
        parse_map_bundle(json.dumps(doc))


def _run_main(argv):
    """Exit code (SystemExit included), stdout and stderr of one main call."""
    import contextlib
    import io as _io

    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _strip_wall_time(text):
    return [{k: v for k, v in json.loads(line).items() if k != "wall_time"}
            for line in text.splitlines()]


def test_cached_parser_behaves_like_fresh_ones(tmp_path):
    """main builds its parser once; an argparse error in one call must not
    change the next, and the other way round."""
    from dqs import cli

    path = str(_torus_file(tmp_path))
    calls = [["check", "--format", "nope", path], ["genus", "--format", "json", path],
             ["abelian", "--second", "1", "--third", "0", "2", path],
             ["check", "--format", "json", path], ["frobnicate"]]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(_run_main(argv))
    cli.build_parser.cache_clear()
    reused = [_run_main(argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    for (code, out, err), (code2, out2, err2) in zip(fresh, reused):
        assert (code, err) == (code2, err2)
        assert _strip_wall_time(out) == _strip_wall_time(out2)
    assert [c for c, _, _ in reused] == [2, 0, 2, 0, 2]


def test_map_bundle_reads_inline_sides_without_reserializing(monkeypatch, torus44):
    doc = json.loads(serialize_map_bundle(torus44, torus44, range(16)))
    text = json.dumps(doc)
    doc["source"]["quads"][0]["rho"] = [float("nan"), 0]
    bad = json.dumps(doc)

    def no_dumps(*args, **kwargs):
        raise AssertionError("parse_map_bundle re-serialized a side")

    monkeypatch.setattr(json, "dumps", no_dumps)
    src, tgt, vm, _, _ = parse_map_bundle(text, "m.json")
    assert src.quads == torus44.quads and tgt.rho == torus44.rho
    with pytest.raises(ParseError) as err:
        parse_map_bundle(bad, "m.json")
    assert str(err.value).startswith("m.json:source:quads[0].rho: rho of quad 0 must be finite")


@pytest.mark.parametrize("edit", ["5", "[1, 2]", '"x"', "vertex_map"])
def test_map_bundle_rejects_non_objects(edit, torus44):
    doc = json.loads(serialize_map_bundle(torus44, torus44, range(16)))
    if edit == "vertex_map":
        doc["vertex_map"] = 3
    else:
        doc = json.loads(edit)
    with pytest.raises(ParseError):
        parse_map_bundle(json.dumps(doc), "m.json")


@pytest.mark.parametrize("basis", [{"a": 5, "b": []}, {"a": [3], "b": []},
                                   {"a": {}, "b": []}, {"a": [], "b": "x"}])
def test_basis_must_be_arrays(basis, torus44):
    doc = json.loads(serialize_dqs(torus44))
    doc["basis"] = basis
    with pytest.raises(ParseError):
        parse_dqs(json.dumps(doc))


# ---------------------------------------------------------------------------
# fuzz: every malformed document is a ParseError and a clean CLI error

_FUZZ_TORUS = gen_torus(4, 4, 0.2 + 1.1j)
_FUZZ_DOC = json.loads(serialize_dqs(_FUZZ_TORUS, standard_torus_basis(_FUZZ_TORUS, 4, 4)))

# JSON values of the wrong type for every field they replace below
_WRONG = st.sampled_from([None, True, False, "1", "b ", [], [0, 0, 0], {}, 1.5, -0.0])


@st.composite
def _broken_dqs(draw):
    """The 4x4 torus DQS with one edit that no valid document has."""
    doc = json.loads(json.dumps(_FUZZ_DOC))
    nv, nq = len(doc["vertices"]), len(doc["quads"])
    kind = draw(st.sampled_from([
        "drop-top", "wrong-top", "drop-vertex-key", "wrong-vertex-id", "wrong-color",
        "vertex-id-range", "vertex-id-dup", "wrong-vertex", "drop-quad-key",
        "wrong-quad-field", "quad-id-range", "quad-id-dup", "corner-range", "rho-value",
        "rho-shape", "wrong-quad", "basis-type", "basis-quad-range"]))
    i = draw(st.integers(0, nv - 1))
    q = draw(st.integers(0, nq - 1))
    vert, quad = doc["vertices"][i], doc["quads"][q]
    if kind == "drop-top":
        del doc[draw(st.sampled_from(["vertices", "quads"]))]
    elif kind == "wrong-top":
        doc[draw(st.sampled_from(["vertices", "quads"]))] = draw(_WRONG.filter(
            lambda x: not isinstance(x, list)))
    elif kind == "drop-vertex-key":
        del vert[draw(st.sampled_from(["id", "color"]))]
    elif kind == "wrong-vertex-id":
        vert["id"] = draw(_WRONG)
    elif kind == "wrong-color":
        vert["color"] = draw(_WRONG)
    elif kind == "vertex-id-range":
        vert["id"] = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=nv)))
    elif kind == "vertex-id-dup":
        vert["id"] = draw(st.integers(0, nv - 1).filter(lambda j: j != i))
    elif kind == "wrong-vertex":
        doc["vertices"][i] = draw(_WRONG.filter(lambda x: not isinstance(x, dict)))
    elif kind == "drop-quad-key":
        del quad[draw(st.sampled_from(["id", "bm", "wm", "bp", "wp", "rho"]))]
    elif kind == "wrong-quad-field":
        quad[draw(st.sampled_from(["id", "bm", "wm", "bp", "wp", "rho"]))] = draw(_WRONG)
    elif kind == "quad-id-range":
        quad["id"] = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=nq)))
    elif kind == "quad-id-dup":
        quad["id"] = draw(st.integers(0, nq - 1).filter(lambda j: j != q))
    elif kind == "corner-range":
        quad[draw(st.sampled_from(["bm", "wm", "bp", "wp"]))] = draw(
            st.one_of(st.integers(max_value=-1), st.integers(min_value=nv)))
    elif kind == "rho-value":
        quad["rho"][draw(st.integers(0, 1))] = draw(st.one_of(
            st.sampled_from([float("nan"), float("inf"), -float("inf"), 10 ** 400]),
            _WRONG.filter(lambda x: type(x) not in (int, float))))
    elif kind == "rho-shape":
        quad["rho"] = draw(st.lists(st.floats(0.5, 2.0), max_size=4).filter(
            lambda r: len(r) != 2))
    elif kind == "wrong-quad":
        doc["quads"][q] = draw(_WRONG.filter(lambda x: not isinstance(x, dict)))
    elif kind == "basis-type":
        doc["basis"][draw(st.sampled_from(["a", "b"]))] = draw(_WRONG.filter(
            lambda x: x != []))
    else:
        doc["basis"]["a"][0][0][0] = draw(st.one_of(st.integers(max_value=-1),
                                                    st.integers(min_value=nq)))
    return json.dumps(doc)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_broken_dqs())
def test_malformed_documents_are_clean_errors(text):
    from unittest import mock
    import io as _io

    with pytest.raises(ParseError):
        parse_dqs(text, "fuzz.dqs")
    with mock.patch("sys.stdin", _io.StringIO(text)):
        code, out, err = _run_main(["check", "-"])
    assert code == 1 and out == ""
    assert err.startswith("error: <stdin>") and err.count("\n") == 1


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_broken_dqs())
def test_malformed_documents_fail_alike_with_either_decoder(text):
    """orjson, json and the exact path alone end in the same ParseError
    text, for a surface and for a map bundle whose source it is."""
    orjson = pytest.importorskip("orjson")
    bundle = ('{"source": %s, "target": %s, "vertex_map": %s}'
              % (text, json.dumps(_FUZZ_DOC), json.dumps([[v, v] for v in range(16)])))

    def refuse(text):
        raise ValueError("read on the exact path")

    for parse, doc in ((parse_dqs, text), (parse_map_bundle, bundle)):
        messages = set()
        for decoder in (orjson.loads, json.loads, refuse):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(dqs_io, "_decode", decoder)
                with pytest.raises(ParseError) as err:
                    parse(doc, "fuzz.dqs")
            messages.add(str(err.value))
        assert len(messages) == 1


@pytest.mark.parametrize("decoder", ["orjson", "json"])
def test_deeply_nested_documents_are_clean_errors(decoder, tmp_path, monkeypatch):
    """Nesting too deep for the stdlib decoder is invalid JSON, with either decoder."""
    if decoder == "orjson":
        monkeypatch.setattr(dqs_io, "_decode", pytest.importorskip("orjson").loads)
    else:
        monkeypatch.setattr(dqs_io, "_decode", json.loads)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    source, target, cmap = gen_torus_unbranched_cover(4, 4, 0.2 + 1.1j)
    bundle = json.loads(serialize_map_bundle(source, target, cmap.vertex_map))
    deep_map = tmp_path / "map.json"
    deep_map.write_text(json.dumps({**bundle, "vertex_map": 0}).replace(
        '"vertex_map": 0', '"vertex_map": ' + "[" * 3000 + "]" * 3000))
    for argv in (["check", str(deep)], ["homology", str(deep)], ["hurwitz", str(deep_map)]):
        code, out, err = _run_main(argv)
        assert code == 1 and out == "", argv
        assert err.startswith(f"error: {argv[1]}: invalid JSON: maximum recursion depth "
                              "exceeded") and err.count("\n") == 1, (argv, err)


# fuzz: malformed command-line values are clean errors on a torus and a sphere

_FUZZ_SURFACES = {"torus": serialize_dqs(_FUZZ_TORUS, standard_torus_basis(_FUZZ_TORUS, 4, 4)),
                  "cube": serialize_dqs(gen_cube())}

_ID = st.one_of(st.integers(-40, 40), st.integers(max_value=-41), st.integers(min_value=41))

_COMPLEX_TEXT = st.one_of(
    st.sampled_from(["1", "0+1i", "1+i", "2j", "-0.5-1e-320i", "0", "-1", "nan", "inf",
                     "-inf", "nan+1i", "1e308", "-1e308+1e308i", "1e400", "", " ", "i",
                     "abc", "(1+2j)", "1+2i+3i"]),
    st.floats().map(repr),
    st.complex_numbers(max_magnitude=1e6).map(lambda z: f"{z.real!r}{z.imag:+.17g}i"),
    st.text(alphabet="0123456789+-.eij nafIN", max_size=8))

_DIVISOR_TERM = st.one_of(
    st.builds("{}:{}={}".format, st.sampled_from(["v", "q", "x", "V", ""]), _ID,
              st.integers(-3, 3)),
    st.text(alphabet="vqx:=-+,0123456789 .e", max_size=10))


@st.composite
def _malformed_argv(draw):
    """One command line with fuzzed ids or values on the torus or the cube."""
    kind = draw(st.sampled_from(["second", "third", "abel-jacobi", "riemann-roch",
                                 "harmonic", "one-pole", "torus"]))
    if kind == "second":
        argv = ["abelian", "-", f"--second={draw(_ID)}"]
    elif kind == "third":
        argv = ["abelian", "-", "--third", str(draw(_ID)), str(draw(_ID))]
    elif kind == "abel-jacobi":
        argv = ["abel-jacobi", "-", f"--base={draw(_ID)}", f"--point={draw(_ID)}"]
    elif kind == "riemann-roch":
        terms = draw(st.lists(_DIVISOR_TERM, max_size=4))
        argv = ["riemann-roch", "-", "--divisor=" + ",".join(terms)]
    elif kind == "harmonic":
        targets = draw(st.lists(_COMPLEX_TEXT, max_size=6))
        argv = ["harmonic", "-", "--targets=" + ",".join(targets)]
    elif kind == "one-pole":
        argv = ["gen", "one-pole", "--base", "-", f"--quad={draw(_ID)}",
                f"--rho1={draw(_COMPLEX_TEXT)}", f"--rho2={draw(_COMPLEX_TEXT)}"]
    else:
        argv = ["gen", "torus", "--m", "4", "--n", "4", f"--tau={draw(_COMPLEX_TEXT)}"]
    if argv[0] != "gen":
        argv.append("--format=json")
    return draw(st.sampled_from(sorted(_FUZZ_SURFACES))), argv


def _strict_json(line):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in a report")
    return json.loads(line, parse_constant=reject)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_malformed_argv())
def test_malformed_arguments_are_clean_errors(case):
    from unittest import mock
    import io as _io

    surface, argv = case
    with mock.patch("sys.stdin", _io.StringIO(_FUZZ_SURFACES[surface])):
        code, out, err = _run_main(argv)
    assert "Traceback" not in err
    if code == 0:
        if argv[0] != "gen":
            assert all(_strict_json(line) for line in out.splitlines())
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_third_kind_command_on_the_sphere(tmp_path, capsys):
    # genus 0 has no a-periods to check; the check reads zero, not a traceback
    path = tmp_path / "cube.dqs"
    path.write_text(_FUZZ_SURFACES["cube"])
    assert main(["abelian", "--third", "0", "3", "--format", "json", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {c["name"]: c["residual"] for c in doc["checks"]}["a-periods-vanish"] == 0.0


def test_repeated_divisor_term_is_a_parse_error(tmp_path, capsys):
    for terms in ("v:0=-1,v:0=-1", "q:3=1,v:3=-1,q:3=-2"):
        with pytest.raises(ParseError, match="repeated term"):
            parse_divisor_string(terms)
    code = main(["riemann-roch", "--divisor", "v:0=-1,v:0=-1", _torus_file(tmp_path)])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith("error: <divisor>: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["periods", "--tol", "-1"],
    ["periods", "--tol", "0"],
    ["abelian", "--second", "0", "--tol", "nan"],
    ["periods", "--tol", "inf"],
])
def test_bad_tolerance_is_a_clean_error(argv, tmp_path, capsys, monkeypatch):
    from dqs import differentials

    def no_work(*args, **kwargs):
        raise AssertionError("solved before the tolerance was checked")

    monkeypatch.setattr(differentials, "DzSystem", no_work)
    code = main(argv + [_torus_file(tmp_path)])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith("error: --tol") and out.err.count("\n") == 1


@pytest.mark.parametrize("ids,message", [
    (["--base", "16", "--point", "0"], "error: quad id 16 out of range"),
    (["--base", "-1", "--point", "0"], "error: quad id -1 out of range"),
    (["--base", "0", "--point", "16"], "error: vertex id 16 out of range"),
    (["--base", "0", "--point", "-1"], "error: vertex id -1 out of range"),
])
def test_abel_jacobi_ids_are_checked_before_solving(ids, message, tmp_path, capsys,
                                                    monkeypatch):
    from dqs import differentials

    def no_work(*args, **kwargs):
        raise AssertionError("solved before the ids were checked")

    monkeypatch.setattr(differentials, "DzSystem", no_work)
    code = main(["abel-jacobi", *ids, _torus_file(tmp_path)])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith(message) and out.err.count("\n") == 1


@pytest.mark.parametrize("which", ["cover", "torus12"])
def test_abelian_second_command_factors_once(which, tmp_path, capsys, lu_record):
    """One factorization per job, below and above the sparse crossover; the
    form agrees with a separate second-kind solve."""
    from dqs import abelian_second, differentials, homology_basis, randomize_rho

    rng = np.random.default_rng(5)
    if which == "cover":
        cx = randomize_rho(gen_cube_double_cover()[0], rng)
        basis, text = homology_basis(cx), serialize_dqs(cx)
    else:
        cx = randomize_rho(gen_torus(12, 12, 0.3 + 1.2j), rng)
        basis = standard_torus_basis(cx, 12, 12)
        text = serialize_dqs(cx, basis)
    path = tmp_path / "s.dqs"
    path.write_text(text)
    assert main(["abelian", "--second", "7", "--format", "json", str(path)]) == 0
    dense = cx.nq < differentials.SPARSE_NQ
    assert lu_record.batches == [((cx.nq, cx.nq), dense, True)]
    assert lu_record.factors == (0 if dense else 1)
    doc = json.loads(capsys.readouterr().out)
    assert all(c["pass"] for c in doc["checks"])
    got = parse_oneform(json.dumps(doc["outputs"]["form"]), cx)
    ref = abelian_second(cx, basis, 7).form
    ref_values = np.concatenate([ref.black, ref.white])
    err = np.abs(np.concatenate([got.black, got.white]) - ref_values).max()
    assert err <= 1e-12 * np.abs(ref_values).max()


@pytest.mark.parametrize("targets", ["1e308,1e308,1,1e308", "1.7e308,-1.7e308,1.7e308,-1.7e308",
                                     "1e308+1e308i,1e308,1,-1e308", "1e-310,1e-310,1e-310,1"])
def test_harmonic_targets_at_the_float_limits(targets, tmp_path):
    """No overflow reaches a solve check: with warnings as errors the
    command passes every check or is one clean error."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run_main(["harmonic", f"--targets={targets}", "--format=json",
                                    _torus_file(tmp_path)])
    if code == 0:
        doc = _strict_json(out)
        assert doc["checks"] and all(c["pass"] for c in doc["checks"])
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def _unreadable_inputs(tmp_path):
    """Command lines that name a missing file, a directory or a non-UTF-8 file."""
    latin = tmp_path / "latin1.dqs"
    latin.write_bytes(b'{"vertices": "\xe9"}')
    bundle = tmp_path / "map.json"
    bundle.write_text(json.dumps({"source": "missing.dqs", "target": "missing.dqs",
                                  "vertex_map": []}))
    torus = _torus_file(tmp_path)
    one_pole = ["gen", "one-pole", "--quad", "10", "--rho1", "1", "--rho2", "1"]
    return [
        ["check", str(tmp_path / "missing.dqs")],
        ["check", str(tmp_path)],
        ["check", str(latin)],
        ["periods", str(latin)],
        ["hurwitz", str(tmp_path / "missing.json")],
        ["hurwitz", str(bundle)],
        [*one_pole, "--base", str(tmp_path)],
        [*one_pole, "--base", torus, "--function-out", str(tmp_path)],
        ["gen", "delaunay", "--obj", str(latin)],
        ["gen", "delaunay", "--obj", str(tmp_path / "missing.obj")],
    ]


def test_unreadable_inputs_are_clean_errors(tmp_path, capsys):
    for argv in _unreadable_inputs(tmp_path):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("text, line, what", [
    ("v a b c\n", 1, "bad coordinates"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3x\n", 4, "bad vertex indices"),
    ("v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 3\n", 2, "must be finite"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 inf\nf 1 2 3\n", 3, "must be finite"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 -1\n", 5, "out of range 1..4"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n\nf 1 2 5\n", 6, "out of range 1..4"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 0 1 2\n", 5, "out of range 1..4"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 1 2\n", 6, "repeats a vertex"),
])
def test_obj_records_are_checked(text, line, what, capsys, monkeypatch):
    with pytest.raises(ParseError, match=f"^<obj>:{line}: .*{what}"):
        parse_obj(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["gen", "delaunay"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: <stdin>:{line}: ")


def test_negative_seed_is_a_clean_error(capsys, monkeypatch):
    from dqs import cli

    def no_work(seed):
        raise AssertionError("ran the selftest before the seed was checked")

    monkeypatch.setattr(cli, "run_all", no_work)
    assert main(["selftest", "--seed", "-1"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: --seed must be a nonnegative integer, got -1\n"


# ---------------------------------------------------------------------------
# each option only on the parsers that read it


def test_options_parse_after_their_subcommand():
    from dqs.cli import build_parser

    args = build_parser().parse_args(["periods", "--format", "json", "--tol", "1e-6", "x"])
    assert (args.format, args.tol) == ("json", 1e-6)
    args = build_parser().parse_args(["selftest", "--seed", "3", "--format", "json"])
    assert (args.seed, args.format) == (3, "json")
    assert "tol" not in build_parser().parse_args(["genus", "x"])


@pytest.mark.parametrize("argv", [
    ["--format", "json", "periods"],
    ["--tol", "1e-6", "periods"],
    ["--seed", "1", "selftest"],
    ["genus", "--tol", "1e-6"],
    ["riemann-roch", "--seed", "1"],
    ["hurwitz", "--tol", "1e-6"],
    ["selftest", "--tol", "1e-6"],
    ["gen", "--format", "json", "torus", "--m", "4", "--n", "4", "--tau", "1i"],
    ["gen", "torus", "--m", "4", "--n", "4", "--tau", "1i", "--format", "json"],
])
def test_misplaced_flags_are_usage_errors(argv, tmp_path, monkeypatch):
    from dqs import cli

    def no_work(*args, **kwargs):
        raise AssertionError("ran a command with a misplaced flag")

    monkeypatch.setattr(cli, "run_all", no_work)
    monkeypatch.setattr(cli, "gen_torus", no_work)
    path = _torus_file(tmp_path)
    code, out, err = _run_main(argv + ([path] if argv[0] != "gen" and "selftest" not in argv
                                       else []))
    assert code == 2 and out == ""
    assert "usage: dqs" in err and "error:" in err


@pytest.mark.parametrize("argv", [
    ["--format", "json", "genus", "x"],
    ["--format=json", "genus", "x"],
    ["--tol", "1e-6", "periods", "x"],
    ["--seed", "1", "selftest"],
])
def test_option_before_the_command_is_a_usage_error(argv):
    """argparse alone would take the option's value for the command
    ("invalid choice: 'json'")."""
    code, out, err = _run_main(argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: dqs") and "options go after the command" in err
    assert f"got {argv[0]!r} first" in err
    assert "invalid choice" not in err and "Traceback" not in err


def test_negative_real_tau_is_written_with_an_equals_sign():
    """A value starting with '-' reads as an option; the help says how to
    write it, and the '=' form generates the torus."""
    argv = ["gen", "torus", "--m", "4", "--n", "4"]
    code, out, err = _run_main(argv + ["--tau", "-0.27+0.9i"])
    assert code == 2 and out == ""
    assert err.startswith("usage: dqs gen torus") and "Traceback" not in err
    code, out, err = _run_main(argv + ["--help"])
    assert code == 0 and "--tau=-0.27+0.9i" in " ".join(out.split())
    code, out, err = _run_main(argv + ["--tau=-0.27+0.9i"])
    assert code == 0 and err == ""
    cx, basis = parse_dqs(out)
    ref = gen_torus(4, 4, -0.27 + 0.9j)
    assert (cx.quads, cx.rho) == (ref.quads, ref.rho) and basis.g == 1


def _abel_jacobi_check(path):
    code, out, _ = _run_main(["abel-jacobi", "--base", "0", "--point", "5",
                              "--format", "json", path])
    check, = (c for c in json.loads(out)["checks"] if c["name"] == "holomorphic-components")
    return code, check


def test_holomorphic_components_measure_closedness(tmp_path):
    """The check reads the largest closedness residual of the canonical forms."""
    from dqs import canonical_bases, closedness_residual

    cx = gen_torus(6, 4, 0.3 + 1.2j)
    basis = standard_torus_basis(cx, 6, 4)
    path = tmp_path / "t.dqs"
    path.write_text(serialize_dqs(cx, basis))
    code, check = _abel_jacobi_check(str(path))
    expected = max(closedness_residual(cx, w) for w in canonical_bases(cx, basis).omega)
    assert code == 0 and check["pass"]
    assert check["residual"] == expected < 1e-10


def test_holomorphic_components_fail_on_forms_that_are_not_closed(tmp_path, monkeypatch):
    """Forms holomorphic quad by quad but not closed fail the check."""
    from dqs import differentials

    solve = differentials._dz_solve

    def off_by_a_little(*args, **kwargs):
        p = solve(*args, **kwargs)
        p[3] += 1e-9
        return p

    monkeypatch.setattr(differentials, "_dz_solve", off_by_a_little)
    code, check = _abel_jacobi_check(_torus_file(tmp_path))
    assert code == 1 and not check["pass"]
    assert 1e-10 < check["residual"] < 1e-8


# each malformed basis of a generated torus, as (a, b) from its stored (a, b)
_MALFORMED_BASES = {
    "b-is-a": lambda a, b: (a, a),
    "empty": lambda a, b: ([], []),
    "truncated-a": lambda a, b: ([a[0][:-1]], b),
    "swapped": lambda a, b: (b, a),
    "one-a-no-b": lambda a, b: (a, []),
    "no-a-one-b": lambda a, b: ([], b),
    "one-a-two-b": lambda a, b: (a, b * 2),
    "doubled": lambda a, b: (a * 2, b * 2),
}


def _malformed_basis_file(case, tmp_path):
    code, out, _ = _run_main(["gen", "torus", "--m", "4", "--n", "4", "--tau", "0.1+1.1i"])
    doc = json.loads(out)
    doc["basis"]["a"], doc["basis"]["b"] = _MALFORMED_BASES[case](doc["basis"]["a"],
                                                                  doc["basis"]["b"])
    path = tmp_path / "t.dqs"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command", [
    ["homology"], ["periods"], ["harmonic"], ["abelian", "--third", "0", "2"],
    ["abel-jacobi", "--base", "0", "--point", "5"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("case", sorted(_MALFORMED_BASES))
def test_every_basis_command_refuses_a_malformed_embedded_basis(case, command, tmp_path):
    code, out, err = _run_main(command + [str(_malformed_basis_file(case, tmp_path))])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "basis" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("command", [["check"], ["genus"], ["riemann-roch", "--divisor", "q:5=1"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("case", sorted(_MALFORMED_BASES))
def test_commands_without_a_basis_read_a_malformed_one(case, command, tmp_path):
    """The basis is judged only where it is used: any count of a- and
    b-cycles parses, and the other commands report as without it."""
    path = _malformed_basis_file(case, tmp_path)
    doc = json.loads(path.read_text())
    del doc["basis"]
    bare = tmp_path / "bare.dqs"
    bare.write_text(json.dumps(doc))
    code, out, err = _run_main(command + ["--format", "json", str(path)])
    assert code == 0 and err == "", err
    reports = [json.loads(out), json.loads(_run_main(command + ["--format", "json",
                                                                str(bare)])[1])]
    for report in reports:  # the digest reads the file's bytes
        report.pop("wall_time", None), report.pop("input_digest", None)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [
    ["gen", "torus", "--m", "2", "--n", "4", "--tau", "0+1i"],  # doubled edges
    ["gen", "one-pole", "--quad", "10", "--rho1", "1+0.5i", "--rho2", "0.8"],
], ids=["torus-2x4", "one-pole"])
def test_generated_bases_pass_the_basis_check(argv, tmp_path):
    from dqs.homology import require_basis
    from dqs.surface import require_surface

    base = tmp_path / "t.dqs"
    base.write_text(_run_main(["gen", "torus", "--m", "4", "--n", "4", "--tau", "0+1i"])[1])
    code, out, _ = _run_main(argv + (["--base", str(base)] if argv[1] == "one-pole" else []))
    assert code == 0
    cx, basis = parse_dqs(out)
    assert basis is not None
    require_surface(cx)
    require_basis(cx, basis)


def test_periods_tolerance_reaches_the_solve(tmp_path):
    """--tol bounds the residual of the canonical solve, as in harmonic."""
    path = tmp_path / "t.dqs"
    path.write_text(_run_main(["gen", "torus", "--m", "4", "--n", "4", "--tau", "0.1+1.1i"])[1])
    assert _run_main(["periods", str(path)])[0] == 0
    for command in ("periods", "harmonic"):
        code, out, err = _run_main([command, "--tol", "1e-30", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error: holomorphic system residual ") and \
            err.rstrip().endswith("exceeds tolerance"), err


def test_wall_time_covers_reading_the_surface(tmp_path, monkeypatch, capsys):
    """The report's clock starts before the surface is read: a parse that
    takes 5 s on a fake clock shows in wall_time."""
    from dqs import cli

    clock = [100.0]
    monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])
    parse = cli.parse_dqs

    def slow_parse(*args):
        clock[0] += 5.0
        return parse(*args)

    monkeypatch.setattr(cli, "parse_dqs", slow_parse)
    assert main(["genus", "--format", "json", _torus_file(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["wall_time"] >= 5.0


def test_a_bad_rho_is_reported_before_an_unknown_corner(tmp_path, capsys):
    """On the exact path a quad's weight is judged whole before its corners."""
    doc = {"vertices": [{"id": v, "color": "bw"[v % 2]} for v in range(4)],
           "quads": [{"id": 0, "bm": 0, "wm": 5, "bp": 2, "wp": 3, "rho": [1, "x"]}]}
    path = tmp_path / "one.dqs"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: {path}:quads[0].rho: rho of quad 0 "
                                       "must be two numbers, got [1, 'x']\n")
