import cmath
import math

import numpy as np
import pytest

from dqs import (
    BLACK,
    WHITE,
    Obstruction,
    QuadComplex,
    gen_cube,
    gen_torus,
    genus,
    intersection_angle,
    medial_graph,
    quad_chart,
    realize_rhombic,
    subdivide3,
    validate,
    vertex_chart,
    vertex_fan,
)
from dqs.coverings import gen_cube_double_cover
from dqs.errors import AmbiguousGluingError, DqsError, MalformedSurfaceError, SurfaceError
from dqs.surface import SLOT_BM, SLOT_BP, SLOT_WM, SLOT_WP, ValidationReport, Violation

from conftest import incidences


def pillow():
    # two quads glued along all four edges: a strongly irregular sphere
    return QuadComplex.build(
        [BLACK, WHITE, BLACK, WHITE],
        [(0, 1, 2, 3), (2, 1, 0, 3)],
        [1.0, 1.0],
    )


# ---------------------------------------------------------------------------
# Reference implementations: the per-quad Python scans that validate and
# stars were before they became array passes.  The tests compare the two.


def _reference_other_quad(cx, u, w):
    entries = cx.edge_pairs[(min(u, w), max(u, w))]
    if len(entries) != 2:
        raise AmbiguousGluingError(
            f"edge {{{u}, {w}}} occurs in {len(entries)} quad boundaries; "
            "rotation system is ambiguous"
        )
    for q2, a, b in entries:
        if (a, b) == (w, u):
            return q2
    raise SurfaceError(f"edge {{{u}, {w}}} is not traversed in both directions")


def _reference_stars(cx):
    out = []
    table = incidences(cx)
    for v in range(cx.nv):
        inc = table[v]
        if not inc:
            out.append(())
            continue
        q0, s0 = inc[0]
        order = [(q0, s0)]
        q, s = q0, s0
        for _ in range(len(inc)):
            p = cx.corner_prev(q, s)
            q = _reference_other_quad(cx, p, v)
            s = cx.corner_slot(q, v)
            if (q, s) == (q0, s0):
                break
            order.append((q, s))
        else:
            raise SurfaceError(f"star of vertex {v} does not close")
        if len(order) != len(inc):
            raise SurfaceError(f"link of vertex {v} is not a single cycle")
        out.append(tuple(order))
    return tuple(out)


def _reference_validate(cx):
    bad = []
    for q, t in enumerate(cx.quads):
        if len(set(t)) != 4:
            bad.append(Violation("quad-vertices", (q,), f"quad {q} has repeated vertices"))
    for q, t in enumerate(cx.quads):
        cols = tuple(cx.colors[v] for v in t)
        if cols != (BLACK, WHITE, BLACK, WHITE):
            bad.append(Violation(
                "bipartite", (q,),
                f"quad {q} corner colors {cols} are not (b, w, b, w)"))
    for pair, entries in sorted(cx.edge_pairs.items()):
        fwd = sum(1 for (_, a, b) in entries if (a, b) == pair)
        rev = len(entries) - fwd
        if fwd != rev or len(entries) % 2:
            bad.append(Violation(
                "closed-surface", pair,
                f"edge {pair} traversed {fwd}x forward, {rev}x backward"))
        elif len(entries) > 2:
            bad.append(Violation(
                "strong-regularity", pair,
                f"edge {pair} is shared by {len(entries)} quad boundaries"))
    for q, r in enumerate(cx.rho):
        if not cmath.isfinite(r):
            bad.append(Violation(
                "rho-positivity", (q,), f"quad {q} has non-finite rho={r}"))
        elif not r.real > 0:
            bad.append(Violation(
                "rho-positivity", (q,), f"quad {q} has rho={r} with Re <= 0"))
    structural = [v for v in bad if v.kind in ("quad-vertices", "bipartite", "closed-surface")]
    if not structural:
        if not any(len(e) != 2 for e in cx.edge_pairs.values()):
            try:
                _reference_stars(cx)
            except SurfaceError as exc:
                bad.append(Violation("vertex-link", (), str(exc)))
        bad.extend(_reference_connectivity(cx))
        bad.extend(_reference_strong_regularity(cx))
    order = {"quad-vertices": 0, "bipartite": 1, "closed-surface": 2,
             "vertex-link": 3, "connectivity": 4, "rho-positivity": 5,
             "strong-regularity": 6}
    bad.sort(key=lambda v: (order[v.kind], v.ids))
    return ValidationReport(tuple(bad))


def _reference_connectivity(cx):
    if cx.nv == 0:
        return [Violation("connectivity", (), "empty complex")]
    seen = {0}
    stack = [0]
    adj = {}
    for (u, w) in cx.edge_pairs:
        adj.setdefault(u, []).append(w)
        adj.setdefault(w, []).append(u)
    while stack:
        u = stack.pop()
        for w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != cx.nv:
        return [Violation("connectivity", (), f"only {len(seen)} of {cx.nv} vertices connected")]
    return []


def _reference_strong_regularity(cx):
    out = []
    shared_edges = {}
    for pair, entries in cx.edge_pairs.items():
        qs = sorted({q for (q, _, _) in entries})
        for i in range(len(qs)):
            for j in range(i + 1, len(qs)):
                shared_edges.setdefault((qs[i], qs[j]), []).append(pair)
        if len(entries) == 2 and entries[0][0] == entries[1][0]:
            q = entries[0][0]
            out.append(Violation(
                "strong-regularity", (q,),
                f"quad {q} is glued to itself along edge {pair}"))
    for (q1, q2), pairs in sorted(shared_edges.items()):
        if len(pairs) > 1:
            out.append(Violation(
                "strong-regularity", (q1, q2),
                f"quads {q1} and {q2} share {len(pairs)} edges"))
    shared_vertices = {}
    for v, inc in enumerate(incidences(cx)):
        qs = sorted({q for (q, _) in inc})
        for i in range(len(qs)):
            for j in range(i + 1, len(qs)):
                shared_vertices.setdefault((qs[i], qs[j]), []).append(v)
    for (q1, q2), vs in sorted(shared_vertices.items()):
        if len(vs) < 2 or (q1, q2) in shared_edges:
            continue
        out.append(Violation(
            "strong-regularity", (q1, q2),
            f"quads {q1} and {q2} share vertices {vs} but no edge"))
    return out


class TestValidate:
    def test_cube_clean(self, cube):
        assert validate(cube).ok

    def test_pillow_strong_regularity(self):
        rep = validate(pillow())
        assert not rep.ok
        assert "strong-regularity" in rep.kinds()
        # structurally it is a sphere
        assert rep.surface_ok
        assert genus(pillow()) == 0

    def test_rho_positivity(self, cube):
        bad = QuadComplex.build(cube.colors, cube.quads, [-1.0] + [1.0] * 5)
        rep = validate(bad)
        assert "rho-positivity" in rep.kinds()

    @pytest.mark.parametrize("r", [complex("nan"), complex("inf"), complex(1.0, float("inf"))])
    def test_non_finite_rho_flagged(self, cube, r):
        rep = validate(QuadComplex.build(cube.colors, cube.quads, [r] + [1.0] * 5))
        assert [str(v) for v in rep.violations] == [
            f"[rho-positivity] quad 0 has non-finite rho={r}"]

    def test_open_surface_detected(self):
        # a single quad: every edge occurs once
        cx = QuadComplex.build([BLACK, WHITE, BLACK, WHITE],
                               [(0, 1, 2, 3)], [1.0])
        rep = validate(cx)
        assert "closed-surface" in rep.kinds()

    def test_wraparound_grid_is_surface_but_flagged(self):
        rep = validate(gen_torus(2, 4, 1j))
        assert rep.surface_ok
        assert not rep.ok and rep.kinds() == ["strong-regularity"]


def _relabel(cx, quads, colors=None, rho=None):
    return QuadComplex.build(cx.colors if colors is None else colors, quads,
                             cx.rho if rho is None else rho)


def _two_cubes():
    cube = gen_cube()
    quads = list(cube.quads) + [tuple(v + 8 for v in t) for t in cube.quads]
    return QuadComplex.build(cube.colors * 2, quads, cube.rho * 2)


def _glued_cubes(*shared):
    """Two cubes with each listed vertex of the first identified with its
    copy in the second."""
    union = _two_cubes()
    keep = [v for v in range(union.nv) if v - 8 not in shared]
    merge = {v: i for i, v in enumerate(keep)}
    merge.update({v + 8: merge[v] for v in shared})
    return QuadComplex.build([union.colors[v] for v in keep],
                             [tuple(merge[v] for v in t) for t in union.quads], union.rho)


def _split_quad():
    # cube face 0 cut into two quads through a new vertex of degree two
    cube = gen_cube()
    bm, wm, bp, wp = cube.quads[0]
    quads = list(cube.quads[1:]) + [(bm, wm, bp, 8), (bm, 8, bp, wp)]
    return QuadComplex.build(cube.colors + (WHITE,), quads, [1.0] * 7)


def _surface(name):
    """Surfaces for the reference comparison, with the kinds they violate."""
    torus = gen_torus(4, 4, 1j)
    if name == "cube":
        return gen_cube(), []
    if name == "pillow":
        return pillow(), ["strong-regularity"]
    if name == "torus-2x4":
        return gen_torus(2, 4, 1j), ["strong-regularity"]
    if name == "torus-4x4":
        return torus, []
    if name == "torus-32":
        return gen_torus(32, 32, 0.2 + 1.1j), []
    if name == "genus3":
        return gen_cube_double_cover()[0], []
    if name == "genus3-sub3":
        return subdivide3(gen_cube_double_cover()[0]), []
    quads = [list(t) for t in torus.quads]
    if name == "repeated-vertex":
        quads[5][1] = quads[5][3]
        return _relabel(torus, quads), ["closed-surface", "quad-vertices"]
    if name == "non-bipartite":
        colors = list(torus.colors)
        colors[6] = 1 - colors[6]
        return _relabel(torus, quads, colors=colors), ["bipartite"]
    if name == "open":
        return _relabel(torus, quads[1:], rho=torus.rho[1:]), ["closed-surface"]
    if name == "doubled-quad":
        return _relabel(torus, quads + [quads[0]], rho=torus.rho + (1.0,)), ["closed-surface"]
    if name == "two-cycle-link":
        # the link of the shared vertex is two disjoint 3-cycles
        return _glued_cubes(0), ["vertex-link"]
    if name == "shared-diagonal":
        # glued at both ends of a face diagonal, the two copies of that
        # face share two vertices but no edge
        return _glued_cubes(0, 3), ["strong-regularity", "vertex-link"]
    if name == "degree-two-vertex":
        return _split_quad(), ["strong-regularity"]
    if name == "disconnected":
        return _two_cubes(), ["connectivity"]
    if name == "bad-weights":
        rho = list(torus.rho)
        rho[2], rho[7], rho[9], rho[11] = complex("nan"), 0j, -1 + 0.5j, complex(1, float("inf"))
        return _relabel(torus, quads, rho=rho), ["rho-positivity"]
    raise KeyError(name)


def _stars_outcome(stars, cx):
    """stars(cx) on a fresh copy of cx, or the type and text of its error."""
    try:
        return stars(QuadComplex(cx.colors, cx.quads, cx.rho))
    except SurfaceError as exc:
        return type(exc), str(exc)


def _array_stars(cx):
    return cx.stars


@pytest.mark.parametrize("name", [
    "cube", "pillow", "torus-2x4", "torus-4x4", "torus-32", "genus3", "genus3-sub3",
    "repeated-vertex", "non-bipartite", "open", "doubled-quad", "two-cycle-link",
    "shared-diagonal", "degree-two-vertex", "disconnected", "bad-weights"])
def test_validate_and_stars_match_reference(name):
    cx, kinds = _surface(name)
    report = validate(cx)
    assert report.kinds() == kinds
    assert report == _reference_validate(QuadComplex(cx.colors, cx.quads, cx.rho))
    assert _stars_outcome(_array_stars, cx) == _stars_outcome(_reference_stars, cx)


def test_validate_matches_reference_on_random_edits(rng):
    """Random corner, color, weight and orientation edits of valid surfaces."""
    bases = [gen_cube(), gen_torus(4, 4, 1j), gen_torus(2, 4, 1j), pillow(),
             gen_cube_double_cover()[0]]
    for trial in range(300):
        base = bases[trial % len(bases)]
        colors, quads, rho = list(base.colors), [list(t) for t in base.quads], list(base.rho)
        for _ in range(rng.integers(1, 4)):
            q = rng.integers(len(quads))
            edit = rng.integers(5)
            if edit == 0:
                quads[q][rng.integers(4)] = int(rng.integers(len(colors)))
            elif edit == 1:
                colors[rng.integers(len(colors))] ^= 1
            elif edit == 2:
                quads[q] = quads[q][::-1]
            elif edit == 3:
                rho[q] = complex(rng.choice([-1.0, 0.0, np.nan, 2.0]))
            elif len(quads) > 1:
                quads.pop(q)
                rho.pop(q)
        cx = QuadComplex.build(colors, quads, rho)
        assert validate(cx) == _reference_validate(cx)
        assert _stars_outcome(_array_stars, cx) == _stars_outcome(_reference_stars, cx)


def test_validate_work_is_linear(monkeypatch, counted_quads):
    """Operation counts, no timing: a per-vertex star walk makes one corner
    lookup and one gluing lookup per incidence; the array passes read the
    quad table once."""
    cx = counted_quads(gen_torus(32, 32, 0.2 + 1.1j))
    calls = [0]
    for name in ("_other_quad", "corner_slot"):
        def counted(self, *args, original=getattr(QuadComplex, name)):
            calls[0] += 1
            return original(self, *args)
        monkeypatch.setattr(QuadComplex, name, counted)
    assert validate(cx).ok
    assert calls[0] == 0
    assert cx.quads.reads <= 2 * cx.nq


class TestGenus:
    def test_cube(self, cube):
        assert genus(cube) == 0

    def test_torus(self, torus44):
        assert genus(torus44) == 1

    def test_genus3_euler_count(self, cube_cover):
        total, base, _ = cube_cover
        # 8 branch points, two sheets over 56 base vertices: 2*56 - 8 = 104
        assert total.nv == 104 and total.nq == 108
        assert genus(total) == (2 - (104 - 108)) // 2 == 3

    def test_odd_count_is_error(self):
        cx = QuadComplex.build([BLACK, WHITE, BLACK, WHITE, BLACK],
                               [(0, 1, 2, 3)], [1.0])
        with pytest.raises(MalformedSurfaceError):
            genus(cx)


class TestQuadChart:
    def test_square(self, torus44):
        ch = quad_chart(torus44, 0)
        assert ch.positions == (-1, -1j, 1, 1j)
        assert ch.phi == pytest.approx(math.pi / 2)

    def test_kite(self):
        # real rho: orthogonal diagonals regardless of the length ratio
        rho = 1 / math.sqrt(3)
        assert intersection_angle(rho) == pytest.approx(math.pi / 2)

    def test_skew(self):
        # oracle: arccos(Re(i(1+i)/|1+i|)) = arccos(-1/sqrt(2)) = 3*pi/4
        expected = math.acos(-1 / math.sqrt(2))
        assert intersection_angle(1 + 1j) == pytest.approx(expected)
        assert expected == pytest.approx(3 * math.pi / 4)

    def test_ratio_identity(self, rng):
        for _ in range(50):
            rho = complex(rng.uniform(0.2, 3), rng.uniform(-2, 2))
            cx = gen_torus(4, 4, 1j)
            cx = QuadComplex.build(cx.colors, cx.quads, [rho] * 16)
            ch = quad_chart(cx, 3)
            assert abs(ch.diagonal_ratio - rho) < 1e-12


class TestVertexChart:
    def test_symmetric_star_invariants(self, torus44):
        # all weights 1: each fan quad has orthogonal equal-length diagonals
        vc = vertex_chart(torus44, 5)
        assert sum(vc.cone_angles) == pytest.approx(2 * math.pi, abs=1e-12)
        for s, q in enumerate(vc.quads):
            pts = vc.positions[s]
            black = pts[SLOT_BP] - pts[SLOT_BM]
            white = pts[SLOT_WP] - pts[SLOT_WM]
            ratio = -1j * white / black
            assert abs(ratio - torus44.rho[q]) < 1e-12

    def test_shared_edges_coincide(self, cube):
        for v in range(cube.nv):
            vc = vertex_chart(cube, v)
            k = len(vc.quads)
            for s in range(k):
                q1, q2 = vc.quads[s], vc.quads[(s + 1) % k]
                shared = set(cube.quads[q1]) & set(cube.quads[q2])
                for u in shared:
                    p1 = vc.position_of(s, u, cube)
                    p2 = vc.position_of((s + 1) % k, u, cube)
                    assert abs(p1 - p2) < 1e-12

    def test_random_degree5_star(self, rng):
        # invariants re-checked directly on the fan output
        rhos = [complex(rng.uniform(0.2, 3), rng.uniform(-2, 2)) for _ in range(5)]
        for black in (True, False):
            corners, angles = vertex_fan(rhos, black)
            assert sum(angles) == pytest.approx(2 * math.pi, abs=1e-12)
            for s in range(5):
                v0, n1, opp, n2 = corners[s]
                ratio = (-1j * (n2 - n1) / (opp - v0)) if black \
                    else (-1j * (v0 - opp) / (n2 - n1))
                assert abs(ratio - rhos[s]) < 1e-11


class TestMedialGraph:
    def test_cube_counts(self, cube):
        mg = medial_graph(cube)
        assert mg.n_vertices == 12
        assert mg.n_edges == 24
        assert mg.n_faces == 8 + 6

    def test_quad_faces_alternate_colors(self, torus44):
        mg = medial_graph(torus44)
        for face in mg.faces_q:
            assert len(face) == 4
            cols = [mg.edge_color(e) for (e, _) in face]
            assert cols in ([BLACK, WHITE, BLACK, WHITE], [WHITE, BLACK, WHITE, BLACK])

    def test_face_count_torus(self, torus44):
        mg = medial_graph(torus44)
        assert mg.n_faces == torus44.nv + torus44.nq == 32

    def test_vertex_faces_close(self, cube):
        mg = medial_graph(cube)
        for v, face in enumerate(mg.faces_v):
            # traversing the reversed canonical edges chains around v
            pts = []
            for (e, s) in face:
                a, b = cube.medial_endpoints(e)
                pts.append((b, a) if s < 0 else (a, b))
            n = len(pts)
            assert all(pts[i][1] == pts[(i + 1) % n][0] for i in range(n))


class TestRhombicRealization:
    def test_unit_squares(self, torus44):
        real = realize_rhombic(torus44)
        for q in range(torus44.nq):
            assert real.alphas[q] == pytest.approx(math.pi / 2)
            assert all(abs(s - 1) < 1e-12 for s in real.side_lengths(q))

    def test_sqrt3_angle(self):
        cx = gen_torus(4, 4, 1j)
        cx = QuadComplex.build(cx.colors, cx.quads, [math.sqrt(3)] * 16)
        real = realize_rhombic(cx)
        assert real.alphas[0] == pytest.approx(2 * math.pi / 3)
        assert all(abs(s - 1) < 1e-12 for s in real.side_lengths(0))

    def test_single_nonreal_certified(self, torus44):
        rho = [1.0] * 16
        rho[7] = 1 + 1j
        cx = QuadComplex.build(torus44.colors, torus44.quads, rho)
        obs = realize_rhombic(cx)
        assert isinstance(obs, Obstruction)
        assert obs.certified and obs.nonreal_quads == (7,)

    def test_many_nonreal_uncertified(self, torus46):
        obs = realize_rhombic(torus46)
        assert isinstance(obs, Obstruction)
        assert not obs.certified


class TestSubdivision:
    def test_genus_invariant(self, cube, torus44):
        assert genus(subdivide3(cube)) == 0
        assert genus(subdivide3(torus44)) == 1

    def test_counts(self, cube):
        sub = subdivide3(cube)
        # V + 2E + 4F vertices, 9F quads
        assert sub.nv == 8 + 2 * 12 + 4 * 6 == 56
        assert sub.nq == 54
        assert validate(sub).ok

    def test_weights_split_by_parity(self, torus46):
        sub = subdivide3(torus46)
        rhos = set(np.round(np.asarray(sub.rho), 12))
        base = set(np.round(np.asarray(torus46.rho), 12))
        inverses = set(np.round(1 / np.asarray(torus46.rho), 12))
        assert rhos <= base | inverses


class TestGenTorus:
    def test_square_grid(self, torus44):
        assert torus44.nq == 16
        assert np.allclose(np.asarray(torus44.rho), 1.0)
        assert genus(torus44) == 1

    def test_rect_grid_valid(self):
        cx = gen_torus(2, 4, 1j)
        assert genus(cx) == 1
        assert validate(cx).surface_ok

    def test_odd_side_rejected(self):
        with pytest.raises(DqsError):
            gen_torus(3, 4, 1j)

    def test_weights_positive_real_part(self, torus46):
        assert all(r.real > 0 for r in torus46.rho)
