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
    homology_basis,
    intersection_angle,
    medial_graph,
    quad_chart,
    realize_rhombic,
    require_surface,
    subdivide3,
    validate,
    vertex_chart,
    vertex_fan,
)
from dqs import surface
from dqs.coverings import gen_cube_double_cover
from dqs.errors import DqsError, MalformedSurfaceError, SurfaceError
from dqs.homology import lift_diagonal_walk
from dqs.selftest import shipped_surfaces
from dqs.surface import SLOT_BM, SLOT_BP, SLOT_WM, SLOT_WP, ValidationReport, Violation

from conftest import edge_pairs, incidences, reference_other_quad


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
            q = reference_other_quad(cx, p, v)
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
    for pair, entries in sorted(edge_pairs(cx).items()):
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
        bad.extend(_reference_links(cx))
        bad.extend(_reference_connectivity(cx))
        bad.extend(_reference_strong_regularity(cx))
    order = {"quad-vertices": 0, "bipartite": 1, "closed-surface": 2,
             "vertex-link": 3, "connectivity": 4, "rho-positivity": 5,
             "strong-regularity": 6}
    bad.sort(key=lambda v: (order[v.kind], v.ids))
    return ValidationReport(tuple(bad))


def _reference_links(cx):
    """Reference link check: from each incidence of v, walk ccw across the
    edges at v that lie in exactly two quad boundaries.  A walk that
    returns to its start is closed, and a closed walk must be the whole
    star; a vertex whose every walk stops at a doubled edge passes."""
    for v, inc in enumerate(incidences(cx)):
        closed = set()
        for start in inc:
            walk = [start]
            q, s = start
            while True:
                try:
                    q = reference_other_quad(cx, cx.corner_prev(q, s), v)
                except SurfaceError:  # a doubled edge: the walk is open
                    break
                s = cx.corner_slot(q, v)
                if (q, s) == start:
                    closed.add(frozenset(walk))
                    break
                walk.append((q, s))
        if len(closed) > 1 or closed and len(next(iter(closed))) != len(inc):
            return [Violation("vertex-link", (), f"link of vertex {v} is not a single cycle")]
    return []


def _reference_connectivity(cx):
    if cx.nv <= 1 and not cx.nq:
        return [Violation("connectivity", (), "empty complex")]
    seen = {0}
    stack = [0]
    adj = {}
    for (u, w) in edge_pairs(cx):
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
    for pair, entries in edge_pairs(cx).items():
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


def _pinched():
    """Vertices 0 and 6 of the 4x4 torus identified with vertices 0 and 1 of
    the 2x2 torus, all of whose edges are doubled: vertex 0 has one closed
    star walk in the first torus and open ones in the second."""
    a, b = gen_torus(4, 4, 1j), gen_torus(2, 2, 1j)
    new = [0, 6, 16, 17]
    return QuadComplex.build(a.colors + b.colors[2:],
                             a.quads + tuple(tuple(new[v] for v in t) for t in b.quads),
                             a.rho + b.rho)


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
    if name == "pinched-doubled-edges":
        return _pinched(), ["strong-regularity", "vertex-link"]
    if name == "disconnected":
        return _two_cubes(), ["connectivity"]
    if name == "disconnected-interleaved":
        # the two cubes' vertex ids alternate, so no id range is one component
        cubes = _two_cubes()
        new = [2 * (v % 8) + v // 8 for v in range(16)]
        colors = [cubes.colors[new.index(v)] for v in range(16)]
        return _relabel(cubes, [[new[v] for v in t] for t in cubes.quads],
                        colors=colors), ["connectivity"]
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


def _expected_stars(cx):
    """The reference stars of a surface that passes the gate, and otherwise
    the gate's error: ``stars`` reads no successor of an unchecked surface."""
    if cx.defects:
        return SurfaceError, cx.defects[0].detail
    return _stars_outcome(_reference_stars, cx)


@pytest.mark.parametrize("name", [
    "cube", "pillow", "torus-2x4", "torus-4x4", "torus-32", "genus3", "genus3-sub3",
    "repeated-vertex", "non-bipartite", "open", "doubled-quad", "two-cycle-link",
    "shared-diagonal", "degree-two-vertex", "pinched-doubled-edges", "disconnected",
    "disconnected-interleaved", "bad-weights"])
def test_validate_and_stars_match_reference(name):
    cx, kinds = _surface(name)
    report = validate(cx)
    assert report.kinds() == kinds
    reference = _reference_validate(QuadComplex(cx.colors, cx.quads, cx.rho))
    assert report == reference
    assert cx.defects == _structural(reference)
    assert _stars_outcome(_array_stars, cx) == _expected_stars(cx)


def test_validate_matches_reference_on_random_edits(rng):
    """Random corner, color, weight and orientation edits of valid surfaces."""
    bases = [gen_cube(), gen_torus(4, 4, 1j), gen_torus(2, 4, 1j), pillow(),
             gen_cube_double_cover()[0], _pinched()]
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
        reference = _reference_validate(cx)
        assert validate(cx) == reference
        assert cx.defects == _structural(reference)
        assert _stars_outcome(_array_stars, cx) == _expected_stars(cx)


def _structural(report):
    """The findings of a report that ``require_surface`` acts on."""
    return tuple(v for v in report.violations if v.kind != "strong-regularity")


def test_require_surface_checks_each_surface_once(monkeypatch):
    calls = []

    def counted(cx, original=surface._quad_violations):
        calls.append(cx)
        return original(cx)

    monkeypatch.setattr(surface, "_quad_violations", counted)
    cx = gen_torus(4, 4, 1j)
    require_surface(cx)
    require_surface(cx)
    assert validate(cx).ok
    assert len(calls) == 1
    bad = _surface("disconnected")[0]
    for _ in range(2):
        with pytest.raises(SurfaceError, match="^only 8 of 16 vertices connected$"):
            require_surface(bad)
    assert len(calls) == 2


def test_require_surface_leaves_strong_regularity_out(monkeypatch):
    def refuse(*args):
        raise AssertionError("strong regularity is not required")

    monkeypatch.setattr(surface, "_strong_regularity_violations", refuse)
    assert homology_basis(gen_torus(4, 4, 1j)).g == 1
    require_surface(pillow())


def test_validate_work_is_linear(monkeypatch, counted_quads):
    """Operation counts, no timing: a per-vertex star walk makes one corner
    lookup per incidence; the array passes read the quad table once."""
    cx = counted_quads(gen_torus(32, 32, 0.2 + 1.1j))
    calls = [0]

    def counted(self, *args, original=QuadComplex.corner_slot):
        calls[0] += 1
        return original(self, *args)
    monkeypatch.setattr(QuadComplex, "corner_slot", counted)
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


@pytest.mark.parametrize("chart, what", [(quad_chart, "quad"), (vertex_chart, "vertex")])
@pytest.mark.parametrize("bad", [-1, -16, 16, 17])
def test_charts_refuse_ids_out_of_range(torus44, chart, what, bad):
    """A negative id does not wrap to the chart of another quad or vertex."""
    with pytest.raises(DqsError, match=f"^{what} id {bad} out of range 0..15$"):
        chart(torus44, bad)


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


def test_stars_and_charts_read_no_successor_of_a_disconnected_surface():
    """Two disjoint cubes: every edge and star is sound, yet the star walk
    stops at the gate with the connectivity finding."""
    cx = _two_cubes()
    for ask in (lambda: cx.stars, lambda: vertex_chart(cx, 0), lambda: medial_graph(cx),
                lambda: lift_diagonal_walk(cx, [(0, 1), (0, -1)], BLACK)):
        with pytest.raises(SurfaceError, match="^only 8 of 16 vertices connected$"):
            ask()


def test_a_pinch_beside_doubled_edges_is_refused(tmp_path, capsys):
    """Vertex 0 of the pinched complex has a closed star walk in the 4x4
    torus and incidences off it in the 2x2 torus, whose edges are all
    doubled: the gate refuses it, and every surface command stops."""
    from dqs.cli import main
    from dqs.io import serialize_dqs

    cx = _pinched()
    assert (cx.nv, cx.nq) == (18, 20) and cx.has_doubled_edges
    with pytest.raises(SurfaceError, match="^link of vertex 0 is not a single cycle$"):
        require_surface(cx)
    assert str(validate(cx).violations[0]) == "[vertex-link] link of vertex 0 is not a single cycle"
    path = tmp_path / "pinched.dqs"
    path.write_text(serialize_dqs(cx))
    for command in (["genus"], ["riemann-roch", "--divisor", "q:1=1"], ["homology"]):
        assert main(command + [str(path)]) == 1
        assert capsys.readouterr() == ("", "error: link of vertex 0 is not a single cycle\n")


def test_a_lone_vertex_is_no_surface():
    cx = QuadComplex.build([BLACK], [], [])
    assert [str(v) for v in validate(cx).violations] == ["[connectivity] empty complex"]
    for ask in (lambda: cx.stars, lambda: vertex_chart(cx, 0), lambda: medial_graph(cx)):
        with pytest.raises(SurfaceError, match="^empty complex$"):
            ask()


def _doubled_edge_tori():
    return [gen_torus(m, n, 0.2 + 1.1j)
            for m, n in ((2, 2), (2, 4), (4, 2), (2, 6), (6, 2), (2, 8))]


@pytest.mark.parametrize("make", [
    _doubled_edge_tori, lambda: [gen_cube()],
    lambda: [gen_cube_double_cover()[0], subdivide3(gen_cube_double_cover()[0])],
    lambda: [cx for _, cx in shipped_surfaces()],
], ids=["doubled-edge-tori", "cube", "genus3-cover", "shipped"])
def test_the_link_check_passes_every_surface(make):
    """No false positive: on these surfaces every star is one cycle, or
    every walk of it stops at a doubled edge."""
    for cx in make():
        require_surface(cx)
        assert "vertex-link" not in validate(cx).kinds()


def test_edge_runs_are_computed_once(monkeypatch):
    calls = []

    def counted(keys, original=surface._runs):
        calls.append(len(keys))
        return original(keys)

    monkeypatch.setattr(surface, "_runs", counted)
    for cx in (gen_torus(6, 4, 0.3 + 1.2j), gen_cube_double_cover()[0]):
        calls.clear()
        require_surface(cx)
        assert validate(cx).ok
        assert len(cx.stars) == cx.nv
        assert not cx.has_doubled_edges
        assert medial_graph(cx).n_vertices == 2 * cx.nq
        assert calls == [4 * cx.nq]



# ---------------------------------------------------------------------------
# QuadComplex.build as array checks, against the per-quad loop it replaced


def _reference_build(colors, quads, rho):
    """The per-quad checks of the earlier ``QuadComplex.build``."""
    colors = tuple(int(c) for c in colors)
    quads = tuple(tuple(int(v) for v in q) for q in quads)
    rho = tuple(complex(r) for r in rho)
    if len(quads) != len(rho):
        raise SurfaceError("need one rho per quad")
    for q in quads:
        if len(q) != 4:
            raise SurfaceError(f"quad {q} does not have 4 vertices")
        if any(v < 0 or v >= len(colors) for v in q):
            raise SurfaceError(f"quad {q} references unknown vertex")
    return QuadComplex(colors, quads, rho)


def _build_outcome(build, colors, quads, rho):
    """(colors, quads, rho) of the built complex, or the type and text of the error."""
    try:
        cx = build(colors, quads, rho)
    except (DqsError, ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)
    assert all(type(v) is int for q in cx.quads for v in q)
    return cx.colors, cx.quads, cx.rho


def _edited(quads, *edits):
    out = list(quads)
    for k, row in edits:
        out[k] = row
    return out


_T = gen_torus(4, 4, 1j)
_BUILD_CASES = {
    "tuples": lambda: list(_T.quads),
    "lists": lambda: [list(q) for q in _T.quads],
    "int64": lambda: np.array(_T.quads),
    "int32": lambda: np.array(_T.quads, dtype=np.int32),
    "uint64": lambda: np.array(_T.quads, dtype=np.uint64),
    "rows-of-arrays": lambda: [np.array(q) for q in _T.quads],
    "generator": lambda: (q for q in _T.quads),
    "floats": lambda: np.array(_T.quads) + 0.5,
    "bools": lambda: _edited(_T.quads, (0, (False, True, 2, 5))),
    "empty": lambda: [],
    "ragged-short": lambda: _edited(_T.quads, (3, (0, 1, 2))),
    "ragged-long": lambda: _edited(_T.quads, (5, (0, 1, 2, 3, 4))),
    "negative": lambda: _edited(_T.quads, (2, (0, -1, 2, 3))),
    "negative-array": lambda: np.array(_edited(_T.quads, (2, (0, -1, 2, 3)))),
    "out-of-range": lambda: _edited(_T.quads, (4, (0, 1, 16, 3))),
    "out-of-range-array": lambda: np.array(_edited(_T.quads, (4, (0, 1, 16, 3)))),
    "range-then-ragged": lambda: _edited(_T.quads, (2, (0, 1, 99, 3)), (5, (0, 1))),
    "ragged-then-range": lambda: _edited(_T.quads, (2, (0, 1)), (5, (0, 1, 99, 3))),
    "beyond-int64": lambda: _edited(_T.quads, (6, (0, 2 ** 70, 2, 3))),
    "three-columns": lambda: np.array(_T.quads)[:, :3],
    "five-columns": lambda: np.hstack([np.array(_T.quads), np.zeros((16, 1), int)]),
    "not-a-number": lambda: _edited(_T.quads, (1, ("a", 1, 2, 3))),
}


@pytest.mark.parametrize("case", sorted(_BUILD_CASES))
@pytest.mark.parametrize("rho_count", [16, 15])
def test_build_accepts_and_refuses_as_the_per_quad_loop(case, rho_count):
    quads = _BUILD_CASES[case]
    rho = list(_T.rho)[:rho_count] if case != "empty" else [1.0] * (16 - rho_count)
    got = _build_outcome(QuadComplex.build, _T.colors, quads(), rho)
    assert got == _build_outcome(_reference_build, _T.colors, quads(), rho)
    if isinstance(got[0], tuple):  # built: the seeded arrays are what the properties build
        cx = QuadComplex.build(_T.colors, quads(), rho)
        fresh = QuadComplex(cx.colors, cx.quads, cx.rho)
        for name in ("quad_array", "rho_array"):
            a, b = vars(cx)[name], getattr(fresh, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable
