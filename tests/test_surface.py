import math

import numpy as np
import pytest

from dqs import (
    BLACK,
    WHITE,
    Obstruction,
    QuadComplex,
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
from dqs.errors import DqsError, MalformedSurfaceError
from dqs.surface import SLOT_BM, SLOT_BP, SLOT_WM, SLOT_WP


def pillow():
    # two quads glued along all four edges: a strongly irregular sphere
    return QuadComplex.build(
        [BLACK, WHITE, BLACK, WHITE],
        [(0, 1, 2, 3), (2, 1, 0, 3)],
        [1.0, 1.0],
    )


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
