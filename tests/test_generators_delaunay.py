import math

import numpy as np
import pytest

from dqs import delaunay_voronoi, genus, tetrahedron_mesh, validate
from dqs.errors import DqsError, NonDelaunayError


def expected_tetra_weight():
    """Independent oracle: two unit-edge equilateral triangles share an edge.

    Each circumcenter sits at distance (1/2)*cot(60 deg) from the edge
    midpoint after unfolding, so the weight is 2*(cot 60)/2 / 1 = 1/sqrt(3).
    """
    h = 0.5 / math.tan(math.pi / 3)
    return 2 * h / 1.0


class TestTetrahedron:
    def test_six_kites(self):
        verts, faces = tetrahedron_mesh()
        cx = delaunay_voronoi(verts, faces)
        assert cx.nq == 6
        assert cx.nv == 4 + 4
        assert validate(cx).ok

    def test_weights(self):
        verts, faces = tetrahedron_mesh()
        cx = delaunay_voronoi(verts, faces)
        expected = expected_tetra_weight()
        assert expected == pytest.approx(1 / math.sqrt(3))
        for r in cx.rho:
            assert abs(r - expected) < 1e-12
            assert r.imag == 0.0

    def test_genus_zero(self):
        verts, faces = tetrahedron_mesh()
        assert genus(delaunay_voronoi(verts, faces)) == 0


def torus_mesh(big=3.0, small=1.0, nu=16, nv=8, jitter=0.01):
    """Torus of revolution, jittered off symmetry, cell diagonals by cot sum.

    The unjittered grid has exactly co-circular cells whose diagonal
    edges sit on the Delaunay boundary; a small deterministic jitter
    plus choosing each cell's diagonal by the larger cotangent sum makes
    every edge strictly Delaunay.
    """
    rng = np.random.default_rng(42)

    def vid(i, j):
        return (j % nv) * nu + (i % nu)

    verts = []
    for j in range(nv):
        for i in range(nu):
            th = 2 * math.pi * i / nu + jitter * rng.uniform(-1, 1)
            ph = 2 * math.pi * j / nv + jitter * rng.uniform(-1, 1)
            r = big + small * math.cos(ph)
            verts.append([r * math.cos(th), r * math.sin(th), small * math.sin(ph)])
    verts = np.array(verts)

    def cot_at(p, q, r):
        u, v = verts[q] - verts[p], verts[r] - verts[p]
        cosv = np.dot(u, v) / np.linalg.norm(u) / np.linalg.norm(v)
        return 1 / math.tan(math.acos(max(-1.0, min(1.0, cosv))))

    def diag_cotsum(a, c, b, d):
        return cot_at(b, a, c) + cot_at(d, c, a)

    faces = []
    for j in range(nv):
        for i in range(nu):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            if diag_cotsum(a, c, b, d) >= diag_cotsum(b, d, c, a):
                faces += [(a, b, c), (a, c, d)]
            else:
                faces += [(a, b, d), (b, c, d)]
    return verts, faces


class TestTorusMesh:
    def test_genus_preserved(self):
        verts, faces = torus_mesh()
        cx = delaunay_voronoi(verts, faces)
        assert genus(cx) == 1
        assert all(r.imag == 0 and r.real > 0 for r in cx.rho)

    def test_non_delaunay_rejected(self):
        verts, faces = torus_mesh()
        # flip one cell's diagonal against the preference
        (a, b, c), (a2, c2, d) = faces[0], faces[1]
        assert (a, c) == (a2, c2)
        faces[0], faces[1] = (a, b, d), (b, c, d)
        with pytest.raises(NonDelaunayError) as err:
            delaunay_voronoi(verts, faces)
        assert err.value.edge in ((b, d), (d, b))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("verts, triangle", [
    ([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 0, 1]], 0),  # the first three collinear
    ([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [1, 1, 1]], 1),  # the first and last coincide
])
def test_degenerate_triangle_rejected(verts, triangle):
    """A triangle with a zero angle has no circumcentre: a DqsError, not a
    division by zero or a numpy warning."""
    faces = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]
    with pytest.raises(DqsError, match=f"triangle {triangle} is degenerate"):
        delaunay_voronoi(verts, faces)
