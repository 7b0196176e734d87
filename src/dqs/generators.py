"""Surface generators: flat tori, Delaunay-Voronoi quadrangulations."""

from __future__ import annotations

import math

import numpy as np

from .errors import DqsError, NonDelaunayError, SurfaceError
from .surface import BLACK, WHITE, QuadComplex


def gen_torus(m: int, n: int, tau: complex) -> QuadComplex:
    """m x n bipartite grid on the flat torus C/(Z + Z*tau).

    Cells are the parallelograms spanned by 1/m and tau/n; weights come
    from the cell geometry, so the checkerboard classes carry rho and
    1/rho.  Vertex and quad ids are both j*m + i.
    """
    tau = complex(tau)
    if m < 2 or n < 2 or m % 2 or n % 2:
        raise DqsError(f"grid {m}x{n} must have even sides >= 2 for a 2-coloring")
    if not tau.imag > 0:
        raise DqsError(f"tau={tau} must have positive imaginary part")

    def vid(i, j):
        return (j % n) * m + (i % m)

    colors = [BLACK if (i + j) % 2 == 0 else WHITE for j in range(n) for i in range(m)]
    u, w = 1.0 / m, tau / n
    rho_even = -1j * (w - u) / (u + w)
    rho_odd = 1.0 / rho_even

    quads = []
    rho = []
    for j in range(n):
        for i in range(m):
            c = (vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
            if (i + j) % 2 == 0:
                quads.append(c)
                rho.append(rho_even)
            else:
                quads.append((c[1], c[2], c[3], c[0]))
                rho.append(rho_odd)
    return QuadComplex.build(colors, quads, rho)


def randomize_rho(cx: QuadComplex, rng: np.random.Generator,
                  re_range=(0.2, 3.0), im_max=2.0) -> QuadComplex:
    """Same combinatorics with fresh random weights.

    The combinatorics of cx have passed ``QuadComplex.build`` or the
    parser already, so the complex is made directly from its tuples.
    """
    re = rng.uniform(re_range[0], re_range[1], cx.nq)
    im = rng.uniform(-im_max, im_max, cx.nq)
    return QuadComplex(cx.colors, cx.quads, tuple((re + 1j * im).tolist()))


# ---------------------------------------------------------------------------
# Delaunay-Voronoi quadrangulation of a closed triangle mesh


def _triangle_angles(p0, p1, p2):
    def angle(a, b, c):
        # 0 at a corner with a zero-length side: the triangle is degenerate
        u, v = b - a, c - a
        n = float(np.linalg.norm(u) * np.linalg.norm(v))
        return math.acos(max(-1.0, min(1.0, float(np.dot(u, v)) / n))) if n else 0.0
    return angle(p0, p1, p2), angle(p1, p2, p0), angle(p2, p0, p1)


def delaunay_voronoi(vertices, faces, tol: float = 1e-12) -> QuadComplex:
    """Kite quadrangulation of a closed oriented Delaunay triangle mesh.

    Mesh vertices become the black vertices, triangle circumcenters the
    white ones, and each mesh edge yields one quad whose weight is the
    (intrinsic) circumcenter distance over the edge length, i.e. the
    average of the two opposite cotangents.  Edges whose cotangent sum
    is not positive are rejected.
    """
    pts = np.asarray(vertices, dtype=float)
    tris = [tuple(int(v) for v in f) for f in faces]
    if any(len(t) != 3 for t in tris):
        raise DqsError("faces must be triangles")
    nv = len(pts)

    directed = {}
    for ti, (a, b, c) in enumerate(tris):
        for (u, w) in ((a, b), (b, c), (c, a)):
            if (u, w) in directed:
                raise SurfaceError(f"directed edge ({u},{w}) appears twice; mesh not oriented")
            directed[(u, w)] = ti
    for (u, w) in directed:
        if (w, u) not in directed:
            raise SurfaceError(f"edge ({u},{w}) has no partner; mesh not closed")

    cot = {}
    for ti, (a, b, c) in enumerate(tris):
        angs = _triangle_angles(pts[a], pts[b], pts[c])
        if not all(0.0 < x < math.pi for x in angs):
            raise DqsError(f"triangle {ti} is degenerate: angles {angs}")
        # angle at a is opposite edge (b, c), etc.
        cot[(ti, frozenset((b, c)))] = 1.0 / math.tan(angs[0])
        cot[(ti, frozenset((c, a)))] = 1.0 / math.tan(angs[1])
        cot[(ti, frozenset((a, b)))] = 1.0 / math.tan(angs[2])

    colors = [BLACK] * nv + [WHITE] * len(tris)
    quads = []
    rho = []
    for (u, w), t_left in sorted(directed.items()):
        if u > w:
            continue  # one quad per undirected edge
        t_right = directed[(w, u)]
        csum = cot[(t_left, frozenset((u, w)))] + cot[(t_right, frozenset((u, w)))]
        if csum <= tol:
            raise NonDelaunayError((u, w), csum)
        # ccw around the quad: u, right circumcenter, w, left circumcenter
        quads.append((u, nv + t_right, w, nv + t_left))
        rho.append(complex(csum / 2.0))
    return QuadComplex.build(colors, quads, rho)


def gen_cube() -> QuadComplex:
    """Unit cube: 8 vertices, 6 quads, all weights 1.

    Vertex id encodes coordinates as x + 2y + 4z; the coloring is the
    bit-parity 2-coloring and faces are oriented outward.
    """
    faces = [
        (0, 2, 3, 1),   # z = 0
        (4, 5, 7, 6),   # z = 1
        (0, 1, 5, 4),   # y = 0
        (2, 6, 7, 3),   # y = 1
        (0, 4, 6, 2),   # x = 0
        (1, 3, 7, 5),   # x = 1
    ]
    colors = [bin(v).count("1") % 2 for v in range(8)]
    quads = []
    for f in faces:
        start = next(i for i, v in enumerate(f) if colors[v] == BLACK)
        quads.append(tuple(f[(start + i) % 4] for i in range(4)))
    return QuadComplex.build(colors, quads, [1.0] * 6)


def tetrahedron_mesh():
    """Regular tetrahedron with outward-oriented faces."""
    verts = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    faces = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]
    return verts, faces
