"""Holomorphic mappings between quad surfaces and branching analysis.

A mapping is given extensionally by a vertex table.  Validity means it
preserves the coloring, maps every quad into the closed star of some
target quad, and on every non-degenerate quad restricts to a vertex
bijection matching the target's weight and orientation.  Branch numbers
count how often a vertex star wraps around its image star; together
with the degenerate (vertex-collapsed) quads they enter the genus
relation g = N(g' - 1) + 1 + b/2.

The checks never scan the whole target: the star condition looks only
at the target quads incident to the image of a quad's first corner, and
``CoveringMap.quad_images`` looks up the image of every source quad once
per map in a table of target quad rotations, also built once per map.
The map checks, branch numbers and sheet counts all read those images,
so validating a map is linear in the two surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DqsError, SurfaceError
from .generators import gen_cube, gen_torus
from .surface import (
    QuadComplex,
    genus,
    require_surface,
    subdivide3_with_provenance,
)


@dataclass(frozen=True)
class CoveringMap:
    source: QuadComplex
    target: QuadComplex
    vertex_map: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertex_map", tuple(int(v) for v in self.vertex_map))
        if len(self.vertex_map) != self.source.nv:
            raise DqsError("vertex map must cover every source vertex")

    def image(self, v: int) -> int:
        return self.vertex_map[v]

    @cached_property
    def target_rotations(self):
        """Target quad tuples under the rotations by 0 and 2 slots -> quad id.

        Those are the rotations that keep the coloring; where two target
        quads share a tuple the lower id wins.
        """
        table = {}
        for q2, t in enumerate(self.target.quads):
            for shift in (0, 2):
                table.setdefault(t[shift:] + t[:shift], q2)
        return table

    @cached_property
    def quad_images(self) -> tuple:
        """Per source quad: the target quad it maps onto (``_quad_images``)."""
        return _quad_images(self)


# quad_images entry of a quad whose image is no rotation of a target quad
_NOT_A_ROTATION = -2


def _quad_images(m: CoveringMap) -> tuple:
    """Image of every source quad: its target quad id, -1 where the quad is
    biconstant, ``_NOT_A_ROTATION`` where its image tuple is no rotation
    of a target quad."""
    imgs = np.asarray(m.vertex_map)[m.source.quad_array]
    biconstant = (imgs[:, 0] == imgs[:, 2]) & (imgs[:, 1] == imgs[:, 3])
    table = m.target_rotations
    return tuple(-1 if b else table.get(tuple(t), _NOT_A_ROTATION)
                 for t, b in zip(imgs.tolist(), biconstant.tolist()))


def is_biconstant_quad(m: CoveringMap, q: int) -> bool:
    return m.quad_images[q] == -1


def quad_image(m: CoveringMap, q: int):
    """Target quad a non-degenerate quad maps onto, or None if biconstant.

    The image tuple must be a rotation (not a reflection) of the target
    quad with the same weight; anything else is invalid.
    """
    q2 = m.quad_images[q]
    if q2 == _NOT_A_ROTATION:
        imgs = tuple(m.image(v) for v in m.source.quads[q])
        raise DqsError(f"quad {q} image {imgs} is not a rotation of any target quad")
    return None if q2 == -1 else q2


@dataclass(frozen=True)
class MapReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        return "ok" if self.ok else "\n".join(self.violations)


def validate_map(m: CoveringMap, tol: float = 1e-12) -> MapReport:
    """Check color preservation, the star condition, and per-quad rigidity."""
    bad = []
    for v in range(m.source.nv):
        if m.source.colors[v] != m.target.colors[m.image(v)]:
            bad.append(f"vertex {v} maps across colors")
    if bad:
        return MapReport(tuple(bad))
    by_vertex, deg, start = m.target.vertex_groups
    quads_at, deg, start = (by_vertex // 4).tolist(), deg.tolist(), start.tolist()
    for q in range(m.source.nq):
        imgs = [m.image(v) for v in m.source.quads[q]]
        # a target quad holding every image also holds imgs[0]
        i = imgs[0]
        if not any(all(v in m.target.quads[q2] for v in imgs)
                   for q2 in quads_at[start[i]:start[i] + deg[i]]):
            bad.append(f"quad {q}: images {imgs} share no target quad (star condition)")
            continue
        if is_biconstant_quad(m, q):
            continue
        try:
            q2 = quad_image(m, q)
        except DqsError as exc:
            bad.append(str(exc))
            continue
        if abs(m.source.rho[q] - m.target.rho[q2]) > tol * max(1.0, abs(m.target.rho[q2])):
            bad.append(
                f"quad {q} maps onto {q2} with weight {m.source.rho[q]} != "
                f"{m.target.rho[q2]}")
    return MapReport(tuple(bad))


def branch_vertex(m: CoveringMap, v: int) -> int:
    """Wrap count k of the star of v over the star of its image.

    Quads collapsed to edges do not advance the image walk; the
    non-degenerate quads must march counterclockwise around the image
    star, closing after k full turns.  k = 0 marks a vanishing point,
    k - 1 is the branch number.
    """
    star = m.source.stars[v]
    v2 = m.image(v)
    target_star = [q for (q, _) in m.target.stars[v2]]
    mlen = len(target_star)
    images = []
    for q, _ in star:
        if not is_biconstant_quad(m, q):
            images.append(quad_image(m, q))
    if not images:
        return 0
    if len(images) % mlen:
        raise DqsError(
            f"star of {v}: {len(images)} quad images cannot wrap a star of {mlen}")
    succ = {target_star[i]: target_star[(i + 1) % mlen] for i in range(mlen)}
    for i in range(len(images)):
        if succ[images[i]] != images[(i + 1) % len(images)]:
            raise DqsError(f"star of {v} does not wind monotonically around {v2}")
    return len(images) // mlen


def sheet_count(m: CoveringMap) -> int:
    """Number of sheets: fiber sums of branch orders, checked per fiber.

    Also verified against the count of quads mapping bijectively onto
    each target quad.
    """
    return _sheets(m, lambda v: branch_vertex(m, v))


def _sheets(m: CoveringMap, wraps) -> int:
    """sheet_count with the wrap count of source vertex v given as wraps(v)."""
    fibers = {}
    for v in range(m.source.nv):
        fibers.setdefault(m.image(v), []).append(v)
    counts = set()
    for v2 in range(m.target.nv):
        total = sum(wraps(v) for v in fibers.get(v2, []))
        counts.add(total)
    if len(counts) != 1:
        raise DqsError(f"fiber sums disagree: {sorted(counts)}")
    n = counts.pop()
    quad_counts = np.zeros(m.target.nq, dtype=int)
    for q in range(m.source.nq):
        if not is_biconstant_quad(m, q):
            quad_counts[quad_image(m, q)] += 1
    if set(quad_counts.tolist()) != {n}:
        raise DqsError(
            f"per-quad preimage counts {sorted(set(quad_counts.tolist()))} != sheet count {n}")
    return n


@dataclass(frozen=True)
class BranchReport:
    sheets: int
    vertex_branch_numbers: dict
    quad_branch_numbers: dict
    total_branching: int
    genus_source: int
    genus_target: int

    @property
    def genus_residual(self) -> int:
        return self.genus_source - (self.sheets * (self.genus_target - 1)
                                    + 1 + self.total_branching // 2)


def check_riemann_hurwitz(m: CoveringMap, report: MapReport = None) -> BranchReport:
    """Branch data and the integer genus identity; raises on violation.

    ``report`` is ``validate_map(m)`` when the caller has it already.
    """
    if report is None:
        report = validate_map(m)
    if not report.ok:
        raise DqsError("map invalid:\n" + str(report))
    wraps = [branch_vertex(m, v) for v in range(m.source.nv)]
    vb = {v: k - 1 for v, k in enumerate(wraps) if k != 1}
    qb = {q: 1 for q in range(m.source.nq) if is_biconstant_quad(m, q)}
    b = sum(vb.values()) + sum(qb.values())
    if b % 2:
        raise DqsError(f"total branching {b} is odd")
    n = _sheets(m, wraps.__getitem__)
    rep = BranchReport(n, vb, qb, b, genus(m.source), genus(m.target))
    if rep.genus_residual != 0:
        raise DqsError(
            f"genus identity fails: {rep.genus_source} != "
            f"{n}*({rep.genus_target}-1)+1+{b}/2")
    return rep


# ---------------------------------------------------------------------------
# generated coverings


def double_cover(base: QuadComplex, flip_edges) -> tuple:
    """Two-sheeted cover flipping across the given undirected edge pairs.

    Cover vertices are the orbits of quad-corner slots under the gluing;
    a base vertex whose sheet monodromy is trivial lifts twice, one with
    swapping monodromy lifts once and becomes a branch point.
    """
    require_surface(base)
    if base.has_doubled_edges:
        raise SurfaceError("double cover construction needs simple edges")
    flip_edges = {(min(u, w), max(u, w)) for (u, w) in flip_edges}

    nq = base.nq
    parent = list(range(2 * 4 * nq))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    def slot_id(q, s, slot):
        return (q * 2 + s) * 4 + slot

    for pair, entries in base.edge_pairs.items():
        (q1, _, _), (q2, _, _) = entries
        f = 1 if pair in flip_edges else 0
        for s in (0, 1):
            s2 = s ^ f
            for v in pair:
                union(slot_id(q1, s, base.quads[q1].index(v)),
                      slot_id(q2, s2, base.quads[q2].index(v)))

    classes = {}
    for q in range(nq):
        for s in (0, 1):
            for slot in range(4):
                r = find(slot_id(q, s, slot))
                if r not in classes:
                    classes[r] = len(classes)

    colors = [0] * len(classes)
    vm = [0] * len(classes)
    quads = []
    rho = []
    for q in range(nq):
        for s in (0, 1):
            t = tuple(classes[find(slot_id(q, s, slot))] for slot in range(4))
            quads.append(t)
            rho.append(base.rho[q])
            for slot in range(4):
                colors[t[slot]] = base.colors[base.quads[q][slot]]
                vm[t[slot]] = base.quads[q][slot]
    total = QuadComplex.build(colors, quads, rho)
    return total, CoveringMap(total, base, vm)


def gen_cube_double_cover():
    """Genus-3 double cover of the subdivided cube, branched at its corners.

    The base is the cube with every face split 3x3 (54 quads).  Sheets
    flip across the subdivided vertical cube edges; the four vertical
    edges form a perfect matching of the corners, so walking around any
    original corner swaps sheets: all eight corners are branch points of
    multiplicity two and the total space has 104 vertices and 108 quads.
    """
    cube = gen_cube()
    base, provenance = subdivide3_with_provenance(cube)
    vertical_pairs = {(0, 4), (1, 5), (2, 6), (3, 7)}

    def on_vertical(v, pair):
        tag = provenance[v]
        if tag[0] == "v":
            return tag[1] in pair
        return tag[0] == "e" and (tag[1], tag[2]) == pair

    flip_edges = set()
    for (u, w) in base.edge_pairs:
        for pair in vertical_pairs:
            if on_vertical(u, pair) and on_vertical(w, pair):
                flip_edges.add((u, w))
                break

    total, cover_map = double_cover(base, flip_edges)
    return total, base, cover_map


def gen_torus_unbranched_cover(m: int, n: int, tau: complex):
    """Degree-two unbranched cover of a flat torus by a doubled grid.

    The source is the 2m x n grid with weights pulled back from the
    m x n target, so the projection (i, j) -> (i mod m, j) is
    holomorphic with no branch points.
    """
    target = gen_torus(m, n, tau)
    src = gen_torus(2 * m, n, tau)  # combinatorics only; weights replaced
    rho = []
    for j in range(n):
        for i in range(2 * m):
            rho.append(target.rho[j * m + (i % m)])
    source = QuadComplex.build(src.colors, src.quads, rho)
    vm = [j * m + (i % m) for j in range(n) for i in range(2 * m)]
    return source, target, CoveringMap(source, target, vm)
