"""Holomorphic mappings between quad surfaces and branching analysis.

A mapping is given extensionally by a vertex table.  Validity means it
preserves the coloring, maps every quad into the closed star of some
target quad, and on every non-degenerate quad restricts to a vertex
bijection matching the target's weight and orientation.  Branch numbers
count how often a vertex star wraps around its image star; together
with the degenerate (vertex-collapsed) quads they enter the genus
relation g = N(g' - 1) + 1 + b/2.

Every check reads ``CoveringMap.corner_images``, the target incidence
of each source incidence, found once per map.  Behind
``require_star_cycles`` on both sides, a star whose quads are all
rotations or biconstant winds monotonically around its image a whole
number of times: the two quads on either side of an edge at v map onto
the two target quads on either side of its image, and a run of
biconstant quads folds both of its edges at v onto one target edge.
Each wrap visits every incidence of the image once, so each target quad
at w has as many preimages as the wrap counts over the fibre of w add
up to, and a connected target gives one count, the sheets, for every
vertex and quad.  None of this needs a check; the parity of the
branching and the genus identity are the theorem, from independent
counts, which ``check_riemann_hurwitz`` reports and does not judge: a
failed identity is a non-zero ``BranchReport.genus_residual``.
``double_cover``, behind the same gate, glues the corner slots of the
two sheets across the base edges with the union pass of the
connectivity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DqsError
from .generators import gen_cube, gen_torus
from .surface import (
    QuadComplex,
    _components,
    _contains,
    genus,
    read_only,
    require_ids,
    require_star_cycles,
    subdivide3_with_provenance,
)

# corner_images entries; wrap_counts reads the second as a failure
_BICONSTANT, _NOT_A_ROTATION = -1, -2


@dataclass(frozen=True)
class CoveringMap:
    source: QuadComplex
    target: QuadComplex
    vertex_map: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertex_map", tuple(int(v) for v in self.vertex_map))
        if len(self.vertex_map) != self.source.nv:
            raise DqsError("vertex map must cover every source vertex")
        require_ids(self.vertex_map, self.target.nv, "target vertex")

    def image(self, v: int) -> int:
        return self.vertex_map[v]

    @cached_property
    def vertex_array(self) -> np.ndarray:
        return read_only(np.array(self.vertex_map, dtype=np.int64))

    @cached_property
    def corner_images(self) -> np.ndarray:
        """Per source incidence 4q + s: the target incidence it maps onto,
        ``_BICONSTANT`` where quad q is biconstant, ``_NOT_A_ROTATION`` where
        its image is no target quad turned by 0 or 2 slots (the turns that
        keep the coloring).  Where two target quads match, the lower id wins.

        One lexsort of the image rows of the source quads and of the target
        rows turned by 0 and 2 slots, the targets ahead of the images and
        in order of the incidence of their slot 0, puts the first matching
        target at the head of each run of equal rows.
        """
        T = self.target.quad_array
        imgs = self.vertex_array[self.source.quad_array]
        rows = np.vstack([T, np.roll(T, -2, axis=1), imgs])
        label = np.concatenate([4 * np.arange(len(T)), 4 * np.arange(len(T)) + 2,
                                np.full(len(imgs), _NOT_A_ROTATION)])
        order = np.lexsort((np.where(label < 0, 4 * len(T), label),) + tuple(rows.T[::-1]))
        ranked = rows[order]
        head = np.ones(len(rows), dtype=bool)
        head[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        first = np.empty_like(label)
        first[order] = label[order[np.flatnonzero(head)]][np.cumsum(head) - 1]
        i = first[2 * len(T):, None]
        i[(imgs[:, 0] == imgs[:, 2]) & (imgs[:, 1] == imgs[:, 3])] = _BICONSTANT
        return read_only(np.where(i < 0, i, i - i % 4 + (i + np.arange(4)) % 4).ravel())

    @cached_property
    def wrap_counts(self) -> np.ndarray:
        """Per source vertex: how often its star wraps its image star, its
        non-degenerate incidences over the degree of its image, or
        ``_NOT_A_ROTATION`` where a quad at the vertex is no rotation of a
        target quad.  Both surfaces must pass ``require_star_cycles``; the
        module docstring shows why the count is then whole and wound."""
        for cx in (self.source, self.target):
            require_star_cycles(cx)
        img = self.corner_images
        verts = self.source.quad_array.ravel()
        k = (np.bincount(verts[img >= 0], minlength=self.source.nv)
             // self.target.vertex_groups[1][self.vertex_array])
        k[verts[img == _NOT_A_ROTATION]] = _NOT_A_ROTATION
        return read_only(k)


def _not_a_rotation(m: CoveringMap, q: int) -> str:
    imgs = tuple(m.image(v) for v in m.source.quads[q])
    return f"quad {q} image {imgs} is not a rotation of any target quad"


@dataclass(frozen=True)
class MapReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        return "ok" if self.ok else "\n".join(self.violations)


def validate_map(m: CoveringMap) -> MapReport:
    """Check color preservation, the star condition, and per-quad rigidity.

    A quad whose image is a rotation of target quad q2 lies in q2, which
    holds the image of its first corner, so the star condition is checked
    only for biconstant quads and quads whose image is no rotation.  A
    weight matches its target's within 1e-12 * max(1, |target weight|).
    """
    crossed = np.array(m.source.colors) != np.array(m.target.colors)[m.vertex_array]
    bad = [f"vertex {v} maps across colors" for v in np.flatnonzero(crossed).tolist()]
    if bad:
        return MapReport(tuple(bad))
    first = m.corner_images[::4]
    onto = np.flatnonzero(first >= 0)
    r2 = m.target.rho_array[first[onto] // 4]
    flagged = first < 0
    flagged[onto] = np.abs(m.source.rho_array[onto] - r2) > 1e-12 * np.maximum(1.0, np.abs(r2))
    by_vertex, deg, start = m.target.vertex_groups
    for q in np.flatnonzero(flagged).tolist():
        i = int(first[q])
        if i >= 0:
            bad.append(f"quad {q} maps onto {i // 4} with weight {m.source.rho[q]} != "
                       f"{m.target.rho[i // 4]}")
            continue
        imgs = [m.image(v) for v in m.source.quads[q]]
        # a target quad holding every image also holds imgs[0]
        at = by_vertex[start[imgs[0]]:start[imgs[0]] + deg[imgs[0]]] // 4
        if not any(all(v in m.target.quads[t] for v in imgs) for t in at.tolist()):
            bad.append(f"quad {q}: images {imgs} share no target quad (star condition)")
        elif i == _NOT_A_ROTATION:
            bad.append(_not_a_rotation(m, q))
    return MapReport(tuple(bad))


def branch_vertex(m: CoveringMap, v: int) -> int:
    """Wrap count k of the star of v over the star of its image.

    Quads collapsed to edges do not advance the image walk; the
    non-degenerate quads march counterclockwise around the image star,
    closing after k full turns.  k = 0 marks a vanishing point, k - 1 is
    the branch number.  Raises where a quad at v is no rotation.
    """
    if m.wrap_counts[v] < 0:
        raise _wrap_error(m, v)
    return int(m.wrap_counts[v])


def _wrap_error(m: CoveringMap, v: int) -> DqsError:
    """The error of the star of v, which holds a quad that is no rotation:
    the first such quad ccw from the lowest incidence of v."""
    img = m.corner_images
    return DqsError(_not_a_rotation(m, next(
        q for q, s in m.source.stars[v] if img[4 * q + s] == _NOT_A_ROTATION)))


def sheet_count(m: CoveringMap) -> int:
    """Number of sheets: the wrap counts over the fibre of target vertex 0.

    Every fibre sum and every count of preimages of a target quad is this
    number (see the module docstring).  A star with a quad that is no
    rotation raises first, the first by image.
    """
    bad = np.flatnonzero(m.wrap_counts < 0).tolist()
    if bad:
        raise _wrap_error(m, min(bad, key=m.image))
    return int(m.wrap_counts[m.vertex_array == 0].sum())


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
        """The genus identity g = N(g' - 1) + 1 + b/2, doubled to stay in
        the integers: 2g - (2N(g' - 1) + 2 + b), which is zero iff it holds."""
        return 2 * self.genus_source - (2 * self.sheets * (self.genus_target - 1)
                                        + 2 + self.total_branching)


def check_riemann_hurwitz(m: CoveringMap, report: MapReport = None) -> BranchReport:
    """Branch data of a valid map; raises DqsError where the map is invalid.

    The genus identity is left to the report's ``genus_residual``: each
    of its counts comes from its own pass, so an odd branching or a
    failed identity reads there as a non-zero residual.  ``report`` is
    ``validate_map(m)`` when the caller has it already.
    """
    if report is None:
        report = validate_map(m)
    if not report.ok:
        raise DqsError("map invalid:\n" + str(report))
    vb = {v: k - 1 for v, k in enumerate(m.wrap_counts.tolist()) if k != 1}
    qb = dict.fromkeys(np.flatnonzero(m.corner_images[::4] == _BICONSTANT).tolist(), 1)
    b = sum(vb.values()) + len(qb)
    return BranchReport(sheet_count(m), vb, qb, b, genus(m.source), genus(m.target))


# ---------------------------------------------------------------------------
# generated coverings


def double_cover(base: QuadComplex, flip_edges) -> tuple:
    """Two-sheeted cover flipping across the given undirected edge pairs.

    Cover vertices are the orbits of quad-corner slots under the gluing;
    a base vertex whose sheet monodromy is trivial lifts twice, one with
    swapping monodromy lifts once and becomes a branch point.  Raises
    DqsError for a pair that is not an edge of the base.
    """
    require_star_cycles(base)
    flip_edges = list(flip_edges)
    require_ids([v for pair in flip_edges for v in pair], base.nv, "vertex")
    order, keys = base.edge_groups
    edge_keys = keys[base.edge_runs[0]]
    flip_keys = np.array([min(u, w) * base.nv + max(u, w) for u, w in flip_edges], dtype=np.int64)
    known = _contains(edge_keys, flip_keys)
    if not known.all():
        raise DqsError(f"flip pair {flip_edges[np.argmin(known)]} is not an edge of the base")

    # Corner i of the base (slot i % 4 of quad i // 4) has the slot
    # i + 4 * (i // 4 + s) on sheet s.  Of the two traversals of an edge,
    # each starts at the corner where the other ends, and the edge glues
    # those corners, on one sheet or across.
    ends = order - order % 4 + (order + 1) % 4
    mates = ends.reshape(-1, 2)[:, ::-1].ravel()
    flip = np.repeat(_contains(np.sort(flip_keys), edge_keys), 2).astype(np.int64)
    rows = np.concatenate([np.stack([order + 4 * (order // 4 + s),
                                     mates + 4 * (mates // 4 + (s ^ flip))], axis=1)
                           for s in (0, 1)])
    # classes numbered by their lowest slot
    lowest, slot_class = np.unique(_components(8 * base.nq, rows), return_inverse=True)
    quads = slot_class.reshape(-1, 4)
    vm = np.empty(len(lowest), dtype=np.int64)
    vm[quads.ravel()] = np.repeat(base.quad_array, 2, axis=0).ravel()
    colors = [base.colors[v] for v in vm.tolist()]
    rho = [r for r in base.rho for _ in (0, 1)]
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
    base, provenance = subdivide3_with_provenance(gen_cube())

    def vertical(v):
        """The z = 0 corner of the vertical cube edge through v, or -1."""
        tag = provenance[v]
        return tag[1] % 4 if tag[0] == "v" or tag[0] == "e" and tag[2] == tag[1] + 4 else -1

    pairs = (divmod(k, base.nv) for k in base.edge_groups[1][base.edge_runs[0]].tolist())
    flip_edges = [(u, w) for u, w in pairs if vertical(u) == vertical(w) >= 0]
    total, cover_map = double_cover(base, flip_edges)
    return total, base, cover_map


def gen_torus_unbranched_cover(m: int, n: int, tau: complex):
    """(source, target, map) of the unbranched double cover of the flat
    m x n torus whose sheets flip across the meridian i = 0."""
    target = gen_torus(m, n, tau)
    source, cover_map = double_cover(target, [(j * m, (j + 1) % n * m) for j in range(n)])
    return source, target, cover_map
