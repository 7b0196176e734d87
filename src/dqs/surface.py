"""Bipartite quad surfaces with complex weights.

A surface is stored combinatorially: a 2-coloring of the vertices, one
counterclockwise 4-tuple (b-, w-, b+, w+) per quad, and one complex
weight rho per quad with positive real part.  The weight encodes the
oriented ratio of diagonals i*rho = (w+ - w-)/(b+ - b-) of any chart,
so no embedding is stored; geometry enters only through charts.

Medial-graph conventions used by every other module:

* A medial edge is keyed by a quad/corner incidence ``[Q, v]`` and is
  indexed ``4*q + slot`` where slot is the corner position of v in the
  quad tuple (0=b-, 1=w-, 2=b+, 3=w+).
* Its canonical orientation runs from the midpoint of edge (v, prev(v))
  to the midpoint of (v, next(v)); these are exactly the ccw boundary
  orientations of the quad face F_Q.
* The vertex face F_v traverses each incident edge [Q, v] against its
  canonical orientation, in ccw star order around v.
* In the normalized chart the canonical edge vectors are: slot 1 -> 1,
  slot 2 -> i*rho, slot 3 -> -1, slot 0 -> -i*rho.
* Each medial edge is parallel to the diagonal of the other color than
  its key vertex, and ``MEDIAL_SLOT``, the one table from corner slot to
  (diagonal color, sign), holds this for every slot: diamond-form
  values, diagonal shadows and lifts of diagonal steps all read it.

Beside the tuples, a complex caches array views of its combinatorics:
the nq x 4 quad array, the incidences grouped by vertex and by
undirected edge, the one edge table (``edge_runs``: where each edge's
incidences start in that grouping, and how many there are), the ccw
successor of every incidence in its vertex star, found by matching each
edge with its other traversal, and the black and white diagonal graphs
and the medial graph as flat adjacency tables, with a breadth-first
spanning forest of the white diagonal graph (``white_forest``).  It also
caches the weights as a complex array and, on first use, its dense
operators: the vertex-boundary matrix and ``form_columns``, the one
kernel matrix (H(D) columns, L(-D) rows) in the tree coordinates of the
white forest, and its tree-cotree homology basis (``homology_basis``).
Every cached array is read-only, so all consumers of one
surface can share it; a weight draw on the same combinatorics
(``with_rho``) starts with the caches that do not read the weights, and
a complex from ``build`` (which checks the quads as one array) or from
a DQS document with the quad and weight arrays that were checked
(``seeded``).  ``validate`` checks every surface invariant with linear
numpy passes over these arrays and formats messages for the violators
only.  Its findings but strong regularity are cached as
``defects``, and ``require_surface``, the one check before any
computation, raises the first of them, so a surface is checked once
however many commands or constructions ask.  The vertex links are
judged there alone, on every complex: the successors of a vertex's
incidences form closed walks and walks that end at a doubled edge, and
a closed walk must be the whole star.  A pinch whose every incidence
lies on a doubled edge stays invisible, because the vertex tables do
not say which traversals of a doubled edge are glued.  ``stars`` walks
the successors behind that check, where a missing successor can only
be a doubled edge, and ``require_star_cycles``, the one gate before
whatever needs the rotation system (stars, charts, medial paths,
subdivision, double covers), walks them only there and names the edge.
``subdivide3`` keys the side points of its lattices by edge id.
Connected components, of the vertices here and of the corner
slots of a double cover, come from one union pass, ``_components``.
Every walk on the surface (the tree-cotree split, paths on the diagonal
and medial graphs) is one breadth-first search, ``_bfs``, over one
adjacency format.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    AmbiguousGluingError,
    ChartConstructionError,
    DqsError,
    MalformedSurfaceError,
    SurfaceError,
)

BLACK = 0
WHITE = 1

# corner slots in the quad tuple
SLOT_BM, SLOT_WM, SLOT_BP, SLOT_WP = 0, 1, 2, 3

# ccw boundary order of the quad face F_Q, by corner slot
FACE_Q_ORDER = (SLOT_WM, SLOT_BP, SLOT_WP, SLOT_BM)

# (color, sign) of the parallel diagonal of the canonical medial edge of
# each corner slot: the edge runs along the diagonal (b- -> b+ resp.
# w- -> w+) for sign +1 and against it for -1.  The one slot table: a
# diamond form's value on the edge (``expand_diamond``,
# ``operators.medial_steps``), the diagonal shadows of a medial cycle
# (``homology.shadow_steps``) and the lift of a diagonal step
# (``homology.lift_diagonal_walk``) all read it.
MEDIAL_SLOT = ((WHITE, -1), (BLACK, 1), (WHITE, 1), (BLACK, -1))


def medial_edge_index(q: int, slot: int) -> int:
    return 4 * q + slot


@dataclass(frozen=True)
class QuadComplex:
    """Immutable bipartite quad decomposition with complex weights."""

    colors: tuple  # color per vertex id, BLACK or WHITE
    quads: tuple   # (bm, wm, bp, wp) per quad id, ccw
    rho: tuple     # complex weight per quad id

    @staticmethod
    def build(colors: Iterable[int], quads, rho) -> "QuadComplex":
        """The complex of the colors, quads and weights, read by ``int`` and
        ``complex``; SurfaceError unless there is one weight per quad, and
        then at the first quad that does not have 4 vertices or names a
        vertex outside the colors.  Quads that make an integer array are
        checked as one, other rows (ragged, or corners ``int`` must read)
        one by one.  The complex starts with ``quad_array`` and ``rho_array``."""
        colors = tuple(map(int, colors))
        try:
            Q = np.asarray(quads)
        except ValueError:  # ragged rows
            Q = None
        if Q is not None and Q.ndim == 2 and Q.dtype.kind in "iu":
            bad = ((Q < 0) | (Q >= len(colors))).any(axis=1) | (Q.shape[1] != 4)
            quads = tuple(map(tuple, Q.tolist()))
        else:
            Q = None
            quads = tuple(tuple(int(v) for v in q) for q in quads)
            bad = [len(q) != 4 or not all(0 <= v < len(colors) for v in q) for q in quads]
        rho = tuple(map(complex, rho))
        if len(quads) != len(rho):
            raise SurfaceError("need one rho per quad")
        if np.any(bad):
            q = quads[int(np.argmax(bad))]
            raise SurfaceError(f"quad {q} does not have 4 vertices" if len(q) != 4
                               else f"quad {q} references unknown vertex")
        Q = np.array(quads if Q is None else Q, dtype=np.int64).reshape(-1, 4)
        return QuadComplex(colors, quads, rho).seeded(
            quad_array=read_only(Q), rho_array=read_only(np.array(rho, dtype=complex)))

    @property
    def nv(self) -> int:
        return len(self.colors)

    @property
    def nq(self) -> int:
        return len(self.quads)

    @property
    def n_medial_edges(self) -> int:
        return 4 * self.nq

    def corner_slot(self, q: int, v: int) -> int:
        return self.quads[q].index(v)

    def corner_next(self, q: int, slot: int) -> int:
        """Vertex following slot in ccw quad order."""
        return self.quads[q][(slot + 1) % 4]

    def corner_prev(self, q: int, slot: int) -> int:
        return self.quads[q][(slot - 1) % 4]

    def black_diagonal(self, q: int):
        t = self.quads[q]
        return t[SLOT_BM], t[SLOT_BP]

    def white_diagonal(self, q: int):
        t = self.quads[q]
        return t[SLOT_WM], t[SLOT_WP]

    # caches built from the colors and quads alone, which ``with_rho`` shares
    COMBINATORIAL = ("quad_array", "vertex_groups", "edge_groups", "edge_runs",
                     "incidence_edge", "star_successor", "diagonal_adjacency",
                     "medial_adjacency", "white_forest", "boundary_matrix")

    def with_rho(self, rho) -> "QuadComplex":
        """The same combinatorics with the weights rho, one complex per quad.

        The new complex starts with every cache in ``COMBINATORIAL`` that
        this one has built, the same read-only objects.  Whatever reads the
        weights (``rho_array``, the kernel matrix) and
        ``defects``, which checks them, is built afresh.
        """
        built = vars(self)
        return QuadComplex(self.colors, self.quads, tuple(rho)).seeded(
            **{name: built[name] for name in self.COMBINATORIAL if name in built})

    def seeded(self, **caches) -> "QuadComplex":
        """This complex, its cached properties ``caches`` already built.

        Each value must be the read-only object the property would build.
        ``with_rho`` hands over the combinatorial caches this way, and the
        DQS reader the ``quad_array`` and ``rho_array`` it checked.
        """
        vars(self).update(caches)
        return self

    # -- array views -------------------------------------------------
    # Incidence 4*q + slot is corner `slot` of quad q, so the flattened
    # quad array lists the incidences in (quad, slot) order.  The edge of
    # an incidence is the boundary edge from its vertex to next(v).

    @cached_property
    def quad_array(self) -> np.ndarray:
        """The quads as an nq x 4 integer array, one (b-, w-, b+, w+) row each."""
        return read_only(np.array(self.quads, dtype=np.int64).reshape(-1, 4))

    @cached_property
    def rho_array(self) -> np.ndarray:
        """The weights as a complex array, one entry per quad."""
        return read_only(np.array(self.rho, dtype=complex))

    @cached_property
    def vertex_groups(self):
        """Incidences grouped by vertex: (by_vertex, deg, start), vertex v
        having the ``deg[v]`` incidences of ``by_vertex`` from ``start[v]`` on,
        in ascending order."""
        verts = self.quad_array.ravel()
        deg = np.bincount(verts, minlength=self.nv)
        return (read_only(np.argsort(verts, kind="stable")), read_only(deg),
                read_only(np.cumsum(deg) - deg))

    @cached_property
    def edge_groups(self):
        """Incidences grouped by the undirected edge they start.

        Returns (order, keys): ``order`` lists the incidences sorted by
        the key min(v, next(v))*nv + max(v, next(v)) of their edge, in
        ascending (quad, slot) order within one edge, and ``keys`` the
        sorted keys.
        """
        Q = self.quad_array
        R = np.roll(Q, -1, axis=1)
        keys = (np.minimum(Q, R) * self.nv + np.maximum(Q, R)).ravel()
        order = np.argsort(keys, kind="stable")
        return read_only(order), read_only(keys[order])

    @cached_property
    def diagonal_adjacency(self):
        """The black and white diagonal graphs, in that order, as ``_adjacency``
        tuples over the vertex ids: quad q joins the minus to the plus end
        of its diagonal of each color, with label q."""
        Q = self.quad_array
        quads = np.arange(self.nq)
        return tuple(_adjacency(self.nv, Q[:, lo], Q[:, lo + 2], quads)
                     for lo in (SLOT_BM, SLOT_WM))

    @cached_property
    def medial_adjacency(self):
        """The medial graph as an ``_adjacency`` tuple over the edge ids of
        ``incidence_edge``: medial edge 4q + slot, its label, runs from the
        edge of incidence 4q + slot - 1 to the edge of its own."""
        node = self.incidence_edge
        before = np.roll(np.arange(len(node)).reshape(-1, 4), 1, axis=1).ravel()
        return _adjacency(len(self.edge_runs[0]), node[before], node, np.arange(len(node)))

    @cached_property
    def white_forest(self):
        """Breadth-first spanning forest of the white diagonal graph:
        ``spanning_forest(self, WHITE)``.  The kernel counts eliminate its
        pivots before every rank decision."""
        return spanning_forest(self, WHITE)

    @cached_property
    def edge_runs(self):
        """The undirected edges as runs of ``edge_groups``: (start, count),
        edge k having the ``count[k]`` incidences of ``order`` from
        ``start[k]`` on.  The one edge table every edge pass reads."""
        start, count = _runs(self.edge_groups[1])
        return read_only(start), read_only(count)

    @cached_property
    def incidence_edge(self) -> np.ndarray:
        """The undirected edge each incidence starts, as its run in ``edge_runs``."""
        start, count = self.edge_runs
        out = np.empty(4 * self.nq, dtype=np.int64)
        out[self.edge_groups[0]] = np.repeat(np.arange(len(start)), count)
        return read_only(out)

    @cached_property
    def has_doubled_edges(self) -> bool:
        return bool((self.edge_runs[1] != 2).any())

    @cached_property
    def star_successor(self) -> np.ndarray:
        """The incidence after each incidence in the ccw star of its vertex.

        Walking ccw around v = quads[q][s] crosses the edge (prev(v), v);
        the next incidence of v is the other traversal of that edge, which
        runs v -> prev(v) on a complex that passes the quad and edge
        passes of ``require_surface`` (four distinct vertices per quad,
        every edge traversed as often each way).  Read it only there: the
        entry is then -1 exactly where the edge is doubled, that is in more
        than two quad boundaries.
        """
        order = self.edge_groups[0]
        start, count = self.edge_runs
        pos = np.arange(len(order))
        two = np.repeat(count == 2, count)
        mate = np.full_like(order, -1)  # the other traversal of each incidence's edge
        mate[order[two]] = order[(2 * np.repeat(start, count) + 1 - pos)[two]]
        before = np.roll(pos.reshape(-1, 4), 1, axis=1).ravel()  # edge (prev(v), v)
        return read_only(mate[before])

    @cached_property
    def defects(self) -> tuple:
        """The findings of ``validate`` but strong regularity, in its order:
        the violations that keep the complex from being a closed connected
        oriented quad surface.  ``require_surface`` reads them, so each
        surface is checked once."""
        return _defects(self)

    # -- dense operators ---------------------------------------------
    # Built on first use by dqs.operators, which builds on this module and
    # is therefore imported here.  The kernel counts and the Laplacian of
    # the surface read them; the solvers assemble their systems from
    # triplets and never ask for them.

    @cached_property
    def boundary_matrix(self) -> np.ndarray:
        """The dense nv x 2nq vertex-boundary matrix ``operators.boundary``."""
        from .operators import boundary

        return read_only(boundary(self))

    @cached_property
    def form_columns(self) -> np.ndarray:
        """Every column of an H(D) system in tree coordinates, and transposed
        every row of an L(-D) system: ``operators.form_columns``."""
        from .operators import form_columns

        return read_only(form_columns(self))

    @cached_property
    def homology_basis(self):
        """The tree-cotree canonical basis ``homology.homology_basis``, built
        on first use behind ``require_surface``; its arrays are read-only.

        Not in ``COMBINATORIAL``: the gate it passes judges the weights, so
        a weight draw builds its own."""
        from . import homology

        return homology.homology_basis(self)

    @cached_property
    def stars(self):
        """Per vertex: incident quads in ccw order, as (quad, slot) pairs.

        Walking ccw around v crosses the edge (v, prev(v)) of the current
        quad.  Behind ``require_surface``, each walk starts at the
        vertex's lowest (quad, slot) and follows ``star_successor``.  The
        successors are one-to-one, so the walk returns to its start, and
        then the gate's link check has made it the whole star, or steps
        across a doubled edge, which raises AmbiguousGluingError.
        """
        require_surface(self)
        by_vertex, _, start = self.vertex_groups
        succ = self.star_successor.tolist()
        out = []
        for i0 in by_vertex[start].tolist():
            i = i0
            order = [divmod(i0, 4)]
            while (j := succ[i]) != i0:
                if j < 0:
                    raise _ambiguous_gluing(self, i)
                order.append(divmod(j, 4))
                i = j
            out.append(tuple(order))
        return tuple(out)

    # -- medial edge helpers -------------------------------------------------

    def medial_endpoints(self, e: int):
        """Start/end of the canonical orientation, as undirected vertex pairs."""
        q, slot = divmod(e, 4)
        v = self.quads[q][slot]
        p = self.corner_prev(q, slot)
        n = self.corner_next(q, slot)
        return (min(v, p), max(v, p)), (min(v, n), max(v, n))

    def medial_edge_color(self, e: int) -> int:
        """Color of the parallel diagonal (``MEDIAL_SLOT``): BLACK for a white key vertex."""
        return MEDIAL_SLOT[e % 4][0]


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    kind: str
    ids: tuple
    detail: str

    def __str__(self):
        return f"[{self.kind}] {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def surface_ok(self) -> bool:
        """True when only strong-regularity findings (if any) remain."""
        return all(v.kind == "strong-regularity" for v in self.violations)

    def kinds(self):
        return sorted({v.kind for v in self.violations})

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


_KIND_ORDER = {"quad-vertices": 0, "bipartite": 1, "closed-surface": 2,
               "vertex-link": 3, "connectivity": 4, "rho-positivity": 5,
               "strong-regularity": 6}

# the kinds after which the quads are not glued into a closed oriented
# surface, so the link, connectivity and quad-pair passes do not run
_UNGLUED = ("quad-vertices", "bipartite", "closed-surface")


def validate(cx: QuadComplex) -> ValidationReport:
    """Check every invariant of a compact discrete quad surface.

    The report is empty iff the complex is a closed oriented bipartite
    quad surface, strongly regular, with Re(rho) > 0 everywhere.
    Strong-regularity findings are reported but do not block the rest of
    the library (wrap-around grids of width two violate the letter of
    strong regularity while every computation on them is well defined).
    They come last, after the cached ``cx.defects``.

    Every invariant is one pass over the quad array and the incidence
    arrays; messages are formatted for the violators only.
    """
    order, keys = cx.edge_groups
    start, count = cx.edge_runs
    # an edge in more than two quad boundaries, traversed as often each way
    unclosed = {v.ids for v in cx.defects if v.kind == "closed-surface"}
    bad = []
    for k in np.flatnonzero(count > 2).tolist():
        pair = divmod(int(keys[start[k]]), cx.nv)
        if pair not in unclosed:
            bad.append(Violation(
                "strong-regularity", pair,
                f"edge {pair} is shared by {count[k]} quad boundaries"))
    if not any(v.kind in _UNGLUED for v in cx.defects):
        bad.extend(_strong_regularity_violations(cx, order // 4, count))
    bad.sort(key=_violation_order)
    return ValidationReport(cx.defects + tuple(bad))


def _defects(cx: QuadComplex) -> tuple:
    """Every finding of ``validate`` but strong regularity, sorted."""
    bad = _quad_violations(cx) + _edge_violations(cx)
    if not any(v.kind in _UNGLUED for v in bad):
        # Now every quad has four distinct vertices and edges, and every
        # edge is traversed as often each way, so the star successors are
        # set everywhere but at doubled edges.
        v = _split_link_vertex(cx)
        if v is not None:
            bad.append(Violation("vertex-link", (), f"link of vertex {v} is not a single cycle"))
        bad.extend(_connectivity_violations(cx))
    bad.sort(key=_violation_order)
    return tuple(bad)


def _violation_order(v: Violation):
    """Sort key of the violations in a report: by kind, then by ids."""
    return _KIND_ORDER[v.kind], v.ids


def _quad_violations(cx: QuadComplex) -> list:
    """The per-quad findings of ``validate``, by kind and then by quad.

    A quad must name four distinct vertices (quad-vertices), colored
    (b, w, b, w) in slot order (bipartite), and carry a finite weight
    with Re rho > 0 (rho-positivity).  One pass over the quad array per
    kind, cheap enough to run before every solve; messages are formatted
    for the violators only.
    """
    Q = cx.quad_array
    bad = [Violation("quad-vertices", (q,), f"quad {q} has repeated vertices")
           for q in np.flatnonzero(_repeated_vertices(Q)).tolist()]

    colors = np.array(cx.colors, dtype=np.int64)
    for q in np.flatnonzero((colors[Q] != (BLACK, WHITE, BLACK, WHITE)).any(axis=1)).tolist():
        cols = tuple(cx.colors[v] for v in cx.quads[q])
        bad.append(Violation(
            "bipartite", (q,),
            f"quad {q} corner colors {cols} are not (b, w, b, w)"))

    rho = cx.rho_array
    for q in np.flatnonzero(~(np.isfinite(rho) & (rho.real > 0))).tolist():
        r = cx.rho[q]
        detail = (f"quad {q} has rho={r} with Re <= 0" if cmath.isfinite(r)
                  else f"quad {q} has non-finite rho={r}")
        bad.append(Violation("rho-positivity", (q,), detail))
    return bad


def _edge_violations(cx: QuadComplex) -> list:
    """The closed-surface findings of ``validate``, by edge: each undirected
    edge (u, w), u <= w, is traversed as often u -> w as w -> u by the quad
    boundaries."""
    Q = cx.quad_array
    order, keys = cx.edge_groups
    start, count = cx.edge_runs
    forward = np.r_[0, np.cumsum((Q <= np.roll(Q, -1, axis=1)).ravel()[order])]
    fwd = forward[start + count] - forward[start]
    rev = count - fwd
    bad = []
    for k in np.flatnonzero(fwd != rev).tolist():
        pair = divmod(int(keys[start[k]]), cx.nv)
        bad.append(Violation(
            "closed-surface", pair,
            f"edge {pair} traversed {fwd[k]}x forward, {rev[k]}x backward"))
    return bad


def read_only(a: np.ndarray) -> np.ndarray:
    """a, with writes to it refused: the arrays cached on a surface or basis are shared."""
    a.flags.writeable = False
    return a


def _repeated_vertices(Q):
    """Per quad row: True when it names some vertex twice, that is when one
    of its six corner pairs is equal."""
    a, b, c, d = Q.T
    return (a == b) | (a == c) | (a == d) | (b == c) | (b == d) | (c == d)


def _runs(keys):
    """Start and length of each run of equal values in a sorted array."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    start = np.flatnonzero(new)
    return start, np.diff(np.r_[start, len(keys)])


def _contains(distinct, x):
    """Per entry of x: whether it occurs in the sorted array distinct."""
    if not len(distinct):
        return np.zeros(len(x), dtype=bool)
    return distinct[np.minimum(np.searchsorted(distinct, x), len(distinct) - 1)] == x


def _split_link_vertex(cx):
    """Lowest vertex whose star the successors show is not one cycle, or None.

    Needs the quad and edge passes of ``_defects``.  The successors are
    one-to-one, so they split the incidences of a vertex into closed
    walks and open ones, which end at a -1, a doubled edge.  A -1 steps
    to a sink after the last incidence, and pointer doubling labels each
    incidence with the lowest incidence ahead of it and sends every open
    walk into the sink, so a closed walk is the set of incidences that
    stay off it, one of which keeps its own label.  A closed walk steps
    only across edges that lie in exactly two quad boundaries, where the
    star of a surface has one way on, so on a surface it is the whole
    star: a vertex is split when it has two closed walks, or one and any
    incidence off it.  A vertex whose every walk is open cannot be
    judged, since the vertex tables do not say which traversals of a
    doubled edge are glued: a pinch whose every incidence lies on such
    a walk stays invisible.
    """
    verts = cx.quad_array.ravel()
    if not len(verts):
        return None
    sink = len(verts)
    succ = np.append(cx.star_successor, sink)
    succ[succ < 0] = sink
    label = np.arange(sink + 1)
    own = label
    deg = np.bincount(verts, minlength=cx.nv)
    span, longest = 1, deg.max()
    while span < longest:
        label = np.minimum(label, label[succ])
        succ = succ[succ]
        span *= 2
    closed = succ[:-1] != sink
    cycles = np.bincount(verts[closed & (label == own)[:-1]], minlength=cx.nv)
    on_cycles = np.bincount(verts[closed], minlength=cx.nv)
    split = (cycles > 1) | ((cycles == 1) & (on_cycles < deg))
    return int(split.argmax()) if split.any() else None


def _components(n: int, rows) -> np.ndarray:
    """The lowest id of the component of each id 0..n-1, where the ids in
    one row of the 2-d array rows lie in one component.

    Union by hooking and pointer jumping: root[v] is the lowest id of v's
    tree.  Each round hooks the root of every row entry to the lowest
    root on that row, then jumps every pointer to its root.  A tree short
    of a whole component joins another in every round, so the rounds are
    logarithmic in n.  When a round hooks nothing, every row lies in one
    tree, and the trees are the components.
    """
    root = np.arange(n)
    while True:
        c = root[rows]
        hooked = root.copy()
        np.minimum.at(hooked, c.ravel(), np.repeat(c.min(axis=1), rows.shape[1]))
        if np.array_equal(hooked, root):
            return root
        root = hooked
        while not np.array_equal(root[root], root):
            root = root[root]


def _connectivity_violations(cx):
    if cx.nv <= 1 and not cx.nq:  # a lone vertex is one component, but no surface
        return [Violation("connectivity", (), "empty complex")]
    n_seen = int(np.count_nonzero(_components(cx.nv, cx.quad_array) == 0))
    if n_seen != cx.nv:
        return [Violation("connectivity", (), f"only {n_seen} of {cx.nv} vertices connected")]
    return []


def _strong_regularity_violations(cx, edge_quads, count):
    """Quad pairs sharing two edges, or two vertices and no edge.

    Runs only when every quad has four distinct vertices, so no quad is
    glued to itself and each group below lists distinct quads in
    ascending order.  ``edge_quads`` lists the quads of each edge, edge
    after edge, ``count`` how many each edge has.
    """
    nq = cx.nq
    out = []
    a, b, _ = _group_pairs(edge_quads, count)
    edge_shared, n_edges = np.unique(a * nq + b, return_counts=True)
    for k in np.flatnonzero(n_edges > 1).tolist():
        q1, q2 = divmod(int(edge_shared[k]), nq)
        out.append(Violation(
            "strong-regularity", (q1, q2),
            f"quads {q1} and {q2} share {n_edges[k]} edges"))

    by_vertex, deg, _ = cx.vertex_groups
    a, b, v = _group_pairs(by_vertex // 4, deg)
    keys = a * nq + b
    shared, n_verts = np.unique(keys, return_counts=True)
    bad = shared[n_verts > 1]
    bad = bad[~_contains(edge_shared, bad)]
    if bad.size:
        sel = _contains(bad, keys)
        keys, v = keys[sel], v[sel]
        o = np.lexsort((v, keys))
        keys, v = keys[o], v[o]
        cuts = np.flatnonzero(np.diff(keys)) + 1
        for key, vs in zip(keys[np.r_[0, cuts]].tolist(), np.split(v, cuts)):
            q1, q2 = divmod(key, nq)
            out.append(Violation(
                "strong-regularity", (q1, q2),
                f"quads {q1} and {q2} share vertices {vs.tolist()} but no edge"))
    return out


def _group_pairs(members, sizes):
    """All pairs (a, b) of members listed before/after each other in a group.

    ``members`` holds the groups one after another, ``sizes`` their
    lengths.  Returns (a, b, group) arrays, built in one block per group
    size, so the work is the number of pairs.
    """
    start = np.cumsum(sizes) - sizes
    parts = [(np.empty(0, np.int64),) * 3]
    for k in (np.flatnonzero(np.bincount(sizes)[2:]) + 2).tolist():
        groups = np.flatnonzero(sizes == k)
        block = members[start[groups][:, None] + np.arange(k)]
        i, j = np.triu_indices(k, 1)
        parts.append((block[:, i].ravel(), block[:, j].ravel(), np.repeat(groups, len(i))))
    return tuple(np.concatenate(x) for x in zip(*parts))


# ---------------------------------------------------------------------------
# breadth-first walks


def _adjacency(n: int, tails, heads, labels):
    """Flat adjacency of the graph on nodes 0..n-1 with the labelled edges
    tails[k] -> heads[k], label labels[k], read both ways.

    Returns (start, nbr, label, sign) as tuples of ints: the entries of
    node u are start[u]:start[u + 1], sorted by (neighbour, label), with
    sign +1 where u is the tail of the edge and -1 where it is the head.
    """
    node = np.concatenate([tails, heads])
    nbr = np.concatenate([heads, tails])
    label = np.concatenate([labels, labels])
    sign = np.repeat(np.array([1, -1]), len(labels))
    o = np.lexsort((label, nbr, node))
    start = np.r_[0, np.cumsum(np.bincount(node, minlength=n))]
    return tuple(tuple(a.tolist()) for a in (start, nbr[o], label[o], sign[o]))


def _bfs(adj, root: int, goal=None, skip=(), sort_levels=False) -> dict:
    """Breadth-first tree of an ``_adjacency`` from root.

    A new node's parent is the first node of its level with an edge to
    it, through the lowest label.  The next level lists the new nodes as
    they were reached or, with sort_levels, ascending.  Edges labelled
    in skip are left out, and the search stops after the level that
    reaches goal.  Returns node -> (parent, label, sign), None at root.
    """
    start, nbr, label, sign = adj
    skip = set(skip)
    parent = {root: None}
    front = [root]
    while front and goal not in parent:
        reached = []
        for u in front:
            for i in range(start[u], start[u + 1]):
                w = nbr[i]
                if w not in parent and label[i] not in skip:
                    parent[w] = (u, label[i], sign[i])
                    reached.append(w)
        front = sorted(reached) if sort_levels else reached
    return parent


def spanning_forest(cx: QuadComplex, color: int):
    """Spanning forest of one diagonal graph: (child, quad, parent) int arrays.

    One ``_bfs`` per component, from its lowest vertex of the color.
    Every other vertex of the color is a child, listed in the order the
    search reached it: ``quad`` is the quad whose diagonal joins it to its
    parent, and ``parent`` the parent's position in ``child``, -1 where
    the parent is a root.  So a parent comes before its children.
    """
    adj = cx.diagonal_adjacency[color]
    reached = set()
    position = {}
    child, quad, parent = [], [], []
    for root in range(cx.nv):
        if cx.colors[root] != color or root in reached:
            continue
        tree = _bfs(adj, root)
        reached.update(tree)
        for v, step in tree.items():
            if step is not None:
                position[v] = len(child)
                child.append(v)
                quad.append(step[1])
                parent.append(position.get(step[0], -1))
    return tuple(read_only(np.array(a, dtype=np.intp)) for a in (child, quad, parent))


def _path_to(parent: dict, goal: int) -> list:
    """(label, sign) steps from the root of a ``_bfs`` tree to goal."""
    steps = []
    v = goal
    while parent[v] is not None:
        v, q, s = parent[v]
        steps.append((q, s))
    return steps[::-1]


def require_surface(cx: QuadComplex) -> None:
    """Raise SurfaceError with the first of ``cx.defects``, if any.

    Strong regularity is not required.  The check runs on the first call
    for a surface; later calls read the cached findings."""
    if cx.defects:
        raise SurfaceError(cx.defects[0].detail)


def require_star_cycles(cx: QuadComplex) -> None:
    """``require_surface``, then every ccw star one cycle of ``star_successor``.

    Behind the first check only a doubled edge breaks a star, and then
    listing the stars raises the error of the first broken one."""
    require_surface(cx)
    if cx.has_doubled_edges:
        cx.stars


def _ambiguous_gluing(cx: QuadComplex, i: int) -> AmbiguousGluingError:
    """The error of the star step from incidence i across its doubled edge {prev(v), v}."""
    q, slot = divmod(i, 4)
    count = cx.edge_runs[1][cx.incidence_edge[4 * q + (slot - 1) % 4]]
    return AmbiguousGluingError(
        f"edge {{{cx.quads[q][(slot - 1) % 4]}, {cx.quads[q][slot]}}} occurs in {count} "
        "quad boundaries; rotation system is ambiguous")


def require_ids(ids, n: int, what: str):
    """Raise DqsError unless every id lies in range(n); negatives do not wrap."""
    for i in ids:
        if not 0 <= i < n:
            raise DqsError(f"{what} id {i} out of range 0..{n - 1}")


def genus(cx: QuadComplex) -> int:
    """Genus from the Euler count 2 - 2g = |V| - |F| (edges = 2 faces)."""
    chi = cx.nv - cx.nq
    if chi % 2:
        raise MalformedSurfaceError(f"|V| - |F| = {chi} is odd; not a closed quad surface")
    g = (2 - chi) // 2
    if g < 0:
        raise MalformedSurfaceError(f"negative genus from |V| - |F| = {chi}")
    return g


# ---------------------------------------------------------------------------
# charts


def intersection_angle(rho: complex) -> float:
    """Angle in (0, pi) under which the two diagonal lines cross."""
    return math.acos(max(-1.0, min(1.0, (1j * rho / abs(rho)).real)))


@dataclass(frozen=True)
class QuadChart:
    """Normalized parallelogram chart: black corners at +-1, white at +-i*rho."""

    quad: int
    b_minus: complex
    w_minus: complex
    b_plus: complex
    w_plus: complex
    phi: float

    @property
    def positions(self):
        return (self.b_minus, self.w_minus, self.b_plus, self.w_plus)

    @property
    def diagonal_ratio(self) -> complex:
        return -1j * (self.w_plus - self.w_minus) / (self.b_plus - self.b_minus)


def quad_chart(cx: QuadComplex, q: int) -> QuadChart:
    require_ids((q,), cx.nq, "quad")
    r = cx.rho[q]
    return QuadChart(q, -1.0 + 0j, -1j * r, 1.0 + 0j, 1j * r, intersection_angle(r))


def varignon_area(rho: complex) -> float:
    """Area of the medial parallelogram F_Q in the normalized chart."""
    return rho.real


@dataclass(frozen=True)
class VertexChart:
    """Planar fan realizing the star of a vertex, center at 0.

    positions[s] holds the images of quad ``quads[s]``'s corners in tuple
    order (b-, w-, b+, w+); cone_angles[s] is the angle of the fan sector.
    """

    vertex: int
    quads: tuple
    positions: tuple
    cone_angles: tuple

    def position_of(self, s: int, v: int, cx: QuadComplex) -> complex:
        return self.positions[s][cx.corner_slot(self.quads[s], v)]


def _arc_ray_point(alpha: float, rho_hat: complex) -> complex:
    """Intersection of the ray t*i*rho_hat with the inscribed-angle arc.

    The arc consists of points above the real axis seeing the segment
    [-1, 1] under the angle alpha; it lies on the circle with center
    i*cot(alpha) and radius 1/sin(alpha).
    """
    u = 1j * rho_hat / abs(rho_hat)
    m = 1.0 / math.tan(alpha)
    t = m * u.imag + math.sqrt((m * u.imag) ** 2 + 1.0)
    return t * u


def _polygon_is_simple_ccw(pts) -> bool:
    n = len(pts)
    area = 0.0
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        area += a.real * b.imag - b.real * a.imag
    if area <= 0:
        return False

    def seg_cross(p, q, r, s):
        d1 = (q - p).real * (r - p).imag - (q - p).imag * (r - p).real
        d2 = (q - p).real * (s - p).imag - (q - p).imag * (s - p).real
        d3 = (s - r).real * (p - r).imag - (s - r).imag * (p - r).real
        d4 = (s - r).real * (q - r).imag - (s - r).imag * (q - r).real
        return d1 * d2 < 0 and d3 * d4 < 0

    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if seg_cross(pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]):
                return False
    return True


def vertex_fan(rhos, black: bool):
    """Planar fan of quads around a common corner of the given color.

    rhos lists the weights of the incident quads in ccw order; quad s
    sits between neighbor rays s-1 and s.  Returns (corner_points,
    cone_angles) with corner_points[s] = (center 0, first neighbor,
    opposite corner, second neighbor), ccw, so that the induced oriented
    ratio of diagonals of quad s equals i*rhos[s] exactly.
    """
    k = len(rhos)
    if k < 2:
        raise ChartConstructionError("vertex star needs at least two quads")
    # construction weights: the auxiliary quad below realizes weight
    # rho_hat when read with a white center and 1/rho_hat with a black one
    hats = [(1.0 / r) if black else r for r in rhos]
    phi1 = intersection_angle(hats[0])
    theta = min(phi1, math.pi - phi1) / 2.0
    alpha1 = (math.pi - theta) if k >= 3 else (math.pi + theta)
    alpha_s = (2.0 * math.pi - alpha1) / (k - 1)
    if not 0.0 < alpha_s < math.pi:
        raise ChartConstructionError(f"cone angle {alpha_s:.4f} outside (0, pi)")

    neighbor = [None] * k  # image of the ray-s neighbor
    opposite = [None] * k
    for s in range(1, k):
        x = _arc_ray_point(alpha_s, hats[s])
        a, b, c = -1.0 - x, 1.0 - x, -2j * hats[s]
        lam = (neighbor[s - 1] / a) if s > 1 else cmath.exp(-1j * cmath.phase(a)) / abs(a)
        if s == 1:
            neighbor[0] = lam * a
        neighbor[s] = lam * b
        opposite[s] = lam * c

    # the closing quad: its opposite corner is forced by the diagonal ratio
    w_first, w_last = neighbor[0], neighbor[k - 1]
    if black:
        opposite[0] = (w_first - w_last) / (1j * rhos[0])
    else:
        opposite[0] = -1j * rhos[0] * (w_first - w_last)

    corners = []
    angles = []
    for s in range(k):
        n1 = neighbor[s - 1]  # s=0 wraps to neighbor[k-1]
        n2 = neighbor[s]
        quad_pts = (0j, n1, opposite[s], n2)
        if not _polygon_is_simple_ccw(quad_pts):
            raise ChartConstructionError(
                f"fan quad {s} is not an embedded ccw quadrilateral")
        ang = cmath.phase(n2 / n1) % (2.0 * math.pi)
        corners.append(quad_pts)
        angles.append(ang)
    if abs(sum(angles) - 2.0 * math.pi) > 1e-9:
        raise ChartConstructionError("fan cone angles do not close up to 2*pi")
    return corners, angles


def vertex_chart(cx: QuadComplex, v: int) -> VertexChart:
    """Chart around v: the star realized as a planar quad fan, v at 0.

    Every induced quad chart has oriented diagonal ratio i*rho of that
    quad, and images of shared edges coincide by construction.
    """
    require_ids((v,), cx.nv, "vertex")
    star = cx.stars[v]
    black = cx.colors[v] == BLACK
    rhos = [cx.rho[q] for (q, _) in star]
    corners, angles = vertex_fan(rhos, black)

    positions = []
    for s, (q, slot) in enumerate(star):
        pts = corners[s]  # (v, prev-neighbor ray, opposite, next-neighbor ray)
        # fan neighbor rays: n1 = image of corner_next(v) (first edge of the
        # cone, shared with the previous star quad), n2 = corner_prev(v)
        ordered = [0j] * 4
        ordered[slot] = pts[0]
        ordered[(slot + 1) % 4] = pts[1]
        ordered[(slot + 2) % 4] = pts[2]
        ordered[(slot + 3) % 4] = pts[3]
        ratio = -1j * (ordered[SLOT_WP] - ordered[SLOT_WM]) / (ordered[SLOT_BP] - ordered[SLOT_BM])
        if abs(ratio - cx.rho[q]) > 1e-9 * max(1.0, abs(cx.rho[q])):
            raise ChartConstructionError(
                f"fan quad for {q} has ratio {ratio}, expected {cx.rho[q]}")
        positions.append(tuple(ordered))
    return VertexChart(v, tuple(q for (q, _) in star), tuple(positions), tuple(angles))


# ---------------------------------------------------------------------------
# medial graph


@dataclass(frozen=True)
class MedialGraph:
    """Medial graph: vertices are edge midpoints, edges are [Q, v] keys.

    faces_v[v] and faces_q[q] list (edge_index, sign) pairs tracing the
    ccw boundary; sign -1 means against the canonical orientation.
    """

    complex: QuadComplex
    faces_v: tuple
    faces_q: tuple

    @property
    def n_vertices(self) -> int:
        return len(self.complex.edge_runs[0])

    @property
    def n_edges(self) -> int:
        return self.complex.n_medial_edges

    @property
    def n_faces(self) -> int:
        return len(self.faces_v) + len(self.faces_q)

    def edge_color(self, e: int) -> int:
        return self.complex.medial_edge_color(e)


def medial_graph(cx: QuadComplex) -> MedialGraph:
    faces_q = tuple(
        tuple((medial_edge_index(q, slot), 1) for slot in FACE_Q_ORDER)
        for q in range(cx.nq)
    )
    faces_v = tuple(
        tuple((medial_edge_index(q, slot), -1) for (q, slot) in cx.stars[v])
        for v in range(cx.nv)
    )
    return MedialGraph(cx, faces_v, faces_q)


# ---------------------------------------------------------------------------
# rhombic realization


@dataclass(frozen=True)
class RhombicRealization:
    """Per-quad unit rhombi whose gluing realizes the surface polyhedrally."""

    alphas: tuple   # interior angle at black vertices, per quad
    charts: tuple   # (b-, w-, b+, w+) positions of each unit rhombus

    def side_lengths(self, q: int):
        b1, w1, b2, w2 = self.charts[q]
        cyc = (b1, w1, b2, w2, b1)
        return tuple(abs(cyc[i + 1] - cyc[i]) for i in range(4))


@dataclass(frozen=True)
class Obstruction:
    """Certificate that no piecewise planar quad realization exists."""

    certified: bool
    nonreal_quads: tuple
    reason: str


def realize_rhombic(cx: QuadComplex):
    """Realize an all-real-weight surface by unit rhombi, or report why not.

    With every rho real, each quad maps to a unit rhombus whose black
    interior angle is 2*arctan(rho); equal side lengths make the gluing
    consistent.  If exactly one weight is non-real, the alternating sum
    of side lengths around quads obstructs any piecewise planar
    realization, so the failure is certified.  A weight counts as real
    where |Im rho| <= 1e-12 * max(1, |rho|).
    """
    nonreal = tuple(q for q, r in enumerate(cx.rho)
                    if abs(r.imag) > 1e-12 * max(1.0, abs(r)))
    if nonreal:
        certified = len(nonreal) == 1
        reason = (
            "exactly one quad has a non-orthogonal diagonal angle; the "
            "alternating edge-length sum over all quads must vanish yet is "
            "nonzero for that quad alone"
            if certified else
            f"{len(nonreal)} quads have non-real weights; no certificate attempted"
        )
        return Obstruction(certified, nonreal, reason)

    alphas = []
    charts = []
    for r in cx.rho:
        a = 2.0 * math.atan(r.real)
        half_b, half_w = math.cos(a / 2.0), math.sin(a / 2.0)
        alphas.append(a)
        charts.append((-half_b + 0j, -1j * half_w, half_b + 0j, 1j * half_w))
    return RhombicRealization(tuple(alphas), tuple(charts))


# ---------------------------------------------------------------------------
# subdivision


def subdivide3(cx: QuadComplex) -> QuadComplex:
    """Split every quad into 3x3 sub-quads; genus is preserved."""
    return subdivide3_with_provenance(cx)[0]


# A quad's 4 x 4 refinement lattice, i along b- -> w- and j along b- -> w+:
# its corners in slot order, the points one and two steps from corner s
# on the edge from slot s, and the corners of the nine sub-quads, ccw
# from (i, j), in (i, j) order; the odd sub-quads carry 1/rho.
_CORNERS = ((0, 3, 3, 0), (0, 0, 3, 3))
_SIDES = np.array([((1, 0), (2, 0)), ((3, 1), (3, 2)), ((2, 3), (1, 3)), ((0, 2), (0, 1))])
_SUB = np.array([[(i + di, j + dj) for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1))]
                 for i in range(3) for j in range(3)])
_SUB_ODD = np.arange(9) % 2 == 1


def subdivide3_with_provenance(cx: QuadComplex):
    """3x3 subdivision plus the origin of every new vertex.

    Sub-cells inherit the parallelogram chart of their quad, so cells in
    the corner parity class keep weight rho and the others get 1/rho.
    The provenance list holds ("v", id) for original vertices,
    ("e", u, w, t) for the two interior points of edge {u, w}, u < w, t
    steps from u, and ("f", q, i, j) for face interior points.  A quad's
    lattice keys a corner by its vertex, a side point by its edge id in
    ``incidence_edge`` and t, an interior point by (q, i, j); new points
    are numbered as the sub-quads, quad by quad in (i, j) order, first
    meet them, and point (i, j) has the color of i + j.  Doubled edges
    are refused by ``require_star_cycles``.
    """
    require_star_cycles(cx)
    nv, nq, Q = cx.nv, cx.nq, cx.quad_array
    n_side = nv + 2 * len(cx.edge_runs[0])
    L = np.empty((nq, 4, 4), dtype=np.int64)
    L[:, _CORNERS[0], _CORNERS[1]] = Q
    forward = (Q < np.roll(Q, -1, axis=1))[..., None]
    L[:, _SIDES[..., 0], _SIDES[..., 1]] = (nv - 1 + 2 * cx.incidence_edge.reshape(nq, 4, 1)
                                            + np.where(forward, (1, 2), (2, 1)))
    L[:, 1:3, 1:3] = (n_side + 4 * np.arange(nq)).reshape(-1, 1, 1) + [[0, 1], [2, 3]]
    keys = L[:, _SUB[..., 0], _SUB[..., 1]].ravel()  # the sub-quad corners, in meeting order
    distinct, first = np.unique(keys, return_index=True)
    new = distinct >= nv
    met = distinct[new][np.argsort(first[new])]  # the new points' keys, in meeting order
    ids = np.arange(distinct[-1] + 1)
    ids[met] = nv + np.arange(len(met))
    quads = ids[keys].reshape(nq, 9, 4)
    quads[:, _SUB_ODD] = np.roll(quads[:, _SUB_ODD], -1, axis=2)
    colors = list(cx.colors) + (_SUB.sum(axis=2).ravel() % 2)[np.sort(first[new]) % 36].tolist()
    pairs = [divmod(k, nv) for k in cx.edge_groups[1][cx.edge_runs[0]].tolist()]
    provenance = [("v", v) for v in range(nv)]
    for k in met.tolist():
        e, f = k - nv, k - n_side
        provenance.append(("e", *pairs[e // 2], e % 2 + 1) if f < 0
                          else ("f", f // 4, f // 2 % 2 + 1, f % 2 + 1))
    inverse = np.array([1.0 / r for r in cx.rho])  # numpy's division differs in the last bit
    rho = np.where(_SUB_ODD, inverse[:, None], cx.rho_array[:, None]).ravel()
    return QuadComplex.build(colors, quads.reshape(-1, 4), rho), tuple(provenance)


# ---------------------------------------------------------------------------
# type-diamond expansion helpers shared with the calculus module


def expand_diamond(cx: QuadComplex, black: np.ndarray, white: np.ndarray) -> np.ndarray:
    """Values of a diamond form on all 4*nq canonical medial edges."""
    vals = np.empty(cx.n_medial_edges, dtype=complex)
    for slot, (color, sign) in enumerate(MEDIAL_SLOT):
        value = black if color == BLACK else white
        vals[slot::4] = value if sign > 0 else -value
    return vals
