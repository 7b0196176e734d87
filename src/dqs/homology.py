"""Homology bases on the medial graph and period integration.

Cycles are closed walks on the medial graph, stored as signed canonical
edge indices.  Every cycle has black and white shadows: closed walks on
the black and white diagonal graphs obtained by replacing each medial
edge with the parallel diagonal (keyed by the quad, so doubled diagonals
are unproblematic).  The one slot table ``surface.MEDIAL_SLOT`` gives
the color and sign of that diagonal for every corner slot: the shadows
(``shadows``, for any number of cycles in one array pass) read it, and
the lift of a diagonal step
(``lift_diagonal_walk``) reads its inverse.  Each medial edge of a
diamond form carries the value of its parallel diagonal, so the plain
period of a closed form is half the sum of its doubled black and white
shadow periods.  The doubled shadow rows, built by
``operators.step_triplets`` like the doubled integrals along diagonal
graph paths, are the one period functional: ``periods`` is one product
over the a-shadow rows and one over the b-shadow rows, which a
``HomologyBasis`` builds once, on first use, and caches as read-only
arrays (``a_shadow_steps``, ``b_shadow_steps``).  Medial rows are built
only by ``integrate_cycle``, the independent reference integral along
one walk.

Every walk on a diagonal graph (the tree-cotree split behind
``homology_basis`` and the paths of ``graph_path``) is one breadth-first
search, ``surface._bfs``, over the flat adjacency the surface caches for
each color (``QuadComplex.diagonal_adjacency``), so no search scans the
whole surface or reads a quad tuple.  Lifting a diagonal walk back to
the medial graph reads the quad tuples and, behind ``require_surface``,
steps around each vertex along ``QuadComplex.star_successor`` alone, as
``QuadComplex.stars`` does.  The shadows of a set of cycles are taken
once, in one pass: ``homology_basis`` takes those of its 2g fundamental
lifts and ``build_basis`` those of the canonical cycles, and an
intersection matrix is one integer product of the black and white quad
multiplicities of those shadows.  The integer symplectic reduction runs
on Python ints, 2g x 2g of them.  ``require_basis``, the counterpart of
``require_surface``, judges every basis built here or read from a file:
g a- and b-cycles, closed shadows (``unclosed_rows``) and the pairing
``standard_pairing``.  The meridian and longitude of a generated torus
(``standard_torus_basis``) are written straight from the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DqsError, NotClosedError, SurfaceError
from .calculus import DiamondForm, closedness_residual
from .operators import chain_steps, diagonal_steps, integrals, medial_steps, step_array
from .surface import (
    BLACK,
    MEDIAL_SLOT,
    SLOT_BM,
    SLOT_WM,
    WHITE,
    QuadComplex,
    _ambiguous_gluing,
    _bfs,
    _path_to,
    genus,
    medial_edge_index,
    read_only,
    require_ids,
    require_surface,
)


@dataclass(frozen=True)
class Cycle:
    """Closed walk on the medial graph: signed canonical edge indices."""

    edges: tuple  # of (edge_index, sign)

    def reversed(self) -> "Cycle":
        return Cycle(tuple((e, -s) for (e, s) in reversed(self.edges)))

    def __len__(self):
        return len(self.edges)


@dataclass(frozen=True)
class BlackWhiteChains:
    """Diagonal shadows of a medial cycle: signed (quad, direction) lists.

    Direction +1 means b- -> b+ (black) or w- -> w+ (white).
    """

    black: tuple
    white: tuple

    def black_multiplicity(self, nq: int) -> np.ndarray:
        return _multiplicities([self.black], nq)[0]

    def white_multiplicity(self, nq: int) -> np.ndarray:
        return _multiplicities([self.white], nq)[0]


def _multiplicities(chains, nq: int) -> np.ndarray:
    """len(chains) x nq integer matrix: the net multiplicity of every quad per chain."""
    out = np.zeros((len(chains), nq), dtype=int)
    entries = [(i, q, s) for i, chain in enumerate(chains) for q, s in chain]
    rows, quads, signs = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    np.add.at(out, (rows, quads), signs)
    return out


def black_white(cycle: Cycle) -> BlackWhiteChains:
    """Shadows on the diagonal graphs, homotopic to the cycle (``shadows`` of one cycle)."""
    return shadows([cycle])[0]


def shadows(cycles) -> tuple:
    """The ``BlackWhiteChains`` of every cycle, from one array pass over all their edges.

    Each medial edge contributes its parallel diagonal, with the color
    and the sign of its corner slot in ``MEDIAL_SLOT`` times the sign of
    the traversal.  One stable sort groups the steps by cycle, black
    before white, each in walk order.
    """
    lengths = [len(c.edges) for c in cycles]
    e, s = np.array([step for c in cycles for step in c.edges],
                    dtype=np.int64).reshape(-1, 2).T
    color, sign = np.array(MEDIAL_SLOT)[e % 4].T
    key = 2 * np.repeat(np.arange(len(cycles)), lengths) + (color != BLACK)
    order = np.argsort(key, kind="stable")
    steps = list(map(tuple, np.column_stack([e // 4, s * sign])[order].tolist()))
    bounds = [0] + np.cumsum(np.bincount(key, minlength=2 * len(cycles))).tolist()
    parts = [tuple(steps[a:b]) for a, b in zip(bounds, bounds[1:])]
    return tuple(BlackWhiteChains(parts[2 * i], parts[2 * i + 1]) for i in range(len(cycles)))


def unclosed_rows(cx: QuadComplex, steps) -> list:
    """The rows of diagonal steps (``operators.step_array``) that are not closed chains,
    ascending: one sort of the (row, vertex) ends of all steps, each from the minus to
    the plus corner of its diagonal (back if negative); closed rows net zero everywhere."""
    rows, colors, quads = steps[:, :3].astype(np.int64).T
    lo = np.array((SLOT_BM, SLOT_WM))[colors]
    sign = np.sign(steps[:, 3])
    keys = np.concatenate([rows * cx.nv + cx.quad_array[quads, lo + 2],
                           rows * cx.nv + cx.quad_array[quads, lo]])
    order = np.argsort(keys)
    keys = keys[order]
    start = np.flatnonzero(np.diff(keys, prepend=-1))  # the runs of equal (row, vertex)
    net = np.add.reduceat(np.concatenate([sign, -sign])[order], start)
    return sorted(set((keys[start][net != 0] // cx.nv).tolist()))


# ---------------------------------------------------------------------------
# integration


def integrate_cycle(cx: QuadComplex, omega, cycle: Cycle) -> complex:
    """Integral of a diamond form, or of a one-form on medial edges, along a medial walk."""
    if isinstance(omega, DiamondForm):
        return _integral(cx, omega, medial_steps([cycle.edges]))
    e, s = np.array(cycle.edges, dtype=np.int64).reshape(-1, 2).T
    return complex(s @ omega.values[e])


def integrate_black_chain(cx: QuadComplex, omega: DiamondForm, chain) -> complex:
    """Integral over a black diagonal chain (single, not doubled)."""
    return _integral(cx, omega, diagonal_steps([chain], BLACK, weight=1.0))


def integrate_white_chain(cx: QuadComplex, omega: DiamondForm, chain) -> complex:
    return _integral(cx, omega, diagonal_steps([chain], WHITE, weight=1.0))


def _integral(cx: QuadComplex, omega: DiamondForm, steps) -> complex:
    """Integral of one form along the steps of one row."""
    return complex(integrals(steps, 1, [omega], cx.nq)[0, 0])


@dataclass(frozen=True)
class GraphPath:
    """Walk on one diagonal graph: signed (quad, direction) steps plus color."""

    color: int
    steps: tuple


def integrate_graph_path(cx: QuadComplex, omega: DiamondForm, path: GraphPath) -> complex:
    """Doubled integral along a diagonal-graph path (the graph convention)."""
    if path.color not in (BLACK, WHITE):
        raise DqsError("path must live on a single color class")
    return _integral(cx, omega, diagonal_steps([path.steps], path.color))


def graph_path(cx: QuadComplex, color: int, start: int, goal: int,
               forbidden_quads=()) -> GraphPath:
    """BFS path between same-color vertices along diagonals of that color,
    each level in the order it was reached, crossing no forbidden quad."""
    require_ids((start, goal), cx.nv, "vertex")
    if cx.colors[start] != color or cx.colors[goal] != color:
        raise DqsError("endpoints must both carry the path color")
    parent = _bfs(cx.diagonal_adjacency[color], start, goal, forbidden_quads)
    if goal not in parent:
        raise DqsError(f"no {('black', 'white')[color]} path from {start} to {goal}")
    return GraphPath(color, tuple(_path_to(parent, goal)))


# ---------------------------------------------------------------------------
# periods


@dataclass(frozen=True)
class PeriodReport:
    """All six period families of a closed diamond form."""

    A: np.ndarray
    B: np.ndarray
    A_black: np.ndarray
    A_white: np.ndarray
    B_black: np.ndarray
    B_white: np.ndarray


@dataclass(frozen=True)
class HomologyBasis:
    """Canonical basis: cycles a_1..a_g, b_1..b_g with diagonal shadows."""

    a: tuple          # of Cycle
    b: tuple
    a_chains: tuple   # of BlackWhiteChains
    b_chains: tuple
    intersection: np.ndarray  # 2g x 2g in (a..., b...) order

    @property
    def g(self) -> int:
        return len(self.a)

    def all_cycles(self):
        return list(self.a) + list(self.b)

    def all_chains(self):
        return list(self.a_chains) + list(self.b_chains)

    # The steps of the period rows, built on first use as read-only
    # ``operators.step_array`` arrays and read by every period product.
    # Plain periods are half the sums of the black and white rows.

    @cached_property
    def a_shadow_steps(self) -> np.ndarray:
        """The 2g doubled a-shadow periods, black rows then white (``chain_steps``)."""
        return read_only(step_array(chain_steps(self.a_chains)))

    @cached_property
    def b_shadow_steps(self) -> np.ndarray:
        """The 2g doubled b-shadow periods, black rows then white."""
        return read_only(step_array(chain_steps(self.b_chains)))


def build_basis(cx: QuadComplex, a_cycles, b_cycles) -> HomologyBasis:
    """The basis of the given cycles, unchecked: ``require_basis`` judges it."""
    chains = shadows(list(a_cycles) + list(b_cycles))
    g = len(a_cycles)
    return HomologyBasis(tuple(a_cycles), tuple(b_cycles), chains[:g], chains[g:],
                         intersection_matrix(cx, chains))


def require_basis(cx: QuadComplex, basis: HomologyBasis) -> HomologyBasis:
    """The basis, once it is canonical on cx, which passes ``require_surface``:
    genus(cx) a- and b-cycles, closed black and white shadows, and a_i . b_j
    = delta_ij (``standard_pairing``).  Else DqsError names the first failure."""
    g = genus(cx)
    if len(basis.a) != g or len(basis.b) != g:
        raise DqsError(f"basis has {len(basis.a)} a-cycles and {len(basis.b)} b-cycles; "
                       f"a genus {g} surface needs {g} of each")
    name = [f"{key}{k + 1}" for key in "ab" for k in range(g)]
    # one pass over the black a-, white a-, black b- and white b-shadows, g rows each
    rows = unclosed_rows(cx, np.vstack([basis.a_shadow_steps,
                                        basis.b_shadow_steps + (2 * g, 0, 0, 0)]))
    if rows:
        raise DqsError(f"the {('black', 'white')[rows[0] // g % 2]} shadow of basis cycle "
                       f"{name[rows[0] // (2 * g) * g + rows[0] % g]} is not closed")
    J = standard_pairing(g)
    wrong = np.argwhere(basis.intersection != J)
    if len(wrong):
        i, j = wrong[0]
        raise DqsError(f"basis cycles {name[i]} and {name[j]} have intersection "
                       f"number {basis.intersection[i, j]}; a canonical basis has {J[i, j]}")
    return basis


def periods(cx: QuadComplex, omega: DiamondForm, basis: HomologyBasis,
            tol: float = 1e-9) -> PeriodReport:
    """Period report of a closed form; raises if the form is not closed."""
    res = closedness_residual(cx, omega)
    scale = max(1.0, omega.norm())
    if res > tol * scale:
        raise NotClosedError(res)
    g = basis.g
    AB, AW = integrals(basis.a_shadow_steps, 2 * g, [omega], cx.nq).reshape(2, g)
    BB, BW = integrals(basis.b_shadow_steps, 2 * g, [omega], cx.nq).reshape(2, g)
    return PeriodReport((AB + AW) / 2.0, (BB + BW) / 2.0, AB, AW, BB, BW)


def verify_rbi(cx: QuadComplex, omega: DiamondForm, other: DiamondForm,
               basis: HomologyBasis, tol: float = 1e-9) -> float:
    """Residual of the bilinear identity relating the wedge integral to periods."""
    from .calculus import wedge
    p1 = periods(cx, omega, basis, tol)
    p2 = periods(cx, other, basis, tol)
    total = wedge(cx, omega, other).total()
    rhs = 0.5 * np.sum(p1.A_black * p2.B_white - p1.B_black * p2.A_white) \
        + 0.5 * np.sum(p1.A_white * p2.B_black - p1.B_white * p2.A_black)
    return abs(total - rhs)


# ---------------------------------------------------------------------------
# intersection numbers


def intersection_number(cx: QuadComplex, c1: Cycle, c2: Cycle) -> int:
    """Algebraic intersection of two medial cycles.

    The black shadow of the first and the white shadow of the second
    cross only inside quads, transversally, each crossing counting the
    product of diagonal directions (the black-then-white frame is
    positively oriented in every chart).
    """
    ch1, ch2 = shadows([c1, c2])
    b = ch1.black_multiplicity(cx.nq)
    w = ch2.white_multiplicity(cx.nq)
    return int(np.dot(b, w))


def intersection_matrix(cx: QuadComplex, chains) -> np.ndarray:
    """Pairwise intersection numbers of the cycles with the given shadows.

    chains holds the ``shadows`` of the cycles.  Entry (i, j) pairs the
    black shadow of cycle i with the white shadow of cycle j, as in
    ``intersection_number``: one integer product of their quad
    multiplicities, with the diagonal set to zero.
    """
    B = _multiplicities([ch.black for ch in chains], cx.nq)
    W = _multiplicities([ch.white for ch in chains], cx.nq)
    M = B @ W.T
    np.fill_diagonal(M, 0)
    return M


def standard_pairing(g: int) -> np.ndarray:
    """Intersection matrix [[0, I], [-I, 0]] of a canonical basis of genus g,
    in (a..., b...) order."""
    eye, zero = np.eye(g, dtype=int), np.zeros((g, g), dtype=int)
    return np.block([[zero, eye], [-eye, zero]])


# ---------------------------------------------------------------------------
# lifting diagonal walks to the medial graph


# slot of the medial edge parallel to a diagonal step, by (color,
# direction): the inverse of ``MEDIAL_SLOT``, so the edge runs from the
# step's start to its end
_LIFT_SLOT = {key: slot for slot, key in enumerate(MEDIAL_SLOT)}


def lift_diagonal_walk(cx: QuadComplex, walk, color: int) -> Cycle:
    """Closed medial walk tracing a closed walk on one diagonal graph.

    walk is a list of (quad, direction) steps whose diagonals chain into
    a closed walk on the color graph.  Each step contributes the
    parallel medial edge; consecutive steps are joined by arcs of the
    vertex face at the shared vertex, walked in ccw face order along
    ``QuadComplex.star_successor`` behind ``require_surface``.  An arc
    that meets a doubled edge raises AmbiguousGluingError, and one that
    circles its vertex without reaching the next step raises
    SurfaceError.  Medial endpoints are ids of ``QuadComplex.incidence_edge``:
    medial edge 4q + slot runs from the edge of 4q + slot - 1 to its own.
    """
    if not walk:
        return Cycle(())
    require_surface(cx)
    quads = cx.quads
    succ = cx.star_successor.item
    degree = cx.vertex_groups[1].item
    edge_of = cx.incidence_edge.item
    plus, minus = _LIFT_SLOT[color, 1], _LIFT_SLOT[color, -1]
    edges = [4 * q + (plus if d > 0 else minus) for (q, d) in walk]
    out = []
    n = len(walk)
    for k in range(n):
        e = edges[k]
        out.append((e, 1))
        pos = edge_of(e)
        e2 = edges[(k + 1) % n]
        target = edge_of(e2 - e2 % 4 + (e2 - 1) % 4)
        if pos == target:
            continue
        q, slot = divmod(e, 4)
        i = 4 * q + (slot + 1) % 4  # the incidence of the vertex the step arrives at
        v = quads[q][(slot + 1) % 4]
        limit = degree(v) + 1
        guard = 0
        while pos != target:
            j = succ(i)
            if j < 0:
                raise _ambiguous_gluing(cx, i)
            out.append((j, -1))
            pos = edge_of(j - j % 4 + (j - 1) % 4)
            i = j
            guard += 1
            if guard > limit:
                raise SurfaceError(f"stuck connecting walk steps at vertex {v}")
    return Cycle(tuple(out))


# ---------------------------------------------------------------------------
# tree-cotree homology basis


def _symplectic_reduce(M: np.ndarray) -> list:
    """Unimodular U with U M U^T in a-then-b order equal to [[0, I], [-I, 0]].

    M must be the skew unimodular intersection matrix of a cycle basis.
    The rows of U are lists of Python ints: at genus g the reduction
    works on 2g x 2g integers, where array operations cost more than
    they save.
    """
    M = M.tolist()
    n = len(M)
    U = [[int(i == j) for j in range(n)] for i in range(n)]

    def rowcol_op(dst, src, factor):
        M[dst] = [x + factor * y for x, y in zip(M[dst], M[src])]
        for row in M:
            row[dst] += factor * row[src]
        U[dst] = [x + factor * y for x, y in zip(U[dst], U[src])]

    def swap(i, j):
        M[i], M[j] = M[j], M[i]
        for row in M:
            row[i], row[j] = row[j], row[i]
        U[i], U[j] = U[j], U[i]

    for k in range(0, n, 2):
        while True:
            # the smallest nonzero entry above the diagonal, the first in row order on ties
            pivots = [(abs(M[i][j]), i, j) for i in range(k, n) for j in range(i + 1, n)
                      if M[i][j] != 0]
            if not pivots:
                raise DqsError("intersection matrix is degenerate")
            _, i, j = min(pivots)
            if i != k:
                swap(k, i)
                continue
            if j != k + 1:
                swap(k + 1, j)
                continue
            piv = M[k][k + 1]
            for t in range(k + 2, n):
                if M[k][t] != 0:
                    rowcol_op(t, k + 1, -(M[k][t] // piv))
                if M[k + 1][t] != 0:
                    rowcol_op(t, k, M[k + 1][t] // piv)
            if all(M[k][t] == 0 and M[k + 1][t] == 0 for t in range(k + 2, n)):
                break
        if M[k][k + 1] < 0:
            swap(k, k + 1)
        if M[k][k + 1] != 1:
            raise DqsError(f"intersection form pivot {M[k][k + 1]} != 1; not unimodular")
    # reorder pairs (a1, b1, a2, b2, ...) into (a..., b...)
    return [U[i] for i in list(range(0, n, 2)) + list(range(1, n, 2))]


def _concatenate_walks(walks_with_mult):
    out = []
    for walk, mult in walks_with_mult:
        if mult == 0:
            continue
        piece = walk if mult > 0 else [(q, -d) for (q, d) in reversed(walk)]
        for _ in range(abs(mult)):
            out.extend(piece)
    return out


def _spanning_tree(cx: QuadComplex, root: int, color: int, skip=()):
    """Breadth-first spanning tree of one diagonal graph, avoiding skip quads.

    Each level lists its vertices in ascending order.  Returns the
    ``_bfs`` parent pointers and the set of tree quads.
    """
    parent = _bfs(cx.diagonal_adjacency[color], root, skip=skip, sort_levels=True)
    return parent, {step[1] for step in parent.values() if step}


def homology_basis(cx: QuadComplex) -> HomologyBasis:
    """Canonical homology basis from a tree-cotree split of the black graph.

    Quads outside a spanning tree of the black diagonal graph and a
    spanning cotree of the white one yield 2g independent cycles; an
    integer symplectic reduction of their intersection matrix produces
    cycles with the standard pairing, which are then rerouted onto the
    medial graph.  Both trees grow by breadth-first search over the
    cached diagonal adjacencies, so the split is linear in nq up to the
    sort of each BFS level.
    """
    require_surface(cx)
    g = genus(cx)
    if g == 0:
        return build_basis(cx, (), ())

    # each tree grows from the lowest vertex of its color
    parent, tree_quads = _spanning_tree(cx, cx.colors.index(BLACK), BLACK)
    if len(parent) != cx.colors.count(BLACK):
        raise SurfaceError("black diagonal graph is not connected")
    wparent, cotree_quads = _spanning_tree(cx, cx.colors.index(WHITE), WHITE,
                                           skip=tree_quads)
    if len(wparent) != cx.colors.count(WHITE):
        raise SurfaceError("white diagonal graph is not connected")

    extra = sorted(set(range(cx.nq)) - tree_quads - cotree_quads)
    if len(extra) != 2 * g:
        raise SurfaceError(
            f"tree-cotree split left {len(extra)} quads, expected {2 * g}")

    fundamental = []
    for q in extra:
        # root -> a along the tree, across q, and back from b to the root
        a, b = cx.black_diagonal(q)
        walk = _path_to(parent, a)
        walk.append((q, 1))
        walk.extend((qq, -d) for (qq, d) in reversed(_path_to(parent, b)))
        fundamental.append(walk)

    lifts = [lift_diagonal_walk(cx, w, BLACK) for w in fundamental]
    M = intersection_matrix(cx, shadows(lifts))
    if np.any(M + M.T != 0):
        raise DqsError("intersection matrix of fundamental cycles is not skew")
    U = _symplectic_reduce(M)

    combined = []
    for row in U:
        walk = _concatenate_walks(list(zip(fundamental, row)))
        combined.append(lift_diagonal_walk(cx, walk, BLACK))

    return require_basis(cx, build_basis(cx, combined[:g], combined[g:]))


# ---------------------------------------------------------------------------
# explicit bases on generated tori


def standard_torus_basis(cx: QuadComplex, m: int, n: int) -> HomologyBasis:
    """Meridian/longitude basis on a gen_torus grid (vertex and quad ids j*m + i).

    The a-cycle crosses the bottom row of cells left to right along the
    canonical medial edges keyed by each cell's bottom-left and
    bottom-right corners.  The b-cycle climbs the left column against
    the canonical orientation of the edges keyed by each cell's
    bottom-left and top-left corners.  Their pairing is +1.
    """
    def vid(i, j):
        return (j % n) * m + (i % m)

    def keyed(q, v):  # the medial edge of quad q keyed by its corner v
        return medial_edge_index(q, cx.quads[q].index(v))

    # cell (i, j) is quad vid(i, j), its bottom-left corner vertex
    a = tuple((keyed(vid(i, 0), v), 1) for i in range(m) for v in (vid(i, 0), vid(i + 1, 0)))
    b = tuple((keyed(vid(0, j), v), -1) for j in range(n) for v in (vid(0, j), vid(0, j + 1)))
    return require_basis(cx, build_basis(cx, (Cycle(a),), (Cycle(b),)))
