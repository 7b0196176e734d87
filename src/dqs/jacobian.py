"""Jacobian lattices and discrete Abel-Jacobi maps.

The canonical set of holomorphic differentials integrates along paths
into C^g.  Black targets are reached along black diagonals (doubled
integrals) after half a diagonal of the base quad, white targets along
white diagonals; quad targets via the medial graph.  Values are
well-defined modulo the lattice spanned by the identity columns and the
corresponding period matrix, and path choices differ exactly by lattice
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DqsError
from .calculus import DiamondForm
from .differentials import HolomorphicBasis, PeriodMatrices
from .homology import GraphPath, HomologyBasis, graph_path, integrate_graph_path
from .surface import (
    BLACK,
    SLOT_BM,
    SLOT_BP,
    SLOT_WM,
    SLOT_WP,
    WHITE,
    QuadComplex,
    medial_edge_index,
    require_ids,
)


@dataclass(frozen=True)
class Jacobian:
    """Complex torus C^g modulo the lattice of a g x g period matrix."""

    Pi: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "Pi", np.asarray(self.Pi, dtype=complex))

    @property
    def g(self) -> int:
        return self.Pi.shape[0]

    @property
    def generators(self) -> np.ndarray:
        """Columns: the 2g lattice generators in C^g."""
        return np.hstack([np.eye(self.g, dtype=complex), self.Pi])

    def _real_basis(self) -> np.ndarray:
        gens = self.generators
        return np.vstack([gens.real, gens.imag])  # 2g x 2g real

    def coordinates(self, v) -> np.ndarray:
        """Real lattice coordinates of a vector in C^g."""
        v = np.asarray(v, dtype=complex).reshape(self.g)
        rhs = np.concatenate([v.real, v.imag])
        return np.linalg.solve(self._real_basis(), rhs)

    def reduce(self, v) -> np.ndarray:
        """Representative with lattice coordinates in [-1/2, 1/2)."""
        v = np.asarray(v, dtype=complex).reshape(self.g)
        coords = self.coordinates(v)
        frac = coords - np.round(coords)
        gens = self.generators
        out = gens @ frac
        return out

    def contains(self, v, tol: float = 1e-8) -> bool:
        """Whether v reduces into the lattice (is congruent to zero)."""
        coords = self.coordinates(v)
        return bool(np.abs(coords - np.round(coords)).max(initial=0.0) < tol)

    def distance_to_lattice(self, v) -> float:
        coords = self.coordinates(v)
        return float(np.abs(coords - np.round(coords)).max(initial=0.0))


@dataclass(frozen=True)
class AJValue:
    """Representative vector of an Abel-Jacobi value modulo a lattice."""

    vector: np.ndarray
    lattice: Jacobian

    def __post_init__(self):
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=complex))

    def same(self, other: "AJValue", tol: float = 1e-8) -> bool:
        if self.lattice.label != other.lattice.label:
            return False
        return self.lattice.contains(self.vector - other.vector, tol)


def jacobians(pm: PeriodMatrices):
    """Plain, black, and white Jacobians from the period matrices."""
    return (Jacobian(pm.Pi, "plain"),
            Jacobian(pm.Pi_black, "black"),
            Jacobian(pm.Pi_white, "white"))


def _half_diagonal(cx: QuadComplex, omega: DiamondForm, q: int, toward: int) -> complex:
    """Integral of the medial edge parallel to a diagonal, ending at its side.

    toward must be one of the quad's corners; the edge runs along the
    diagonal of toward's color, oriented so the diagonal points at it.
    """
    t = cx.quads[q]
    if toward == t[SLOT_BP]:
        return complex(omega.black[q])
    if toward == t[SLOT_BM]:
        return complex(-omega.black[q])
    if toward == t[SLOT_WP]:
        return complex(omega.white[q])
    if toward == t[SLOT_WM]:
        return complex(-omega.white[q])
    raise DqsError(f"vertex {toward} is not a corner of quad {q}")


def _integrate_set(cx: QuadComplex, forms, evaluate) -> np.ndarray:
    return np.array([evaluate(f) for f in forms], dtype=complex)


def abel_jacobi_black(cx: QuadComplex, basis: HomologyBasis, hb: HolomorphicBasis,
                      jac_black: Jacobian, base_quad: int, target: int,
                      path: GraphPath = None) -> AJValue:
    """Black Abel-Jacobi value of a black vertex, modulo the black lattice.

    Integrates each canonical differential along half of the base quad's
    black diagonal and then a black path to the target; the anchor
    corner drops out because diagonal steps double the half-diagonal.
    """
    require_ids((base_quad,), cx.nq, "quad")
    require_ids((target,), cx.nv, "vertex")
    if cx.colors[target] != BLACK:
        raise DqsError("target must be a black vertex")
    anchor = cx.quads[base_quad][SLOT_BM]
    if path is None:
        path = graph_path(cx, BLACK, anchor, target)
    elif path.color != BLACK:
        raise DqsError("path must run on the black graph")
    vec = _integrate_set(
        cx, hb.omega,
        lambda f: _half_diagonal(cx, f, base_quad, anchor)
        + integrate_graph_path(cx, f, path))
    return AJValue(vec, jac_black)


def abel_jacobi_white(cx: QuadComplex, basis: HomologyBasis, hb: HolomorphicBasis,
                      jac_white: Jacobian, base_quad: int, target: int,
                      path: GraphPath = None) -> AJValue:
    """White mirror of the black Abel-Jacobi map."""
    require_ids((base_quad,), cx.nq, "quad")
    require_ids((target,), cx.nv, "vertex")
    if cx.colors[target] != WHITE:
        raise DqsError("target must be a white vertex")
    anchor = cx.quads[base_quad][SLOT_WM]
    if path is None:
        path = graph_path(cx, WHITE, anchor, target)
    elif path.color != WHITE:
        raise DqsError("path must run on the white graph")
    vec = _integrate_set(
        cx, hb.omega,
        lambda f: _half_diagonal(cx, f, base_quad, anchor)
        + integrate_graph_path(cx, f, path))
    return AJValue(vec, jac_white)


# ---------------------------------------------------------------------------
# quad-to-quad map along the medial graph


def _medial_vertex_edges(cx: QuadComplex, q: int):
    """For each medial vertex of the quad face: the two edges pointing at it.

    Returns a dict keyed by the undirected boundary edge of the quad,
    with ((edge_index, sign), (edge_index, sign)) oriented toward it.
    """
    out = {}
    t = cx.quads[q]
    for slot, v in enumerate(t):
        nxt = cx.corner_next(q, slot)
        pair = (min(v, nxt), max(v, nxt))
        e_end = medial_edge_index(q, slot)          # canonical ends at mid(v, nxt)
        nslot = t.index(nxt)
        e_start = medial_edge_index(q, nslot)       # canonical starts at mid(nxt, v)
        out[pair] = ((e_end, 1), (e_start, -1))
    return out


def _medial_bfs_path(cx: QuadComplex, start_pair, goal_pair):
    """Signed medial edges from one edge midpoint to another (BFS)."""
    if cx.has_doubled_edges:
        from .errors import AmbiguousGluingError

        raise AmbiguousGluingError(
            "medial paths need unambiguous edge midpoints; this complex "
            "has doubled edges")
    if start_pair == goal_pair:
        return []
    adj = {}
    for e in range(cx.n_medial_edges):
        a, b = cx.medial_endpoints(e)
        adj.setdefault(a, []).append((b, e, 1))
        adj.setdefault(b, []).append((a, e, -1))
    prev = {start_pair: None}
    queue = [start_pair]
    while queue and goal_pair not in prev:
        nxt = []
        for u in queue:
            for (w, e, s) in sorted(adj.get(u, ())):
                if w not in prev:
                    prev[w] = (u, e, s)
                    nxt.append(w)
        queue = nxt
    if goal_pair not in prev:
        raise DqsError("medial graph is not connected")
    steps = []
    v = goal_pair
    while prev[v] is not None:
        u, e, s = prev[v]
        steps.append((e, s))
        v = u
    return list(reversed(steps))


@dataclass(frozen=True)
class QuadToQuadValue:
    """Abel-Jacobi style integral between quad centers, with path data.

    The value depends on the chosen medial path (it lives on the
    universal cover); black/white split values computed from the same
    path satisfy black + white = 2 * value.
    """

    value: np.ndarray
    black_value: np.ndarray
    white_value: np.ndarray
    path: tuple


def abel_jacobi_quad(cx: QuadComplex, hb: HolomorphicBasis,
                     q1: int, q2: int) -> QuadToQuadValue:
    """Integral of the canonical set from quad q1 to quad q2.

    Starts and ends with half-steps onto a medial vertex of each quad
    face, connected by a deterministic medial path; the black and white
    shadow values follow the same route along the diagonal graphs.
    """
    require_ids((q1, q2), cx.nq, "quad")
    t1, t2 = cx.quads[q1], cx.quads[q2]
    b1, w1 = t1[SLOT_BM], t1[SLOT_WM]
    b2, w2 = t2[SLOT_BM], t2[SLOT_WM]
    x1 = (min(b1, w1), max(b1, w1))
    x2 = (min(b2, w2), max(b2, w2))
    path = _medial_bfs_path(cx, x1, x2)

    def entry_half(f, q, pair, sign):
        ends = _medial_vertex_edges(cx, q)[pair]
        vals = f.expand(cx).values
        return sign * 0.5 * sum(s * vals[e] for (e, s) in ends)

    def total(f):
        vals = f.expand(cx).values
        mid = sum(s * vals[e] for (e, s) in path)
        return entry_half(f, q1, x1, +1) + mid - entry_half(f, q2, x2, +1)

    value = _integrate_set(cx, hb.omega, total)

    # shadow versions built from the same medial path
    from .homology import Cycle, black_white

    chains = black_white(cx, Cycle(tuple(path)))

    def shadow(f, color):
        if color == BLACK:
            from .homology import integrate_black_chain
            mid = 2.0 * integrate_black_chain(cx, f, chains.black)
            start = _half_diagonal(cx, f, q1, b1)
            end = _half_diagonal(cx, f, q2, b2)
        else:
            from .homology import integrate_white_chain
            mid = 2.0 * integrate_white_chain(cx, f, chains.white)
            start = _half_diagonal(cx, f, q1, w1)
            end = _half_diagonal(cx, f, q2, w2)
        return start + mid - end

    black_value = _integrate_set(cx, hb.omega, lambda f: shadow(f, BLACK))
    white_value = _integrate_set(cx, hb.omega, lambda f: shadow(f, WHITE))
    return QuadToQuadValue(value, black_value, white_value, tuple(path))


def aj_cr_residual(cx: QuadComplex, hb: HolomorphicBasis) -> float:
    """Max holomorphicity defect of the Abel-Jacobi map's components.

    With quad-consistent lifts the four corner values of a quad are the
    path value plus/minus the half-diagonal integrals, so the defect per
    quad and component is 2 |white - i rho black|; it vanishes exactly
    because the canonical differentials are holomorphic.
    """
    rho = np.asarray(cx.rho)
    worst = 0.0
    for f in hb.omega:
        worst = max(worst, float(np.abs(2.0 * (f.white - 1j * rho * f.black)).max(initial=0.0)))
    return worst
