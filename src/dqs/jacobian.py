"""Jacobian lattices and discrete Abel-Jacobi maps.

The canonical set of holomorphic differentials integrates along paths
into C^g.  Black targets are reached along black diagonals (doubled
integrals) after half a diagonal of the base quad, white targets along
white diagonals; quad targets via the medial graph.  Values are
well-defined modulo the lattice spanned by the identity columns and the
corresponding period matrix, and path choices differ exactly by lattice
vectors.  Each value is one row of ``operators.step_triplets`` steps,
integrated against all g canonical forms in one product: the black and
white vertex maps share one body, and the quad map builds its black and
white rows with the same builder and returns their average as the plain
value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousGluingError, DqsError
from .differentials import HolomorphicBasis, PeriodMatrices
from .homology import Cycle, GraphPath, black_white, graph_path
from .operators import diagonal_steps, integrals
from .surface import (
    BLACK,
    SLOT_BM,
    SLOT_WM,
    WHITE,
    QuadComplex,
    _adjacency,
    _bfs,
    _path_to,
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


def abel_jacobi_black(cx: QuadComplex, hb: HolomorphicBasis, jac_black: Jacobian,
                      base_quad: int, target: int, path: GraphPath = None) -> AJValue:
    """Black Abel-Jacobi value of a black vertex, modulo the black lattice.

    Integrates each canonical differential along half of the base quad's
    black diagonal and then a black path to the target; the anchor
    corner drops out because diagonal steps double the half-diagonal.
    """
    return _abel_jacobi_vertex(cx, hb, jac_black, base_quad, target, path, BLACK)


def abel_jacobi_white(cx: QuadComplex, hb: HolomorphicBasis, jac_white: Jacobian,
                      base_quad: int, target: int, path: GraphPath = None) -> AJValue:
    """White mirror of the black Abel-Jacobi map."""
    return _abel_jacobi_vertex(cx, hb, jac_white, base_quad, target, path, WHITE)


def _abel_jacobi_vertex(cx: QuadComplex, hb: HolomorphicBasis, jac: Jacobian,
                        base_quad: int, target: int, path, color: int) -> AJValue:
    """Abel-Jacobi value of a vertex of one color: one row over the canonical set.

    The row runs from the centre of the base quad to the minus corner of
    its diagonal of that color (half a diagonal), then along a path on
    the diagonal graph of that color to the target.
    """
    name = ("black", "white")[color]
    require_ids((base_quad,), cx.nq, "quad")
    require_ids((target,), cx.nv, "vertex")
    if cx.colors[target] != color:
        raise DqsError(f"target must be a {name} vertex")
    anchor = cx.quads[base_quad][SLOT_BM if color == BLACK else SLOT_WM]
    if path is None:
        path = graph_path(cx, color, anchor, target)
    elif path.color != color:
        raise DqsError(f"path must run on the {name} graph")
    steps = diagonal_steps([[(base_quad, -1)]], color, weight=1.0) \
        + diagonal_steps([path.steps], color)
    return AJValue(integrals(steps, 1, hb.omega, cx.nq)[0], jac)


# ---------------------------------------------------------------------------
# quad-to-quad map along the medial graph


def _medial_bfs_path(cx: QuadComplex, start: int, goal: int):
    """Signed medial edges from one edge midpoint to another (BFS, each
    level in the order it was reached).

    The medial nodes are the edge ids of ``QuadComplex.incidence_edge``,
    and medial edge 4q + slot runs from the edge (v, prev(v)) to (v, next(v)).
    """
    if cx.has_doubled_edges:
        raise AmbiguousGluingError(
            "medial paths need unambiguous edge midpoints; this complex "
            "has doubled edges")
    if start == goal:
        return []
    node = cx.incidence_edge
    before = np.roll(np.arange(len(node)).reshape(-1, 4), 1, axis=1).ravel()
    adj = _adjacency(len(cx.edge_runs[0]), node[before], node, np.arange(len(node)))
    parent = _bfs(adj, start, goal)
    if goal not in parent:
        raise DqsError("medial graph is not connected")
    return _path_to(parent, goal)


@dataclass(frozen=True)
class QuadToQuadValue:
    """Abel-Jacobi style integral between quad centers, with path data.

    The value depends on the chosen medial path (it lives on the
    universal cover); it is the average of the black and white values
    computed along the shadows of the same path.
    """

    value: np.ndarray
    black_value: np.ndarray
    white_value: np.ndarray
    path: tuple


def abel_jacobi_quad(cx: QuadComplex, hb: HolomorphicBasis,
                     q1: int, q2: int) -> QuadToQuadValue:
    """Integral of the canonical set from quad q1 to quad q2.

    A deterministic medial path joins the midpoints of (b-, w-) of the
    two quads.  The black and white values follow its shadows along the
    diagonal graphs, from half of q1's diagonal to half of q2's; the
    plain value, the integral from centre to centre along the medial
    path, is their average, because every medial edge carries the value
    of its parallel diagonal.
    """
    require_ids((q1, q2), cx.nq, "quad")
    # the edge (b-, w-) of a quad is the one its b- incidence starts
    path = _medial_bfs_path(cx, *(int(cx.incidence_edge[4 * q + SLOT_BM]) for q in (q1, q2)))
    chains = black_white(Cycle(tuple(path)))
    # rows 0 and 1: half of each end quad's black (white) diagonal from
    # its minus corner, and the black (white) shadow of the path
    steps = []
    for row, (color, shadow) in enumerate(((BLACK, chains.black), (WHITE, chains.white))):
        steps += diagonal_steps([[(q1, -1), (q2, 1)]], color, row, weight=1.0)
        steps += diagonal_steps([shadow], color, row)
    black_value, white_value = integrals(steps, 2, hb.omega, cx.nq)
    return QuadToQuadValue((black_value + white_value) / 2.0, black_value, white_value,
                           tuple(path))

