import numpy as np
import pytest

from dqs import (
    BLACK,
    WHITE,
    abel_jacobi_black,
    abel_jacobi_quad,
    abel_jacobi_white,
    canonical_bases,
    closedness_residual,
    gen_torus,
    graph_path,
    integrate_cycle,
    jacobians,
    period_matrices,
    randomize_rho,
    standard_torus_basis,
)
from dqs.coverings import gen_cube_double_cover
from dqs.errors import DqsError
from dqs.homology import Cycle, GraphPath
from dqs.jacobian import _medial_bfs_path
from dqs.surface import SLOT_BM, SLOT_WM, subdivide3


@pytest.fixture(scope="module")
def setup44():
    cx = gen_torus(4, 4, 1j)
    basis = standard_torus_basis(cx, 4, 4)
    hb = canonical_bases(cx, basis)
    pm = period_matrices(cx, basis, hb)
    return cx, basis, hb, pm


@pytest.fixture(scope="module")
def setup_random():
    cx = randomize_rho(gen_torus(4, 4, 1j), np.random.default_rng(99))
    basis = standard_torus_basis(cx, 4, 4)
    hb = canonical_bases(cx, basis)
    pm = period_matrices(cx, basis, hb)
    return cx, basis, hb, pm


class TestJacobians:
    def test_square_torus_lattice(self, setup44):
        _, _, _, pm = setup44
        jac, jb, jw = jacobians(pm)
        assert abs(jac.Pi[0, 0] - 1j) < 1e-9
        assert abs(jb.Pi[0, 0] - 1j) < 1e-9

    def test_black_plus_white_is_twice_plain(self, setup_random):
        """The shadow period matrices against the plain b-periods of the
        canonical forms, integrated along the medial b-cycles."""
        cx, basis, hb, pm = setup_random
        plain = np.array([[integrate_cycle(cx, w, bj) for w in hb.omega] for bj in basis.b])
        assert np.abs(pm.Pi_black + pm.Pi_white - 2 * plain).max() < 1e-9
        assert np.abs(pm.Pi - plain).max() < 1e-12

    def test_lattice_membership(self, setup_random, rng):
        _, _, _, pm = setup_random
        jac, _, _ = jacobians(pm)
        col = jac.Pi[:, 0]
        assert jac.contains(col)
        assert jac.contains(np.array([3.0 + 0j]) + 2 * col)
        assert not jac.contains(col / 2 + 0.123)

    def test_reduce_idempotent(self, setup_random, rng):
        _, _, _, pm = setup_random
        jac, _, _ = jacobians(pm)
        v = rng.normal(size=1) + 1j * rng.normal(size=1)
        red = jac.reduce(v)
        assert jac.contains(v - red)
        m, n = rng.integers(-5, 5, 2)
        shifted = v + m + n * jac.Pi[:, 0]
        assert np.abs(jac.reduce(shifted) - red).max() < 1e-9


class TestBlackWhiteMaps:
    def test_half_diagonal_target(self, setup_random):
        cx, basis, hb, pm = setup_random
        _, jb, _ = jacobians(pm)
        base_q = 5
        anchor = cx.quads[base_q][0]
        val = abel_jacobi_black(cx, hb, jb, base_q, anchor, path=GraphPath(BLACK, ()))
        expected = np.array([-f.black[base_q] for f in hb.omega])
        assert np.abs(val.vector - expected).max() < 1e-12

    def test_path_choice_lattice(self, setup_random):
        cx, basis, hb, pm = setup_random
        _, jb, _ = jacobians(pm)
        anchor = cx.quads[0][0]
        p0 = graph_path(cx, BLACK, anchor, 10)
        loop = ((0, 1), (1, -1), (2, 1), (3, -1))
        v1 = abel_jacobi_black(cx, hb, jb, 0, 10, path=p0)
        v2 = abel_jacobi_black(cx, hb, jb, 0, 10, path=GraphPath(BLACK, p0.steps + loop))
        assert v1.same(v2)
        assert jb.distance_to_lattice(v1.vector - v2.vector) < 1e-8

    def test_degree_zero_base_independence(self, setup_random):
        cx, basis, hb, pm = setup_random
        _, jb, _ = jacobians(pm)

        def diff(base_q):
            a = abel_jacobi_black(cx, hb, jb, base_q, 10).vector
            b = abel_jacobi_black(cx, hb, jb, base_q, 2).vector
            return a - b

        assert jb.contains(diff(0) - diff(5))
        assert jb.contains(diff(0) - diff(11))

    def test_white_mirror(self, setup_random):
        cx, basis, hb, pm = setup_random
        _, _, jw = jacobians(pm)
        val = abel_jacobi_white(cx, hb, jw, 0, 1)
        assert val.vector.shape == (1,)

        def diff(base_q):
            a = abel_jacobi_white(cx, hb, jw, base_q, 1).vector
            b = abel_jacobi_white(cx, hb, jw, base_q, 11).vector
            return a - b

        assert jw.contains(diff(0) - diff(7))

    def test_color_mismatch_rejected(self, setup_random):
        cx, basis, hb, pm = setup_random
        _, jb, jw = jacobians(pm)
        white_vertex = next(v for v in range(cx.nv) if cx.colors[v] == WHITE)
        with pytest.raises(DqsError):
            abel_jacobi_black(cx, hb, jb, 0, white_vertex)


def _medial_value(cx, f, q1, q2, path):
    """Integral of f from the centre of q1 to the centre of q2 along a medial path
    that joins the midpoints of their (b-, w-) edges.  In the medial
    parallelogram of a quad, the centre lies half of the edge keyed by b-
    minus the edge keyed by w- before that midpoint."""
    def half(q):
        return 0.5 * integrate_cycle(cx, f, Cycle(((4 * q + SLOT_BM, 1), (4 * q + SLOT_WM, -1))))

    return half(q1) + integrate_cycle(cx, f, Cycle(tuple(path))) - half(q2)


class TestQuadMap:
    def test_same_quad_zero(self, setup_random):
        cx, _, hb, _ = setup_random
        out = abel_jacobi_quad(cx, hb, 6, 6)
        assert np.abs(out.value).max() < 1e-12

    def test_splitting_identity(self, setup_random, rng):
        """The quad map's value, the average of its black and white values,
        against the medial integral from centre to centre along its path."""
        cx, _, hb, _ = setup_random
        for _ in range(8):
            q1, q2 = (int(q) for q in rng.integers(0, cx.nq, 2))
            out = abel_jacobi_quad(cx, hb, q1, q2)
            ref = np.array([_medial_value(cx, f, q1, q2, out.path) for f in hb.omega])
            assert np.abs(out.value - ref).max() < 1e-12

    def test_component_holomorphicity(self, setup44, setup_random):
        # the components are the canonical forms, closed through the medial expansion
        for cx, _, hb, _ in (setup44, setup_random):
            assert max(closedness_residual(cx, f) for f in hb.omega) < 1e-10


# ---------------------------------------------------------------------------
# medial paths against the whole-surface scan they replaced


def _scan_medial_adjacency(cx):
    """Reference medial adjacency: a dict over edge pairs built from every medial edge."""
    adj = {}
    for e in range(cx.n_medial_edges):
        a, b = cx.medial_endpoints(e)
        adj.setdefault(a, []).append((b, e, 1))
        adj.setdefault(b, []).append((a, e, -1))
    return adj


def _scan_medial_path(adj, start_pair, goal_pair):
    """Reference _medial_bfs_path: level by level, each node's entries sorted."""
    if start_pair == goal_pair:
        return []
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
        return None
    steps = []
    v = goal_pair
    while prev[v] is not None:
        u, e, s = prev[v]
        steps.append((e, s))
        v = u
    return list(reversed(steps))


@pytest.mark.parametrize("name", ["torus64", "cover", "cover-sub3"])
def test_medial_path_matches_full_scan(name):
    cover = gen_cube_double_cover()[0]
    cx = {"torus64": gen_torus(6, 4, 0.3 + 1.2j), "cover": cover,
          "cover-sub3": subdivide3(cover)}[name]
    adj = _scan_medial_adjacency(cx)
    pairs = sorted(adj)  # edge id k is the k-th vertex pair in ascending order
    rng = np.random.default_rng(5)
    for i in rng.choice(len(pairs), 4, replace=False):
        for j in [i, *rng.choice(len(pairs), min(49, len(pairs)), replace=False)]:
            start, goal = pairs[i], pairs[j]
            assert _medial_bfs_path(cx, int(i), int(j)) == _scan_medial_path(adj, start, goal), \
                (start, goal)
