import numpy as np
import pytest

from dqs import (
    BLACK,
    WHITE,
    Cycle,
    DiamondForm,
    black_white,
    d_function,
    gen_cube,
    gen_cube_double_cover,
    gen_torus,
    graph_path,
    homology_basis,
    integrate_cycle,
    integrate_graph_path,
    intersection_number,
    periods,
    standard_torus_basis,
    subdivide3,
    verify_rbi,
)
from dqs import homology
from dqs.selftest import shipped_surfaces
from dqs.errors import AmbiguousGluingError, DqsError, NotClosedError, SurfaceError
from dqs.homology import (
    GraphPath,
    _spanning_tree,
    build_basis,
    lift_diagonal_walk,
    require_basis,
    standard_pairing,
    unclosed_rows,
)
from dqs.operators import chain_steps, step_array
from dqs.surface import (
    FACE_Q_ORDER,
    SLOT_BM,
    SLOT_BP,
    SLOT_WM,
    SLOT_WP,
    QuadComplex,
    genus,
    medial_edge_index,
)

from conftest import incidences, reference_other_quad


def cycle_is_closed_walk(cx, cycle):
    """Consecutive edges share medial vertices (identified by vertex pairs)."""
    assert not cx.has_doubled_edges
    pts = [cx.medial_endpoints(e)[::s] for (e, s) in cycle.edges]
    return all(pts[i][1] == pts[(i + 1) % len(pts)][0] for i in range(len(pts)))


def torus_dz(cx, m, n, tau):
    """The globally defined coordinate differential of a flat grid torus."""
    u, w = 1.0 / m, tau / n
    black = np.zeros(cx.nq, complex)
    white = np.zeros(cx.nq, complex)
    for j in range(n):
        for i in range(m):
            q = j * m + i
            if (i + j) % 2 == 0:
                black[q], white[q] = (u + w) / 2, (w - u) / 2
            else:
                black[q], white[q] = (w - u) / 2, -(u + w) / 2
    return DiamondForm(black, white)


def random_closed(cx, basis, hb, rng):
    from dqs import canonical_bases, d_function

    f = rng.normal(size=cx.nv) + 1j * rng.normal(size=cx.nv)
    omega = d_function(cx, f)
    for k in range(basis.g):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        omega = omega + c[0] * hb.omega_black[k] + c[1] * hb.omega_white[k] \
            + c[2] * hb.omega_black[k].conjugate() + c[3] * hb.omega_white[k].conjugate()
    return omega


class TestBasisConstruction:
    def test_cube_empty(self, cube):
        basis = homology_basis(cube)
        assert basis.g == 0
        assert basis.intersection.shape == (0, 0)

    def test_torus_standard(self, torus44):
        basis = standard_torus_basis(torus44, 4, 4)
        assert basis.g == 1
        assert basis.intersection.tolist() == [[0, 1], [-1, 0]]
        assert cycle_is_closed_walk(torus44, basis.a[0])
        assert cycle_is_closed_walk(torus44, basis.b[0])

    def test_torus_generic(self, torus44):
        basis = homology_basis(torus44)
        assert basis.intersection.tolist() == [[0, 1], [-1, 0]]
        for c in basis.all_cycles():
            assert cycle_is_closed_walk(torus44, c)

    def test_genus3(self, cube_cover):
        total, _, _ = cube_cover
        basis = homology_basis(total)
        assert basis.g == 3
        J = np.block([[np.zeros((3, 3), int), np.eye(3, dtype=int)],
                      [-np.eye(3, dtype=int), np.zeros((3, 3), int)]])
        assert np.array_equal(basis.intersection, J)
        assert np.array_equal(homology.standard_pairing(3), J)
        # recompute every crossing from scratch
        cycles = basis.all_cycles()
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert intersection_number(total, cycles[i], cycles[j]) \
                        == basis.intersection[i, j]


class TestRequireBasis:
    """The one check of a basis names its first failure: the cycle counts,
    then an open shadow, then the first entry off the standard pairing."""

    def test_constructed_bases_pass(self, cube, torus44, cube_cover):
        for cx in (cube, torus44, cube_cover[0]):
            require_basis(cx, homology_basis(cx))
        require_basis(torus44, standard_torus_basis(torus44, 4, 4))

    @pytest.mark.parametrize("case, message", [
        ("empty", "basis has 0 a-cycles and 0 b-cycles; a genus 1 surface needs 1 of each"),
        ("no-b", "basis has 1 a-cycles and 0 b-cycles"),
        ("doubled", "basis has 2 a-cycles and 2 b-cycles"),
        ("truncated", "shadow of basis cycle a1 is not closed"),
        ("b-is-a", "basis cycles a1 and b1 have intersection number 0; "
                   "a canonical basis has 1"),
        ("swapped", "basis cycles a1 and b1 have intersection number -1; "
                    "a canonical basis has 1"),
    ])
    def test_malformed_torus_bases(self, torus44, case, message):
        basis = standard_torus_basis(torus44, 4, 4)
        (a,), (b,) = basis.a, basis.b
        cycles = {"empty": ((), ()), "no-b": ((a,), ()), "doubled": ((a, a), (b, b)),
                  "truncated": ((Cycle(a.edges[:-1]),), (b,)), "b-is-a": ((a,), (a,)),
                  "swapped": ((b,), (a,))}[case]
        with pytest.raises(DqsError, match=message):
            require_basis(torus44, build_basis(torus44, *cycles))

    def test_open_shadow_of_a_later_b_cycle(self, cube_cover):
        cx = cube_cover[0]
        basis = homology_basis(cx)
        b = list(basis.b)
        b[1] = Cycle(b[1].edges[:-1])
        color = "black" if black_white(b[1]).white == basis.b_chains[1].white else "white"
        with pytest.raises(DqsError, match=f"the {color} shadow of basis cycle b2 is not closed"):
            require_basis(cx, build_basis(cx, basis.a, b))


class TestBlackWhite:
    def test_quad_face_shadows_cancel(self, torus44):
        face = Cycle(tuple((medial_edge_index(5, s), 1) for s in FACE_Q_ORDER))
        ch = black_white(face)
        assert ch.black_multiplicity(16).tolist() == [0] * 16
        assert ch.white_multiplicity(16).tolist() == [0] * 16
        # the two black edges traverse the diagonal forth and back
        assert sorted(s for (_, s) in ch.black) == [-1, 1]
        assert sorted(s for (_, s) in ch.white) == [-1, 1]

    def test_meridian_black_shadow(self, torus44):
        basis = standard_torus_basis(torus44, 4, 4)
        ch = basis.a_chains[0]
        # the horizontal cycle crosses the four bottom-row quads once each
        assert sorted(q for (q, _) in ch.black) == [0, 1, 2, 3]
        assert not unclosed_rows(torus44, step_array(chain_steps([ch])))

    def test_random_cycle_shadows_closed(self, torus46, rng):
        # random closed medial walks from the vertex-face boundaries and
        # basis cycles combined
        basis = standard_torus_basis(torus46, 4, 6)
        for rep in range(50):
            base = basis.a[0] if rep % 2 else basis.b[0]
            v = int(rng.integers(torus46.nv))
            detour = tuple((medial_edge_index(q, slot), -1)
                           for (q, slot) in torus46.stars[v])
            cyc = Cycle(base.edges + detour)
            ch = black_white(cyc)
            assert not unclosed_rows(torus46, step_array(chain_steps([ch])))

    def test_unclosed_rows_match_vertex_boundaries(self, torus46, rng):
        """Random prefixes of shadows, open or closed, against the net
        boundary at each vertex summed one step at a time."""
        def closed(chain, color):
            net = {}
            for q, s in chain:
                a, b = torus46.black_diagonal(q) if color == BLACK else torus46.white_diagonal(q)
                net[a] = net.get(a, 0) - s
                net[b] = net.get(b, 0) + s
            return not any(net.values())

        basis = standard_torus_basis(torus46, 4, 6)
        chains = []
        for _ in range(20):
            ch = basis.all_chains()[int(rng.integers(2))]
            chains.append(type(ch)(ch.black[:int(rng.integers(len(ch.black) + 1))],
                                   ch.white[:int(rng.integers(len(ch.white) + 1))]))
        # chain_steps rows: every black shadow, then every white one
        rows = [(ch.black, BLACK) for ch in chains] + [(ch.white, WHITE) for ch in chains]
        expected = [k for k, (chain, color) in enumerate(rows) if not closed(chain, color)]
        assert unclosed_rows(torus46, step_array(chain_steps(chains))) == expected
        assert expected  # some prefixes are open


class TestPeriods:
    def test_exact_forms_have_zero_periods(self, torus46, rng):
        basis = standard_torus_basis(torus46, 4, 6)
        f = rng.normal(size=torus46.nv) + 1j * rng.normal(size=torus46.nv)
        rep = periods(torus46, d_function(torus46, f), basis)
        for arr in (rep.A, rep.B, rep.A_black, rep.A_white, rep.B_black, rep.B_white):
            assert np.abs(arr).max() < 1e-12

    def test_torus_coordinate_periods(self, torus44, torus46):
        for cx, m, n, tau in ((torus44, 4, 4, 1j), (torus46, 4, 6, 0.3 + 1.2j)):
            basis = standard_torus_basis(cx, m, n)
            rep = periods(cx, torus_dz(cx, m, n, tau), basis)
            assert abs(rep.A[0] - 1) < 1e-12
            assert abs(rep.B[0] - tau) < 1e-12

    def test_shadow_average(self, torus46, rng):
        from dqs import canonical_bases

        basis = standard_torus_basis(torus46, 4, 6)
        hb = canonical_bases(torus46, basis)
        for _ in range(10):
            omega = random_closed(torus46, basis, hb, rng)
            rep = periods(torus46, omega, basis)
            assert np.abs(2 * rep.A - rep.A_black - rep.A_white).max() < 1e-10
            assert np.abs(2 * rep.B - rep.B_black - rep.B_white).max() < 1e-10

    def test_not_closed_rejected(self, torus44, rng):
        basis = standard_torus_basis(torus44, 4, 4)
        omega = DiamondForm(rng.normal(size=16), rng.normal(size=16))
        with pytest.raises(NotClosedError):
            periods(torus44, omega, basis)

    def test_reroute_invariance(self, torus46, rng):
        from dqs import canonical_bases

        basis = standard_torus_basis(torus46, 4, 6)
        hb = canonical_bases(torus46, basis)
        omega = random_closed(torus46, basis, hb, rng)
        for cyc in (basis.a[0], basis.b[0]):
            base_val = integrate_cycle(torus46, omega, cyc)
            for rep in range(3):
                v = int(rng.integers(torus46.nv))
                detour = tuple((medial_edge_index(q, slot), -1)
                               for (q, slot) in torus46.stars[v])
                rerouted = Cycle(cyc.edges + detour)
                assert abs(integrate_cycle(torus46, omega, rerouted) - base_val) < 1e-12


class TestRBI:
    def test_sphere_wedge_vanishes(self, cube, rng):
        from dqs import wedge

        basis = homology_basis(cube)
        for _ in range(10):
            f1 = rng.normal(size=cube.nv) + 1j * rng.normal(size=cube.nv)
            f2 = rng.normal(size=cube.nv) + 1j * rng.normal(size=cube.nv)
            w1, w2 = d_function(cube, f1), d_function(cube, f2)
            assert abs(wedge(cube, w1, w2).total()) < 1e-12
            assert verify_rbi(cube, w1, w2, basis) < 1e-12

    def test_random_closed_forms(self, torus44, rng):
        from dqs import canonical_bases

        basis = standard_torus_basis(torus44, 4, 4)
        hb = canonical_bases(torus44, basis)
        for _ in range(20):
            w1 = random_closed(torus44, basis, hb, rng)
            w2 = random_closed(torus44, basis, hb, rng)
            assert verify_rbi(torus44, w1, w2, basis) < 1e-9

    def test_self_pairing_imaginary(self, torus44, rng):
        from dqs import canonical_bases, wedge

        basis = standard_torus_basis(torus44, 4, 4)
        hb = canonical_bases(torus44, basis)
        omega = random_closed(torus44, basis, hb, rng)
        assert verify_rbi(torus44, omega, omega, basis) < 1e-9
        assert abs(wedge(torus44, omega, omega).total()) < 1e-10


class TestGraphPaths:
    def test_empty_path(self, torus44):
        omega = torus_dz(torus44, 4, 4, 1j)
        assert integrate_graph_path(torus44, omega, GraphPath(BLACK, ())) == 0

    def test_single_diagonal(self, torus44, rng):
        omega = DiamondForm(rng.normal(size=16) + 1j * rng.normal(size=16),
                            rng.normal(size=16) + 1j * rng.normal(size=16))
        path = GraphPath(BLACK, ((5, 1),))
        assert integrate_graph_path(torus44, omega, path) == pytest.approx(2 * omega.black[5])

    def test_path_independence_for_closed(self):
        # two routes between black vertices inside a simply connected patch
        # (forbidding one row and one column of quads cuts both handles)
        cx = gen_torus(6, 6, 0.5 + 0.9j)
        omega = torus_dz(cx, 6, 6, 0.5 + 0.9j)
        cut = {j * 6 + i for j in range(6) for i in range(6) if i == 0 or j == 0}
        p1 = graph_path(cx, BLACK, 7, 21, forbidden_quads=cut)
        p2 = graph_path(cx, BLACK, 7, 21,
                        forbidden_quads=cut | {p1.steps[1][0]})
        assert p1.steps != p2.steps
        v1 = integrate_graph_path(cx, omega, p1)
        v2 = integrate_graph_path(cx, omega, p2)
        assert abs(v1 - v2) < 1e-12


class TestLift:
    def test_lift_is_closed_walk(self, torus46):
        # lift the black shadow of a tree-cotree fundamental cycle
        basis = homology_basis(torus46)
        for cyc in basis.all_cycles():
            assert cycle_is_closed_walk(torus46, cyc)

    def test_lift_preserves_black_shadow(self, torus44):
        walk = [(0, 1), (1, -1), (2, 1), (3, -1)]  # horizontal black loop
        lifted = lift_diagonal_walk(torus44, walk, BLACK)
        ch = black_white(Cycle(lifted.edges))
        mult = ch.black_multiplicity(16)
        expected = np.zeros(16, int)
        for q, s in walk:
            expected[q] += s
        assert mult.tolist() == expected.tolist()


# ---------------------------------------------------------------------------
# incidence-driven walks against the whole-surface scans they replaced


def _scan_spanning_tree(cx, root, color, skip=()):
    """Reference BFS tree: every vertex scans the diagonals of all quads."""
    parent = {root: None}
    quads = set()
    queue = [root]
    while queue:
        nxt = []
        for u in queue:
            for q in range(cx.nq):
                if q in skip:
                    continue
                a, b = cx.black_diagonal(q) if color == BLACK else cx.white_diagonal(q)
                w = b if a == u else (a if b == u else None)
                if w is None or w in parent:
                    continue
                parent[w] = (u, q, 1 if a == u else -1)
                quads.add(q)
                nxt.append(w)
        queue = sorted(nxt)
    return parent, quads


def _scan_graph_path(cx, color, start, goal, forbidden_quads=()):
    """Reference graph_path steps over an adjacency dict built from all quads."""
    adj = {}
    for q in range(cx.nq):
        a, b = cx.black_diagonal(q) if color == BLACK else cx.white_diagonal(q)
        if q in forbidden_quads:
            continue
        adj.setdefault(a, []).append((b, q, 1))
        adj.setdefault(b, []).append((a, q, -1))
    prev = {start: None}
    queue = [start]
    while queue and goal not in prev:
        nxt = []
        for u in queue:
            for (w, q, s) in sorted(adj.get(u, ())):
                if w not in prev:
                    prev[w] = (u, q, s)
                    nxt.append(w)
        queue = nxt
    if goal not in prev:
        return None
    steps = []
    v = goal
    while prev[v] is not None:
        u, q, s = prev[v]
        steps.append((q, s))
        v = u
    return tuple(reversed(steps))


def _topology_surface(name):
    if name == "cube":
        return gen_cube()
    if name == "torus44":
        return gen_torus(4, 4, 1j)
    if name == "torus64":
        return gen_torus(6, 4, 0.3 + 1.2j)
    cover = gen_cube_double_cover()[0]
    return cover if name == "cover" else subdivide3(cover)


@pytest.mark.parametrize("name", ["cube", "torus44", "torus64", "cover", "cover-sub3"])
def test_homology_basis_matches_full_scan(name, monkeypatch):
    cx = _topology_surface(name)
    blacks = [v for v in range(cx.nv) if cx.colors[v] == BLACK]
    whites = [v for v in range(cx.nv) if cx.colors[v] == WHITE]
    tree = _spanning_tree(cx, blacks[0], BLACK)
    assert tree == _scan_spanning_tree(cx, blacks[0], BLACK)
    assert _spanning_tree(cx, whites[0], WHITE, tree[1]) \
        == _scan_spanning_tree(cx, whites[0], WHITE, tree[1])

    fast = homology_basis(cx)
    monkeypatch.setattr(homology, "_spanning_tree", _scan_spanning_tree)
    ref = homology_basis(cx)
    assert [c.edges for c in fast.all_cycles()] == [c.edges for c in ref.all_cycles()]
    assert np.array_equal(fast.intersection, ref.intersection)


@pytest.mark.parametrize("name", ["torus64", "cover"])
def test_graph_path_matches_full_scan(name):
    cx = _topology_surface(name)
    rng = np.random.default_rng(11)
    for color in (BLACK, WHITE):
        verts = [v for v in range(cx.nv) if cx.colors[v] == color]
        for start in rng.choice(verts, 3, replace=False):
            for forbidden in ((), tuple(int(q) for q in rng.choice(cx.nq, 4))):
                for goal in verts:
                    ref = _scan_graph_path(cx, color, start, goal, forbidden)
                    try:
                        got = graph_path(cx, color, start, goal, forbidden).steps
                    except DqsError:
                        got = None
                    assert got == ref, (color, start, goal, forbidden)


def test_homology_basis_work_is_linear(monkeypatch, counted_quads):
    """Operation counts, no timing: a scan of every quad per tree vertex
    reads about nv * nq quads and calls the diagonal lookups as often."""
    cx = counted_quads(gen_torus(32, 32, 0.2 + 1.1j))
    calls = [0]
    for name in ("black_diagonal", "white_diagonal"):
        def counted(self, q, original=getattr(QuadComplex, name)):
            calls[0] += 1
            return original(self, q)
        monkeypatch.setattr(QuadComplex, name, counted)
    assert homology_basis(cx).g == 1
    assert calls[0] <= cx.nq
    assert cx.quads.reads <= 64 * cx.nq


# ---------------------------------------------------------------------------
# successor lifts and product intersection matrices against the per-step
# searches and pairwise counts they replaced


def _reference_lift(cx, walk, color):
    """Reference lift_diagonal_walk: every arc step searches the edge groups."""
    if not walk:
        return Cycle(())

    def step_edge(q, d):
        if color == BLACK:
            return medial_edge_index(q, SLOT_WM if d > 0 else SLOT_WP)
        return medial_edge_index(q, SLOT_BP if d > 0 else SLOT_BM)

    edges = [step_edge(q, d) for (q, d) in walk]
    out = []
    n = len(walk)
    for i in range(n):
        out.append((edges[i], 1))
        q, d = walk[i]
        a, b = cx.black_diagonal(q) if color == BLACK else cx.white_diagonal(q)
        v = b if d > 0 else a
        pos = cx.medial_endpoints(edges[i])[1]
        target = cx.medial_endpoints(edges[(i + 1) % n])[0]
        cur = q
        guard = 0
        limit = len(incidences(cx)[v]) + 1
        while pos != target:
            slot = cx.corner_slot(cur, v)
            cur = reference_other_quad(cx, cx.corner_prev(cur, slot), v)
            slot = cx.corner_slot(cur, v)
            out.append((medial_edge_index(cur, slot), -1))
            pv = cx.corner_prev(cur, slot)
            pos = (min(v, pv), max(v, pv))
            guard += 1
            if guard > limit:
                raise SurfaceError(f"stuck connecting walk steps at vertex {v}")
    return Cycle(tuple(out))


# sign of the parallel diagonal along the canonical medial edge of each
# corner slot (+1 means b- -> b+ resp. w- -> w+), written out here so the
# reference does not read ``surface.MEDIAL_SLOT``
_REFERENCE_DIAG_SIGN = {SLOT_WM: 1, SLOT_WP: -1, SLOT_BP: 1, SLOT_BM: -1}


def _reference_black_white(cx, cycle):
    """Reference black_white: one edge at a time, the color read off the
    key vertex (a white key vertex contributes a black step)."""
    blacks, whites = [], []
    for e, s in cycle.edges:
        q, slot = divmod(e, 4)
        step = (q, s * _REFERENCE_DIAG_SIGN[slot])
        (blacks if cx.colors[cx.quads[q][slot]] == WHITE else whites).append(step)
    return tuple(blacks), tuple(whites)


def _reference_intersection_matrix(cx, cycles):
    """Reference intersection matrix: intersection_number for every ordered pair."""
    n = len(cycles)
    M = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            if i != j:
                M[i, j] = intersection_number(cx, cycles[i], cycles[j])
    return M


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except DqsError as exc:
        return type(exc), str(exc)


def _lift_surface(name):
    if name == "torus2x4":
        return gen_torus(2, 4, 0.4 + 1j)
    return _topology_surface(name)


@pytest.mark.parametrize("name", ["cube", "torus44", "torus64", "torus2x4", "cover",
                                  "cover-sub3"])
def test_homology_basis_matches_reference_lifts_and_pairs(name, monkeypatch):
    cx = _lift_surface(name)
    # back-and-forth walks along every diagonal: one arc around each end
    for color in (BLACK, WHITE):
        for q in range(cx.nq):
            for walk in ([(q, 1), (q, -1)], [(q, -1), (q, 1)]):
                assert _outcome(lift_diagonal_walk, cx, walk, color) \
                    == _outcome(_reference_lift, cx, walk, color)

    fast = _outcome(homology_basis, cx)
    monkeypatch.setattr(homology, "lift_diagonal_walk", _reference_lift)
    ref = _outcome(homology_basis, cx)
    if name == "torus2x4":
        # doubled edges: the fallback raises the same gluing error
        assert fast == ref and fast[0] is AmbiguousGluingError
        return
    cycles = fast.all_cycles()
    assert [c.edges for c in cycles] == [c.edges for c in ref.all_cycles()]
    assert [(ch.black, ch.white) for ch in fast.all_chains()] \
        == [_reference_black_white(cx, c) for c in cycles]
    M = _reference_intersection_matrix(cx, cycles)
    assert fast.intersection.dtype == M.dtype
    assert np.array_equal(fast.intersection, M)
    # reversed cycles pair with their originals
    both = cycles + [c.reversed() for c in cycles]
    assert np.array_equal(
        homology.intersection_matrix(cx, homology.shadows(both)),
        _reference_intersection_matrix(cx, both))
    # the shadows of an open prefix can cross each other; the diagonal
    # leaves that out
    for c in cycles:
        for k in range(1, min(len(c), 40)):
            pair = [Cycle(c.edges[:k]), c]
            assert np.array_equal(
                homology.intersection_matrix(cx, homology.shadows(pair)),
                _reference_intersection_matrix(cx, pair))


def test_lift_fallback_runs_on_doubled_edges():
    """torus2x4 has doubled edges: some arcs close without crossing one,
    others meet one and raise the gluing error."""
    cx = gen_torus(2, 4, 0.4 + 1j)
    assert int((cx.star_successor < 0).sum()) == 16
    lifted, raised = 0, 0
    for q in range(cx.nq):
        for color in (BLACK, WHITE):
            got = _outcome(lift_diagonal_walk, cx, [(q, 1), (q, -1)], color)
            if isinstance(got, Cycle):
                lifted += 1
            else:
                raised += 1
    assert lifted > 0 and raised > 0


def test_homology_basis_cover_work(monkeypatch):
    """Call counts, no timing: each intersection matrix takes the shadows
    of all its cycles in one pass."""
    cx = gen_cube_double_cover()[0]
    calls = {"shadows": [], "intersection_matrix": 0}

    def counting_shadows(cycles):
        calls["shadows"].append(len(cycles))
        return shadows(cycles)

    def counting_matrix(*args):
        calls["intersection_matrix"] += 1
        return intersection_matrix(*args)

    shadows, intersection_matrix = homology.shadows, homology.intersection_matrix
    monkeypatch.setattr(homology, "shadows", counting_shadows)
    monkeypatch.setattr(homology, "intersection_matrix", counting_matrix)
    basis = homology_basis(cx)
    # the fundamental cycles, then the canonical ones in build_basis
    assert calls == {"shadows": [2 * basis.g, 2 * basis.g], "intersection_matrix": 2}


def _reference_symplectic_reduce(M):
    """The numpy reduction ``_symplectic_reduce`` replaced, pivot rule and all."""
    M = M.copy()
    n = M.shape[0]
    U = np.eye(n, dtype=np.int64)

    def rowcol_op(dst, src, factor):
        M[dst, :] += factor * M[src, :]
        M[:, dst] += factor * M[:, src]
        U[dst, :] += factor * U[src, :]

    def swap(i, j):
        M[[i, j], :] = M[[j, i], :]
        M[:, [i, j]] = M[:, [j, i]]
        U[[i, j], :] = U[[j, i], :]

    for k in range(0, n, 2):
        while True:
            sub = M[k:, k:]
            nz = np.argwhere(sub != 0)
            if len(nz) == 0:
                raise DqsError("intersection matrix is degenerate")
            i, j = min(((i0 + k, j0 + k) for (i0, j0) in nz if i0 < j0),
                       key=lambda ij: (abs(M[ij[0], ij[1]]), ij))
            if i != k:
                swap(k, i)
                continue
            if j != k + 1:
                swap(k + 1, j)
                continue
            piv = M[k, k + 1]
            for t in range(k + 2, n):
                if M[k, t] != 0:
                    rowcol_op(t, k + 1, -(M[k, t] // piv))
                if M[k + 1, t] != 0:
                    rowcol_op(t, k, M[k + 1, t] // piv)
            if all(M[k, t] == 0 and M[k + 1, t] == 0 for t in range(k + 2, n)):
                break
        if M[k, k + 1] < 0:
            swap(k, k + 1)
        if M[k, k + 1] != 1:
            raise DqsError(f"intersection form pivot {M[k, k+1]} != 1; not unimodular")
    order = list(range(0, n, 2)) + list(range(1, n, 2))
    return U[order, :]


def _fundamental_matrices(surfaces, monkeypatch):
    """The intersection matrices that ``homology_basis`` reduces on the
    surfaces (none on one whose lifts meet a doubled edge first)."""
    seen = []
    reduce = homology._symplectic_reduce

    def recording(M):
        seen.append(M.copy())
        return reduce(M)

    with monkeypatch.context() as m:
        m.setattr(homology, "_symplectic_reduce", recording)
        for cx in surfaces:
            try:
                homology_basis(cx)
            except AmbiguousGluingError:
                pass
    return seen


def test_symplectic_reduce_matches_the_numpy_reduction(cube_cover, monkeypatch):
    """Random skew unimodular matrices (the standard pairing moved by random
    unimodular changes of basis) and the fundamental matrix of every shipped
    surface of positive genus give the same U."""
    rng = np.random.default_rng(19)
    matrices = []
    for _ in range(200):
        g = int(rng.integers(1, 5))
        P = np.eye(2 * g, dtype=np.int64)
        for _ in range(int(rng.integers(1, 12))):
            i, j = rng.choice(2 * g, size=2, replace=False)
            E = np.eye(2 * g, dtype=np.int64)
            E[i, j] = rng.integers(-3, 4)
            P = E @ P
            if rng.random() < 0.3:
                P[[i, j]] = P[[j, i]]
        matrices.append(P @ standard_pairing(g) @ P.T)
    shipped = [cx for _, cx in shipped_surfaces(cube_cover) if genus(cx)]
    fundamental = _fundamental_matrices(shipped + [subdivide3(cube_cover[0])], monkeypatch)
    # the tori 2x2 and 2x4 raise; the 4x4, 4x6 and one-pole tori, the cover and its subdivision
    assert [len(M) for M in fundamental] == [2, 2, 6, 2, 6]
    matrices += fundamental
    for M in matrices:
        assert np.array_equal(homology._symplectic_reduce(M), _reference_symplectic_reduce(M))
    with pytest.raises(DqsError, match="degenerate"):
        homology._symplectic_reduce(np.zeros((2, 2), dtype=int))
    with pytest.raises(DqsError, match="pivot 2 != 1"):
        homology._symplectic_reduce(2 * standard_pairing(1))


# ---------------------------------------------------------------------------
# torus bases written from the grid against the chained cycles they replaced


def _reference_torus_cycles(cx, m, n):
    """Reference standard_torus_basis cycles: the medial edges keyed by the
    bottom corners of the bottom row (the left corners of the left column),
    oriented by chaining their vertex-pair endpoints into a closed walk from
    the left (bottom) edge of cell 0."""
    def vid(i, j):
        return (j % n) * m + (i % m)

    def pair(u, v):
        return (min(u, v), max(u, v))

    def chain(edges, start):
        remaining, out, pos = list(edges), [], start
        while remaining:
            for idx, e in enumerate(remaining):
                a, b = cx.medial_endpoints(e)
                if pos in (a, b):
                    out.append((e, 1 if a == pos else -1))
                    pos = b if a == pos else a
                    del remaining[idx]
                    break
            else:
                raise AssertionError("cycle edges do not chain")
        assert pos == start, "cycle edges do not close up"
        return tuple(out)

    def keyed(q, v):
        return medial_edge_index(q, cx.corner_slot(q, v))

    a = [keyed(vid(i, 0), v) for i in range(m) for v in (vid(i, 0), vid(i + 1, 0))]
    b = [keyed(vid(0, j), v) for j in range(n) for v in (vid(0, j), vid(0, j + 1))]
    return chain(a, pair(vid(0, 0), vid(0, 1))), chain(b, pair(vid(0, 0), vid(1, 0)))


@pytest.mark.parametrize("tau", [1j, -0.27 + 0.9j])
def test_standard_torus_basis_matches_the_chained_cycles(tau):
    for m in range(2, 13, 2):
        for n in range(2, 13, 2):
            cx = gen_torus(m, n, tau)
            basis = standard_torus_basis(cx, m, n)
            a, b = _reference_torus_cycles(cx, m, n)
            assert (basis.a[0].edges, basis.b[0].edges) == (a, b), (m, n)
            assert basis.intersection.tolist() == [[0, 1], [-1, 0]]
            for cycle in (basis.a[0], basis.b[0]):
                black, white = _reference_black_white(cx, cycle)
                assert black_white(cycle) == homology.BlackWhiteChains(black, white)
