"""Period functionals as row products, against the per-edge sums they replaced.

Every integral of a diamond form (periods, shadow periods, graph paths,
the Abel-Jacobi maps) is a product of rows from ``operators.step_triplets``
with the stacked (black, white) values.  The references below are the
per-edge and per-form sums the library used before, kept here as oracles.
"""

import numpy as np
import pytest

from dqs import (
    BLACK,
    WHITE,
    DiamondForm,
    abel_jacobi_black,
    abel_jacobi_quad,
    abel_jacobi_white,
    b_period_average,
    canonical_bases,
    gen_cube,
    gen_torus,
    graph_path,
    homology_basis,
    integrate_cycle,
    integrate_graph_path,
    jacobians,
    period_matrices,
    periods,
    randomize_rho,
    standard_torus_basis,
)
from dqs import homology
from dqs.coverings import gen_cube_double_cover
from dqs.homology import (
    Cycle,
    GraphPath,
    integrate_black_chain,
    integrate_white_chain,
)
from dqs.jacobian import _medial_bfs_path
from dqs.operators import dense_matrix, medial_steps, step_triplets
from dqs.surface import SLOT_BM, SLOT_BP, SLOT_WM, SLOT_WP, medial_edge_index, subdivide3

from conftest import _reference_black_white, chain_rows

# ---------------------------------------------------------------------------
# references: the per-edge sums and Abel-Jacobi closures of the earlier code


def _ref_cycle(cx, omega, cycle):
    if isinstance(omega, DiamondForm):
        omega = omega.expand(cx)
    return complex(sum(s * omega.values[e] for (e, s) in cycle.edges))


def _ref_black(cx, omega, chain):
    return complex(sum(s * omega.black[q] for (q, s) in chain))


def _ref_white(cx, omega, chain):
    return complex(sum(s * omega.white[q] for (q, s) in chain))


def _ref_graph_path(cx, omega, path):
    chain = _ref_black if path.color == BLACK else _ref_white
    return 2.0 * chain(cx, omega, path.steps)


def _ref_periods(cx, omega, basis):
    a, b = ([_reference_black_white(cx, c) for c in part] for part in (basis.a, basis.b))
    return (np.array([_ref_cycle(cx, omega, c) for c in basis.a]),
            np.array([_ref_cycle(cx, omega, c) for c in basis.b]),
            np.array([2.0 * _ref_black(cx, omega, black) for black, _ in a]),
            np.array([2.0 * _ref_white(cx, omega, white) for _, white in a]),
            np.array([2.0 * _ref_black(cx, omega, black) for black, _ in b]),
            np.array([2.0 * _ref_white(cx, omega, white) for _, white in b]))


def _ref_half_diagonal(cx, omega, q, toward):
    t = cx.quads[q]
    if toward == t[SLOT_BP]:
        return complex(omega.black[q])
    if toward == t[SLOT_BM]:
        return complex(-omega.black[q])
    if toward == t[SLOT_WP]:
        return complex(omega.white[q])
    return complex(-omega.white[q])


def _ref_abel_jacobi(cx, hb, base_quad, path):
    anchor = cx.quads[base_quad][SLOT_BM if path.color == BLACK else SLOT_WM]
    return np.array([_ref_half_diagonal(cx, f, base_quad, anchor)
                     + _ref_graph_path(cx, f, path) for f in hb.omega], dtype=complex)


def _ref_medial_vertex_edges(cx, q):
    out = {}
    t = cx.quads[q]
    for slot, v in enumerate(t):
        nxt = cx.corner_next(q, slot)
        pair = (min(v, nxt), max(v, nxt))
        out[pair] = ((medial_edge_index(q, slot), 1),
                     (medial_edge_index(q, t.index(nxt)), -1))
    return out


def _ref_abel_jacobi_quad(cx, hb, q1, q2):
    t1, t2 = cx.quads[q1], cx.quads[q2]
    b1, w1 = t1[SLOT_BM], t1[SLOT_WM]
    b2, w2 = t2[SLOT_BM], t2[SLOT_WM]
    x1 = (min(b1, w1), max(b1, w1))
    x2 = (min(b2, w2), max(b2, w2))
    edges = sorted({cx.medial_endpoints(e)[1] for e in range(cx.n_medial_edges)})
    path = _medial_bfs_path(cx, edges.index(x1), edges.index(x2))

    def entry_half(f, q, pair):
        vals = f.expand(cx).values
        return 0.5 * sum(s * vals[e] for (e, s) in _ref_medial_vertex_edges(cx, q)[pair])

    def total(f):
        vals = f.expand(cx).values
        mid = sum(s * vals[e] for (e, s) in path)
        return entry_half(f, q1, x1) + mid - entry_half(f, q2, x2)

    black_chain, white_chain = _reference_black_white(cx, Cycle(tuple(path)))

    def shadow(f, color):
        if color == BLACK:
            mid = 2.0 * _ref_black(cx, f, black_chain)
            return _ref_half_diagonal(cx, f, q1, b1) + mid - _ref_half_diagonal(cx, f, q2, b2)
        mid = 2.0 * _ref_white(cx, f, white_chain)
        return _ref_half_diagonal(cx, f, q1, w1) + mid - _ref_half_diagonal(cx, f, q2, w2)

    return (np.array([total(f) for f in hb.omega], dtype=complex),
            np.array([shadow(f, BLACK) for f in hb.omega], dtype=complex),
            np.array([shadow(f, WHITE) for f in hb.omega], dtype=complex))


# ---------------------------------------------------------------------------


def _close(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert np.abs(new - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0)


_COVER = gen_cube_double_cover()[0]
_SURFACES = {
    "cube": gen_cube(),
    "torus44": gen_torus(4, 4, 1j),
    "torus64": gen_torus(6, 4, 0.3 + 1.1j),
    "cover": _COVER,
    "cover-subdivided": subdivide3(_COVER),
}


@pytest.fixture(scope="module", params=sorted(_SURFACES))
def weighted(request):
    """A surface of the list with random weights, its basis and canonical forms."""
    cx = randomize_rho(_SURFACES[request.param], np.random.default_rng(31))
    basis = homology_basis(cx)
    hb = canonical_bases(cx, basis)
    return cx, basis, hb


def _random_form(cx, rng):
    return DiamondForm(rng.normal(size=cx.nq) + 1j * rng.normal(size=cx.nq),
                       rng.normal(size=cx.nq) + 1j * rng.normal(size=cx.nq))


def _random_closed(hb, rng):
    """A complex combination of the canonical forms and their conjugates."""
    form = None
    for w in hb.omega_black + hb.omega_white:
        for f in (w, w.conjugate()):
            term = complex(rng.normal(), rng.normal()) * f
            form = term if form is None else form + term
    return form


class TestAgainstPerEdgeSums:
    def test_periods(self, weighted, rng):
        cx, basis, hb = weighted
        if basis.g == 0:
            omega = DiamondForm.zero(cx)
        else:
            omega = _random_closed(hb, rng)
        rep = periods(cx, omega, basis)
        new = (rep.A, rep.B, rep.A_black, rep.A_white, rep.B_black, rep.B_white)
        for got, ref in zip(new, _ref_periods(cx, omega, basis)):
            _close(got, ref.reshape(basis.g))

    def test_period_matrices(self, weighted):
        cx, basis, hb = weighted
        pm = period_matrices(cx, basis, hb)
        ref = np.array([[_ref_cycle(cx, w, bj) for w in hb.omega] for bj in basis.b],
                       dtype=complex).reshape(basis.g, basis.g)
        _close(pm.Pi, ref)

    def test_chains_cycles_and_averages(self, weighted, rng):
        cx, basis, _ = weighted
        for _ in range(3):
            omega = _random_form(cx, rng)
            for cyc in basis.all_cycles():
                black, white = _reference_black_white(cx, cyc)
                _close(integrate_cycle(cx, omega, cyc), _ref_cycle(cx, omega, cyc))
                _close(integrate_cycle(cx, omega.expand(cx), cyc), _ref_cycle(cx, omega, cyc))
                _close(integrate_black_chain(cx, omega, black), _ref_black(cx, omega, black))
                _close(integrate_white_chain(cx, omega, white), _ref_white(cx, omega, white))
            for k, cyc in enumerate(basis.b):
                black, white = _reference_black_white(cx, cyc)
                _close(b_period_average(cx, omega, basis)[k],
                       _ref_black(cx, omega, black) + _ref_white(cx, omega, white))

    def test_graph_paths(self, weighted, rng):
        cx, _, _ = weighted
        colors = np.asarray(cx.colors)
        for color in (BLACK, WHITE):
            ids = np.flatnonzero(colors == color)
            for _ in range(3):
                u, v = (int(x) for x in rng.choice(ids, 2))
                path = graph_path(cx, color, u, v)
                omega = _random_form(cx, rng)
                _close(integrate_graph_path(cx, omega, path), _ref_graph_path(cx, omega, path))

    def test_vertex_abel_jacobi(self, weighted, rng):
        cx, basis, hb = weighted
        pm = period_matrices(cx, basis, hb)
        _, jb, jw = jacobians(pm)
        colors = np.asarray(cx.colors)
        for _ in range(4):
            base = int(rng.integers(cx.nq))
            for color, fn, jac in ((BLACK, abel_jacobi_black, jb), (WHITE, abel_jacobi_white, jw)):
                target = int(rng.choice(np.flatnonzero(colors == color)))
                val = fn(cx, hb, jac, base, target)
                anchor = cx.quads[base][SLOT_BM if color == BLACK else SLOT_WM]
                ref = _ref_abel_jacobi(cx, hb, base, graph_path(cx, color, anchor, target))
                _close(val.vector, ref)
                assert val.lattice is jac

    def test_quad_abel_jacobi(self, weighted, rng):
        cx, _, hb = weighted
        for _ in range(3):
            q1, q2 = (int(q) for q in rng.integers(cx.nq, size=2))
            out = abel_jacobi_quad(cx, hb, q1, q2)
            value, black, white = _ref_abel_jacobi_quad(cx, hb, q1, q2)
            _close(out.value, value)
            _close(out.black_value, black)
            _close(out.white_value, white)


def test_periods_run_without_the_per_cycle_integrators(monkeypatch, cube_cover):
    """periods, period_matrices and the vertex Abel-Jacobi maps integrate
    every form along every row in one product, not cycle by cycle."""
    import sys

    def boom(*args, **kwargs):
        raise AssertionError("integrated one cycle at a time")

    for name in ("integrate_cycle", "integrate_black_chain", "integrate_white_chain"):
        original = getattr(homology, name)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("dqs") \
                    and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, boom)
    cx = cube_cover[0]
    basis = homology_basis(cx)
    hb = canonical_bases(cx, basis)
    rep = periods(cx, hb.omega[0], basis)
    assert abs(rep.A[0] - 1) < 1e-9
    pm = period_matrices(cx, basis, hb)
    _, jb, jw = jacobians(pm)
    abel_jacobi_black(cx, hb, jb, 0, cx.quads[5][SLOT_BP])
    abel_jacobi_white(cx, hb, jw, 0, cx.quads[5][SLOT_WP])


@pytest.mark.parametrize("name", ["cube", "torus44", "cover", "cover-subdivided"])
def test_medial_row_is_half_the_doubled_shadow_rows(name):
    """Each medial edge of a diamond form carries the value of its parallel
    diagonal, so a cycle's plain period row is exactly half the sum of its
    doubled black and white shadow rows, whatever the weights."""
    cx = _SURFACES[name]
    bases = [homology_basis(cx)]
    if name == "torus44":
        bases.append(standard_torus_basis(cx, 4, 4))
    for basis in bases:
        k = 2 * basis.g
        medial = dense_matrix((k, 2 * cx.nq),
                              step_triplets(medial_steps([c.edges for c in basis.all_cycles()]),
                                            cx.nq))
        shadows = chain_rows([_reference_black_white(cx, c) for c in basis.all_cycles()],
                             cx.nq)
        assert np.array_equal(medial, (shadows[:k] + shadows[k:]) / 2)


def test_graph_path_rejects_a_mixed_color():
    cx = gen_torus(4, 4, 1j)
    with pytest.raises(Exception, match="single color"):
        integrate_graph_path(cx, DiamondForm.zero(cx), GraphPath(2, ()))
