"""Kernel counts on the tree-reduced systems, against the dense systems they reduce.

``l_dim``, ``i_dim`` and ``nullity_holomorphic`` eliminate the pivots of
the white diagonal forest before the singular-value count.  The
references count the unreduced dense systems of ``conftest``
(``_ref_l_system``, ``_ref_i_system`` and the p dz boundary) with the
same ``nullity``.  Both counts must agree, and the reduced singular
values must keep a wide gap at the cutoff, as must those of the plain
harmonic system of ``nullity_harmonic``.
"""

import numpy as np
import pytest

from dqs import QuadComplex, differentials, gen_torus, genus, randomize_rho, riemann_roch
from dqs.coverings import gen_cube_double_cover
from dqs.operators import NULLITY_CUTOFF, nullity, root_path_sums
from dqs.riemann_roch import Divisor, i_dim, i_tree_system, l_dim, l_tree_system
from dqs.selftest import _admissible_divisors_upto2, _random_admissible, shipped_surfaces
from dqs.surface import BLACK, SLOT_WM, SLOT_WP, WHITE, spanning_forest

from conftest import _ref_boundary, _ref_dz, _ref_i_system, _ref_l_system

_COVER = gen_cube_double_cover()[0]


class _Margins:
    """Every matrix a count passes to ``nullity``, recorded by its gap:
    the largest singular value counted as zero and the smallest counted
    as non-zero, both over the largest."""

    def __init__(self):
        self.zero, self.nonzero, self.count = 0.0, 1.0, 0

    def __call__(self, A):
        s = np.linalg.svd(A, compute_uv=False) if A.size else np.zeros(0)
        if s.size and s.max() > 0:
            s = s / s.max()
            self.zero = max(self.zero, s[s <= NULLITY_CUTOFF].max(initial=0.0))
            self.nonzero = min(self.nonzero, s[s > NULLITY_CUTOFF].min(initial=1.0))
        self.count += 1
        return nullity(A)

    def check(self):
        assert self.count
        assert self.zero <= 1e-12, self.zero
        assert self.nonzero >= 1e-4, self.nonzero


@pytest.fixture
def margins(monkeypatch):
    record = _Margins()
    monkeypatch.setattr(riemann_roch, "nullity", record)
    monkeypatch.setattr(differentials, "nullity", record)
    yield record
    record.check()


def _tree_divisors(cx, rng, n):
    """n random divisors, then poles on tree quads and on white tree children."""
    out = [_random_admissible(cx, rng) for _ in range(n)]
    child, quad, _ = cx.white_forest
    for k in range(0, len(child), 4):
        out.append(Divisor({}, {int(quad[k]): 1}))
        out.append(Divisor({int(child[k]): -1}, {}))
        out.append(Divisor({int(child[k]): -1}, {int(quad[-1 - k]): 1, int(quad[k // 2]): -2}))
    return out


def _check_both(cx, divisors):
    for d in divisors:
        assert l_dim(cx, d) == nullity(_ref_l_system(cx, d)), d
        assert i_dim(cx, d) == nullity(_ref_i_system(cx, d)[0]), d


def test_every_divisor_of_the_small_torus(margins):
    t24 = gen_torus(2, 4, 1j)
    divisors = _admissible_divisors_upto2(t24)
    assert len(divisors) == 293
    _check_both(t24, divisors)


@pytest.mark.parametrize("seed", [3, 4])
def test_random_divisors_on_genus3_draws(margins, seed):
    cx = randomize_rho(_COVER, np.random.default_rng(seed))
    divisors = _tree_divisors(cx, np.random.default_rng(seed + 10), 150)
    child, quad, _ = cx.white_forest
    assert any(set(d.quad_coeffs) & set(quad.tolist()) for d in divisors)
    assert any(set(d.vertex_coeffs) & set(child.tolist()) for d in divisors)
    _check_both(cx, divisors)


def test_random_divisors_on_a_randomized_torus(margins):
    cx = randomize_rho(gen_torus(6, 6, 0.3 + 1.1j), np.random.default_rng(5))
    _check_both(cx, _tree_divisors(cx, np.random.default_rng(6), 150))


def test_dimension_counts_on_every_shipped_surface(margins):
    for name, cx in shipped_surfaces():
        dz_boundary = _ref_dz(cx, _ref_boundary(cx))
        assert differentials.nullity_holomorphic(cx) == nullity(dz_boundary), name
        assert differentials.nullity_harmonic(cx) == 4 * genus(cx), name


def test_reduced_systems_are_smaller():
    cx = randomize_rho(_COVER, np.random.default_rng(7))
    d = Divisor({}, {})
    n_children = len(cx.white_forest[0])
    assert n_children == sum(c == WHITE for c in cx.colors) - 1
    assert l_tree_system(cx, d).shape == (cx.nq - n_children, cx.nv - n_children)
    assert i_tree_system(cx, d).shape == (cx.nv - n_children, cx.nq - n_children)


def test_one_tree_reduced_matrix_serves_both_counts():
    # l(-D) and i(D) cut their systems from one cached nv x nq matrix
    cx = randomize_rho(_COVER, np.random.default_rng(11))
    child, quad, _ = cx.white_forest
    d = Divisor({int(child[0]): -1, 5: -1}, {int(quad[2]): 1, 17: 1, 40: -2})
    assert riemann_roch.check_riemann_roch(cx, d).residual == 0
    cached = [name for name, a in vars(cx).items()
              if isinstance(a, np.ndarray) and a.size == cx.nv * cx.nq]
    assert cached == ["form_columns"]


@pytest.mark.parametrize("color", [BLACK, WHITE])
def test_spanning_forest_joins_every_child_to_its_parent(color):
    for cx in (_COVER, gen_torus(4, 6, 0.3 + 1.2j)):
        child, quad, parent = spanning_forest(cx, color)
        Q = cx.quad_array
        ends = Q[quad][:, [0, 2]] if color == BLACK else Q[quad][:, [SLOT_WM, SLOT_WP]]
        up = np.where(parent >= 0, child[parent], -1)
        assert (parent < np.arange(len(child))).all()
        assert len(set(child.tolist())) == len(child)
        assert all(cx.colors[v] == color for v in child.tolist())
        roots = {v for v in range(cx.nv) if cx.colors[v] == color} - set(child.tolist())
        assert len(roots) == 1
        up = np.where(parent >= 0, up, next(iter(roots)))
        assert np.array_equal(np.sort(ends, axis=1), np.sort(np.stack([child, up], 1), axis=1))


def test_root_path_sums_add_up_every_ancestor():
    parent = np.array([-1, 0, 0, 1, -1, 3, 4, 5])
    x = np.arange(16.0).reshape(8, 2)
    expected = x.copy()
    for k in range(len(parent)):
        j = parent[k]
        while j >= 0:
            expected[k] += x[j]
            j = parent[j]
    assert np.array_equal(root_path_sums(parent, x), expected)


def test_cached_forest_and_systems_reject_writes():
    cx = randomize_rho(gen_torus(4, 4, 1j), np.random.default_rng(2))
    for a in (*cx.white_forest, cx.form_columns):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


def test_weight_draws_share_the_combinatorial_caches():
    weighted = ("rho_array", "defects", "form_columns")
    base = gen_torus(4, 6, 0.3 + 1.2j)
    for name in QuadComplex.COMBINATORIAL + weighted:
        getattr(base, name)
    draw = randomize_rho(base, np.random.default_rng(8))
    for name in QuadComplex.COMBINATORIAL:
        assert vars(draw)[name] is vars(base)[name], name
    for name in weighted:
        assert name not in vars(draw), name
    fresh = QuadComplex.build(draw.colors, draw.quads, draw.rho)
    assert np.array_equal(draw.form_columns, fresh.form_columns)
    assert draw.defects == fresh.defects
    _check_both(draw, [Divisor({}, {3: 1, 5: -2}), Divisor({2: -1}, {7: 1})])


def test_a_draw_of_an_unused_complex_builds_its_own_caches():
    # ``QuadComplex.build`` hands a new complex its quad array, and nothing else
    base = gen_torus(4, 4, 1j)
    draw = randomize_rho(base, np.random.default_rng(9))
    assert set(QuadComplex.COMBINATORIAL) & set(vars(draw)) == {"quad_array"}
    assert vars(draw)["quad_array"] is vars(base)["quad_array"]


@pytest.mark.xfail(strict=True, reason="with one weight at 1e10 the cutoff 1e-9 * s_max "
                   "counts singular values of order 1 as zero; equilibrating the "
                   "systems before the count is open work")
def test_counts_survive_one_huge_weight():
    t = gen_torus(4, 4, 1j)
    rho = list(t.rho)
    rho[0] = 1e10
    cx = QuadComplex.build(t.colors, t.quads, rho)
    d = Divisor({}, {5: 1})
    assert (l_dim(cx, d), i_dim(cx, d)) == (2, 1)
    assert differentials.nullity_holomorphic(cx) == 2
    assert differentials.nullity_harmonic(cx) == 4
