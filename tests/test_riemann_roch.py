import numpy as np
import pytest

from dqs import (
    BLACK,
    WHITE,
    Divisor,
    abelian_second,
    abelian_third,
    canonical_bases,
    check_riemann_roch,
    cr_residuals,
    decompose_all,
    degree,
    function_divisor,
    gen_one_pole_surface,
    gen_torus,
    genus,
    homology_basis,
    i_dim,
    i_dim_basis_route,
    l_dim,
    randomize_rho,
    standard_torus_basis,
    torus_pole_test,
    torus_single_pole_search,
    validate,
)
from dqs import differentials
from dqs.errors import DqsError
from dqs.operators import boundary, compose, dz, nullity
from dqs.riemann_roch import i_system, is_degenerate_divisor
from dqs.selftest import _admissible_divisors_upto2, _random_admissible


class TestDegree:
    def test_empty(self):
        assert degree(Divisor({}, {})) == 0

    def test_double_value_counts_once(self):
        assert degree(Divisor({}, {3: 2})) == 1
        assert degree(Divisor({}, {3: -2})) == -1

    def test_mixed(self):
        assert degree(Divisor({0: -1, 4: -1}, {2: -2})) == -3

    def test_range_enforced(self):
        with pytest.raises(DqsError):
            Divisor({0: 2}, {})
        with pytest.raises(DqsError):
            Divisor({}, {0: 3})


class TestFunctionDivisor:
    def test_biconstant_degenerate(self, torus44):
        f = np.where(np.asarray(torus44.colors) == 0, 2.0, 3.0).astype(complex)
        d = function_divisor(torus44, f)
        assert is_degenerate_divisor(torus44, d)
        assert all(c == 2 for c in d.quad_coeffs.values())

    def test_one_pole_function(self, torus44):
        cx, f = gen_one_pole_surface(torus44, 10, 1 + 0.5j, 0.8)
        d = function_divisor(cx, f)
        poles = [q for q, c in d.quad_coeffs.items() if c == -1]
        assert poles == [10]
        # all vertices outside the gadget are zeros
        zeros = {v for v, c in d.vertex_coeffs.items() if c == 1}
        assert zeros == set(range(cx.nv - 4))

    def test_holomorphic_patch_no_poles(self, torus44, rng):
        f = rng.normal(size=torus44.nv) + 1j * rng.normal(size=torus44.nv)
        d = function_divisor(torus44, f)
        # a generic f has poles everywhere; each flagged quad really
        # violates the quad equation
        res = cr_residuals(torus44, f)
        for q, c in d.quad_coeffs.items():
            if c == -1:
                assert res[q] > 1e-10


class TestDimensions:
    def test_sphere_trivial_divisor(self, cube):
        assert l_dim(cube, Divisor({}, {})) == 2
        assert i_dim(cube, Divisor({}, {})) == 0

    def test_torus_trivial_divisor(self, torus44):
        assert l_dim(torus44, Divisor({}, {})) == 2
        assert i_dim(torus44, Divisor({}, {})) == 2

    def test_double_value_forced(self, torus44):
        # requiring a double value keeps only the biconstants
        d = Divisor({}, {5: -2})
        assert l_dim(torus44, d) == 2
        # allowing a double pole adds one dimension to the forms
        assert i_dim(torus44, d) == 3

    def test_required_zero(self, torus44):
        assert l_dim(torus44, Divisor({0: -1}, {})) == 1

    def test_two_same_color_poles_forms(self, torus44):
        assert i_dim(torus44, Divisor({0: -1, 10: -1}, {})) == 3

    def test_non_admissible_rejected(self, torus44):
        with pytest.raises(DqsError):
            l_dim(torus44, Divisor({0: 1}, {}))
        with pytest.raises(DqsError):
            i_dim(torus44, Divisor({}, {0: 2}))


def _route_surface(which, cube_cover):
    """The genus-3 cover (dense solves) or a 12^2 torus (sparse solves), weights drawn."""
    rng = np.random.default_rng(17)
    if which == "cover":
        cx = randomize_rho(cube_cover[0], rng)
        return cx, homology_basis(cx)
    cx = randomize_rho(gen_torus(12, 12, 0.3 + 1.2j), rng)
    return cx, standard_torus_basis(cx, 12, 12)


def _i_dim_per_column(cx, basis, d, hb):
    """i(D) by the spanning family, one public solve per differential."""
    forms = [w for pair in zip(hb.omega_black, hb.omega_white) for w in pair]
    forms += [abelian_second(cx, basis, q).form
              for q, c in sorted(d.quad_coeffs.items()) if c == -2]
    for color in (BLACK, WHITE):
        group = sorted(v for v, c in d.vertex_coeffs.items()
                       if c == -1 and cx.colors[v] == color)
        forms += [abelian_third(cx, basis, group[0], v).form for v in group[1:]]
    zeros = sorted(q for q, c in d.quad_coeffs.items() if c == 1)
    M = np.array([decompose_all(cx, f)[0][zeros] for f in forms], dtype=complex)
    return nullity(M.reshape(len(forms), len(zeros)).T)


class TestRiemannRoch:
    def test_trivial_divisor_identity(self, cube, torus44, cube_cover):
        for cx in (cube, torus44, cube_cover[0]):
            rep = check_riemann_roch(cx, Divisor({}, {}))
            assert rep.l_value == 2
            assert rep.residual == 0

    def test_exhaustive_small_torus(self):
        t24 = gen_torus(2, 4, 1j)
        divisors = _admissible_divisors_upto2(t24)
        assert len(divisors) > 250
        for d in divisors:
            assert check_riemann_roch(t24, d).residual == 0

    def test_random_genus3(self, cube_cover, rng):
        total = cube_cover[0]
        for _ in range(15):
            d = _random_admissible(total, rng)
            assert check_riemann_roch(total, d).residual == 0

    def test_cross_check_matrix_route(self, torus44, rng):
        basis = standard_torus_basis(torus44, 4, 4)
        for _ in range(10):
            d = _random_admissible(torus44, rng, max_terms=3)
            assert i_dim(torus44, d) == i_dim_basis_route(torus44, basis, d)

    @pytest.mark.parametrize("which", ["cover", "torus12"])
    def test_basis_route_factors_once(self, which, cube_cover, monkeypatch, lu_record):
        """One factorization per call, below (cover) and above (12^2 torus) the
        sparse crossover."""
        cx, basis = _route_surface(which, cube_cover)
        black = [v for v in range(cx.nv) if cx.colors[v] == BLACK][:3]
        white = [v for v in range(cx.nv) if cx.colors[v] == WHITE][:2]
        d = Divisor({v: -1 for v in black + white}, {5: -2, 9: -2, 1: 1, 40: 1, 70: 1})
        got = i_dim_basis_route(cx, basis, d)
        dense = cx.nq < differentials.SPARSE_NQ
        assert lu_record.batches == [((cx.nq, cx.nq), dense, True)]
        assert lu_record.factors == (0 if dense else 1)
        monkeypatch.undo()
        assert got == _i_dim_per_column(cx, basis, d, canonical_bases(cx, basis))

    def test_basis_route_matches_per_column_reference(self, cube_cover):
        """Every divisor of up to two terms on the 2x4 torus, and random
        divisors on the genus-3 cover and on a 12^2 torus."""
        rng = np.random.default_rng(31)
        t24 = gen_torus(2, 4, 1j)
        cases = [(t24, standard_torus_basis(t24, 2, 4), _admissible_divisors_upto2(t24))]
        assert len(cases[0][2]) == 293
        for which in ("cover", "torus12"):
            cx, basis = _route_surface(which, cube_cover)
            cases.append((cx, basis, [_random_admissible(cx, rng) for _ in range(50)]))
        for cx, basis, divisors in cases:
            hb = canonical_bases(cx, basis)
            for d in divisors:
                assert i_dim_basis_route(cx, basis, d) == _i_dim_per_column(cx, basis, d, hb), d

    def test_i_system_scales_only_the_dzbar_columns(self, cube_cover, rng):
        # the earlier assembly scaled every column of the conjugate
        # boundary and then kept the dzbar quads; the rows stay bit-identical
        total = randomize_rho(cube_cover[0], rng)
        B = boundary(total)
        for d in [Divisor({}, {}), Divisor({}, {5: -2, 1: -2, 40: 1})] \
                + [_random_admissible(total, rng) for _ in range(5)]:
            A, n = i_system(total, d)
            dzbar = sorted(q for q, c in d.quad_coeffs.items() if c == -2)
            cols = np.hstack([dz(total, B),
                              compose(B, 1.0, -1j * np.conj(total.rho))[:, dzbar]])
            residue_free = [v for v in range(total.nv) if d.vertex_coeffs.get(v) != -1]
            zero = sorted(q for q, c in d.quad_coeffs.items() if c == 1)
            assert n == cols.shape[1]
            assert np.array_equal(A, np.vstack([cols[residue_free],
                                                np.eye(total.nq, n)[zero]]))

    def test_l_kernel_contains_biconstants(self, torus44):
        # divisors without required zeros always admit both constants
        assert l_dim(torus44, Divisor({}, {3: 1, 7: -2})) >= 2


class TestTorusPoles:
    def test_parallel_diagonals_pair(self, torus44):
        classes = {q: (q % 4 + q // 4) % 2 for q in range(16)}
        assert torus_pole_test(torus44, 0, 2, classes) is True
        assert torus_pole_test(torus44, 5, 10, classes) is True

    def test_perpendicular_diagonals_pair(self, torus44):
        classes = {q: (q % 4 + q // 4) % 2 for q in range(16)}
        assert torus_pole_test(torus44, 0, 1, classes) is False

    def test_no_single_pole(self, torus44):
        assert torus_single_pole_search(torus44) == []

    def test_requires_genus_one(self, cube):
        with pytest.raises(DqsError):
            torus_pole_test(cube, 0, 1)


class TestOnePoleSurface:
    def test_genus_preserved(self, torus44, cube):
        for base in (torus44, cube):
            cx, _ = gen_one_pole_surface(base, 2, 1.0, 1.0)
            assert genus(cx) == genus(base)
            assert validate(cx).ok

    def test_counts(self, torus44):
        cx, _ = gen_one_pole_surface(torus44, 2, 1.0, 2.0)
        assert cx.nv == torus44.nv + 4
        assert cx.nq == torus44.nq + 4

    def test_single_pole_found_by_search(self, torus44):
        cx, _ = gen_one_pole_surface(torus44, 10, 1 + 1j, 0.5)
        assert 10 in torus_single_pole_search(cx)

    def test_cr_holds_at_ring(self, torus44):
        from dqs import d_function

        cx, f = gen_one_pole_surface(torus44, 10, 2.0, 0.3 + 0.7j)
        df = d_function(cx, f)
        for q in range(16, 20):
            defect = df.white[q] - 1j * cx.rho[q] * df.black[q]
            assert abs(defect) < 1e-14

    def test_common_zero_of_canonical_forms(self, torus44):
        cx, _ = gen_one_pole_surface(torus44, 10, 1 + 0.5j, 0.8)
        basis = standard_torus_basis(cx, 4, 4)
        hb = canonical_bases(cx, basis)
        for omega in hb.omega:
            p, _ = decompose_all(cx, omega)
            assert abs(p[10]) < 1e-9

    def test_bad_weights_rejected(self, torus44):
        with pytest.raises(DqsError):
            gen_one_pole_surface(torus44, 0, -1.0, 1.0)


def test_every_kernel_count_uses_the_one_nullity_cutoff():
    """The cutoff is one constant, operators.NULLITY_CUTOFF, which only nullity
    reads; no kernel count, and not nullity itself, takes its own."""
    import inspect

    from dqs import check_liouville, nullity_harmonic, nullity_holomorphic
    from dqs.operators import NULLITY_CUTOFF

    for f in (nullity_harmonic, nullity_holomorphic, check_liouville, l_dim, i_dim,
              i_dim_basis_route, nullity):
        assert "cutoff" not in inspect.signature(f).parameters, f.__name__
    assert nullity(np.diag([1.0, NULLITY_CUTOFF, 2 * NULLITY_CUTOFF])) == 1
