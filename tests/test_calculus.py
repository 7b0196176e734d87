import numpy as np
import pytest

from dqs import (
    BLACK,
    DiamondForm,
    check_liouville,
    cr_residuals,
    d_function,
    d_one_form,
    decompose_all,
    derivation_rule_check,
    derivatives_quad,
    dirichlet_energy,
    dual_derivatives,
    from_coefficients,
    gen_torus,
    hodge_star,
    is_holomorphic,
    laplacian,
    laplacian_matrix,
    randomize_rho,
    scalar_product,
    vertex_chart,
    wedge,
)
from dqs.calculus import hodge_star_edge_formula, multiply_vertex

from conftest import incidences


def random_form(cx, rng):
    return DiamondForm(rng.normal(size=cx.nq) + 1j * rng.normal(size=cx.nq),
                       rng.normal(size=cx.nq) + 1j * rng.normal(size=cx.nq))


def biconstant(cx, cb, cw):
    return np.where(np.asarray(cx.colors) == BLACK, cb, cw).astype(complex)


class TestDFunction:
    def test_biconstant_gives_zero(self, torus44):
        df = d_function(torus44, biconstant(torus44, 2.0, 5.0 - 1j))
        assert df.norm() == 0.0

    def test_chart_coordinates(self, torus46):
        # f equal to the normalized chart on one quad
        q = 7
        bm, wm, bp, wp = torus46.quads[q]
        f = np.zeros(torus46.nv, complex)
        f[bm], f[bp] = -1, 1
        f[wm], f[wp] = -1j * torus46.rho[q], 1j * torus46.rho[q]
        df = d_function(torus46, f)
        assert df.black[q] == pytest.approx(1)
        assert df.white[q] == pytest.approx(1j * torus46.rho[q])

    def test_quad_boundary_sums_vanish(self, torus46, rng):
        f = rng.normal(size=torus46.nv) + 1j * rng.normal(size=torus46.nv)
        d2 = d_one_form(torus46, d_function(torus46, f))
        assert np.abs(d2.quad_values).max() == 0.0

    def test_ddf_zero(self, torus46, rng):
        f = rng.normal(size=torus46.nv) + 1j * rng.normal(size=torus46.nv)
        assert d_one_form(torus46, d_function(torus46, f)).max_abs() < 1e-12


class TestDerivatives:
    def test_holomorphic_coordinate(self, torus46):
        q = 3
        bm, wm, bp, wp = torus46.quads[q]
        f = np.zeros(torus46.nv, complex)
        f[bm], f[bp] = -1, 1
        f[wm], f[wp] = -1j * torus46.rho[q], 1j * torus46.rho[q]
        p, qq = derivatives_quad(torus46, f, q)
        assert abs(p - 1) < 1e-12 and abs(qq) < 1e-12
        p, qq = derivatives_quad(torus46, np.conj(f), q)
        assert abs(p) < 1e-12 and abs(qq - 1) < 1e-12

    def test_cr_equation_iff_antiholomorphic_part_vanishes(self, torus46, rng):
        f = rng.normal(size=torus46.nv) + 1j * rng.normal(size=torus46.nv)
        for q in range(torus46.nq):
            bm, wm, bp, wp = torus46.quads[q]
            cr = f[wp] - f[wm] - 1j * torus46.rho[q] * (f[bp] - f[bm])
            _, qbar = derivatives_quad(torus46, f, q)
            # the antiholomorphic coefficient is proportional to the CR defect
            if abs(cr) < 1e-13:
                assert abs(qbar) < 1e-12
            else:
                assert abs(qbar) > 0

    def test_perturbation_is_local(self, torus44):
        f = biconstant(torus44, 1.0, 1.0)
        f[5] += 0.25
        res = cr_residuals(torus44, f)
        touched = {q for q, _ in incidences(torus44)[5]}
        for q in range(torus44.nq):
            assert (res[q] > 1e-6) == (q in touched)

    def test_is_holomorphic_biconstant(self, torus44):
        assert is_holomorphic(torus44, biconstant(torus44, 3.0, -2j)) == 0.0


class TestDecompose:
    def test_dz_and_dzbar(self, torus46):
        rho = np.asarray(torus46.rho)
        dz = DiamondForm(np.ones(torus46.nq), 1j * rho)
        p, q = decompose_all(torus46, dz)
        assert np.abs(p - 1).max() < 1e-12 and np.abs(q).max() < 1e-12
        dzbar = DiamondForm(np.ones(torus46.nq), -1j * np.conj(rho))
        p, q = decompose_all(torus46, dzbar)
        assert np.abs(p).max() < 1e-12 and np.abs(q - 1).max() < 1e-12

    def test_round_trip(self, torus46, rng):
        omega = random_form(torus46, rng)
        p, q = decompose_all(torus46, omega)
        back = from_coefficients(torus46, p, q)
        assert (back - omega).norm() < 1e-12


class TestDOneForm:
    def test_single_edge_support(self, torus44):
        from dqs.calculus import OneForm

        vals = np.zeros(torus44.n_medial_edges, complex)
        e = 4 * 5 + 1  # the [Q, w-] edge of quad 5
        vals[e] = 1.0
        d = d_one_form(torus44, OneForm(vals))
        v_key = torus44.quads[5][1]
        assert d.quad_values[5] == 1.0
        assert d.vertex_values[v_key] == -1.0
        assert abs(d.total()) == 0.0

    def test_diamond_form_closed_on_quads(self, torus46, rng):
        omega = random_form(torus46, rng)
        d = d_one_form(torus46, omega)
        assert np.abs(d.quad_values).max() == 0.0


class TestWedge:
    def test_antisymmetry(self, torus46, rng):
        omega = random_form(torus46, rng)
        assert wedge(torus46, omega, omega).max_abs() < 1e-12

    def test_dz_wedge_dzbar(self, torus44):
        # unit square quad: area of the medial parallelogram is 1
        rho = np.asarray(torus44.rho)
        dz = DiamondForm(np.ones(16), 1j * rho)
        dzbar = DiamondForm(np.ones(16), -1j * np.conj(rho))
        w = wedge(torus44, dz, dzbar)
        assert np.allclose(w.quad_values, -4j)

    def test_edge_formula_matches_coordinates(self, rng):
        # the two wedge formulas agree on random weights and values
        base = gen_torus(4, 4, 1j)
        for _ in range(100):
            cx = randomize_rho(base, rng)
            w1 = random_form(cx, rng)
            w2 = random_form(cx, rng)
            coords = wedge(cx, w1, w2)
            from dqs.calculus import wedge_quad_by_edges
            for q in (0, 7, 13):
                assert abs(coords.quad_values[q]
                           - wedge_quad_by_edges(cx, w1, w2, q)) < 1e-10


class TestHodgeStar:
    def test_square_quad_rotation(self, torus44, rng):
        omega = random_form(torus44, rng)
        star = hodge_star(torus44, omega)
        # with weight one the star swaps the diagonal values with a sign
        assert np.allclose(star.black, -omega.white)
        assert np.allclose(star.white, omega.black)

    def test_dz_eigenvector(self, torus46):
        rho = np.asarray(torus46.rho)
        dz = DiamondForm(np.ones(torus46.nq), 1j * rho)
        star = hodge_star(torus46, dz)
        assert (star - (-1j) * dz).norm() < 1e-12

    def test_star_squared(self, rng):
        cx = randomize_rho(gen_torus(4, 4, 1j), rng)
        omega = random_form(cx, rng)
        twice = hodge_star(cx, hodge_star(cx, omega))
        assert (twice + omega).norm() < 1e-12

    def test_edge_formula_agreement(self, rng):
        cx = randomize_rho(gen_torus(4, 4, 1j), rng)
        omega = random_form(cx, rng)
        star = hodge_star(cx, omega)
        for q in range(cx.nq):
            b, w = hodge_star_edge_formula(cx, omega, q)
            assert abs(b - star.black[q]) < 1e-10
            assert abs(w - star.white[q]) < 1e-10


class TestLaplacian:
    def test_biconstant_harmonic(self, torus46):
        lap = laplacian(torus46, biconstant(torus46, 4.0, -1j))
        assert np.abs(lap).max() < 1e-13

    def test_holomorphic_patch_harmonic(self):
        # extend a function by the quad equation over a simply connected
        # patch of a larger torus; interior vertices are harmonic
        cx = gen_torus(6, 6, 1j)

        def vid(i, j):
            return (j % 6) * 6 + (i % 6)

        f = np.full(cx.nv, np.nan + 0j)
        rng = np.random.default_rng(3)
        for i in range(5):
            f[vid(i, 0)] = rng.normal() + 1j * rng.normal()
        for j in range(1, 5):
            f[vid(0, j)] = rng.normal() + 1j * rng.normal()
        for j in range(4):
            for i in range(4):
                q = j * 6 + i
                bm, wm, bp, wp = cx.quads[q]
                # three corners known, the fourth from the quad equation
                known = {v for v in cx.quads[q] if not np.isnan(f[v])}
                missing = [v for v in cx.quads[q] if v not in known]
                assert missing == [vid(i + 1, j + 1)]
                if missing[0] == wp:
                    f[wp] = f[wm] + 1j * cx.rho[q] * (f[bp] - f[bm])
                elif missing[0] == bp:
                    f[bp] = f[bm] + (f[wp] - f[wm]) / (1j * cx.rho[q])
                elif missing[0] == wm:
                    f[wm] = f[wp] - 1j * cx.rho[q] * (f[bp] - f[bm])
                else:
                    f[bm] = f[bp] - (f[wp] - f[wm]) / (1j * cx.rho[q])
        f[np.isnan(f)] = 0.0
        lap = laplacian(cx, f)
        # interior vertices of the filled patch: all incident quads inside
        for j in range(1, 4):
            for i in range(1, 4):
                assert abs(lap[vid(i, j)]) < 1e-12

    def test_stencil_matches_hand_formula(self, torus44):
        # weight one: Delta f(v) = sum over incident quads of
        # (f(opposite) - f(v)) / 2
        L = laplacian_matrix(torus44)
        for v, inc in enumerate(incidences(torus44)):
            row = np.zeros(torus44.nv, complex)
            for q, slot in inc:
                opp = torus44.quads[q][(slot + 2) % 4]
                row[opp] += 0.5
                row[v] -= 0.5
            assert np.abs(L[v] - row).max() < 1e-13

    def test_liouville(self, cube, torus44, cube_cover):
        assert check_liouville(cube) == 2
        assert check_liouville(torus44) == 2
        assert check_liouville(cube_cover[0]) == 2


class TestScalarProduct:
    def test_positive_definite(self, rng):
        cx = randomize_rho(gen_torus(4, 4, 1j), rng)
        omega = random_form(cx, rng)
        val = scalar_product(cx, omega, omega)
        assert val.real > 0 and abs(val.imag) < 1e-12 * val.real
        zero = DiamondForm.zero(cx)
        assert scalar_product(cx, zero, zero) == 0

    def test_hermitian(self, rng):
        cx = randomize_rho(gen_torus(4, 4, 1j), rng)
        w1, w2 = random_form(cx, rng), random_form(cx, rng)
        assert abs(scalar_product(cx, w1, w2)
                   - np.conj(scalar_product(cx, w2, w1))) < 1e-12

    def test_single_quad_dz_value(self, torus44):
        # oracle: dz on one weight-one quad, dz wedge star(conj dz)
        # = i * dz wedge dzbar on that face = i * (-4i) = 4
        form = DiamondForm(np.zeros(16, complex), np.zeros(16, complex))
        form.black[5] = 1.0
        form.white[5] = 1j
        assert scalar_product(torus44, form, form) == pytest.approx(4.0)

    def test_dirichlet_gradient(self, rng):
        # finite differences of the energy against the Laplacian, real f
        cx = randomize_rho(gen_torus(4, 4, 1j), rng)
        f = rng.normal(size=cx.nv)
        lap = laplacian(cx, f.astype(complex))
        eps = 1e-6
        for v in (0, 5, 11):
            bump = np.zeros(cx.nv)
            bump[v] = eps
            grad = (dirichlet_energy(cx, f + bump)
                    - dirichlet_energy(cx, f - bump)) / (2 * eps)
            assert grad == pytest.approx(-2 * lap[v].real, abs=1e-5)


class TestDerivationRule:
    def test_random(self, rng):
        cx = randomize_rho(gen_torus(4, 4, 1j), rng)
        f = rng.normal(size=cx.nv) + 1j * rng.normal(size=cx.nv)
        omega = random_form(cx, rng)
        assert derivation_rule_check(cx, f, omega) < 1e-10

    def test_constant_function(self, torus46, rng):
        omega = random_form(torus46, rng)
        c = 2.5 - 1.5j
        f = np.full(torus46.nv, c)
        lhs = d_one_form(torus46, multiply_vertex(torus46, f, omega))
        dw = d_one_form(torus46, omega)
        assert np.abs(lhs.vertex_values - c * dw.vertex_values).max() < 1e-12
        assert np.abs(lhs.quad_values - c * dw.quad_values).max() < 1e-12

    def test_exact_one_form(self, torus46, rng):
        f = rng.normal(size=torus46.nv) + 1j * rng.normal(size=torus46.nv)
        f2 = rng.normal(size=torus46.nv) + 1j * rng.normal(size=torus46.nv)
        omega = d_function(torus46, f2)
        lhs = d_one_form(torus46, multiply_vertex(torus46, f, omega))
        wdg = wedge(torus46, d_function(torus46, f), omega)
        assert np.abs(lhs.quad_values - wdg.quad_values).max() < 1e-12
        assert np.abs(lhs.vertex_values - wdg.vertex_values).max() < 1e-12


class TestDualDerivatives:
    def test_chart_dependence_documented(self, torus44, rng):
        # values exist and are linear in h for a supplied chart
        chart = vertex_chart(torus44, 5)
        h = rng.normal(size=torus44.nq) + 1j * rng.normal(size=torus44.nq)
        d1, d1b = dual_derivatives(torus44, h, chart)
        d2, d2b = dual_derivatives(torus44, 2 * h, chart)
        assert abs(d2 - 2 * d1) < 1e-12
        assert abs(d2b - 2 * d1b) < 1e-12

    def test_constant_h_has_zero_derivative(self, torus44):
        chart = vertex_chart(torus44, 5)
        h = np.full(torus44.nq, 1.7 - 0.3j)
        d, db = dual_derivatives(torus44, h, chart)
        assert abs(d) < 1e-12 and abs(db) < 1e-12
