import numpy as np
import pytest

from dqs import (
    BLACK,
    AbelianDifferential,
    DiamondForm,
    abelian_basis,
    abelian_second,
    abelian_third,
    b_period_average,
    build_basis,
    canonical_bases,
    closedness_residual,
    decompose_all,
    gen_torus,
    graph_path,
    harmonic_with_periods,
    hodge_star,
    holomorphic_with_a_periods,
    homology_basis,
    integrate_cycle,
    integrate_graph_path,
    nullity_harmonic,
    nullity_holomorphic,
    period_matrices,
    periods,
    randomize_rho,
    residues,
    standard_torus_basis,
    transform_periods,
)
from dqs import differentials
from dqs.calculus import d_one_form, scalar_product
from dqs.errors import DqsError
from dqs.homology import Cycle, integrate_black_chain, integrate_white_chain
from dqs.operators import boundary, costar
from dqs.surface import genus, subdivide3

from conftest import _reference_black_white, chain_rows


@pytest.fixture(scope="module")
def t44_setup():
    cx = gen_torus(4, 4, 1j)
    basis = standard_torus_basis(cx, 4, 4)
    hb = canonical_bases(cx, basis)
    return cx, basis, hb


@pytest.fixture(scope="module")
def random_torus():
    cx = randomize_rho(gen_torus(4, 4, 1j), np.random.default_rng(77))
    basis = standard_torus_basis(cx, 4, 4)
    hb = canonical_bases(cx, basis)
    return cx, basis, hb


class TestHarmonic:
    def test_zero_targets_zero_form(self, t44_setup):
        cx, basis, _ = t44_setup
        omega = harmonic_with_periods(cx, basis, [0, 0, 0, 0])
        assert omega.norm() < 1e-12

    def test_torus_reproduces_coordinate_form(self, t44_setup):
        cx, basis, _ = t44_setup
        omega = harmonic_with_periods(cx, basis, [1, 1, 1j, 1j])
        rep = periods(cx, omega, basis)
        assert abs(rep.A_black[0] - 1) < 1e-9
        assert abs(rep.A_white[0] - 1) < 1e-9
        assert abs(rep.B_black[0] - 1j) < 1e-9
        assert abs(rep.B_white[0] - 1j) < 1e-9
        # closed and co-closed face-wise
        assert closedness_residual(cx, omega) < 1e-10
        assert closedness_residual(cx, hodge_star(cx, omega)) < 1e-10

    def test_random_targets(self, random_torus, rng):
        cx, basis, _ = random_torus
        targets = rng.normal(size=4) + 1j * rng.normal(size=4)
        omega = harmonic_with_periods(cx, basis, targets)
        rep = periods(cx, omega, basis)
        got = np.array([rep.A_black[0], rep.A_white[0], rep.B_black[0], rep.B_white[0]])
        assert np.abs(got - targets).max() < 1e-9

    def test_nullities(self, cube, torus44, cube_cover):
        assert nullity_harmonic(cube) == 0
        assert nullity_holomorphic(cube) == 0
        assert nullity_harmonic(torus44) == 4
        assert nullity_holomorphic(torus44) == 2
        total = cube_cover[0]
        assert nullity_harmonic(total) == 12
        assert nullity_holomorphic(total) == 6

    def test_harmonic_splits_into_eigenparts(self, random_torus, rng):
        # projections onto the two star eigenspaces are separately closed
        cx, basis, _ = random_torus
        targets = rng.normal(size=4) + 1j * rng.normal(size=4)
        omega = harmonic_with_periods(cx, basis, targets)
        p, q = decompose_all(cx, omega)
        from dqs.calculus import from_coefficients

        holo = from_coefficients(cx, p)
        anti = from_coefficients(cx, np.zeros(cx.nq), q)
        assert closedness_residual(cx, holo) < 1e-9
        assert closedness_residual(cx, anti) < 1e-9


def _harmonic_reference(cx, basis, targets):
    """Harmonic form values with given shadow periods, by dense least squares.

    The unknowns are the black and white values of every quad; the rows
    are closedness, co-closedness (closedness after the Hodge star) and
    the doubled a- and b-periods.  The system is real, so the real and
    imaginary parts of the targets are solved as two columns.
    """
    B = boundary(cx)
    a, b = ([_reference_black_white(cx, c) for c in part] for part in (basis.a, basis.b))
    A = np.vstack([B, costar(cx, B), chain_rows(a, cx.nq), chain_rows(b, cx.nq)])
    rhs = np.concatenate([np.zeros(2 * cx.nv), targets])
    sol, _, rank, _ = np.linalg.lstsq(A, np.column_stack([rhs.real, rhs.imag]), rcond=None)
    assert rank == A.shape[1]
    return sol[:, 0] + 1j * sol[:, 1]


@pytest.mark.parametrize("which", ["cube", "torus44", "torus86", "cover", "cover-sub3"])
def test_harmonic_matches_reference(which, cube, torus44, cube_cover, lu_record):
    """The holomorphic-basis construction agrees with the 2nq-unknown system."""
    rng = np.random.default_rng(31)
    if which == "torus44":
        cx = randomize_rho(torus44, rng)
        basis = standard_torus_basis(cx, 4, 4)
    elif which == "torus86":
        cx = randomize_rho(gen_torus(8, 6, 0.3 + 1.2j), rng)
        basis = standard_torus_basis(cx, 8, 6)
    else:
        cx = cube if which == "cube" else cube_cover[0]
        cx = randomize_rho(subdivide3(cx) if which == "cover-sub3" else cx, rng)
        basis = homology_basis(cx)
    g = basis.g
    targets = rng.normal(size=4 * g) + 1j * rng.normal(size=4 * g)
    omega = harmonic_with_periods(cx, basis, targets)
    ref = _harmonic_reference(cx, basis, targets)
    got = np.concatenate([omega.black, omega.white])
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # the dz system is dense below the crossover (every case but cover-sub3), sparse above
    dense = cx.nq < differentials.SPARSE_NQ
    assert lu_record.batches[0] == ((cx.nq, cx.nq), dense, True)
    assert lu_record.batches[1:] == ([((4 * g, 4 * g), True, True)] if g else [])
    assert lu_record.factors == (0 if dense else 1)


class TestHolomorphic:
    def test_zero_targets(self, t44_setup):
        cx, basis, _ = t44_setup
        omega = holomorphic_with_a_periods(cx, basis, [0, 0])
        assert omega.norm() < 1e-12

    def test_torus_period_i(self, t44_setup):
        cx, basis, _ = t44_setup
        omega = holomorphic_with_a_periods(cx, basis, [1, 1])
        rep = periods(cx, omega, basis)
        assert abs(rep.B[0] - 1j) < 1e-9

    def test_star_eigenvector_by_construction(self, random_torus, rng):
        cx, basis, _ = random_torus
        omega = holomorphic_with_a_periods(cx, basis, rng.normal(size=2) + 0j)
        star = hodge_star(cx, omega)
        assert (star - (-1j) * omega).norm() < 1e-12
        assert closedness_residual(cx, omega) < 1e-10

    def test_canonical_bases(self, random_torus):
        cx, basis, hb = random_torus
        g = basis.g
        # linear independence of the 2g basis forms
        vecs = np.array([np.concatenate([f.black, f.white])
                         for f in list(hb.omega_black) + list(hb.omega_white)])
        s = np.linalg.svd(vecs, compute_uv=False)
        assert int((s > 1e-9 * s.max()).sum()) == 2 * g
        # canonical set has matching shadow a-periods
        for k in range(g):
            rep = periods(cx, hb.omega[k], basis)
            assert abs(rep.A_black[k] - 1) < 1e-9
            assert abs(rep.A_white[k] - 1) < 1e-9

    def test_torus_b_periods_split(self, t44_setup):
        # each normalized half contributes i/2, summing to the modulus
        cx, basis, hb = t44_setup
        rep_b = periods(cx, hb.omega_black[0], basis)
        rep_w = periods(cx, hb.omega_white[0], basis)
        assert abs(rep_b.B[0] - 0.5j) < 1e-9
        assert abs(rep_w.B[0] - 0.5j) < 1e-9
        assert abs(rep_b.B[0] + rep_w.B[0] - 1j) < 1e-9


class TestPeriodMatrices:
    def test_torus_modulus(self, t44_setup):
        cx, basis, hb = t44_setup
        pm = period_matrices(cx, basis, hb)
        assert abs(pm.Pi[0, 0] - 1j) < 1e-9

    def test_random_genus1_structure(self, rng):
        for _ in range(5):
            cx = randomize_rho(gen_torus(4, 4, 1j), rng)
            basis = standard_torus_basis(cx, 4, 4)
            pm = period_matrices(cx, basis)
            assert np.abs(pm.Pi - pm.Pi.T).max() < 1e-10
            assert np.linalg.eigvalsh(pm.Pi.imag).min() > 0
            assert np.abs(pm.BB.T - pm.WW).max() < 1e-8

    def test_genus3_structure(self, cube_cover, rng):
        total = randomize_rho(cube_cover[0], rng)
        basis = homology_basis(total)
        pm = period_matrices(total, basis)
        assert pm.Pi.shape == (3, 3)
        assert np.abs(pm.Pi - pm.Pi.T).max() < 1e-8
        assert np.linalg.eigvalsh((pm.Pi_full.imag + pm.Pi_full.imag.T) / 2).min() > 0


class TestTransformPeriods:
    def test_identity(self, random_torus):
        cx, basis, hb = random_torus
        pm = period_matrices(cx, basis, hb)
        out = transform_periods(pm.Pi_full, [[1]], [[0]], [[0]], [[1]])
        assert np.abs(out - pm.Pi_full).max() < 1e-12

    def test_s_transform_fixed_point(self, t44_setup):
        cx, basis, hb = t44_setup
        pm = period_matrices(cx, basis, hb)
        out = transform_periods(pm.Pi_full, [[0]], [[1]], [[-1]], [[0]])
        assert np.abs(out + np.linalg.inv(pm.Pi_full)).max() < 1e-9
        assert np.abs(out - pm.Pi_full).max() < 1e-9  # diag(i, i) is fixed

    def test_agreement_with_recomputation(self, random_torus):
        # (a', b') = (b, -a) recomputed from scratch
        cx, basis, hb = random_torus
        pm = period_matrices(cx, basis, hb)
        basis2 = build_basis(cx, (basis.b[0],), (basis.a[0].reversed(),))
        assert basis2.intersection.tolist() == [[0, 1], [-1, 0]]
        pm2 = period_matrices(cx, basis2)
        out = transform_periods(pm.Pi_full, [[0]], [[1]], [[-1]], [[0]])
        assert np.abs(out - pm2.Pi_full).max() < 1e-9

    def test_shear_agreement(self, random_torus):
        # (a', b') = (a, a + b): b' as a chain concatenation
        cx, basis, hb = random_torus
        pm = period_matrices(cx, basis, hb)
        chain = Cycle(basis.a[0].edges + basis.b[0].edges)
        basis2 = build_basis(cx, (basis.a[0],), (chain,))
        assert basis2.intersection.tolist() == [[0, 1], [-1, 0]]
        pm2 = period_matrices(cx, basis2)
        out = transform_periods(pm.Pi_full, [[1]], [[0]], [[1]], [[1]])
        assert np.abs(out - pm2.Pi_full).max() < 1e-9

    def test_non_symplectic_rejected(self, random_torus):
        cx, basis, hb = random_torus
        pm = period_matrices(cx, basis, hb)
        with pytest.raises(DqsError):
            transform_periods(pm.Pi_full, [[2]], [[0]], [[0]], [[1]])


class TestResidues:
    def test_closed_form_no_residues(self, t44_setup):
        cx, basis, hb = t44_setup
        res = residues(cx, hb.omega[0])
        assert np.abs(res).max() < 1e-12

    def test_color_sums_vanish(self, random_torus, rng):
        cx, _, _ = random_torus
        omega = DiamondForm(rng.normal(size=16) + 1j * rng.normal(size=16),
                            rng.normal(size=16) + 1j * rng.normal(size=16))
        res = residues(cx, omega)
        blacks = [v for v in range(cx.nv) if cx.colors[v] == 0]
        whites = [v for v in range(cx.nv) if cx.colors[v] == 1]
        assert abs(res[blacks].sum()) < 1e-12
        assert abs(res[whites].sum()) < 1e-12


class TestAbelianThird:
    def test_residues_and_normalization(self, random_torus):
        cx, basis, _ = random_torus
        w3 = abelian_third(cx, basis, 5, 7)
        res = residues(cx, w3.form)
        assert abs(res[5] - 1) < 1e-10
        assert abs(res[7] + 1) < 1e-10
        assert np.abs(np.delete(res, [5, 7])).max() < 1e-10
        for cyc in basis.a:
            black, white = _reference_black_white(cx, cyc)
            assert abs(2 * integrate_black_chain(cx, w3.form, black)) < 1e-10
            assert abs(2 * integrate_white_chain(cx, w3.form, white)) < 1e-10

    def test_mixed_colors_rejected(self, random_torus):
        cx, basis, _ = random_torus
        with pytest.raises(DqsError):
            abelian_third(cx, basis, 5, 6)

    def test_difference_is_holomorphic(self, random_torus):
        # two residue solutions with different normalizations differ by a
        # closed pure-dz form
        cx, basis, hb = random_torus
        w3 = abelian_third(cx, basis, 5, 7)
        other = w3.form + hb.omega[0]
        delta = other - w3.form
        assert closedness_residual(cx, delta) < 1e-10
        star = hodge_star(cx, delta)
        assert (star - (-1j) * delta).norm() < 1e-12

    def test_b_period_law(self, t44_setup, random_torus):
        for cx, basis, hb in (t44_setup, random_torus):
            v, v2 = 5, 7
            w3 = abelian_third(cx, basis, v, v2)
            forbidden = {j * 4 + i for j in range(4) for i in range(4)
                         if i == 0 or j == 0}
            r_path = graph_path(cx, BLACK, v2, v, forbidden_quads=forbidden)
            lhs = b_period_average(cx, w3.form, basis)[0]
            rhs = 2j * np.pi * integrate_graph_path(cx, hb.omega[0], r_path)
            assert abs(lhs - rhs) < 1e-8


class TestAbelianSecond:
    def test_residues_vanish(self, random_torus):
        cx, basis, _ = random_torus
        w2 = abelian_second(cx, basis, 5)
        assert np.abs(residues(cx, w2.form)).max() < 1e-10
        assert w2.dzbar_defect[5] == pytest.approx(
            -np.pi / (2 * cx.rho[5].real))

    def test_a_periods_vanish(self, random_torus):
        cx, basis, _ = random_torus
        w2 = abelian_second(cx, basis, 5)
        for cyc in basis.a:
            black, white = _reference_black_white(cx, cyc)
            assert abs(2 * integrate_black_chain(cx, w2.form, black)) < 1e-10
            assert abs(2 * integrate_white_chain(cx, w2.form, white)) < 1e-10

    def test_symmetry_alpha_beta(self, random_torus):
        cx, basis, _ = random_torus
        wa = abelian_second(cx, basis, 3)
        wb = abelian_second(cx, basis, 12)
        pa, _ = decompose_all(cx, wa.form)
        pb, _ = decompose_all(cx, wb.form)
        assert abs(pa[12] - pb[3]) < 1e-9

    def test_b_period_law(self, random_torus):
        cx, basis, hb = random_torus
        w2 = abelian_second(cx, basis, 6)
        p, _ = decompose_all(cx, hb.omega[0])
        lhs = integrate_cycle(cx, w2.form, basis.b[0])
        assert abs(lhs - 2j * np.pi * p[6]) < 1e-8


class TestAbelianBasis:
    def test_torus_family_counts_and_rank(self, t44_setup):
        cx, basis, hb = t44_setup
        fam = abelian_basis(cx, basis, 0, 1)
        assert len(fam) == 2 * 1 + 16 + (16 - 2) == 32 == 2 * cx.nq
        vecs = np.array([np.concatenate([f.form.black, f.form.white]) for f in fam])
        s = np.linalg.svd(vecs, compute_uv=False)
        assert int((s > 1e-9 * s.max()).sum()) == 2 * cx.nq

    def test_cube_family_rank(self, cube):
        basis = homology_basis(cube)
        w0 = next(v for v in range(cube.nv) if cube.colors[v] == 1)
        fam = abelian_basis(cube, basis, 0, w0)
        assert len(fam) == 0 + 6 + 6 == 12
        vecs = np.array([np.concatenate([f.form.black, f.form.white]) for f in fam])
        s = np.linalg.svd(vecs, compute_uv=False)
        assert int((s > 1e-9 * s.max()).sum()) == 12

    @pytest.mark.parametrize("which", ["torus44", "cover", "torus12"])
    def test_one_factorization_matches_per_form_solves(self, which, cube_cover, monkeypatch,
                                                       lu_record):
        """First-, second- and third-kind forms are columns of one solve, below and above
        the crossover."""
        rng = np.random.default_rng(23)
        if which == "cover":
            cx = randomize_rho(cube_cover[0], rng)
            basis = homology_basis(cx)
        else:
            m = 4 if which == "torus44" else 12
            cx = randomize_rho(gen_torus(m, m, 0.3 + 1.2j), rng)
            basis = standard_torus_basis(cx, m, m)
        b0 = 0 if cx.colors[0] == BLACK else 1
        w0 = next(v for v in range(cx.nv) if cx.colors[v] != BLACK)
        fam = abelian_basis(cx, basis, b0, w0)
        dense = cx.nq < differentials.SPARSE_NQ
        assert lu_record.batches == [((cx.nq, cx.nq), dense, True)]
        assert lu_record.factors == (0 if dense else 1)
        monkeypatch.undo()
        hb = canonical_bases(cx, basis)
        refs = [AbelianDifferential(w, "first") for pair in zip(hb.omega_black, hb.omega_white)
                for w in pair]
        refs += [abelian_second(cx, basis, q) for q in range(cx.nq)]
        refs += [abelian_third(cx, basis, b0 if cx.colors[v] == BLACK else w0, v)
                 for v in range(cx.nv) if v not in (b0, w0)]
        assert [f.kind for f in fam] == [r.kind for r in refs]
        assert [f.kind for f in fam[:2 * basis.g]] == ["first"] * 2 * basis.g
        for got, ref in zip(fam, refs):
            assert got.prescribed_residues == ref.prescribed_residues
            assert got.dzbar_defect == ref.dzbar_defect
            ref_values = np.concatenate([ref.form.black, ref.form.white])
            err = np.abs(np.concatenate([got.form.black, got.form.white]) - ref_values).max()
            assert err <= 1e-12 * np.abs(ref_values).max()

    def test_out_of_range_ids_are_clean_errors(self, t44_setup):
        cx, basis, _ = t44_setup
        for b0, w0 in ((-1, 1), (0, cx.nv + 5), (10 ** 30, 1)):
            with pytest.raises(DqsError, match="vertex id .* out of range"):
                abelian_basis(cx, basis, b0, w0)
        # the batch solve checks its ids before converting them to indices
        with pytest.raises(DqsError, match="quad id .* out of range"):
            differentials._dz_solve(cx, basis, double_quads=[2, 10 ** 30])
        with pytest.raises(DqsError, match="vertex id .* out of range"):
            differentials._dz_solve(cx, basis, pole_pairs=[(0, 2), (-1, 0)])

    def test_expansion_of_random_form(self, random_torus, rng):
        cx, basis, hb = random_torus
        fam = abelian_basis(cx, basis, 0, 1)
        vecs = np.array([np.concatenate([f.form.black, f.form.white])
                         for f in fam]).T
        target = rng.normal(size=2 * cx.nq) + 1j * rng.normal(size=2 * cx.nq)
        coef, res, *_ = np.linalg.lstsq(vecs, target, rcond=None)
        assert np.abs(vecs @ coef - target).max() < 1e-8


class TestHolomorphicPeriodInequality:
    def test_negative_imaginary_pairing(self, random_torus):
        # for nonzero holomorphic forms the shadow period pairing has
        # negative imaginary part
        cx, basis, hb = random_torus
        for omega in list(hb.omega_black) + list(hb.omega_white) + list(hb.omega):
            rep = periods(cx, omega, basis)
            val = np.sum(rep.A_black * np.conj(rep.B_white)
                         + rep.A_white * np.conj(rep.B_black))
            assert val.imag < 0


def test_one_sparse_dz_system_answers_two_batches(lu_record):
    """Above the crossover a ``DzSystem`` keeps its SuperLU factor: a second
    batch is not factored again, and both answers equal those of separate
    ``_dz_solve`` calls, which factor once each."""
    cx = randomize_rho(gen_torus(12, 12, 0.3 + 1.2j), np.random.default_rng(29))
    basis = standard_torus_basis(cx, 12, 12)
    assert cx.nq >= differentials.SPARSE_NQ
    v = next(v for v in range(cx.nv - 1, 0, -1) if cx.colors[v] == cx.colors[0])
    system = differentials.DzSystem(cx, basis)
    first = system.coefficients(np.eye(2))
    second = system.coefficients(double_quads=[5, 9], pole_pairs=[(0, v)], what="mixed")
    assert lu_record.factors == 1 and len(lu_record.batches) == 2
    assert np.array_equal(first, differentials._dz_solve(cx, basis, np.eye(2)))
    assert np.array_equal(second, differentials._dz_solve(cx, basis, double_quads=[5, 9],
                                                          pole_pairs=[(0, v)]))
    assert lu_record.factors == 3


def test_dz_system_is_assembled_only_by_the_batch_solve():
    """Every differential, the Abelian basis and the i(D) basis route solve
    through ``differentials._dz_solve``; nothing else makes a ``DzSystem``."""
    import ast
    from pathlib import Path

    callers = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "dqs").glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and "DzSystem" in (
                            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                        callers.append(f"{path.stem}.{fn.name}")
    assert callers == ["differentials._dz_solve"]
