"""Operators built once per surface or basis, against the per-call assembly they replaced.

A ``QuadComplex`` caches its weights as an array and its dense vertex
boundary; a ``HomologyBasis``
caches the steps of its doubled a- and b-shadow rows, the only period
rows.  The references below assemble
everything afresh on every call, as the library did before, and every
consumer must give bit-identical systems and periods.  The work tests
count how often the shared pieces are built.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from dqs import (
    QuadComplex,
    gen_cube,
    gen_torus,
    homology_basis,
    periods,
    randomize_rho,
    standard_torus_basis,
    verify_rbi,
)
from dqs import calculus, differentials, homology, operators, selftest
from dqs.cli import main
from dqs.coverings import gen_cube_double_cover
from dqs.operators import dense_matrix, step_triplets
from dqs.riemann_roch import check_riemann_roch
from dqs.selftest import _random_admissible

from conftest import _ref_boundary, _ref_dz, _reference_black_white, chain_steps

ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# references: the per-call assembly of the earlier code


def _ref_periods(cx, omega, basis):
    """(A, B, A_black, B_black, A_white, B_white) from per-call shadow rows;
    the plain periods are half the sums of the black and white rows."""
    g = basis.g
    values = np.concatenate([omega.black, omega.white])[:, None]

    def doubled(cycles):
        chains = [_reference_black_white(cx, c) for c in cycles]
        rows = dense_matrix((2 * g, 2 * cx.nq), step_triplets(chain_steps(chains), cx.nq))
        return (rows @ values).reshape(2, g)

    (AB, AW), (BB, BW) = doubled(basis.a), doubled(basis.b)
    return np.concatenate([(AB + AW) / 2.0, (BB + BW) / 2.0, AB, BB, AW, BW])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_COVER = gen_cube_double_cover()[0]


@pytest.mark.parametrize("name", ["cube", "torus44", "cover"])
def test_periods_are_bit_identical_to_the_per_call_rows(name):
    rng = np.random.default_rng(17)
    if name == "cube":
        cx = randomize_rho(gen_cube(), rng)
        bases = [homology_basis(cx)]
    elif name == "torus44":
        cx = randomize_rho(gen_torus(4, 4, 1j), rng)
        bases = [standard_torus_basis(cx, 4, 4), homology_basis(cx)]
    else:
        cx = randomize_rho(_COVER, rng)
        bases = [homology_basis(cx)]
    for basis in bases:
        for _ in range(3):
            omega = calculus.d_function(cx, rng.normal(size=cx.nv) + 1j * rng.normal(size=cx.nv))
            rep = periods(cx, omega, basis)
            got = np.concatenate([rep.A, rep.B, rep.A_black, rep.B_black,
                                  rep.A_white, rep.B_white])
            assert _same_bits(got, _ref_periods(cx, omega, basis))


def test_cached_arrays_reject_writes():
    cx = randomize_rho(gen_torus(4, 4, 1j), np.random.default_rng(2))
    basis = standard_torus_basis(cx, 4, 4)
    arrays = [cx.quad_array, cx.rho_array, cx.boundary_matrix, cx.star_successor,
              *cx.edge_groups, *cx.vertex_groups,
              basis.a_shadow_steps, basis.b_shadow_steps]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0
    assert _same_bits(cx.boundary_matrix, _ref_boundary(cx))
    assert _same_bits(cx.rho_array, np.asarray(cx.rho))


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_riemann_roch_checks_assemble_the_boundary_once(monkeypatch):
    cx = randomize_rho(_COVER, np.random.default_rng(4))
    calls = _counting(monkeypatch, operators, "boundary_triplets")
    rng = np.random.default_rng(5)
    for _ in range(8):
        assert check_riemann_roch(cx, _random_admissible(cx, rng)).residual == 0
    assert differentials.nullity_holomorphic(cx) == 6
    assert calculus.check_liouville(cx) == 2
    assert calls == ["boundary_triplets"]


def test_bilinear_checks_build_the_period_rows_once(monkeypatch):
    cx = randomize_rho(gen_torus(4, 6, 0.3 + 1.2j), np.random.default_rng(6))
    medial = _counting(monkeypatch, homology, "medial_steps")
    passes = _counting(monkeypatch, homology, "shadow_steps")
    basis = standard_torus_basis(cx, 4, 6)  # build_basis builds the rows
    rng = np.random.default_rng(7)
    for _ in range(6):
        w1, w2 = (calculus.d_function(cx, rng.normal(size=cx.nv)) for _ in range(2))
        assert verify_rbi(cx, w1, w2, basis) < 1e-9
    assert medial == [] and passes == ["shadow_steps"]


def test_periods_on_a_large_torus_build_no_dense_boundary(monkeypatch):
    cx = gen_torus(64, 64, 0.3 + 1.2j)
    basis = standard_torus_basis(cx, 64, 64)

    def refuse(*args, **kwargs):
        raise AssertionError("dense boundary assembled")

    monkeypatch.setattr(operators, "boundary", refuse)
    monkeypatch.setattr(operators, "boundary_triplets", refuse)
    omega = calculus.d_function(cx, np.arange(cx.nv, dtype=float))
    rep = periods(cx, omega, basis)
    assert np.abs(np.concatenate([rep.A, rep.B])).max() < 1e-9


def test_sparse_and_dense_dz_systems_agree_entrywise(monkeypatch):
    """The dz system, folded on its triplets, equals the p dz composition of
    the dense boundary stacked on the a-period rows, sparse and dense."""
    cx = randomize_rho(gen_torus(12, 12, 0.3 + 1.2j), np.random.default_rng(8))
    basis = standard_torus_basis(cx, 12, 12)
    assert cx.nq >= differentials.SPARSE_NQ

    def refuse(*args, **kwargs):
        raise AssertionError("dense boundary assembled on the sparse path")

    with monkeypatch.context() as m:
        m.setattr(operators, "boundary", refuse)
        sparse = differentials.DzSystem(cx, basis)
        differentials.abelian_second_with_bases(cx, basis, 5)
    assert "boundary_matrix" not in vars(cx)
    assert not isinstance(sparse.S, np.ndarray) and sparse.S.format == "csc"
    ref = _ref_dz(cx, np.vstack([cx.boundary_matrix, operators.step_rows(
        basis.a_shadow_steps, 2 * basis.g, cx.nq)]))
    assert sparse.S.shape == (len(ref) - 2, cx.nq)
    assert np.array_equal(sparse.A.toarray(), ref)
    assert sparse.S.nnz + np.count_nonzero(sparse.implied) == np.count_nonzero(ref)
    monkeypatch.setattr(differentials, "SPARSE_NQ", cx.nq + 1)
    dense = differentials.DzSystem(cx, basis)
    assert isinstance(dense.S, np.ndarray)
    assert np.array_equal(dense.A, ref)


def test_randomize_rho_builds_what_build_builds():
    for cx in (gen_cube(), gen_torus(4, 6, 0.3 + 1.2j), _COVER):
        out = randomize_rho(cx, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        re = rng.uniform(0.2, 3.0, cx.nq)
        im = rng.uniform(-2.0, 2.0, cx.nq)
        ref = QuadComplex.build(cx.colors, cx.quads, re + 1j * im)
        assert out == ref
        assert out.colors == ref.colors and out.quads == ref.quads and out.rho == ref.rho
        assert all(type(c) is int for c in out.colors)
        assert all(type(v) is int for q in out.quads for v in q)
        assert all(type(r) is complex for r in out.rho)


def test_run_all_builds_the_cover_once(monkeypatch):
    calls = _counting(monkeypatch, selftest, "gen_cube_double_cover")
    for seed in (0, 1):
        assert all(r.passed for r in selftest.run_all(seed))
    assert calls == ["gen_cube_double_cover"] * 2


def test_selftest_reports_the_same_passes_and_counts(capsys):
    for seed in (1, 2, 3):
        assert main(["selftest", "--seed", str(seed), "--format", "json"]) == 0
        docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [d["criterion"] for d in docs] == list(range(1, 13))
        assert all(d["pass"] for d in docs)
        details = {d["criterion"]: d["detail"] for d in docs}
        assert details[4] == "all 4g/2g"
        assert details[5] == "kernel dim 2 everywhere"
        assert details[7] == "g=3, N=2, b=8, 3 = 2*(0-1)+1+8/2"
        assert details[8] == "343 divisors, 0 violations, 0 cross-check mismatches"
        assert details[10].startswith("poles [10], i(center) = 2 = 2g")
        assert details[12].endswith("obstruction fired: True")


def test_no_surface_tuple_is_turned_into_an_array():
    pattern = re.compile(r"np\.(asarray|array)\(cx\.(rho|quads)\b")
    hits = [f"{path.name}:{n}" for path in sorted((ROOT / "src" / "dqs").glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_selftest_details_repeat_for_a_seed():
    """No wall-clock figure enters a criterion's detail."""
    first, second = ([r.detail for r in selftest.run_all(2)] for _ in range(2))
    assert first == second
