"""The matrix operators against the independent Stokes path.

``d_one_form`` and ``laplacian`` sum expanded medial-edge values around
each vertex face; ``boundary`` and ``laplacian_matrix`` are assembled
from the quad table.  Agreement pins every solver system to the
definition of the exterior derivative.  Dense least squares is the
oracle for the square LU solves of ``operators.LinearSystem``, and the dense LU
for its sparse LU.
"""

import numpy as np
import pytest

from dqs import differentials, operators
from dqs import (
    DiamondForm,
    abelian_second,
    abelian_third,
    canonical_bases,
    gen_torus,
    harmonic_with_periods,
    homology_basis,
    randomize_rho,
    standard_torus_basis,
)
from dqs.calculus import d_one_form, from_coefficients, laplacian, laplacian_matrix
from dqs.errors import AmbiguityError, SolveError
from dqs.homology import integrate_black_chain, integrate_white_chain
from dqs.operators import boundary, dependent_rows, nullity, solve
from dqs.surface import subdivide3

from conftest import _reference_black_white


@pytest.fixture(params=["cube", "torus44", "cover"])
def surface(request, cube, torus44, cube_cover):
    cx = {"cube": cube, "torus44": torus44, "cover": cube_cover[0]}[request.param]
    return randomize_rho(cx, np.random.default_rng(5))


def _random_form(cx, rng):
    return DiamondForm(rng.normal(size=cx.nq) + 1j * rng.normal(size=cx.nq),
                       rng.normal(size=cx.nq) + 1j * rng.normal(size=cx.nq))


def test_boundary_is_vertex_stokes(surface, rng):
    for _ in range(3):
        omega = _random_form(surface, rng)
        via_matrix = boundary(surface) @ np.concatenate([omega.black, omega.white])
        via_stokes = d_one_form(surface, omega).vertex_values
        assert np.abs(via_matrix - via_stokes).max() < 1e-12


def test_laplacian_matrix_matches_stokes(surface, rng):
    f = rng.normal(size=surface.nv) + 1j * rng.normal(size=surface.nv)
    assert np.abs(laplacian_matrix(surface) @ f - laplacian(surface, f)).max() < 1e-12


@pytest.mark.parametrize("which", ["torus", "cover"])
def test_canonical_bases_normalized(which, cube_cover):
    rng = np.random.default_rng(9)
    if which == "torus":
        cx = randomize_rho(gen_torus(6, 4, 0.3 + 1.2j), rng)
        basis = standard_torus_basis(cx, 6, 4)
    else:
        cx = randomize_rho(cube_cover[0], rng)
        basis = homology_basis(cx)
    hb = canonical_bases(cx, basis)
    g = basis.g
    for k in range(g):
        for j, cyc in enumerate(basis.a):
            delta = float(j == k)
            black, white = _reference_black_white(cx, cyc)
            assert abs(2 * integrate_black_chain(cx, hb.omega_black[k], black) - delta) < 1e-12
            assert abs(2 * integrate_white_chain(cx, hb.omega_black[k], white)) < 1e-12
            assert abs(2 * integrate_white_chain(cx, hb.omega_white[k], white) - delta) < 1e-12
            assert abs(2 * integrate_black_chain(cx, hb.omega_white[k], black)) < 1e-12


def test_solve_rank_and_residual_checks():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(solve(A, np.array([1.0, 2.0, 3.0]), 1e-9, "test"), [1.0, 2.0])
    with pytest.raises(SolveError, match="residual"):
        solve(A, np.array([1.0, 2.0, 0.0]), 1e-9, "test")
    with pytest.raises(AmbiguityError, match="rank 1 < 2"):
        solve(np.ones((3, 2)), np.ones(3), 1e-9, "test", rank_error=AmbiguityError)


def test_solve_residual_bound_is_per_column():
    """A column batched with a much larger one is held to its own bound.

    The large column 2^40 e_0 is solved exactly, with residual zero, so
    under a bound shared by all columns the batch would pass although the
    small column alone fails.
    """
    A = np.diag([1.0, 3.0, 7.0, 0.1, 11.0, 13.0])
    b = np.random.default_rng(8).normal(size=6)
    big = np.zeros(6)
    big[0] = 2.0 ** 40
    with pytest.raises(SolveError, match="residual") as alone:
        solve(A, b[:, None], 1e-20, "test")
    with pytest.raises(SolveError, match="residual") as batched:
        solve(A, np.column_stack([b, big]), 1e-20, "test")
    assert str(batched.value) == str(alone.value)
    assert np.array_equal(solve(A, big, 1e-20, "test"), big)


def test_nullity_edge_cases():
    assert nullity(np.zeros((0, 4))) == 4
    assert nullity(np.zeros((3, 4))) == 4
    assert nullity(np.diag([1.0, 1e-12, 0.0])) == 2


@pytest.mark.parametrize("which", ["cube", "torus44", "torus64", "cover"])
def test_square_lu_matches_lstsq(which, cube, cube_cover, monkeypatch, lu_record):
    """Every differentials system takes the square LU path and agrees with lstsq."""
    rng = np.random.default_rng(13)
    if which.startswith("torus"):
        m, n = (4, 4) if which == "torus44" else (6, 4)
        cx = randomize_rho(gen_torus(m, n, 0.3 + 1.2j), rng)
        basis = standard_torus_basis(cx, m, n)
    else:
        cx = randomize_rho(cube if which == "cube" else cube_cover[0], rng)
        basis = homology_basis(cx)
    calls = []
    system_solve = operators.LinearSystem.solve

    def recording_solve(self, rhs, tol, what, rank_error=SolveError):
        calls.append((what, self, rhs, system_solve(self, rhs, tol, what, rank_error)))
        return calls[-1][-1]

    monkeypatch.setattr(operators.LinearSystem, "solve", recording_solve)
    g = basis.g
    harmonic_with_periods(cx, basis, rng.normal(size=4 * g) + 1j * rng.normal(size=4 * g))
    canonical_bases(cx, basis)
    abelian_second(cx, basis, 3)
    same = [v for v in range(1, cx.nv) if cx.colors[v] == cx.colors[0]]
    abelian_third(cx, basis, 0, same[-1])

    expected = (["holomorphic", "harmonic", "holomorphic"] if g else ["holomorphic"]) \
        + ["second-kind", "third-kind"]
    assert [c[0] for c in calls] == expected
    assert len(lu_record.batches) == len(calls)
    assert all(accepted for *_, accepted in lu_record.batches)
    for what, system, rhs, sol in calls:
        A = system.A
        assert A.shape[0] - len(system.drop) == A.shape[1], what
        ref = np.linalg.lstsq(A, rhs, rcond=None)[0]
        assert sol.shape == ref.shape
        assert np.abs(sol - ref).max(initial=0.0) \
            <= 1e-12 * max(1.0, np.abs(ref).max(initial=0.0)), what
    if g:
        assert calls[2][2].shape == (cx.nv + 2 * g, 2 * g)


def test_solve_rank_error_on_near_singular_square_system():
    rng = np.random.default_rng(3)
    q1, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    q2, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    S = q1 @ np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-18]) @ q2.T
    A = np.vstack([S, S[0] + S[1]])  # row 6 depends on the others
    rhs = A @ rng.normal(size=6)
    with pytest.raises(AmbiguityError, match="rank 5 < 6; the solution is not unique"):
        solve(A, rhs, 1e-9, "test", drop=[6], rank_error=AmbiguityError)
    with pytest.raises(SolveError, match="rank 1 < 2"):
        solve(np.ones((2, 2)), np.ones(2), 1e-9, "test")


def test_solve_rejects_non_finite_input():
    with pytest.raises(SolveError, match="non-finite"):
        solve(np.eye(2), np.array([np.nan, 1.0]), 1e-9, "test")
    with pytest.raises(SolveError, match="non-finite"):
        solve(np.array([[1.0, 0.0], [0.0, np.inf]]), np.ones(2), 1e-9, "test")


def test_square_lu_is_backward_stable_on_a_wide_torus(lu_record):
    """Partial pivoting in the natural order loses 1e-6 of the residual here.

    The dense LU, given the dense matrix, eliminates in a random order;
    the sparse LU, which the 1024-quad torus takes, in the COLAMD order.
    """
    cx = gen_torus(32, 32, -0.275 + 0.908j)
    basis = standard_torus_basis(cx, 32, 32)
    system = differentials.DzSystem(cx, basis)
    assert not isinstance(system.S, np.ndarray)
    rhs = np.vstack([np.zeros((cx.nv, 2)), np.eye(2)])
    black_chain, white_chain = _reference_black_white(cx, basis.a[0])
    for p in (solve(system.A.toarray(), rhs, 1e-9, "holomorphic", drop=dependent_rows(cx)),
              system.solve(rhs, 1e-9, "holomorphic")):
        black, white = (from_coefficients(cx, p[:, k]) for k in range(2))
        assert abs(2 * integrate_black_chain(cx, black, black_chain) - 1) < 1e-13
        assert abs(2 * integrate_white_chain(cx, white, white_chain) - 1) < 1e-13
    shape = (cx.nq, cx.nq)
    assert lu_record.batches == [(shape, True, True), (shape, False, True)]


@pytest.mark.parametrize("which", ["torus16", "wide32", "cover-sub3"])
def test_sparse_lu_matches_dense_lu(which, cube_cover, monkeypatch, lu_record):
    """Above the crossover every dz solve takes the sparse LU and agrees with the dense LU."""
    rng = np.random.default_rng(41)
    if which == "torus16":
        cx = randomize_rho(gen_torus(16, 16, 0.3 + 1.2j), rng)
        basis = standard_torus_basis(cx, 16, 16)
    elif which == "wide32":
        cx = gen_torus(32, 32, -0.275 + 0.908j)
        basis = standard_torus_basis(cx, 32, 32)
    else:
        cx = randomize_rho(subdivide3(cube_cover[0]), rng)
        basis = homology_basis(cx)
    assert cx.nq >= differentials.SPARSE_NQ
    g = basis.g
    targets = rng.normal(size=4 * g) + 1j * rng.normal(size=4 * g)
    same = [v for v in range(1, cx.nv) if cx.colors[v] == cx.colors[0]]

    def solves():
        return [differentials._dz_solve(cx, basis, np.eye(2 * g)),
                harmonic_with_periods(cx, basis, targets),
                abelian_second(cx, basis, 5).form,
                abelian_third(cx, basis, 0, same[-1]).form]

    sparse = solves()
    # holomorphic, harmonic (its holomorphic solve, then the dense 4g x 4g one), second,
    # third: one SuperLU factor per job
    dz_batch, small = ((cx.nq, cx.nq), False, True), ((4 * g, 4 * g), True, True)
    assert lu_record.batches == [dz_batch, dz_batch, small, dz_batch, dz_batch]
    assert lu_record.factors == 4
    monkeypatch.setattr(differentials, "SPARSE_NQ", cx.nq + 1)
    dense = solves()
    for what, got, ref in zip(("holomorphic", "harmonic", "second", "third"), sparse, dense):
        if what != "holomorphic":
            got = np.concatenate([got.black, got.white])
            ref = np.concatenate([ref.black, ref.white])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), what


def test_sparse_solve_near_singular_square_system_falls_back_to_lstsq(lu_record):
    from scipy.sparse import csr_array

    rng = np.random.default_rng(3)
    q1, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    q2, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    S = q1 @ np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-18]) @ q2.T
    A = np.vstack([S, S[0] + S[1]])
    rhs = A @ rng.normal(size=6)
    with pytest.raises(AmbiguityError, match="rank 5 < 6; the solution is not unique"):
        solve(csr_array(A), rhs, 1e-9, "test", drop=[6], rank_error=AmbiguityError)
    assert lu_record.batches == [((6, 6), False, False)]


def test_lu_solve_commutes_with_power_of_two_scaling():
    """Every column is solved scaled into [1/2, 1): scaling the right-hand
    side by a power of two scales the solution bit for bit, up to the
    largest floats, where the backward-error check stays finite."""
    import warnings

    warnings.simplefilter("error")
    rng = np.random.default_rng(12)
    S = rng.normal(size=(7, 7)) + 7 * np.eye(7)
    b = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    b /= np.abs(b).max()
    system = operators.LinearSystem(S)
    x = system._lu_solve(b, 1e-14)
    assert x is not None
    for k in (-1000, -30, 1, 40, 1023):
        xk = system._lu_solve(np.ldexp(b.real, k) + 1j * np.ldexp(b.imag, k), 1e-14)
        assert xk is not None
        assert np.array_equal(xk.real, np.ldexp(x.real, k))
        assert np.array_equal(xk.imag, np.ldexp(x.imag, k))
