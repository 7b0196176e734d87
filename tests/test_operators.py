"""The matrix operators against the independent Stokes path.

``d_one_form`` and ``laplacian`` sum expanded medial-edge values around
each vertex face; ``boundary`` and ``laplacian_matrix`` are assembled
from the quad table.  Agreement pins every solver system to the
definition of the exterior derivative.
"""

import numpy as np
import pytest

from dqs import (
    DiamondForm,
    canonical_bases,
    gen_torus,
    homology_basis,
    randomize_rho,
    standard_torus_basis,
)
from dqs.calculus import d_one_form, laplacian, laplacian_matrix
from dqs.errors import AmbiguityError, SolveError
from dqs.homology import integrate_black_chain, integrate_white_chain
from dqs.operators import boundary, nullity, solve


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
        for j, ch in enumerate(basis.a_chains):
            delta = float(j == k)
            assert abs(2 * integrate_black_chain(cx, hb.omega_black[k], ch.black) - delta) < 1e-12
            assert abs(2 * integrate_white_chain(cx, hb.omega_black[k], ch.white)) < 1e-12
            assert abs(2 * integrate_white_chain(cx, hb.omega_white[k], ch.white) - delta) < 1e-12
            assert abs(2 * integrate_black_chain(cx, hb.omega_white[k], ch.black)) < 1e-12


def test_solve_rank_and_residual_checks():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(solve(A, np.array([1.0, 2.0, 3.0]), 1e-9, "test"), [1.0, 2.0])
    with pytest.raises(SolveError, match="residual"):
        solve(A, np.array([1.0, 2.0, 0.0]), 1e-9, "test")
    with pytest.raises(AmbiguityError, match="rank 1 < 2"):
        solve(np.ones((3, 2)), np.ones(3), 1e-9, "test", rank_error=AmbiguityError)


def test_nullity_edge_cases():
    assert nullity(np.zeros((0, 4))) == 4
    assert nullity(np.zeros((3, 4))) == 4
    assert nullity(np.diag([1.0, 1e-12, 0.0])) == 2
