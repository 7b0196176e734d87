import functools
import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dqs import gen_cube, gen_torus  # noqa: E402
from dqs.coverings import gen_cube_double_cover  # noqa: E402
from dqs.errors import AmbiguousGluingError, SurfaceError  # noqa: E402
from dqs.operators import (  # noqa: E402
    boundary_triplets,
    compose,
    dense_matrix,
    diagonal_steps,
    step_rows,
)
from dqs.surface import (  # noqa: E402
    BLACK,
    SLOT_BM,
    SLOT_BP,
    SLOT_WM,
    SLOT_WP,
    WHITE,
    QuadComplex,
)


@functools.lru_cache(maxsize=16)
def incidences(cx):
    """Reference incidence table: per vertex, its (quad, slot) incidences
    in ascending order, read from the quad tuples one quad at a time."""
    inc = [[] for _ in range(cx.nv)]
    for q, t in enumerate(cx.quads):
        for slot, v in enumerate(t):
            inc[v].append((q, slot))
    return tuple(map(tuple, inc))


@functools.lru_cache(maxsize=16)
def edge_pairs(cx):
    """Reference edge table: per undirected edge (u, w), u < w, the
    (q, a, b) of each quad q traversing it a -> b, read one quad at a time."""
    table = {}
    for q, t in enumerate(cx.quads):
        for i in range(4):
            u, w = t[i], t[(i + 1) % 4]
            table.setdefault((min(u, w), max(u, w)), []).append((q, u, w))
    return table


def reference_other_quad(cx, u, w):
    """Reference gluing lookup: the quad traversing w -> u, the neighbour
    across edge {u, w}, searched in the reference edge table."""
    entries = edge_pairs(cx)[(min(u, w), max(u, w))]
    if len(entries) != 2:
        raise AmbiguousGluingError(
            f"edge {{{u}, {w}}} occurs in {len(entries)} quad boundaries; "
            "rotation system is ambiguous"
        )
    for q2, a, b in entries:
        if (a, b) == (w, u):
            return q2
    raise SurfaceError(f"edge {{{u}, {w}}} is not traversed in both directions")


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


def chain_steps(chains):
    """Reference doubled shadow steps, from (black, white) pairs of (quad,
    direction) tuples such as ``_reference_black_white`` returns: the black
    shadow of chain i on row i, then the white shadows on the len(chains)
    rows below."""
    return (diagonal_steps([black for black, _ in chains], BLACK)
            + diagonal_steps([white for _, white in chains], WHITE, len(chains)))


def chain_rows(chains, nq):
    """Dense doubled shadow periods of the chains, 2 len(chains) x 2nq."""
    return step_rows(chain_steps(chains), 2 * len(chains), nq)


# ---------------------------------------------------------------------------
# the dense kernel systems, assembled afresh on every call


def _ref_boundary(cx):
    return dense_matrix((cx.nv, 2 * cx.nq), boundary_triplets(cx))


def _ref_dz(cx, M):
    return compose(M, 1.0, 1j * np.asarray(cx.rho))


def _ref_l_system(cx, d):
    B = _ref_boundary(cx)
    nq = cx.nq
    cr = _ref_dz(cx, B).T
    holomorphic = [q for q in range(nq) if d.quad_coeffs.get(q) != 1]
    double = np.array(sorted(q for q, c in d.quad_coeffs.items() if c == -2), dtype=np.intp)
    double_rows = np.stack([-B[:, nq + double].T, B[:, double].T], axis=1).reshape(-1, cx.nv)
    zeros = np.eye(cx.nv)[sorted(v for v, c in d.vertex_coeffs.items() if c == -1)]
    return np.vstack([cr[holomorphic], double_rows, zeros])


def _ref_i_system(cx, d):
    B = _ref_boundary(cx)
    dzbar_quads = np.array(sorted(q for q, c in d.quad_coeffs.items() if c == -2), dtype=np.intp)
    dzbar = compose(B[:, np.concatenate([dzbar_quads, cx.nq + dzbar_quads])], 1.0,
                    -1j * np.conj(np.asarray(cx.rho)[dzbar_quads]))
    cols = np.hstack([_ref_dz(cx, B), dzbar])
    n_unknowns = cols.shape[1]
    residue_free = [v for v in range(cx.nv) if d.vertex_coeffs.get(v) != -1]
    zero_quads = sorted(q for q, c in d.quad_coeffs.items() if c == 1)
    return np.vstack([cols[residue_free], np.eye(cx.nq, n_unknowns)[zero_quads]]), n_unknowns


def multiplicity(chain, nq):
    """The net multiplicity of every quad in a (quad, direction) chain."""
    out = np.zeros(nq, dtype=int)
    for q, s in chain:
        out[q] += s
    return out


@pytest.fixture(scope="session")
def cube():
    return gen_cube()


@pytest.fixture(scope="session")
def torus44():
    return gen_torus(4, 4, 1j)


@pytest.fixture(scope="session")
def torus46():
    return gen_torus(4, 6, 0.3 + 1.2j)


@pytest.fixture(scope="session")
def cube_cover():
    return gen_cube_double_cover()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


class _CountingQuads(tuple):
    """Quad table that counts the quad tuples read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        for t in tuple.__iter__(self):
            self.reads += 1
            yield t


@pytest.fixture()
def counted_quads():
    """Copy of a complex whose ``quads.reads`` counts the quads read so far.

    Every search over the quads of a surface, the diagonal lookups
    included, reads them from this table, so the count bounds the work
    of a combinatorial algorithm without timing it.
    """
    def wrap(cx):
        return QuadComplex(cx.colors, _CountingQuads(cx.quads), cx.rho)
    return wrap


@pytest.fixture()
def lu_record(monkeypatch):
    """The square LU work of every solve from now on.

    ``batches`` lists (shape of S, dense, accepted) per batch of
    right-hand sides that ``operators.LinearSystem`` solves by LU, and
    ``factors`` counts the SuperLU factorizations.  A dense S is factored
    once per batch, so a job factors its system once when it makes one
    dense batch, or one SuperLU factor for any number of sparse batches.
    """
    import scipy.sparse.linalg

    from dqs import operators

    record = types.SimpleNamespace(batches=[], factors=0)
    lu_solve = operators.LinearSystem._lu_solve
    splu = scipy.sparse.linalg.splu

    def recording_lu(self, b, eps_n):
        x = lu_solve(self, b, eps_n)
        record.batches.append((self.S.shape, isinstance(self.S, np.ndarray), x is not None))
        return x

    def counting_splu(*args, **kwargs):
        record.factors += 1
        return splu(*args, **kwargs)

    monkeypatch.setattr(operators.LinearSystem, "_lu_solve", recording_lu)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return record
