"""The one operator layer every linear system is built from.

A diamond form is stacked as its black values (columns 0..nq-1) then
its white values (columns nq..2nq-1).  ``boundary`` maps these to the
ccw boundary integral around every vertex face, so closedness, residues
and the double-value conditions are all rows or columns of it.  Every
other system composes it with a per-quad map: the Hodge star blocks,
or the embedding of p dz (black p, white i*rho*p).  Period functionals
are rows of one builder, ``step_triplets``, over signed diagonal steps,
and ``integrals`` applies them to all forms in one product.  Periods are
read from doubled shadow steps (``homology.shadow_steps``) alone;
``medial_steps`` builds the rows of plain medial walks, which read
their parallel diagonals from ``MEDIAL_SLOT``, the one slot table that
``homology.shadow_steps`` also reads, for the reference integral
``homology.integrate_cycle``.  The boundary and these rows are (row,
column, value) triplets first: ``dense_matrix`` sums them into a numpy
array, and ``compose`` scales the column blocks of one (the Hodge star
blocks of ``costar``).  A solver system sums its triplets into one
matrix A, dense or sparse, and ``LinearSystem`` takes A itself.

Solves go through one ``LinearSystem`` each (``solve`` makes one from a
matrix) and rank counts through ``nullity``, so every system gets the
same rank, residual and cutoff rules.  Before
the l, i and holomorphic counts, the pivots of a spanning forest of a
diagonal graph are eliminated: every white-vertex row of the boundary holds +-1 at its
quads, so the tree quads of a breadth-first forest of the white graph
(``QuadComplex.white_forest``) and its child vertices form a +-1 block
that is triangular with parents first.  Its inverse is a sum along root
paths (``root_path_sums``, by pointer jumping), so the elimination is a
change of coordinates: ``form_columns`` rewrites the columns of the p dz
forms, and ``nullity`` runs its singular-value count on what is left,
about half the size in each dimension, with the same nullity and the
same cutoff.  The holomorphicity rows of vertex functions are the
transposes of those residue columns, so the L(-D) systems are cut from
the same matrix, transposed.  Once the two row dependencies of each
boundary block (``dependent_rows``) are dropped, every solver system is
square.  A ``LinearSystem`` slices them
from A, keeps them for its residual check, and factors the square rest
with one LU: dense LAPACK for a numpy A, sparse SuperLU for a scipy A,
whose factor it keeps for every later batch of right-hand sides, under
the same acceptance checks.  Dense least
squares is left for systems that are singular, ill-conditioned or not
square, and for LU solutions whose backward error is too large.  scipy
is imported on the sparse path only, so dense work never pays for it.

Each operator is built once per object that determines it and is
read-only from then on.  A ``QuadComplex`` caches its weights
(``rho_array``), its dense boundary (``boundary_matrix``, assembled by
``boundary``), and the tree coordinates of every column of the form
systems (``form_columns``), which each divisor cuts for both of its
counts; the kernel counts and the Laplacian read them, while each
solver system sums its own triplets once, so the sparse path never asks
for a dense boundary.  A ``LinearSystem`` keeps A, the rows sliced from
it, their norms and its sparse factor.  A ``HomologyBasis`` holds
the steps of its doubled a- and b-shadow rows as ``step_array`` arrays,
which ``step_triplets`` and ``integrals`` take in place of step lists.
"""

from __future__ import annotations

import numpy as np

from .errors import SolveError
from .surface import (
    BLACK,
    MEDIAL_SLOT,
    SLOT_BM,
    SLOT_BP,
    SLOT_WM,
    SLOT_WP,
    WHITE,
    QuadComplex,
)


def boundary_triplets(cx: QuadComplex):
    """(rows, cols, values) of the nv x 2nq vertex-boundary matrix."""
    nq = cx.nq
    t = cx.quad_array
    cols = np.arange(nq)
    return (np.concatenate([t[:, SLOT_WP], t[:, SLOT_WM], t[:, SLOT_BM], t[:, SLOT_BP]]),
            np.concatenate([cols, cols, nq + cols, nq + cols]),
            np.repeat([1.0, -1.0, 1.0, -1.0], nq))


def boundary(cx: QuadComplex) -> np.ndarray:
    """Dense nv x 2nq vertex-boundary matrix over (black, white) values.

    Every consumer reads the copy cached on the complex,
    ``QuadComplex.boundary_matrix``; this assembles it.
    """
    return dense_matrix((cx.nv, 2 * cx.nq), boundary_triplets(cx))


def dense_matrix(shape, triplets) -> np.ndarray:
    """numpy array of the given shape: the sum of (rows, cols, values) triplets."""
    rows, cols, vals = triplets
    M = np.zeros(shape, dtype=vals.dtype)
    np.add.at(M, (rows, cols), vals)
    return M


def compose(M: np.ndarray, black, white) -> np.ndarray:
    """M over (black, white) values after the per-quad map x -> (black x, white x)."""
    nq = M.shape[1] // 2
    return M[:, :nq] * black + M[:, nq:] * white


def star_blocks(cx: QuadComplex):
    """Per-quad 2x2 blocks of the Hodge star in (black, white) values."""
    rho = cx.rho_array
    re, im, a2 = rho.real, rho.imag, np.abs(rho) ** 2
    return (-im / re, -1.0 / re, a2 / re, im / re)  # bb, bw, wb, ww


def costar(cx: QuadComplex, B: np.ndarray) -> np.ndarray:
    """B after the Hodge star: the closedness rows of star(omega)."""
    sbb, sbw, swb, sww = star_blocks(cx)
    return np.hstack([compose(B, sbb, swb), compose(B, sbw, sww)])


def step_triplets(steps, nq: int):
    """(rows, cols, values) of weighted diagonal steps over the stacked (black, white) columns.

    Every period functional is built here.  steps holds (row, color,
    quad, value) entries: the step along the quad's diagonal of that
    color reads value times the quad's value of the color.  value is
    the step's direction (+1 for b- -> b+ or w- -> w+) times its weight.
    steps is a list of these tuples or their ``step_array``.
    """
    steps = step_array(steps)
    rows, colors, quads = steps[:, :3].astype(np.int64).T
    return rows, quads + nq * colors, steps[:, 3]


def step_array(steps) -> np.ndarray:
    """Steps as an n x 4 float array of (row, color, quad, value) rows.

    An array is returned as it is, so rows built once (those cached on a
    ``HomologyBasis``) pass through ``step_triplets`` without a copy.
    """
    return np.asarray(steps, dtype=float).reshape(-1, 4)


def diagonal_steps(walks, color: int, first_row: int = 0, weight: float = 2.0) -> list:
    """Steps of signed (quad, direction) walks on one diagonal graph, walk i on row first_row + i.

    The default weight doubles every diagonal, the convention of shadow
    periods and diagonal graph paths; half a diagonal has weight 1.
    """
    return [(first_row + i, color, q, weight * s) for i, walk in enumerate(walks) for q, s in walk]


def medial_steps(walks) -> list:
    """Steps of signed medial edge walks, walk i on row i.

    A medial edge reads the value of its parallel diagonal, with the
    color and sign of its corner slot in ``MEDIAL_SLOT``, the table that
    ``expand_diamond`` writes edge values from.  Only the reference
    integral ``homology.integrate_cycle`` builds these rows; periods
    read the doubled shadow rows of ``homology.shadow_steps``.
    """
    out = []
    for i, walk in enumerate(walks):
        for e, s in walk:
            color, sign = MEDIAL_SLOT[e % 4]
            out.append((i, color, e // 4, s * sign))
    return out


def step_rows(steps, n_rows: int, nq: int) -> np.ndarray:
    """Dense n_rows x 2nq period rows of the steps over (black, white) values."""
    return dense_matrix((n_rows, 2 * nq), step_triplets(steps, nq))


def integrals(steps, n_rows: int, forms, nq: int) -> np.ndarray:
    """n_rows x len(forms): the integrals of diamond forms along the rows of the steps.

    One product of the step rows with the stacked (black, white) values
    of the forms, one column per form.
    """
    values = np.array([np.concatenate([f.black, f.white]) for f in forms], dtype=complex)
    return step_rows(steps, n_rows, nq) @ values.reshape(len(forms), 2 * nq).T


def dependent_rows(cx: QuadComplex) -> list:
    """One black-vertex and one white-vertex row of ``boundary(cx)``.

    On a connected surface the rows of each color sum to zero, so each
    of these rows is implied by the others of its color.  Per-quad
    column maps (``compose``, ``costar``, the p dz fold) keep those sums zero.
    """
    colors = np.asarray(cx.colors)
    return [int(np.argmax(colors == BLACK)), int(np.argmax(colors == WHITE))]


def solve(A, rhs: np.ndarray, tol: float, what: str,
          drop=(), rank_error=SolveError) -> np.ndarray:
    """The unique solution of A x = rhs: ``LinearSystem(A, drop).solve``."""
    return LinearSystem(A, drop).solve(rhs, tol, what, rank_error)


class LinearSystem:
    """A x = b for one A and any number of batches of right-hand sides.

    A is a numpy array or a scipy sparse array, kept as given (a sparse
    A as CSC), and drop names rows implied by the others.  The rows
    left, S, are sliced from A once, the dropped rows as a dense array
    for the residual check, and |S|_1 and |S|_inf are computed once.
    When S is square, ``solve`` factors it with one LU: a numpy S by
    LAPACK with the unknowns eliminated in a seeded random order, and a
    sparse S by SuperLU with the COLAMD column order, on the first batch,
    keeping the factor for every later batch.  In the given order,
    partial pivoting marches the discrete Cauchy-Riemann equations
    around the surface, and its growth factor rises exponentially with
    the width of a flat torus (at tau = -0.275+0.908i, backward error
    4e4 eps at 24 x 24 quads, 1e9 eps at 32 x 32); in a random order it
    stays near eps, and in the COLAMD order, on the same torus from
    32 x 32 to 256 x 256 quads, it stays near eps with low fill.  numpy
    has no factor object, so a dense S is permuted and solved again for
    each batch.
    """

    def __init__(self, A, drop=()):
        dense = isinstance(A, np.ndarray)
        self.A = A if dense else A.tocsc()
        n_rows, n = A.shape
        implied = np.zeros(n_rows, dtype=bool)
        implied[list(drop)] = True
        self.keep, self.drop = np.flatnonzero(~implied), np.flatnonzero(implied)
        self.S = self.A[self.keep]
        self.implied = self.A[self.drop] if dense else self.A[self.drop].toarray()
        self.finite = bool(np.isfinite(self.A if dense else self.A.data).all())
        self.square = len(self.keep) == n
        rng = np.random.default_rng(0)
        # a dense S is factored as S[:, perm]: its column j is unknown perm[j]
        self.perm = rng.permutation(n) if self.square and dense else None
        self.probe = rng.standard_normal((n, 1))
        abs_s = abs(self.S)
        self.norm_1 = abs_s.sum(axis=0).max(initial=0.0)
        self.norm_inf = abs_s.sum(axis=1).max(initial=0.0)
        self._lu = None

    def solve(self, rhs: np.ndarray, tol: float, what: str,
              rank_error=SolveError) -> np.ndarray:
        """The unique solution of A x = rhs, rhs holding one column per right-hand side.

        A square S is solved by ``_lu_solve``.  Dense least squares on
        all of A, which reports the exact rank, takes over when S is
        singular, ill-conditioned or not solved backward-stably, and when
        it is not square (a disconnected surface); for a sparse A it
        densifies A, at O(rows x cols) memory.  Raises rank_error if A
        lacks full column rank, and SolveError if A or rhs is not finite,
        the solution overflows, or the residual of any column on all of A
        exceeds tol * max(1, |b_j|), b_j that column of rhs: a column
        solved in a batch passes the test it passes alone.  Each residual
        is measured with b_j and its solution scaled by the power of two
        that brings the largest part of b_j to at most 1: the same test,
        without overflow near the largest float.
        """
        rhs = np.asarray(rhs)
        if not (self.finite and np.isfinite(rhs).all()):
            raise SolveError(f"{what} system has non-finite entries")
        A = self.A
        n = A.shape[1]
        sol = None
        if self.square:
            # lstsq(rcond=None) counts singular values below eps * max(shape) as zero
            sol = self._lu_solve(rhs[self.keep], np.finfo(float).eps * max(A.shape))
        if sol is None:
            sol, _, rank, _ = np.linalg.lstsq(A if isinstance(A, np.ndarray) else A.toarray(),
                                              rhs, rcond=None)
            if rank < n:
                raise rank_error(f"{what} system rank {rank} < {n}; "
                                 "the solution is not unique")
        if not np.isfinite(sol).all():
            raise SolveError(f"{what} solution overflows")
        b, x = rhs.reshape(len(rhs), -1), sol.reshape(n, -1)
        unit = np.ldexp(1.0, -np.maximum(0, _exponents(b)))
        x = x * unit
        res = np.maximum(
            np.abs(self.S @ x - b[self.keep] * unit).max(axis=0, initial=0.0),
            np.abs(self.implied @ x - b[self.drop] * unit).max(axis=0, initial=0.0))
        ok = res <= tol * np.maximum(unit, np.abs(b * unit).max(axis=0, initial=0.0))
        if not ok.all():
            j = int(np.argmin(ok))
            raise SolveError(f"{what} system residual {res[j] / unit[j]:.3e} exceeds tolerance")
        return sol

    def _lu_solve(self, b: np.ndarray, eps_n: float):
        """Solution of the square system S x = b, or None where LU is not to be trusted.

        A sparse S is factored on the first call, and the factor, or its
        failure, is kept.  The seeded probe column p rides along in the
        same solve, in the column order of the factored matrix F (S, or
        a dense S permuted).  The condition estimate
        |S|_1 |F^-1 p|_1 / |p|_1, a lower bound on cond_1(S), must stay
        below 1 / eps_n, and the normwise backward error
        |F x - b| / (|S| |x| + |b|) (infinity norms) of every column must
        be at most eps_n.  Each column of b is solved scaled by
        2^-e, e its ``_exponents``, to a largest part in [1/2, 1).  A
        power of two changes no bit of a solution that neither over- nor
        underflows and leaves the backward error as it is, and it keeps
        these checks finite for right-hand sides near the largest float.
        A solution that overflows comes back with an inf.
        """
        shape, b = b.shape, b.reshape(len(b), -1)
        e = _exponents(b)
        y = np.hstack([b * np.ldexp(1.0, -e), self.probe])
        F = self.S
        if self.perm is not None:  # dense: factored again for each batch
            F = F[:, self.perm]
            try:
                x = np.linalg.solve(F, y)
            except np.linalg.LinAlgError:
                return None
        else:
            if self._lu is None:
                from scipy.sparse.linalg import splu

                try:
                    self._lu = splu(F, permc_spec="COLAMD")
                except RuntimeError:  # SuperLU: the factor is exactly singular
                    self._lu = False
            if not self._lu:
                return None
            x = self._lu.solve(y)
        estimate = self.norm_1 * np.abs(x[:, -1]).sum() / np.abs(y[:, -1]).sum()
        if not estimate * eps_n < 1.0:
            return None
        bound = eps_n * (self.norm_inf * np.abs(x).max(axis=0) + np.abs(y).max(axis=0))
        if not np.all(np.abs(F @ x - y).max(axis=0) <= bound):
            return None
        if self.perm is not None:
            x = x[np.argsort(self.perm)]
        with np.errstate(over="ignore"):
            return (x[:, :-1] * np.ldexp(1.0, e)).reshape(shape)


def _exponents(b: np.ndarray):
    """Per column of b, the binary exponent e of its largest real or imaginary
    part, 2^(e-1) <= part < 2^e (0 for a zero column), kept within +-1022 so
    that 2^e and 2^-e are normal floats."""
    largest = np.maximum(np.abs(b.real), np.abs(b.imag)).max(axis=0, initial=0.0)
    return np.minimum(np.maximum(np.frexp(largest)[1], -1022), 1022)


def root_path_sums(parent, x: np.ndarray) -> np.ndarray:
    """Row k: the sum of the rows of x at forest position k and at each of
    its ancestors, parent[k] being the position of k's parent, or -1 where
    that parent is a root, which has no row.

    Pointer jumping: each round adds the partial sum of the ancestor as
    far up as the partial sums reach, so the rounds are logarithmic in
    the depth of the forest.
    """
    out = np.array(x)
    up = np.array(parent)
    while len(has := np.flatnonzero(up >= 0)):
        out[has] += out[up[has]]
        up[has] = up[up[has]]
    return out


def form_columns(cx: QuadComplex) -> np.ndarray:
    """The columns of H(D) systems in the tree coordinates of the white forest, nv x nq.

    Column j starts as the p dz form of quad j: its residues at the
    vertices but the white children, ascending, then its values p at the
    tree quads, in forest order.  Column k of Y sums the tree columns on
    the path from child k up to its root (``root_path_sums``), each
    signed to read +1 at its child end: the root path form of child k.
    Returned are the quads outside the tree, ascending, each minus Y at
    its w+ plus Y at its w- (a root counts as a zero column), so that its
    residue vanishes at every child, then Y.  Column operations only: a
    child's residue row is +-1 at its root path form alone, and so is the
    value row of a quad outside the tree at its own column, so a count
    deletes such rows and columns.
    """
    child, quad, parent = cx.white_forest
    Q, rho = cx.quad_array, cx.rho_array
    nv, nq = cx.nv, cx.nq
    row = np.full(nv, -1)  # the row of each vertex, -1 at a child
    row[np.delete(np.arange(nv), child)] = np.arange(nv - len(child))
    q = np.arange(nq)
    forms = np.zeros((nq, nv), complex)  # row j: column j of the system
    forms[q, row[Q[:, SLOT_BM]]] = 1j * rho
    forms[q, row[Q[:, SLOT_BP]]] = -1j * rho
    plus, minus = Q[:, SLOT_WP], Q[:, SLOT_WM]
    for ends, value in ((plus, 1.0), (minus, -1.0)):
        at = row[ends] >= 0
        forms[q[at], row[ends[at]]] = value
    forms[quad, nv - len(child) + np.arange(len(quad))] = 1.0
    sign = np.where(plus[quad] == child, 1.0, -1.0)
    Y = root_path_sums(parent, forms[quad] * sign[:, None])
    position = np.full(nv, len(child))  # the zero row below Y: no path
    position[child] = np.arange(len(child))
    Y0 = np.vstack([Y, np.zeros((1, nv))])
    free = np.delete(q, quad)
    R = forms[free] - Y0[position[plus[free]]]
    R += Y0[position[minus[free]]]
    return np.vstack([R, Y]).T


NULLITY_CUTOFF = 1e-9  # the one singular-value cutoff of every kernel dimension


def nullity(A: np.ndarray) -> int:
    """Kernel dimension: singular values at most NULLITY_CUTOFF * the largest count as zero."""
    if A.shape[0] == 0:
        return A.shape[1]
    s = np.linalg.svd(A, compute_uv=False)
    smax = s.max(initial=0.0)
    if smax == 0.0:
        return A.shape[1]
    return A.shape[1] - int(np.sum(s > NULLITY_CUTOFF * smax))
