"""The one operator layer every linear system is built from.

A diamond form is stacked as its black values (columns 0..nq-1) then
its white values (columns nq..2nq-1).  ``boundary`` maps these to the
ccw boundary integral around every vertex face, so closedness, residues
and the double-value conditions are all rows or columns of it.  Every
other system composes it with a per-quad map: the Hodge star blocks,
or the embedding of p dz (black p, white i*rho*p).  Period functionals
are doubled sums over diagonal chains.  Solves go through ``solve`` and
rank counts through ``nullity``, so every system gets the same rank,
residual and cutoff rules.  Once the two row dependencies of each
boundary block (``dependent_rows``) are dropped, every solver system is
square, and ``solve`` factors it with one dense LU; dense least squares
is left for systems that are singular, ill-conditioned or not square,
and for LU solutions whose backward error is too large.
"""

from __future__ import annotations

import numpy as np

from .errors import SolveError
from .surface import BLACK, SLOT_BM, SLOT_BP, SLOT_WM, SLOT_WP, WHITE, QuadComplex


def boundary(cx: QuadComplex) -> np.ndarray:
    """Dense nv x 2nq vertex-boundary matrix over (black, white) values."""
    nq = cx.nq
    t = np.asarray(cx.quads, dtype=np.intp).reshape(-1, 4)
    B = np.zeros((cx.nv, 2 * nq))
    cols = np.arange(nq)
    np.add.at(B, (t[:, SLOT_WP], cols), 1.0)
    np.add.at(B, (t[:, SLOT_WM], cols), -1.0)
    np.add.at(B, (t[:, SLOT_BM], nq + cols), 1.0)
    np.add.at(B, (t[:, SLOT_BP], nq + cols), -1.0)
    return B


def compose(M: np.ndarray, black, white) -> np.ndarray:
    """M over (black, white) values after the per-quad map x -> (black x, white x)."""
    nq = M.shape[1] // 2
    return M[:, :nq] * black + M[:, nq:] * white


def dz(cx: QuadComplex, M: np.ndarray) -> np.ndarray:
    """M on forms p dz, in the unknowns p (black value p, white i*rho*p)."""
    return compose(M, 1.0, 1j * np.asarray(cx.rho))


def star_blocks(cx: QuadComplex):
    """Per-quad 2x2 blocks of the Hodge star in (black, white) values."""
    rho = np.asarray(cx.rho)
    re, im, a2 = rho.real, rho.imag, np.abs(rho) ** 2
    return (-im / re, -1.0 / re, a2 / re, im / re)  # bb, bw, wb, ww


def costar(cx: QuadComplex, B: np.ndarray) -> np.ndarray:
    """B after the Hodge star: the closedness rows of star(omega)."""
    sbb, sbw, swb, sww = star_blocks(cx)
    return np.hstack([compose(B, sbb, swb), compose(B, sbw, sww)])


def chain_rows(chains, nq: int) -> np.ndarray:
    """Doubled shadow periods over (black, white) values.

    One row per black shadow of the chains, then one per white shadow.
    """
    rows = np.zeros((2 * len(chains), 2 * nq))
    for i, ch in enumerate(chains):
        for q, s in ch.black:
            rows[i, q] += 2.0 * s
        for q, s in ch.white:
            rows[len(chains) + i, nq + q] += 2.0 * s
    return rows


def dependent_rows(cx: QuadComplex) -> list:
    """One black-vertex and one white-vertex row of ``boundary(cx)``.

    On a connected surface the rows of each color sum to zero, so each
    of these rows is implied by the others of its color.  Per-quad
    column maps (``compose``, ``costar``, ``dz``) keep those sums zero.
    """
    colors = np.asarray(cx.colors)
    return [int(np.argmax(colors == BLACK)), int(np.argmax(colors == WHITE))]


def solve(A: np.ndarray, rhs: np.ndarray, tol: float, what: str,
          drop=(), rank_error=SolveError) -> np.ndarray:
    """The unique solution of A x = rhs.

    drop names rows of A implied by the others.  When the remaining rows
    form a square system, ``_lu_solve`` solves it with one LU
    factorization.  Dense least squares on all of A, which reports the
    exact rank, takes over when that system is singular, ill-conditioned
    or not solved backward-stably, and when it is not square (a
    disconnected surface).  Raises rank_error if A lacks full column
    rank, and SolveError if A or rhs is not finite or the residual on all
    of A exceeds tol * max(1, |rhs|).
    """
    rhs = np.asarray(rhs)
    if not (np.isfinite(A).all() and np.isfinite(rhs).all()):
        raise SolveError(f"{what} system has non-finite entries")
    n = A.shape[1]
    keep = np.delete(np.arange(A.shape[0]), drop)
    sol = None
    if len(keep) == n:
        # lstsq(rcond=None) counts singular values below eps * max(shape) as zero
        sol = _lu_solve(A[keep], rhs[keep], np.finfo(float).eps * max(A.shape))
    if sol is None:
        sol, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
        if rank < n:
            raise rank_error(f"{what} system rank {rank} < {n}; "
                             "the solution is not unique")
    res = np.abs(A @ sol - rhs).max(initial=0.0)
    if not res <= tol * max(1.0, np.abs(rhs).max(initial=0.0)):
        raise SolveError(f"{what} system residual {res:.3e} exceeds tolerance")
    return sol


def _lu_solve(S: np.ndarray, b: np.ndarray, eps_n: float):
    """Solution of the square system S x = b, or None where LU is not to be trusted.

    The unknowns are eliminated in a seeded random order.  In the given
    order, partial pivoting marches the discrete Cauchy-Riemann
    equations around the surface, and its growth factor rises
    exponentially with the width of a flat torus (at tau = -0.275+0.908i,
    backward error 4e4 eps at 24 x 24 quads, 1e9 eps at 32 x 32); in a
    random order it stays near eps.  A seeded probe column p rides along
    in the same factorization.  The condition estimate
    |S|_1 |S^-1 p|_1 / |p|_1, a lower bound on cond_1(S), must stay
    below 1 / eps_n, and the normwise backward error
    |S x - b| / (|S| |x| + |b|) (infinity norms) of every column must be
    at most eps_n.
    """
    n = S.shape[0]
    cols = b.reshape(n, -1)
    rng = np.random.default_rng(0)
    perm = rng.permutation(n)
    S = S.take(perm, axis=1)
    y = np.hstack([cols, rng.standard_normal((n, 1))])
    try:
        x = np.linalg.solve(S, y)
    except np.linalg.LinAlgError:
        return None
    abs_s = np.abs(S)
    estimate = abs_s.sum(axis=0).max() * np.abs(x[:, -1]).sum() / np.abs(y[:, -1]).sum()
    if not estimate * eps_n < 1.0:
        return None
    bound = eps_n * (abs_s.sum(axis=1).max() * np.abs(x).max(axis=0) + np.abs(y).max(axis=0))
    if not np.all(np.abs(S @ x - y).max(axis=0) <= bound):
        return None
    return x[np.argsort(perm), :-1].reshape(b.shape)


def nullity(A: np.ndarray, cutoff: float = 1e-9) -> int:
    """Kernel dimension: singular values at most cutoff * the largest count as zero."""
    if A.shape[0] == 0:
        return A.shape[1]
    s = np.linalg.svd(A, compute_uv=False)
    smax = s.max(initial=0.0)
    if smax == 0.0:
        return A.shape[1]
    return A.shape[1] - int(np.sum(s > cutoff * smax))
