"""The one operator layer every linear system is built from.

A diamond form is stacked as its black values (columns 0..nq-1) then
its white values (columns nq..2nq-1).  ``boundary`` maps these to the
ccw boundary integral around every vertex face, so closedness, residues
and the double-value conditions are all rows or columns of it.  Every
other system composes it with a per-quad map: the Hodge star blocks,
or the embedding of p dz (black p, white i*rho*p).  Period functionals
are doubled sums over diagonal chains.  Solves go through ``solve`` and
rank counts through ``nullity``, so every system gets the same rank,
residual and cutoff rules.
"""

from __future__ import annotations

import numpy as np

from .errors import SolveError
from .surface import SLOT_BM, SLOT_BP, SLOT_WM, SLOT_WP, QuadComplex


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


def solve(A: np.ndarray, rhs: np.ndarray, tol: float, what: str,
          rank_error=SolveError) -> np.ndarray:
    """Least-squares solution that must be unique and satisfy A x = rhs.

    Raises rank_error if A lacks full column rank and SolveError if the
    residual exceeds tol * max(1, |rhs|).
    """
    sol, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
    if rank < A.shape[1]:
        raise rank_error(f"{what} system rank {rank} < {A.shape[1]}; "
                         "the solution is not unique")
    res = np.abs(A @ sol - rhs).max(initial=0.0)
    if res > tol * max(1.0, np.abs(rhs).max(initial=0.0)):
        raise SolveError(f"{what} system residual {res:.3e} exceeds tolerance")
    return sol


def nullity(A: np.ndarray, cutoff: float = 1e-9) -> int:
    """Kernel dimension: singular values at most cutoff * the largest count as zero."""
    if A.shape[0] == 0:
        return A.shape[1]
    s = np.linalg.svd(A, compute_uv=False)
    smax = s.max(initial=0.0)
    if smax == 0.0:
        return A.shape[1]
    return A.shape[1] - int(np.sum(s > cutoff * smax))
