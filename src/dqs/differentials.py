"""Harmonic and holomorphic differentials, period matrices, Abelian forms.

Every solver works in the dz coefficients p of forms without
antiholomorphic part, one complex unknown per quad (black value p,
white value i*rho*p); no system has two unknowns per quad.  Its rows
are the vertex-boundary operator of ``dqs.operators`` after the p dz
embedding (the residues) and the doubled a-periods over the stored
basis chains.  Dropping one black-vertex and one white-vertex row (the
rows of each color sum to zero) makes it square.  Abelian forms of all
three kinds solve this one system and differ only in the right-hand
side: a-period targets, the pinned dzbar part of a double pole, or
residues +1 and -1 at two vertices.  One ``DzSystem`` per surface and
basis holds that system and answers any number of batches of them, each
batch the columns of one solve; ``_dz_solve`` makes one for a single
batch, and every solver here and the i(D) basis route of
``dqs.riemann_roch`` is a slice of its columns.  Its matrix is summed
once from the boundary and a-period triplets after the p dz fold, and
its square part leaves out the two dependent rows: a numpy array below
``SPARSE_NQ`` quads, solved by one dense LU per batch, and from there
on a scipy CSC array, factored once by SuperLU.  Both paths check
uniqueness by a condition estimate, the backward error and the residual
of every column (``operators.LinearSystem``), and report the exact rank
when it is singular.  The
Hodge star is real and squares to -1, so a harmonic form is a
combination of the canonical holomorphic forms and their conjugates:
co-closedness is never solved for.  Every period read here is a doubled
shadow row of the basis: ``period_matrices`` integrates the canonical
set along the 2g b-shadow rows in one product, and the plain period
matrix Pi is the average of the black and white ones.  The 4g
dimension count (``nullity_harmonic``) runs on the plain closedness and
co-closedness rows; the 2g count (``nullity_holomorphic``) runs on the
residue system with the pivots of the white diagonal forest eliminated
(``QuadComplex.form_columns``).  ``transform_periods`` checks its
change of basis against ``homology.standard_pairing``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguityError, DqsError, SolveError
from .calculus import DiamondForm, d_one_form, from_coefficients
from .homology import HomologyBasis, standard_pairing
from .operators import (
    LinearSystem,
    boundary_triplets,
    costar,
    dense_matrix,
    dependent_rows,
    integrals,
    nullity,
    solve,
    step_rows,
    step_triplets,
)
from .surface import (
    BLACK,
    WHITE,
    QuadComplex,
    require_ids,
    varignon_area,
)


# Surfaces with at least this many quads assemble the dz system sparse and
# factor it with SuperLU; smaller ones factor it densely.  Timed per
# solve in one process, scipy already imported: dense wins up to the
# 108-quad genus-3 cover, sparse from the 144-quad torus on (CHANGES.md).
SPARSE_NQ = 128


class DzSystem(LinearSystem):
    """The dz system of one surface and basis, summed once and factored once.

    Its unknowns are the dz coefficients p, one per quad, and its rows
    the residues at every vertex and the doubled a-periods: the vertex
    boundary and the a-period rows cached on the basis, as triplets over
    (black, white) values, with every white entry scaled by i*rho of its
    quad and moved onto the quad's column (the p dz fold).  The triplets
    are summed into A, a numpy array below ``SPARSE_NQ`` quads and a
    scipy CSC array from there on; no dense boundary is built.  The two
    ``dependent_rows`` are sliced off for the LU and kept for the
    residual check.  The dzbar
    fold of the same triplets (white entries scaled by -i*conj(rho))
    gives the residues and a-periods of the pinned dzbar part of a double
    pole, which move to the right-hand side.
    """

    def __init__(self, cx: QuadComplex, basis: HomologyBasis):
        nv, nq = cx.nv, cx.nq
        rows, cols, vals = boundary_triplets(cx)
        a_rows, a_cols, a_vals = step_triplets(basis.a_shadow_steps, nq)
        rows = np.concatenate([rows, nv + a_rows])
        vals = np.concatenate([vals, a_vals])
        cols = np.concatenate([cols, a_cols])
        white = cols >= nq
        quads = cols - nq * white
        rho = cx.rho_array[quads]
        shape, dz = (nv + 2 * basis.g, nq), np.where(white, 1j * rho, 1.0) * vals
        if nq < SPARSE_NQ:
            A = dense_matrix(shape, (rows, quads, dz))
        else:
            from scipy.sparse import csc_array

            A = csc_array((dz, (rows, quads)), shape=shape)
        super().__init__(A, dependent_rows(cx))
        self.cx, self.g = cx, basis.g
        self._dzbar = rows, quads, np.where(white, -1j * rho.conj(), 1.0) * vals

    def coefficients(self, targets=None, double_quads=(), pole_pairs=(), tol: float = 1e-9,
                     what: str = "holomorphic", rank_error=SolveError) -> np.ndarray:
        """dz coefficients of a batch of forms, one column each, in this order:
        - one holomorphic form per column of the 2g x k a-period targets;
        - one second-kind form per quad of double_quads, without its pinned
          dzbar part, whose residues and a-periods move to the right-hand side;
        - one third-kind form per (plus, minus) vertex pair of pole_pairs,
          with residues +1 and -1 there and vanishing a-periods.
        """
        cx = self.cx
        require_ids(double_quads, cx.nq, "quad")
        require_ids([v for pair in pole_pairs for v in pair], cx.nv, "vertex")
        quads = np.asarray(double_quads, dtype=np.intp)
        pairs = np.asarray(pole_pairs, dtype=np.intp).reshape(-1, 2)
        if targets is None:
            targets = np.zeros((2 * self.g, 0))
        n_rows = self.A.shape[0]
        # the dzbar fold's column of each double quad, once per distinct quad
        column = np.full(cx.nq, -1)
        column[quads] = np.arange(len(quads))
        rows, quad, vals = self._dzbar
        hit = column[quad] >= 0
        dzbar = np.zeros((n_rows, len(quads)), complex)
        np.add.at(dzbar, (rows[hit], column[quad[hit]]), vals[hit])
        third = np.zeros((n_rows, len(pairs)), complex)
        k = np.arange(len(pairs))
        third[pairs[:, 0], k] = 2j * math.pi
        third[pairs[:, 1], k] = -2j * math.pi
        rhs = np.hstack([np.vstack([np.zeros((cx.nv, targets.shape[1]), complex), targets]),
                         -(dzbar[:, column[quads]] * _pinned_dzbar(cx, quads)), third])
        return self.solve(rhs, tol, what, rank_error)


def _dz_solve(cx: QuadComplex, basis: HomologyBasis, targets=None, double_quads=(),
              pole_pairs=(), tol: float = 1e-9, what: str = "holomorphic",
              rank_error=SolveError) -> np.ndarray:
    """``DzSystem.coefficients`` of a batch of forms, from a new system of cx and basis."""
    return DzSystem(cx, basis).coefficients(targets, double_quads, pole_pairs, tol, what,
                                            rank_error)


def _values(cx: QuadComplex, p: np.ndarray) -> np.ndarray:
    """Stacked (black, white) values of the forms p dz, one column per column of p."""
    return np.vstack([p, 1j * cx.rho_array[:, None] * p])


def harmonic_with_periods(cx: QuadComplex, basis: HomologyBasis, targets,
                          tol: float = 1e-9) -> DiamondForm:
    """The unique closed and co-closed form with prescribed shadow periods.

    targets holds (A_black, A_white, B_black, B_white) stacked as four
    length-g blocks.  The form is V c + conj(V) d over the canonical
    holomorphic values V, with (c, d) from the 4g x 4g shadow periods of
    V and conj(V).  At genus 0 the holomorphic solve, with no right-hand
    side, certifies that zero is the only harmonic form.
    """
    g = basis.g
    targets = np.asarray(targets, dtype=complex).reshape(4 * g)
    p = _dz_solve(cx, basis, np.eye(2 * g), tol=tol)
    if g == 0:
        return DiamondForm.zero(cx)
    V = _values(cx, p)
    P = np.vstack([step_rows(basis.a_shadow_steps, 2 * g, cx.nq),
                   step_rows(basis.b_shadow_steps, 2 * g, cx.nq)]) @ V
    c = solve(np.hstack([P, P.conj()]), targets, tol, "harmonic")
    x = V @ c[:2 * g] + V.conj() @ c[2 * g:]
    return DiamondForm(x[:cx.nq], x[cx.nq:])


def nullity_harmonic(cx: QuadComplex) -> int:
    """Dimension of the space of harmonic forms (expected 4g): the nullity of
    the closedness rows B stacked on the co-closedness rows of the Hodge star."""
    B = cx.boundary_matrix
    return nullity(np.vstack([B, costar(cx, B)]))


def nullity_holomorphic(cx: QuadComplex) -> int:
    """Dimension of the space of holomorphic forms (expected 2g): the nullity
    of the i system of the zero divisor (``riemann_roch.i_tree_system``), the
    quad columns of ``QuadComplex.form_columns`` on its vertex rows."""
    n = len(cx.white_forest[0])
    return nullity(cx.form_columns[:cx.nv - n, :cx.nq - n])


def holomorphic_with_a_periods(cx: QuadComplex, basis: HomologyBasis, targets,
                               tol: float = 1e-9) -> DiamondForm:
    """The unique holomorphic form with prescribed black/white a-periods.

    targets holds (A_black_1..g, A_white_1..g).
    """
    targets = np.asarray(targets, dtype=complex).reshape(2 * basis.g, 1)
    return from_coefficients(cx, _dz_solve(cx, basis, targets, tol=tol)[:, 0])


@dataclass(frozen=True)
class HolomorphicBasis:
    """Canonical basis and canonical set of holomorphic differentials.

    omega_black[k] has black a_j-period delta_jk and zero white
    a-periods; omega_white[k] mirrors it; omega[k] is their sum, the
    form with both a_j-period families equal to delta_jk.
    """

    omega_black: tuple
    omega_white: tuple
    omega: tuple

    @property
    def g(self) -> int:
        return len(self.omega)


def canonical_bases(cx: QuadComplex, basis: HomologyBasis, tol: float = 1e-9) -> HolomorphicBasis:
    if basis.g == 0:
        return HolomorphicBasis((), (), ())
    return _canonical_forms(cx, _dz_solve(cx, basis, np.eye(2 * basis.g), tol=tol))


def _canonical_forms(cx: QuadComplex, p: np.ndarray) -> HolomorphicBasis:
    """The canonical set from the dz coefficients of its 2g a-normalized forms."""
    g = p.shape[1] // 2
    ob = tuple(from_coefficients(cx, p[:, k]) for k in range(g))
    ow = tuple(from_coefficients(cx, p[:, g + k]) for k in range(g))
    return HolomorphicBasis(ob, ow, tuple(b + w for b, w in zip(ob, ow)))


@dataclass(frozen=True)
class PeriodMatrices:
    """Discrete period matrices of a surface with a given basis.

    Pi is g x g; Pi_full is the 2g x 2g block matrix
    [[BW, BB], [WW, WB]] (rows: black then white b-shadows; columns:
    white-normalized then black-normalized basis forms); Pi_black and
    Pi_white are the shadow b-periods of the canonical set, and Pi, its
    plain b-periods, is their average.
    """

    Pi: np.ndarray
    Pi_full: np.ndarray
    Pi_black: np.ndarray
    Pi_white: np.ndarray
    BB: np.ndarray
    BW: np.ndarray
    WB: np.ndarray
    WW: np.ndarray

    @property
    def g(self) -> int:
        return self.Pi.shape[0]


def period_matrices(cx: QuadComplex, basis: HomologyBasis,
                    hb: HolomorphicBasis = None) -> PeriodMatrices:
    """All period matrices; raises SolveError where a symmetry error
    exceeds 1e-8 or an imaginary part has an eigenvalue at or below -1e-8."""
    if hb is None:
        hb = canonical_bases(cx, basis)
    g = basis.g
    P = integrals(basis.b_shadow_steps, 2 * g, hb.omega_black + hb.omega_white, cx.nq)
    BB, BW = P[:g, :g], P[:g, g:]
    WB, WW = P[g:, :g], P[g:, g:]
    Pi_full = np.block([[BW, BB], [WW, WB]])
    Pi_black = BW + BB
    Pi_white = WW + WB
    Pi = (Pi_black + Pi_white) / 2.0
    if g:
        checks = [
            ("Pi symmetry", np.abs(Pi - Pi.T).max()),
            ("Pi_full symmetry", np.abs(Pi_full - Pi_full.T).max()),
            ("BB^T = WW", np.abs(BB.T - WW).max()),
        ]
        for name, err in checks:
            if err > 1e-8:
                raise SolveError(f"period matrix inconsistency ({name}): {err:.3e}")
        for name, mat in (("Im Pi", Pi), ("Im Pi_full", Pi_full)):
            eigs = np.linalg.eigvalsh((mat.imag + mat.imag.T) / 2.0)
            if eigs.min() <= -1e-8:
                raise SolveError(f"{name} not positive definite (min eig {eigs.min():.3e})")
    return PeriodMatrices(Pi, Pi_full, Pi_black, Pi_white, BB, BW, WB, WW)


def transform_periods(Pi_full: np.ndarray, A, B, C, D) -> np.ndarray:
    """Complete period matrix after an integer symplectic change of basis.

    (A B; C D) maps (a, b) to (a', b') = (A a + B b, C a + D b).  The
    doubled-block fractional transformation acts in the row convention
    (white shadows first); our storage interleaves black and white
    shadow rows, so we conjugate by the block swap before and after.
    """
    A, B, C, D = (np.asarray(M, dtype=float) for M in (A, B, C, D))
    g = A.shape[0]
    S = np.block([[A, B], [C, D]])
    J = standard_pairing(g)
    if not np.allclose(S @ J @ S.T, J, atol=1e-12):
        raise DqsError("(A B; C D) is not symplectic")
    P = np.block([[np.zeros((g, g)), np.eye(g)], [np.eye(g), np.zeros((g, g))]])
    dbl = lambda M: np.block([[M, np.zeros((g, g))], [np.zeros((g, g)), M]])
    Pi_hat = P @ np.asarray(Pi_full, dtype=complex)
    num = dbl(C) + dbl(D) @ Pi_hat
    den = dbl(A) + dbl(B) @ Pi_hat
    if abs(np.linalg.det(den)) < 1e-14:
        raise DqsError("transformation denominator is singular")
    return P @ (num @ np.linalg.inv(den))


# ---------------------------------------------------------------------------
# residues and Abelian differentials


def residues(cx: QuadComplex, omega: DiamondForm) -> np.ndarray:
    """Residue at every vertex: boundary integral of F_v over 2*pi*i."""
    return d_one_form(cx, omega).vertex_values / (2j * math.pi)


@dataclass(frozen=True)
class AbelianDifferential:
    """A diamond form with recorded pole data.

    kind is "first", "second", or "third"; dzbar_defect maps quads with
    a double pole to their dzbar coefficient in the normalized chart;
    prescribed_residues maps simple-pole vertices to their residues.
    """

    form: DiamondForm
    kind: str
    prescribed_residues: dict = field(default_factory=dict)
    dzbar_defect: dict = field(default_factory=dict)


def abelian_third(cx: QuadComplex, basis: HomologyBasis, v: int, v2: int,
                  tol: float = 1e-9) -> AbelianDifferential:
    """Normalized third-kind differential: residues +1 at v, -1 at v2.

    Both poles must share a color.  No double poles are allowed, and the
    black and white a-periods over the stored basis chains vanish, the
    same normalization the second kind uses; a holomorphic form with
    vanishing black and white a-periods is zero, so the result is
    unique.  (Normalizing the plain medial integrals instead is singular
    on every parallelogram-grid torus, where the two checkerboard weight
    classes multiply to one and plain periods cannot separate the
    holomorphic forms.)
    """
    require_ids((v, v2), cx.nv, "vertex")
    if v == v2 or cx.colors[v] != cx.colors[v2]:
        raise DqsError("poles must be two distinct vertices of the same color")
    p = _dz_solve(cx, basis, pole_pairs=[(v, v2)], tol=tol, what="third-kind",
                  rank_error=AmbiguityError)
    return AbelianDifferential(from_coefficients(cx, p[:, 0]), "third",
                               {v: 1.0, v2: -1.0}, {})


def b_period_average(cx: QuadComplex, omega: DiamondForm, basis: HomologyBasis) -> np.ndarray:
    """The average of the shadow b_k-periods over the stored representatives, for each k < g.

    For closed forms these are the plain b-periods; for differentials
    with simple poles they are the quantities entering the third-kind
    b-period law.
    """
    doubled = integrals(basis.b_shadow_steps, 2 * basis.g, [omega], cx.nq)[:, 0]
    return (doubled[:basis.g] + doubled[basis.g:]) / 2.0


def _pinned_dzbar(cx: QuadComplex, quads) -> np.ndarray:
    """The pinned dzbar coefficient of a double pole at each of quads: in the
    normalized chart of quad q, -pi / (2 * area of the medial parallelogram)."""
    return -math.pi / (2.0 * varignon_area(cx.rho_array[np.asarray(quads, dtype=np.intp)]))


def abelian_second(cx: QuadComplex, basis: HomologyBasis, q0: int,
                   tol: float = 1e-9) -> AbelianDifferential:
    """Second-kind differential: one double pole at q0, no residues.

    In the normalized chart of q0 the dzbar coefficient is pinned to
    -pi / (2 * area of the medial parallelogram); all black and white
    a-periods vanish.
    """
    p = _dz_solve(cx, basis, double_quads=[q0], tol=tol, what="second-kind")
    return _second_kind_forms(cx, [q0], p)[0]


def abelian_second_with_bases(cx: QuadComplex, basis: HomologyBasis, q0: int,
                              tol: float = 1e-9):
    """``abelian_second`` at q0 and ``canonical_bases``, from one factorization.

    The 2g a-period columns of the canonical forms and the second-kind
    column are columns of one solve of their common system.
    Returns (AbelianDifferential, HolomorphicBasis).
    """
    g2 = 2 * basis.g
    p = _dz_solve(cx, basis, np.eye(g2), [q0], tol=tol, what="second-kind")
    return _second_kind_forms(cx, [q0], p[:, g2:])[0], _canonical_forms(cx, p[:, :g2])


def _second_kind_forms(cx: QuadComplex, quads, p) -> list:
    """Second-kind differentials with double poles at quads: column k of p
    dz plus the pinned dzbar part at quads[k], the form with only that
    dzbar part, which column k of the (black, white) values holds."""
    quads = np.asarray(quads, dtype=np.intp)
    qbar = _pinned_dzbar(cx, quads)
    nq = cx.nq
    values = np.zeros((2 * nq, len(quads)), complex)
    cols = np.arange(len(quads))
    values[quads, cols] = qbar
    values[nq + quads, cols] = -1j * np.conj(cx.rho_array[quads]) * qbar
    return [AbelianDifferential(from_coefficients(cx, p[:, k])
                                + DiamondForm(values[:nq, k], values[nq:, k]),
                                "second", {}, {q: complex(qbar[k])})
            for k, q in enumerate(quads.tolist())]


def abelian_basis(cx: QuadComplex, basis: HomologyBasis, b0: int, w0: int):
    """The spanning family: first, second, and third kind differentials.

    Returns 2g + nq + nv - 2 differentials: the canonical basis, one
    second-kind form per quad, and third-kind forms pairing b0 and w0
    with every other vertex of their color.  Their value vectors span
    the full 2*nq-dimensional space of diamond forms.  All of them,
    normalized as by ``canonical_bases``, ``abelian_second`` and
    ``abelian_third``, are the columns of one solve of their common
    system, so it is factored once.
    """
    require_ids((b0, w0), cx.nv, "vertex")
    if cx.colors[b0] != BLACK or cx.colors[w0] != WHITE:
        raise DqsError("base points must be one black and one white vertex")
    g2, nq = 2 * basis.g, cx.nq
    poles = np.array([v for v in range(cx.nv) if v not in (b0, w0)], dtype=np.intp)
    bases = np.where(np.asarray(cx.colors)[poles] == BLACK, b0, w0)
    p = _dz_solve(cx, basis, np.eye(g2), range(nq), np.column_stack([bases, poles]),
                  what="Abelian basis")
    out = [AbelianDifferential(from_coefficients(cx, p[:, k]), "first")
           for j in range(basis.g) for k in (j, basis.g + j)]
    out += _second_kind_forms(cx, range(nq), p[:, g2:])
    for j, (base, v) in enumerate(zip(bases.tolist(), poles.tolist())):
        out.append(AbelianDifferential(from_coefficients(cx, p[:, g2 + nq + j]), "third",
                                       {base: 1.0, v: -1.0}, {}))
    return out
