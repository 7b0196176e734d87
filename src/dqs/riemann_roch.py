"""Divisors, dimension counts, the index identity, and pole criteria.

A divisor assigns small integer coefficients to vertices and quads.  For
an admissible divisor D (vertex coefficients in {-1, 0}, quad
coefficients in {-2, 0, 1}) the function space L(-D) consists of vertex
functions satisfying every quad's holomorphicity equation except where a
simple pole is allowed (quad coefficient 1), with double values forced
where the coefficient is -2 and zeros forced at vertices with -1.  The
differential space H(D) mirrors it on forms.  Both dimensions come from
numerical kernels; the identity l(-D) = deg D - 2g + 2 + i(D) ties them
together and is checked in integers.  Both systems are cut from the
operators cached on the complex, read-only: the rows of ``l_system`` and
the p columns of ``i_system`` come from the one p dz operator
``QuadComplex.dz_boundary``, the double-value and dzbar parts from
``QuadComplex.boundary_matrix``, and unit rows are written directly, so
every divisor on one surface reuses one assembly.  ``i_dim_basis_route``
counts i(D) a second way, from the spanning family of Abelian
differentials: the forms D allows are columns of one batch solve in
``dqs.differentials``, and its elimination matrix is their dz
coefficients at the quads where D forces a zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DqsError
from .calculus import as_vertex_function, d_function, decompose_all
from .differentials import _dz_solve
from .homology import HomologyBasis
from .operators import compose, nullity
from .surface import BLACK, WHITE, QuadComplex, genus, require_ids


@dataclass(frozen=True)
class Divisor:
    """Integer weights on vertices (-1..1) and quads (-2..2)."""

    vertex_coeffs: dict = field(default_factory=dict)
    quad_coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        vc = {int(v): int(c) for v, c in self.vertex_coeffs.items() if c}
        qc = {int(q): int(c) for q, c in self.quad_coeffs.items() if c}
        for v, c in vc.items():
            if c not in (-1, 0, 1):
                raise DqsError(f"vertex coefficient {c} at {v} outside -1..1")
        for q, c in qc.items():
            if c not in (-2, -1, 0, 1, 2):
                raise DqsError(f"quad coefficient {c} at {q} outside -2..2")
        object.__setattr__(self, "vertex_coeffs", vc)
        object.__setattr__(self, "quad_coeffs", qc)

    @property
    def admissible(self) -> bool:
        return (all(c in (-1, 0) for c in self.vertex_coeffs.values())
                and all(c in (-2, 0, 1) for c in self.quad_coeffs.values()))

    def __neg__(self):
        return Divisor({v: -c for v, c in self.vertex_coeffs.items()},
                       {q: -c for q, c in self.quad_coeffs.items()})


def degree(d: Divisor) -> int:
    """Vertex coefficients plus quad coefficient signs (double points count once)."""
    return (sum(d.vertex_coeffs.values())
            + sum(int(np.sign(c)) for c in d.quad_coeffs.values()))


def function_divisor(cx: QuadComplex, f, tol: float = 1e-10) -> Divisor:
    """Divisor of a meromorphic vertex function.

    Zeros where f vanishes, coefficient 2 where df vanishes on the whole
    quad face (a double value), -1 where the holomorphicity equation
    fails (a simple pole).  A biconstant f has df identically zero; its
    divisor is degenerate and the caller should treat it separately.
    """
    f = as_vertex_function(cx, f)
    df = d_function(cx, f)
    _, qbar = decompose_all(cx, df)
    scale = max(1.0, np.abs(f).max(initial=0.0))
    vc = {v: 1 for v in range(cx.nv) if abs(f[v]) < tol * scale}
    qc = {}
    for q in range(cx.nq):
        if abs(df.black[q]) < tol * scale and abs(df.white[q]) < tol * scale:
            qc[q] = 2
        elif abs(qbar[q]) > tol * scale:
            qc[q] = -1
    return Divisor(vc, qc)


def is_degenerate_divisor(cx: QuadComplex, d: Divisor) -> bool:
    """True when every quad is a double value (divisor of a biconstant)."""
    return all(d.quad_coeffs.get(q) == 2 for q in range(cx.nq))


def _require_admissible(cx: QuadComplex, d: Divisor):
    require_ids(d.vertex_coeffs, cx.nv, "vertex")
    require_ids(d.quad_coeffs, cx.nq, "quad")
    if not d.admissible:
        raise DqsError("divisor is not admissible (vertex in {-1,0}, quad in {-2,0,1})")


def _ids_with(d: dict, coeff: int) -> np.ndarray:
    """Ids whose coefficient in d is coeff, ascending."""
    return np.array(sorted(i for i, c in d.items() if c == coeff), dtype=np.intp)


def _ids_without(n: int, d: dict, coeff: int) -> np.ndarray:
    """Ids below n, ascending, whose coefficient in d is not coeff."""
    keep = np.ones(n, dtype=bool)
    keep[_ids_with(d, coeff)] = False
    return np.flatnonzero(keep)


def _unit_rows(ids: np.ndarray, n: int) -> np.ndarray:
    """Rows of the n x n identity at ids."""
    rows = np.zeros((len(ids), n))
    rows[np.arange(len(ids)), ids] = 1.0
    return rows


def l_system(cx: QuadComplex, d: Divisor) -> np.ndarray:
    """Constraint matrix whose kernel is L(-D) inside C^V.

    Quads with coefficient 1 in D allow a pole (no holomorphicity row);
    quads with -2 force a double value; vertices with -1 force a zero.
    The holomorphicity rows are the transposed residue rows of p dz
    forms (``QuadComplex.dz_boundary``), and the double-value rows are
    the black and white rows of 2 * d_function at each double quad.
    """
    _require_admissible(cx, d)
    B = cx.boundary_matrix
    nq = cx.nq
    holomorphic = _ids_without(nq, d.quad_coeffs, 1)
    double = _ids_with(d.quad_coeffs, -2)
    double_rows = np.stack([-B[:, nq + double].T, B[:, double].T], axis=1).reshape(-1, cx.nv)
    zeros = _unit_rows(_ids_with(d.vertex_coeffs, -1), cx.nv)
    return np.vstack([cx.dz_boundary.T[holomorphic], double_rows, zeros])


def l_dim(cx: QuadComplex, d: Divisor) -> int:
    """dim L(-D): meromorphic functions with divisor >= -D."""
    return nullity(l_system(cx, d))


def i_system(cx: QuadComplex, d: Divisor):
    """Constraint matrix for H(D) and its unknown layout.

    Unknowns: the dz coefficient p per quad, plus one dzbar coefficient
    per quad with coefficient -2 in D (double pole allowed).  Rows force
    zero residues at every vertex without a pole allowance and vanishing
    of the form at quads with coefficient 1.  The p columns of the
    residue rows are ``QuadComplex.dz_boundary``.
    """
    _require_admissible(cx, d)
    B = cx.boundary_matrix
    dzbar_quads = _ids_with(d.quad_coeffs, -2)
    residue_free = _ids_without(cx.nv, d.vertex_coeffs, -1)
    dzbar = compose(B[np.ix_(residue_free, np.concatenate([dzbar_quads, cx.nq + dzbar_quads]))],
                    1.0, -1j * np.conj(cx.rho_array[dzbar_quads]))
    n_unknowns = cx.nq + len(dzbar_quads)
    A = np.vstack([np.hstack([cx.dz_boundary[residue_free], dzbar]),
                   _unit_rows(_ids_with(d.quad_coeffs, 1), n_unknowns)])
    return A, n_unknowns


def i_dim(cx: QuadComplex, d: Divisor) -> int:
    """dim H(D): Abelian differentials with divisor >= D."""
    A, _ = i_system(cx, d)
    return nullity(A)


@dataclass(frozen=True)
class DimensionReport:
    l_value: int
    i_value: int
    deg: int
    genus: int

    @property
    def residual(self) -> int:
        return self.l_value - (self.deg - 2 * self.genus + 2 + self.i_value)


def check_riemann_roch(cx: QuadComplex, d: Divisor) -> DimensionReport:
    """Both sides of the index identity; residual must be exactly zero."""
    g = genus(cx)
    rep = DimensionReport(l_dim(cx, d), i_dim(cx, d), degree(d), g)
    return rep


def i_dim_basis_route(cx: QuadComplex, basis: HomologyBasis, d: Divisor) -> int:
    """i(D) via the spanning-family elimination matrix.

    Columns are the normalized differentials allowed by D (first kind,
    second kind at double-pole quads, third kind pairing the allowed
    pole vertices of each color with the first of them), all solved as
    columns of one ``differentials._dz_solve``; rows read their dz
    coefficient at every quad where D forces a zero.  The kernel is
    H(D), computed independently of the direct route.
    """
    _require_admissible(cx, d)
    poles = _ids_with(d.vertex_coeffs, -1)
    pairs = []
    for color in (BLACK, WHITE):
        group = [v for v in poles.tolist() if cx.colors[v] == color]
        pairs += [(group[0], v) for v in group[1:]]
    p = _dz_solve(cx, basis, np.eye(2 * basis.g), _ids_with(d.quad_coeffs, -2), pairs,
                  what="i(D) basis")
    return nullity(p[_ids_with(d.quad_coeffs, 1)])


# ---------------------------------------------------------------------------
# torus pole criteria and the single-pole construction


def torus_pole_test(cx: QuadComplex, q1: int, q2: int,
                    embedding_classes=None, tol: float = 1e-9):
    """Existence of a meromorphic function with exactly two simple poles.

    Checks the kernel dimension with poles allowed at q1 and q2 on a
    genus-1 surface; on a torus a single simple pole is impossible, so
    the kernel exceeds the biconstants iff a two-pole function exists.
    When the two quads' black-diagonal direction classes are supplied
    (e.g. the checkerboard classes of a flat grid), the parallel
    criterion is cross-checked.
    """
    if genus(cx) != 1:
        raise DqsError("pole criterion applies to genus-1 surfaces")
    d = Divisor({}, {q1: 1, q2: 1})
    exists = l_dim(cx, d) > 2
    if embedding_classes is not None:
        orthogonal = all(abs(r.imag) < tol * abs(r) for r in cx.rho)
        if orthogonal:
            parallel = embedding_classes[q1] == embedding_classes[q2]
            if parallel != exists:
                raise DqsError(
                    f"parallel-diagonal criterion ({parallel}) disagrees with "
                    f"kernel result ({exists})")
    return exists


def torus_single_pole_search(cx: QuadComplex) -> list:
    """Quads admitting a meromorphic function with exactly one simple pole."""
    if genus(cx) != 1:
        raise DqsError("single-pole search applies to genus-1 surfaces")
    hits = []
    for q in range(cx.nq):
        if l_dim(cx, Divisor({}, {q: 1})) > 2:
            hits.append(q)
    return hits


def gen_one_pole_surface(cx: QuadComplex, q0: int, rho1: complex, rho2: complex):
    """Replace quad q0 by a five-quad gadget carrying a one-pole function.

    The gadget inserts four fresh vertices forming an inner quad with
    weight rho1, ringed by four quads of weight rho2 that reuse the old
    quad's corners; vertex and quad counts grow by four each, so the
    genus is unchanged.  Returns the new surface and the meromorphic
    function with a single simple pole at the inner quad (which keeps
    the id q0).
    """
    require_ids((q0,), cx.nq, "quad")
    rho1, rho2 = complex(rho1), complex(rho2)
    if rho1.real <= 0 or rho2.real <= 0:
        raise DqsError("gadget weights must have positive real part")
    BM, WM, BP, WP = cx.quads[q0]
    nb_m, nw_m, nb_p, nw_p = cx.nv, cx.nv + 1, cx.nv + 2, cx.nv + 3
    colors = list(cx.colors) + [BLACK, WHITE, BLACK, WHITE]

    quads = list(cx.quads)
    rho = list(cx.rho)
    quads[q0] = (nb_m, nw_m, nb_p, nw_p)
    rho[q0] = rho1
    ring = [
        (BM, nw_m, nb_m, WP),   # below the inner quad
        (BM, WM, nb_p, nw_m),   # right of it
        (BP, nw_p, nb_p, WM),   # above it
        (BP, WP, nb_m, nw_p),   # left of it
    ]
    for t in ring:
        quads.append(t)
        rho.append(rho2)
    out = QuadComplex.build(colors, quads, rho)

    f = np.zeros(out.nv, dtype=complex)
    f[nb_m] = 1.0
    f[nb_p] = -1.0
    f[nw_p] = 1j * rho2
    f[nw_m] = -1j * rho2
    return out, f
