"""Divisors, dimension counts, the index identity, and pole criteria.

A divisor assigns small integer coefficients to vertices and quads.  For
an admissible divisor D (vertex coefficients in {-1, 0}, quad
coefficients in {-2, 0, 1}) the function space L(-D) consists of vertex
functions satisfying every quad's holomorphicity equation except where a
simple pole is allowed (quad coefficient 1), with double values forced
where the coefficient is -2 and zeros forced at vertices with -1.  The
differential space H(D) mirrors it on forms.  Both dimensions come from
numerical kernels; the identity l(-D) = deg D - 2g + 2 + i(D) ties them
together and is checked in integers.  The counts run on the tree-reduced
systems (``l_tree_system``, ``i_tree_system``): the unreduced systems
with the pivots of the white forest eliminated, about half the size in
each dimension and of the same nullity.  By the duality of the theorem
the l system is the i system transposed, both cut from one cached matrix
(``QuadComplex.form_columns``) that every divisor on a surface reuses.
Each count keeps its own rank decision.  Where the two agree, l - i is
the index of the cut (rows minus columns), deg D - 2g + 2 by counting,
so the identity's residual can be non-zero only where the two
singular-value counts straddle the cutoff.  Its independent evidence is
``i_dim_basis_route``, which counts i(D) from the spanning family of
Abelian differentials: the forms D allows are columns of one batch
solve in ``dqs.differentials``, and its elimination matrix is their dz
coefficients at the quads where D forces a zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DqsError
from .calculus import as_vertex_function, d_function, decompose_all
from .differentials import _dz_solve
from .homology import HomologyBasis
from .operators import nullity
from .surface import BLACK, SLOT_BM, SLOT_BP, WHITE, QuadComplex, genus, require_ids


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


def function_divisor(cx: QuadComplex, f) -> Divisor:
    """Divisor of a meromorphic vertex function.

    Zeros where f vanishes, coefficient 2 where df vanishes on the whole
    quad face (a double value), -1 where the holomorphicity equation
    fails (a simple pole).  A biconstant f has df identically zero; its
    divisor is degenerate and the caller should treat it separately.
    A value counts as zero below 1e-10 * max(1, max |f|).
    """
    f = as_vertex_function(cx, f)
    df = d_function(cx, f)
    _, qbar = decompose_all(cx, df)
    eps = 1e-10 * max(1.0, np.abs(f).max(initial=0.0))
    vc = {v: 1 for v in range(cx.nv) if abs(f[v]) < eps}
    qc = {}
    for q in range(cx.nq):
        if abs(df.black[q]) < eps and abs(df.white[q]) < eps:
            qc[q] = 2
        elif abs(qbar[q]) > eps:
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


def l_tree_system(cx: QuadComplex, d: Divisor) -> np.ndarray:
    """A matrix whose kernel has the dimension of L(-D) inside C^V: the i system, transposed.

    Unreduced, the kernel is L(-D) itself: every quad but those with
    coefficient 1 in D (a pole allowed) has its holomorphicity row, each
    quad with -2 the black and white rows of d_function (a double value)
    and each vertex with -1 a unit row (a zero).  By the duality of
    discrete Riemann-Roch, a quad's holomorphicity row is the residue
    column of its p dz form transposed, a zero forced at a vertex frees
    its residue, and a pole allowed at a quad forces p to vanish there:
    after the white forest's pivots go, the rows are the columns of
    ``i_tree_system`` and the unknowns its rows.  A double quad's black
    row f(b+) - f(b-) is its i column over 2i Re(rho), and its white row
    is its holomorphicity row plus i rho times the black one.  Scaling a
    row and signing the tree coordinates keep the nullity.
    """
    return i_tree_system(cx, d).T


def l_dim(cx: QuadComplex, d: Divisor) -> int:
    """dim L(-D): meromorphic functions with divisor >= -D."""
    return nullity(l_tree_system(cx, d))


def i_tree_system(cx: QuadComplex, d: Divisor) -> np.ndarray:
    """A matrix whose kernel has the dimension of H(D).

    Unreduced, the unknowns are the dz coefficient p of every quad and a
    dzbar coefficient at each quad with -2 in D (a double pole allowed),
    and the rows force a zero residue at every vertex but those with -1
    and a zero value at each quad with 1.  Here the white forest's pivots
    are eliminated, which keeps the nullity.  Rows and columns are cut
    from ``QuadComplex.form_columns``.  The residue row of a white child
    is a pivot on its root path form, and both go, unless D allows a pole
    there: then the root path form stays as a column.  A zero at a quad
    outside the tree fixes its coordinate, so its column goes.  The dzbar
    column of a double quad minus its p column is -2i Re(rho) times its
    black incidence (+1 at b-, -1 at b+), which has no white residue, so
    that column stands in for it.
    """
    _require_admissible(cx, d)
    child, quad, _ = cx.white_forest
    residue = np.ones(cx.nv, dtype=bool)
    residue[_ids_with(d.vertex_coeffs, -1)] = False
    zero = np.zeros(cx.nq, dtype=bool)
    zero[_ids_with(d.quad_coeffs, 1)] = True
    rows = np.delete(residue, child)
    cols = np.concatenate([np.delete(zero, quad), residue[child]])
    S = cx.form_columns[np.concatenate([rows, zero[quad]])][:, ~cols]
    double = _ids_with(d.quad_coeffs, -2)
    if len(double):
        Q = cx.quad_array[double]
        v = np.delete(np.arange(cx.nv), child)[rows]  # the vertex of each residue row, -1 below
        v = np.append(v, np.full(len(S) - len(v), -1))[:, None]
        black = (v == Q[:, SLOT_BM]) - (v == Q[:, SLOT_BP]) * 1.0
        S = np.hstack([S, black * (-2j * cx.rho_array[double].real)])
    return S


def i_dim(cx: QuadComplex, d: Divisor) -> int:
    """dim H(D): Abelian differentials with divisor >= D."""
    return nullity(i_tree_system(cx, d))


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
                    embedding_classes=None):
    """Existence of a meromorphic function with exactly two simple poles.

    Checks the kernel dimension with poles allowed at q1 and q2 on a
    genus-1 surface; on a torus a single simple pole is impossible, so
    the kernel exceeds the biconstants iff a two-pole function exists.
    When the two quads' black-diagonal direction classes are supplied
    (e.g. the checkerboard classes of a flat grid), the parallel
    criterion is cross-checked where every weight is real, within
    |Im rho| < 1e-9 * |rho|.
    """
    if genus(cx) != 1:
        raise DqsError("pole criterion applies to genus-1 surfaces")
    d = Divisor({}, {q1: 1, q2: 1})
    exists = l_dim(cx, d) > 2
    if embedding_classes is not None:
        orthogonal = all(abs(r.imag) < 1e-9 * abs(r) for r in cx.rho)
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
