"""Exterior calculus on the medial graph.

One-forms live on oriented medial edges.  The workhorse class is
``DiamondForm``: a one-form taking opposite values on the two parallel
edges of every quad face, stored as one black and one white value per
quad (the values on the edges running along b- -> b+ and w- -> w+).
In the normalized chart these edges have vectors 1 and i*rho, so the
unique representation  omega = p dz + q dzbar  on a quad face satisfies

    black = p + q,          white = i*rho*p - i*conj(rho)*q.

Two-forms are one value per medial face; faces are indexed vertices
first (0..nv-1), then quads (nv..nv+nq-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DqsError
from .operators import costar, nullity
from .surface import (
    SLOT_BM,
    SLOT_BP,
    SLOT_WM,
    SLOT_WP,
    QuadComplex,
    expand_diamond,
    intersection_angle,
)


def as_vertex_function(cx: QuadComplex, f) -> np.ndarray:
    return _as_function(f, cx.nv, "vertex")


def as_quad_function(cx: QuadComplex, h) -> np.ndarray:
    return _as_function(h, cx.nq, "quad")


def _as_function(values, n: int, what: str) -> np.ndarray:
    """values as a complex array of length n: a dict {id: value} is zero
    elsewhere, anything else must have shape (n,)."""
    if isinstance(values, dict):
        out = np.zeros(n, dtype=complex)
        for i, val in values.items():
            out[int(i)] = val
        return out
    arr = np.asarray(values, dtype=complex)
    if arr.shape != (n,):
        raise DqsError(f"{what} function has shape {arr.shape}, expected ({n},)")
    return arr


@dataclass(frozen=True)
class DiamondForm:
    """One-form taking opposite values on parallel medial edges of a quad."""

    black: np.ndarray
    white: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "black", np.asarray(self.black, dtype=complex))
        object.__setattr__(self, "white", np.asarray(self.white, dtype=complex))

    @staticmethod
    def zero(cx: QuadComplex) -> "DiamondForm":
        return DiamondForm(np.zeros(cx.nq, complex), np.zeros(cx.nq, complex))

    def expand(self, cx: QuadComplex) -> "OneForm":
        return OneForm(expand_diamond(cx, self.black, self.white))

    def __add__(self, other):
        return DiamondForm(self.black + other.black, self.white + other.white)

    def __sub__(self, other):
        return DiamondForm(self.black - other.black, self.white - other.white)

    def __mul__(self, c):
        return DiamondForm(self.black * c, self.white * c)

    __rmul__ = __mul__

    def __neg__(self):
        return DiamondForm(-self.black, -self.white)

    def conjugate(self):
        return DiamondForm(np.conj(self.black), np.conj(self.white))

    def norm(self) -> float:
        return float(max(np.abs(self.black).max(initial=0.0),
                         np.abs(self.white).max(initial=0.0)))


@dataclass(frozen=True)
class OneForm:
    """General one-form: a value per canonical medial edge orientation."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))


@dataclass(frozen=True)
class TwoForm:
    """A value per medial face; vertex faces first, quad faces after."""

    vertex_values: np.ndarray
    quad_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertex_values", np.asarray(self.vertex_values, dtype=complex))
        object.__setattr__(self, "quad_values", np.asarray(self.quad_values, dtype=complex))

    def total(self) -> complex:
        return complex(self.vertex_values.sum() + self.quad_values.sum())

    def max_abs(self) -> float:
        return float(max(np.abs(self.vertex_values).max(initial=0.0),
                         np.abs(self.quad_values).max(initial=0.0)))


# ---------------------------------------------------------------------------
# derivatives


def d_function(cx: QuadComplex, f) -> DiamondForm:
    """Exterior derivative of a vertex function; a diamond form.

    On the medial edge parallel to a diagonal the value is half the
    difference of f across that diagonal.
    """
    f = as_vertex_function(cx, f)
    t = cx.quad_array
    black = (f[t[:, SLOT_BP]] - f[t[:, SLOT_BM]]) / 2.0
    white = (f[t[:, SLOT_WP]] - f[t[:, SLOT_WM]]) / 2.0
    return DiamondForm(black, white)


def decompose_quad(cx: QuadComplex, omega: DiamondForm, q: int):
    """Coefficients (p, q) with omega = p dz + q dzbar on the quad face."""
    p, qq = decompose_all(cx, omega)
    return complex(p[q]), complex(qq[q])


def decompose_all(cx: QuadComplex, omega: DiamondForm):
    rho = cx.rho_array
    det = -2j * rho.real  # determinant of [[1, 1], [i rho, -i conj(rho)]]
    p = (-1j * np.conj(rho) * omega.black - omega.white) / det
    q = (-1j * rho * omega.black + omega.white) / det
    return p, q


def from_coefficients(cx: QuadComplex, p, q=None) -> DiamondForm:
    """Diamond form with given dz (and optional dzbar) coefficients."""
    p = np.asarray(p, dtype=complex)
    rho = cx.rho_array
    if q is None:
        return DiamondForm(p.copy(), 1j * rho * p)
    q = np.asarray(q, dtype=complex)
    return DiamondForm(p + q, 1j * rho * p - 1j * np.conj(rho) * q)


def derivatives_quad(cx: QuadComplex, f, q: int):
    """(d/dz, d/dzbar) of a vertex function on one quad, normalized chart."""
    return decompose_quad(cx, d_function(cx, f), q)


def cr_residuals(cx: QuadComplex, f) -> np.ndarray:
    """Per-quad magnitude of the antiholomorphic part of df."""
    _, qbar = decompose_all(cx, d_function(cx, f))
    return np.abs(qbar)


def is_holomorphic(cx: QuadComplex, f) -> float:
    """Max antiholomorphic defect; zero iff f satisfies every quad's CR equation."""
    res = cr_residuals(cx, f)
    return float(res.max()) if len(res) else 0.0


def multiply_vertex(cx: QuadComplex, f, omega) -> OneForm:
    """Product f*omega with the key-vertex rule (f evaluated at the edge key)."""
    f = as_vertex_function(cx, f)
    if isinstance(omega, DiamondForm):
        omega = omega.expand(cx)
    keys = cx.quad_array.reshape(-1)  # key vertex of edge 4q+slot
    return OneForm(f[keys] * omega.values)


def d_one_form(cx: QuadComplex, omega) -> TwoForm:
    """Exterior derivative: face value = ccw boundary sum (Stokes as definition)."""
    if isinstance(omega, DiamondForm):
        omega = omega.expand(cx)
    vals = omega.values
    quad_values = vals.reshape(-1, 4).sum(axis=1)
    vertex_values = np.zeros(cx.nv, dtype=complex)
    np.add.at(vertex_values, cx.quad_array.reshape(-1), -vals)
    return TwoForm(vertex_values, quad_values)


def closedness_residual(cx: QuadComplex, omega: DiamondForm) -> float:
    """Max boundary sum over vertex faces (quad faces vanish identically)."""
    d = d_one_form(cx, omega)
    return float(np.abs(d.vertex_values).max(initial=0.0))


# ---------------------------------------------------------------------------
# wedge, Hodge star, scalar product


def diamond_area_form(cx: QuadComplex) -> np.ndarray:
    """Integral of the coordinate area form over each quad face: -4i*Re(rho)."""
    return -4j * cx.rho_array.real


def wedge(cx: QuadComplex, omega: DiamondForm, other: DiamondForm) -> TwoForm:
    """Wedge product of two diamond forms; vanishes on vertex faces."""
    p1, q1 = decompose_all(cx, omega)
    p2, q2 = decompose_all(cx, other)
    vals = (p1 * q2 - q1 * p2) * diamond_area_form(cx)
    return TwoForm(np.zeros(cx.nv, complex), vals)


def wedge_quad_by_edges(cx: QuadComplex, omega: DiamondForm, other: DiamondForm, q: int) -> complex:
    """Chart-free wedge on one quad face: 2(int_e w int_e* w' - int_e* w int_e w')."""
    return complex(2 * omega.black[q] * other.white[q] - 2 * omega.white[q] * other.black[q])


def hodge_star(cx: QuadComplex, omega: DiamondForm) -> DiamondForm:
    """Per-quad map p dz + q dzbar -> -i p dz + i q dzbar; squares to -Id."""
    p, q = decompose_all(cx, omega)
    return from_coefficients(cx, -1j * p, 1j * q)


def hodge_star_edge_formula(cx: QuadComplex, omega: DiamondForm, q: int):
    """Star via the cot/sin edge formulas; agrees with hodge_star per quad."""
    import math
    rho = cx.rho[q]
    phi = intersection_angle(rho)
    cot, sin = math.cos(phi) / math.sin(phi), math.sin(phi)
    b, w = omega.black[q], omega.white[q]
    star_b = cot * b - (1.0 / (abs(rho) * sin)) * w
    star_w = (abs(rho) / sin) * b - cot * w
    return complex(star_b), complex(star_w)


def scalar_product(cx: QuadComplex, omega: DiamondForm, other: DiamondForm) -> complex:
    """Hermitian inner product  integral of omega wedge star(conj(other))."""
    p1, q1 = decompose_all(cx, omega)
    p2, q2 = decompose_all(cx, other)
    rho = cx.rho_array
    return complex(np.sum(4.0 * rho.real * (p1 * np.conj(p2) + q1 * np.conj(q2))))


def dirichlet_energy(cx: QuadComplex, f) -> float:
    df = d_function(cx, f)
    return float(scalar_product(cx, df, df).real)


# ---------------------------------------------------------------------------
# Laplacian


def laplacian_matrix(cx: QuadComplex) -> np.ndarray:
    """Dense matrix of the vertex Laplacian with unit face volumes.

    Row v evaluates the ccw boundary integral of star(df) around the
    vertex face F_v.  Harmonicity of f at v is independent of the face
    volume normalization.
    """
    B = cx.boundary_matrix
    nq = cx.nq
    d = 0.5 * np.vstack([-B[:, nq:].T, B[:, :nq].T])  # df in (black, white) values
    return costar(cx, B) @ d


def laplacian(cx: QuadComplex, f) -> np.ndarray:
    """Discrete Laplacian of a vertex function (unit face volumes)."""
    f = as_vertex_function(cx, f)
    return d_one_form(cx, hodge_star(cx, d_function(cx, f))).vertex_values


def check_liouville(cx: QuadComplex) -> int:
    """Kernel dimension of the Laplacian; 2 on any compact surface."""
    return nullity(laplacian_matrix(cx))


# ---------------------------------------------------------------------------
# derivation rule


def derivation_rule_check(cx: QuadComplex, f, omega: DiamondForm) -> float:
    """Max face residual of  d(f w) - df ^ w - f dw."""
    f = as_vertex_function(cx, f)
    lhs = d_one_form(cx, multiply_vertex(cx, f, omega))
    wdg = wedge(cx, d_function(cx, f), omega)
    dw = d_one_form(cx, omega)
    # dw of a diamond form is supported on vertex faces, so f*dw is too
    res_v = np.abs(lhs.vertex_values - wdg.vertex_values - f * dw.vertex_values)
    res_q = np.abs(lhs.quad_values - wdg.quad_values)
    return float(max(res_v.max(initial=0.0), res_q.max(initial=0.0)))


# ---------------------------------------------------------------------------
# chart-dependent derivatives on the dual


def dual_derivatives(cx: QuadComplex, h, chart) -> tuple:
    """(d/dz, d/dzbar) of a quad function at the chart's center vertex.

    These depend on the supplied vertex chart; no chart-free meaning is
    claimed.  The face volume is the algebraic area of the medial
    polygon around the vertex in the chart.
    """
    h = as_quad_function(cx, h)
    v = chart.vertex
    mids = []
    for s, q in enumerate(chart.quads):
        pos = chart.positions[s]
        slot = cx.corner_slot(q, v)
        nxt = pos[(slot + 1) % 4]
        prv = pos[(slot - 1) % 4]
        # medial endpoints of [q, v] in this chart (center is 0)
        mids.append(((prv / 2.0), (nxt / 2.0), q))
    area = 0.0
    int_dzbar = 0.0
    int_dz = 0.0
    for start, end, q in mids:
        # F_v is traversed against the canonical orientation: end -> start
        seg = start - end
        area += (end.real * start.imag - start.real * end.imag) / 2.0
        int_dzbar += h[q] * np.conj(seg)
        int_dz += h[q] * seg
    vol = -4j * area
    return complex(int_dzbar / vol), complex(-int_dz / vol)
