"""One gate for doubled edges, and 3x3 subdivision pinned bit for bit.

Every operation that needs the rotation system refuses a doubled edge
through ``surface.require_star_cycles``, so each refusal is an
AmbiguousGluingError that names the edge.  ``subdivide3`` numbers its
side points by the edge table of the complex; the digests below pin its
colors, quads, weights and provenance on the surfaces the package
builds with it.
"""

import hashlib
import re

import numpy as np
import pytest

from dqs import gen_cube, gen_torus
from dqs.coverings import CoveringMap, check_riemann_hurwitz, double_cover, gen_cube_double_cover
from dqs.differentials import canonical_bases
from dqs.errors import AmbiguousGluingError
from dqs.generators import randomize_rho
from dqs.homology import standard_torus_basis
from dqs.jacobian import abel_jacobi_quad
from dqs.surface import medial_graph, subdivide3, subdivide3_with_provenance, vertex_chart

_DOUBLED = gen_torus(2, 4, 0.4 + 1j)


def _quad_map(cx):
    return abel_jacobi_quad(cx, canonical_bases(cx, standard_torus_basis(cx, 2, 4)), 0, 5)


@pytest.mark.parametrize("operation", [
    subdivide3,
    lambda cx: double_cover(cx, []),
    _quad_map,
    lambda cx: vertex_chart(cx, 0),
    medial_graph,
    lambda cx: check_riemann_hurwitz(CoveringMap(cx, cx, range(cx.nv))),
], ids=["subdivide3", "double_cover", "abel_jacobi_quad", "vertex_chart", "medial_graph",
        "check_riemann_hurwitz"])
def test_doubled_edges_are_refused_by_one_gate(operation):
    message = "edge {1, 0} occurs in 4 quad boundaries; rotation system is ambiguous"
    with pytest.raises(AmbiguousGluingError, match=f"^{re.escape(message)}$"):
        operation(_DOUBLED)


def _digest(cx):
    sub, provenance = subdivide3_with_provenance(cx)
    text = repr((sub.colors, sub.quads, sub.rho, provenance))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_COVER = gen_cube_double_cover()[0]


@pytest.mark.parametrize("surface, digest", [
    (gen_cube(), "61a5d29bc199f214"),
    (gen_torus(4, 6, 0.3 + 1.2j), "7a69e5cfe7205d37"),
    (_COVER, "62ad8e0fdfbf3355"),
    (randomize_rho(_COVER, np.random.default_rng(5)), "6d0def3df8ae8153"),
    (subdivide3(_COVER), "a737e2fb6c110de0"),
], ids=["cube", "torus-4x6", "genus-3-cover", "cover-weight-draw", "cover-subdivided"])
def test_subdivide3_is_pinned(surface, digest):
    assert _digest(surface) == digest
