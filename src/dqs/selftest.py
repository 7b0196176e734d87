"""Executable acceptance suite.

Each criterion function returns a CheckResult with a pass flag, the
worst residual observed, and its wall time.  The CLI selftest command
and the acceptance test module both run these; tolerances are fixed
here and nowhere else.  Every criterion takes a seed and, optionally,
the genus-3 cube cover (the triple of ``gen_cube_double_cover``), which
it builds itself when none is given: ``run_all`` builds the cover once
and hands it to every criterion, so the operators cached on its total
space serve all of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import calculus as ca
from . import differentials as di
from . import homology as ho
from . import jacobian as ja
from . import riemann_roch as rr
from .coverings import check_riemann_hurwitz, gen_cube_double_cover
from .generators import delaunay_voronoi, gen_cube, gen_torus, randomize_rho, tetrahedron_mesh
from .surface import BLACK, WHITE, Obstruction, genus, realize_rhombic


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.criterion:2d}  {self.name:<24s} {self.detail}  ({self.seconds:.2f} s)"


def _result(criterion, name, start, passed, detail):
    return CheckResult(criterion, name, bool(passed), detail, time.perf_counter() - start)


def _standard_tori():
    return [
        (gen_torus(2, 2, 1j), 2, 2, 1j),
        (gen_torus(4, 4, 1j), 4, 4, 1j),
        (gen_torus(4, 6, 0.3 + 1.2j), 4, 6, 0.3 + 1.2j),
    ]


def _cover(cover):
    """The given genus-3 cube cover, or a new one."""
    return cover if cover is not None else gen_cube_double_cover()


def _genus3(cover):
    """The total space of the genus-3 cube cover."""
    return _cover(cover)[0]


def shipped_surfaces(cover=None):
    """Every generated surface the suite must handle."""
    out = [("cube", gen_cube())]
    for cx, m, n, tau in _standard_tori():
        out.append((f"torus{m}x{n}", cx))
    out.append(("torus2x4", gen_torus(2, 4, 1j)))
    out.append(("genus3-cover", _genus3(cover)))
    verts, faces = tetrahedron_mesh()
    out.append(("tetra-kites", delaunay_voronoi(verts, faces)))
    one_pole, _ = rr.gen_one_pole_surface(gen_torus(4, 4, 1j), 10, 1 + 0.5j, 0.8)
    out.append(("one-pole", one_pole))
    return out


def _random_closed(cx, basis, hb, rng):
    """d of a random function plus random multiples of the canonical forms and
    their conjugates, summed value array by value array."""
    f = rng.normal(size=cx.nv) + 1j * rng.normal(size=cx.nv)
    exact = ca.d_function(cx, f)
    black, white = exact.black, exact.white
    for k in range(basis.g):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        ob, ow = hb.omega_black[k], hb.omega_white[k]
        black = black + c[0] * ob.black + c[1] * ow.black \
            + c[2] * np.conj(ob.black) + c[3] * np.conj(ow.black)
        white = white + c[0] * ob.white + c[1] * ow.white \
            + c[2] * np.conj(ob.white) + c[3] * np.conj(ow.white)
    return ca.DiamondForm(black, white)


def criterion_1(seed=0, cover=None):
    """Torus periods equal the modulus."""
    start = time.perf_counter()
    worst = 0.0
    slowest = 0.0
    for cx, m, n, tau in _standard_tori():
        t0 = time.perf_counter()
        basis = ho.standard_torus_basis(cx, m, n)
        pm = di.period_matrices(cx, basis)
        worst = max(worst, abs(pm.Pi[0, 0] - tau))
        slowest = max(slowest, time.perf_counter() - t0)
    ok = worst < 1e-9 and slowest < 1.0
    return _result(1, "torus-period", start, ok, f"max|Pi - tau| = {worst:.2e}")


def criterion_2(seed=0, cover=None):
    """Period matrix symmetry and positivity on random-weight surfaces."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_sym = 0.0
    worst_eig = np.inf
    t44 = gen_torus(4, 4, 1j)
    g3 = _genus3(cover)
    for i in range(25):
        if i < 20:
            cx = randomize_rho(t44, rng)
            basis = ho.standard_torus_basis(cx, 4, 4)
        else:
            cx = randomize_rho(g3, rng)
            basis = ho.homology_basis(cx)
        pm = di.period_matrices(cx, basis)
        worst_sym = max(
            worst_sym,
            np.abs(pm.Pi - pm.Pi.T).max(),
            np.abs(pm.Pi_full - pm.Pi_full.T).max(),
            np.abs(pm.BB.T - pm.WW).max(),
        )
        worst_eig = min(worst_eig,
                        np.linalg.eigvalsh((pm.Pi.imag + pm.Pi.imag.T) / 2).min(),
                        np.linalg.eigvalsh((pm.Pi_full.imag + pm.Pi_full.imag.T) / 2).min())
    elapsed = time.perf_counter() - start
    ok = worst_sym < 1e-8 and worst_eig > 0 and elapsed < 30.0
    return _result(2, "period-structure", start, ok,
                   f"max asymmetry {worst_sym:.2e}, min Im eig {worst_eig:.3e}")


def criterion_3(seed=0, cover=None):
    """Bilinear identity on random closed forms."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    surfaces = []
    surfaces.append((gen_cube(), ho.homology_basis(gen_cube())))
    t44 = gen_torus(4, 4, 1j)
    surfaces.append((t44, ho.standard_torus_basis(t44, 4, 4)))
    t46 = gen_torus(4, 6, 0.3 + 1.2j)
    surfaces.append((t46, ho.standard_torus_basis(t46, 4, 6)))
    g3 = _genus3(cover)
    surfaces.append((g3, g3.homology_basis))
    for cx, basis in surfaces:
        hb = di.canonical_bases(cx, basis) if basis.g else None
        for _ in range(50):
            w1 = _random_closed(cx, basis, hb, rng)
            w2 = _random_closed(cx, basis, hb, rng)
            worst = max(worst, ho.verify_rbi(cx, w1, w2, basis))
    return _result(3, "bilinear-identity", start, worst < 1e-9,
                   f"max residual {worst:.2e}")


def criterion_4(seed=0, cover=None):
    """Harmonic and holomorphic dimension counts."""
    start = time.perf_counter()
    lines = []
    ok = True
    for name, cx in shipped_surfaces(cover):
        g = genus(cx)
        nh = di.nullity_harmonic(cx)
        no = di.nullity_holomorphic(cx)
        good = nh == 4 * g and no == 2 * g
        ok = ok and good
        if not good:
            lines.append(f"{name}: harmonic {nh} != {4*g} or holomorphic {no} != {2*g}")
    return _result(4, "dimension-counts", start, ok,
                   "all 4g/2g" if ok else "; ".join(lines))


def criterion_5(seed=0, cover=None):
    """Laplacian kernel is the biconstants."""
    start = time.perf_counter()
    bad = [name for name, cx in shipped_surfaces(cover) if ca.check_liouville(cx) != 2]
    return _result(5, "liouville", start, not bad,
                   "kernel dim 2 everywhere" if not bad else f"failed on {bad}")


def criterion_6(seed=0, cover=None):
    """Pointwise calculus identities on random data."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    t44 = gen_torus(4, 4, 1j)
    g3 = _genus3(cover)
    worst = {"ddf": 0.0, "derivation": 0.0, "star2": 0.0, "residue-sum": 0.0}
    for i in range(100):
        cx = randomize_rho(t44 if i % 2 else g3, rng)
        f = rng.normal(size=cx.nv) + 1j * rng.normal(size=cx.nv)
        worst["ddf"] = max(worst["ddf"], ca.d_one_form(cx, ca.d_function(cx, f)).max_abs())
        omega = ca.DiamondForm(rng.normal(size=cx.nq) + 1j * rng.normal(size=cx.nq),
                               rng.normal(size=cx.nq) + 1j * rng.normal(size=cx.nq))
        worst["derivation"] = max(worst["derivation"], ca.derivation_rule_check(cx, f, omega))
        ss = ca.hodge_star(cx, ca.hodge_star(cx, omega)) + omega
        worst["star2"] = max(worst["star2"], ss.norm())
        res = di.residues(cx, omega)
        blacks = [v for v in range(cx.nv) if cx.colors[v] == BLACK]
        whites = [v for v in range(cx.nv) if cx.colors[v] == WHITE]
        worst["residue-sum"] = max(worst["residue-sum"],
                                   abs(res[blacks].sum()), abs(res[whites].sum()))
    ok = all(v < 1e-10 for v in worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    return _result(6, "calculus-identities", start, ok, detail)


def criterion_7(seed=0, cover=None):
    """Branched double cover of the cube satisfies the genus identity."""
    start = time.perf_counter()
    total, base, cmap = _cover(cover)
    rep = check_riemann_hurwitz(cmap)
    g, g2 = genus(total), genus(base)
    ok = (g == 3 and g2 == 0 and rep.sheets == 2 and rep.total_branching == 8
          and rep.genus_residual == 0)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    return _result(7, "riemann-hurwitz", start, ok,
                   f"g=3, N={rep.sheets}, b={rep.total_branching}, "
                   f"3 = 2*(0-1)+1+{rep.total_branching}/2")


def _admissible_divisors_upto2(cx):
    from itertools import combinations

    singles = [rr.Divisor({v: -1}, {}) for v in range(cx.nv)]
    singles += [rr.Divisor({}, {q: c}) for q in range(cx.nq) for c in (-2, 1)]
    out = [rr.Divisor({}, {})] + singles
    for d1, d2 in combinations(range(len(singles)), 2):
        a, b = singles[d1], singles[d2]
        vc = dict(a.vertex_coeffs)
        vc.update(b.vertex_coeffs)
        qc = dict(a.quad_coeffs)
        overlap = set(a.quad_coeffs) & set(b.quad_coeffs)
        if overlap or (set(a.vertex_coeffs) & set(b.vertex_coeffs)):
            continue
        qc.update(b.quad_coeffs)
        out.append(rr.Divisor(vc, qc))
    return out


def _random_admissible(cx, rng, max_terms=4):
    vc, qc = {}, {}
    for _ in range(rng.integers(1, max_terms + 1)):
        if rng.random() < 0.4:
            vc[int(rng.integers(cx.nv))] = -1
        else:
            qc[int(rng.integers(cx.nq))] = int(rng.choice([-2, 1]))
    return rr.Divisor(vc, qc)


def criterion_8(seed=0, cover=None):
    """Index identity, exhaustively on a small torus and sampled on genus 3."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    t24 = gen_torus(2, 4, 1j)
    bad = 0
    count = 0
    for d in _admissible_divisors_upto2(t24):
        rep = rr.check_riemann_roch(t24, d)
        count += 1
        if rep.residual != 0:
            bad += 1
    g3 = _genus3(cover)
    for _ in range(50):
        d = _random_admissible(g3, rng)
        rep = rr.check_riemann_roch(g3, d)
        count += 1
        if rep.residual != 0:
            bad += 1
    # independent route for i(D)
    basis3 = g3.homology_basis
    cross_bad = 0
    for _ in range(10):
        d = _random_admissible(g3, rng, max_terms=3)
        if rr.i_dim(g3, d) != rr.i_dim_basis_route(g3, basis3, d):
            cross_bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and cross_bad == 0 and elapsed < 60.0
    return _result(8, "riemann-roch", start, ok,
                   f"{count} divisors, {bad} violations, {cross_bad} cross-check mismatches")


def criterion_9(seed=0, cover=None):
    """Period laws of second and third kind differentials."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst2 = worst_sym = worst3 = 0.0

    surfaces = []
    t44 = gen_torus(4, 4, 1j)
    surfaces.append((t44, ho.standard_torus_basis(t44, 4, 4)))
    tr = randomize_rho(t44, rng)
    surfaces.append((tr, ho.standard_torus_basis(tr, 4, 4)))
    for cx, basis in surfaces:
        hb = di.canonical_bases(cx, basis)
        quads = [1, 5, 10]
        forms = {q: di.abelian_second(cx, basis, q) for q in quads}
        for q in quads:
            p, _ = ca.decompose_all(cx, hb.omega[0])
            lhs = ho.integrate_cycle(cx, forms[q].form, basis.b[0])
            worst2 = max(worst2, abs(lhs - 2j * np.pi * p[q]))
        for (qa, qb) in [(1, 5), (5, 10)]:
            pa, _ = ca.decompose_all(cx, forms[qa].form)
            pb, _ = ca.decompose_all(cx, forms[qb].form)
            worst_sym = max(worst_sym, abs(pa[qb] - pb[qa]))

        # third kind: poles away from the basis support (rows/cols 0)
        v, v2 = 5, 7
        w3 = di.abelian_third(cx, basis, v, v2)
        forbidden = {j * 4 + i for j in range(4) for i in range(4) if i == 0 or j == 0}
        r_path = ho.graph_path(cx, BLACK, v2, v, forbidden_quads=forbidden)
        lhs = di.b_period_average(cx, w3.form, basis)[0]
        rhs = 2j * np.pi * ho.integrate_graph_path(cx, hb.omega[0], r_path)
        worst3 = max(worst3, abs(lhs - rhs))

    ok = worst2 < 1e-8 and worst_sym < 1e-8 and worst3 < 1e-8
    return _result(9, "abelian-period-laws", start, ok,
                   f"second {worst2:.1e}, symmetry {worst_sym:.1e}, third {worst3:.1e}")


def criterion_10(seed=0, cover=None):
    """Single-pole counterexample surface."""
    start = time.perf_counter()
    base = gen_torus(4, 4, 1j)
    cx, f = rr.gen_one_pole_surface(base, 10, 1 + 0.5j, 0.8 + 0.3j)
    div = rr.function_divisor(cx, f)
    poles = sorted(q for q, c in div.quad_coeffs.items() if c == -1)
    g = genus(cx)
    i_center = rr.i_dim(cx, rr.Divisor({}, {10: 1}))
    basis = ho.standard_torus_basis(cx, 4, 4)
    hb = di.canonical_bases(cx, basis)
    p_at = max(abs(ca.decompose_all(cx, w)[0][10]) for w in hb.omega)
    ok = poles == [10] and g == 1 and i_center == 2 * g and p_at < 1e-9
    return _result(10, "one-pole-counterexample", start, ok,
                   f"poles {poles}, i(center) = {i_center} = 2g, "
                   f"common zero |p| = {p_at:.1e}")


def criterion_11(seed=0, cover=None):
    """Abel-Jacobi holomorphicity and lattice reduction."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_closed = 0.0
    worst_lat = 0.0
    t44 = gen_torus(4, 4, 1j)
    for cx in (t44, randomize_rho(t44, rng)):
        basis = ho.standard_torus_basis(cx, 4, 4)
        hb = di.canonical_bases(cx, basis)
        pm = di.period_matrices(cx, basis, hb)
        _, jb, jw = ja.jacobians(pm)
        worst_closed = max([worst_closed] + [ca.closedness_residual(cx, w) for w in hb.omega])
        anchor = cx.quads[0][0]
        base_path = ho.graph_path(cx, BLACK, anchor, 10)
        loop = [(0, 1), (1, -1), (2, 1), (3, -1)]  # horizontal black cycle
        alt = ho.GraphPath(BLACK, base_path.steps + tuple(loop))
        v1 = ja.abel_jacobi_black(cx, hb, jb, 0, 10, path=base_path)
        v2 = ja.abel_jacobi_black(cx, hb, jb, 0, 10, path=alt)
        worst_lat = max(worst_lat, jb.distance_to_lattice(v1.vector - v2.vector))
    ok = worst_closed < 1e-10 and worst_lat < 1e-8
    return _result(11, "abel-jacobi", start, ok,
                   f"components closed to {worst_closed:.1e}, "
                   f"lattice reduction {worst_lat:.1e}")


def criterion_12(seed=0, cover=None):
    """Rhombic realization and its obstruction."""
    start = time.perf_counter()
    import math

    worst = 0.0
    for cx in (gen_cube(), gen_torus(4, 4, 1j)):
        real = realize_rhombic(cx)
        for q in range(cx.nq):
            worst = max(worst, max(abs(s - 1.0) for s in real.side_lengths(q)))
            worst = max(worst, abs(real.alphas[q] - 2.0 * math.atan(cx.rho[q].real)))
    from .surface import QuadComplex

    rho = [1.0] * 16
    rho[5] = 1 + 1j
    bad_torus = gen_torus(4, 4, 1j)
    bad = realize_rhombic(QuadComplex.build(bad_torus.colors, bad_torus.quads, rho))
    fired = isinstance(bad, Obstruction) and bad.certified and bad.nonreal_quads == (5,)
    ok = worst < 1e-12 and fired
    return _result(12, "rhombic-realization", start, ok,
                   f"max side/angle error {worst:.1e}, obstruction fired: {fired}")


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
                criterion_11, criterion_12]


def run_all(seed: int = 0):
    cover = gen_cube_double_cover()
    return [fn(seed, cover) for fn in ALL_CRITERIA]
