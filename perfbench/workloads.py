"""The three benchmark workloads: seeded inputs, CLI jobs, reference checks.

A workload writes its input files into a work directory and hands out
jobs in rounds.  Every round of a workload has the same composition
(the same commands on the same input sizes); the seed only draws the
weights, moduli, divisors and pole positions.  The job loop always runs
whole rounds, so throughput, the median and the tail percentile see the
same job mix whatever the seed and however many rounds fit in a run.

Each job is one ``dqs`` command line.  Its check compares the JSON
report with a reference the benchmark knows independently of the
program: the modulus the torus was generated with, the genus of the
generator, the standard intersection pairing, the Riemann-Roch and
Riemann-Hurwitz identities evaluated on the benchmark's own numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dqs import coverings, generators, homology, io, surface


@dataclass
class Job:
    """One CLI invocation and the check of its parsed JSON report(s)."""

    label: str
    argv: list
    check: Callable  # list of report dicts -> list of problem strings


def _complex_text(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _z(pair) -> complex:
    return complex(pair[0], pair[1])


def _standard_pairing(g: int) -> list:
    eye = np.eye(g, dtype=int)
    zero = np.zeros((g, g), dtype=int)
    return np.block([[zero, eye], [-eye, zero]]).tolist()


def _lattice_residual(d: complex, tau: complex) -> float:
    """Distance of d from the lattice Z + Z*tau, in lattice coordinates."""
    y = d.imag / tau.imag
    x = d.real - y * tau.real
    return max(abs(x - round(x)), abs(y - round(y)))


def _one_report(reports, command):
    if len(reports) != 1 or reports[0].get("command") != command:
        return None, [f"expected one {command} report, got {len(reports)} lines"]
    return reports[0], []


def _form_problems(doc, nq):
    vals = doc["outputs"].get("form", {}).get("values", [])
    if len(vals) != nq:
        return [f"form has {len(vals)} quad values, expected {nq}"]
    flat = np.array([[b[0], b[1], w[0], w[1]] for _, b, w in vals])
    if not np.isfinite(flat).all():
        return ["form has non-finite values"]
    return []


def _abelian_job(label, command, cx, path, rng) -> Job:
    """abelian --second at a random quad, or --third at two random vertices
    of one colour; the CLI checks the residues and periods."""
    if command == "abelian-second":
        args = ["--second", str(int(rng.integers(cx.nq)))]
    else:
        v = int(rng.integers(cx.nv))
        same = [x for x in range(cx.nv) if cx.colors[x] == cx.colors[v] and x != v]
        args = ["--third", str(v), str(int(rng.choice(same)))]

    def check(reports):
        doc, bad = _one_report(reports, "abelian")
        return bad if doc is None else _form_problems(doc, cx.nq)
    return Job(label, ["abelian", *args, "--format", "json", path], check)


class Workload:
    """Base: a work directory, a seed and a file counter."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._files = 0

    def rng(self, *stream) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def write(self, text: str) -> str:
        path = os.path.join(self.workdir, f"in{self._files:06d}.json")
        self._files += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    # The highest standard percentile with at least ten jobs beyond it at
    # the job count a run of the workload reaches.  It is fixed per
    # workload so that it cannot flip between runs whose job counts differ
    # by a round.
    TAIL_PERCENTILE: float

    def warmup(self) -> Job:
        raise NotImplementedError

    def round(self, r: int) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# torus-session: solver-heavy, every job on a surface of its own


class TorusSession(Workload):
    """Flat m x m tori with embedded bases; solves dominate every job."""

    SIZES = (8, 12, 16, 20, 24)
    TAIL_PERCENTILE = 90  # 25 jobs a round, 150-175 jobs a run
    COMMANDS = ("periods", "harmonic", "abelian-second", "abelian-third", "abel-jacobi")

    def _torus(self, m, rng):
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.4))
        cx = generators.gen_torus(m, m, tau)
        basis = homology.standard_torus_basis(cx, m, m)
        return cx, tau, self.write(io.serialize_dqs(cx, basis))

    def warmup(self) -> Job:
        # a dense solve large enough to start the BLAS library's threads
        return self._job("harmonic", 8, self.rng(1 << 20))

    def round(self, r):
        rng = self.rng(r)
        jobs = [self._job(c, m, rng) for m in self.SIZES for c in self.COMMANDS]
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def _job(self, command, m, rng) -> Job:
        cx, tau, path = self._torus(m, rng)
        nq = cx.nq
        tol = 1e-12 * nq
        label = f"{command}@{m}"
        if command == "periods":
            def check(reports):
                doc, bad = _one_report(reports, "periods")
                if doc is None:
                    return bad
                out = doc["outputs"]
                for key in ("Pi", "Pi_black", "Pi_white"):
                    mat = out.get(key)
                    if mat is None or len(mat) != 1 or len(mat[0]) != 1:
                        bad.append(f"{key} is not 1x1 (genus 1)")
                    elif abs(_z(mat[0][0]) - tau) > tol:
                        bad.append(f"{key}={_z(mat[0][0])} differs from tau={tau}")
                return bad
            return Job(label, ["periods", "--complete", "--format", "json", path], check)

        if command == "harmonic":
            # alpha dz + beta dzbar: closed, co-closed, known values on every quad
            alpha = complex(*rng.normal(size=2))
            beta = complex(*rng.normal(size=2))
            a = alpha + beta
            b = alpha * tau + beta * tau.conjugate()
            targets = ",".join(_complex_text(t) for t in (a, a, b, b))
            u, w = 1.0 / m, tau / m

            def check(reports):
                doc, bad = _one_report(reports, "harmonic")
                if doc is None:
                    return bad
                bad = _form_problems(doc, nq)
                if bad:
                    return bad
                worst = 0.0
                for q, blk, wht in doc["outputs"]["form"]["values"]:
                    i, j = q % m, q // m
                    db, dw = (u + w, w - u) if (i + j) % 2 == 0 else (w - u, -u - w)
                    eb = (alpha * db + beta * db.conjugate()) / 2
                    ew = (alpha * dw + beta * dw.conjugate()) / 2
                    worst = max(worst, abs(_z(blk) - eb), abs(_z(wht) - ew))
                scale = abs(alpha) + abs(beta)
                if worst > tol * scale:
                    bad.append(f"form differs from alpha dz + beta dzbar by {worst:.3e}")
                return bad
            return Job(label, ["harmonic", f"--targets={targets}", "--format", "json", path],
                       check)

        if command.startswith("abelian"):
            return _abelian_job(label, command, cx, path, rng)

        # abel-jacobi: the value is z(point) minus the base quad's centre,
        # modulo the lattice Z + Z*tau
        base = int(rng.integers(nq))
        point = int(rng.integers(cx.nv))
        u, w = 1.0 / m, tau / m
        bi, bj = base % m, base // m
        pi, pj = point % m, point // m
        expected = (pi - bi - 0.5) * u + (pj - bj - 0.5) * w

        def check(reports):
            doc, bad = _one_report(reports, "abel-jacobi")
            if doc is None:
                return bad
            out = doc["outputs"]
            gens = [_z(z) for z in out["lattice_generators"][0]]
            if len(gens) != 2 or abs(gens[0] - 1) > tol or abs(gens[1] - tau) > tol:
                bad.append(f"lattice generators {gens} are not (1, tau={tau})")
            rep = out["representative"]
            if len(rep) != 1:
                return bad + [f"representative has {len(rep)} components, expected 1"]
            off = _lattice_residual(_z(rep[0]) - expected, tau)
            if off > tol:
                bad.append(f"Abel-Jacobi value off the reference by {off:.3e}")
            return bad
        return Job(label, ["abel-jacobi", "--base", str(base), "--point", str(point),
                           "--format", "json", path], check)


# ---------------------------------------------------------------------------
# topology-large: parse, validate, tree-cotree and covering scans, no solves


class TopologyLarge(Workload):
    """Basis-free large tori, the subdivided genus-3 cover, torus covers.

    A round is 11 jobs: four cheap ones (check on the 40^2 and 48^2 tori
    and the genus-3 surface, hurwitz on the 8^2 cover), three of similar
    middling cost (homology on the 32^2 torus and the genus-3 surface,
    hurwitz on the 10^2 cover) and four expensive ones.  With as many
    jobs below the middle group as above it, the median falls inside that
    group, not at the edge of a gap in cost where it would jump.
    """

    CHECKS = (("torus", 40), ("torus", 48), ("genus3", 972))
    HOMOLOGY = (("torus", 32), ("torus", 40), ("torus", 48), ("genus3", 972))
    COVERS = (8, 10, 12, 16)
    TAIL_PERCENTILE = 75  # 11 jobs a round, 44-55 jobs a run

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._cube_cover, _, _ = coverings.gen_cube_double_cover()

    def warmup(self) -> Job:
        rng = self.rng(1 << 20)
        return self._surface_job("check", ("torus", 8), rng)

    def round(self, r):
        rng = self.rng(r)
        jobs = [self._surface_job("check", s, rng) for s in self.CHECKS]
        jobs += [self._surface_job("homology", s, rng) for s in self.HOMOLOGY]
        jobs += [self._cover_job(m, rng) for m in self.COVERS]
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def _surface(self, shape, rng):
        kind, size = shape
        if kind == "torus":
            tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.4))
            return generators.gen_torus(size, size, tau), 1
        cx = generators.randomize_rho(self._cube_cover, rng)
        return surface.subdivide3(cx), 3

    def _surface_job(self, command, shape, rng) -> Job:
        cx, g = self._surface(shape, rng)
        path = self.write(io.serialize_dqs(cx))
        label = f"{command}@{shape[0]}-{shape[1]}"
        if command == "check":
            def check(reports):
                doc, bad = _one_report(reports, "check")
                if doc is not None and doc["outputs"].get("violations"):
                    bad.append(f"generated surface reported invalid: "
                               f"{doc['outputs']['violations'][:3]}")
                return bad
            return Job(label, ["check", "--format", "json", path], check)

        def check(reports):
            doc, bad = _one_report(reports, "homology")
            if doc is None:
                return bad
            out = doc["outputs"]
            if out.get("genus") != g:
                bad.append(f"genus {out.get('genus')} != generator genus {g}")
            if out.get("intersection_matrix") != _standard_pairing(g):
                bad.append("intersection matrix is not the standard pairing")
            if len(out.get("cycle_lengths", [])) != 2 * g:
                bad.append(f"{len(out.get('cycle_lengths', []))} cycles, expected {2 * g}")
            return bad
        return Job(label, ["homology", "--format", "json", path], check)

    def _cover_job(self, m, rng) -> Job:
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.4))
        source, target, cmap = coverings.gen_torus_unbranched_cover(m, m, tau)
        path = self.write(io.serialize_map_bundle(source, target, cmap.vertex_map))
        sheets, branching, g_source, g_target = 2, 0, 1, 1

        def check(reports):
            doc, bad = _one_report(reports, "hurwitz")
            if doc is None:
                return bad
            out = doc["outputs"]
            got = (out.get("sheets"), out.get("total_branching"),
                   out.get("genus_source"), out.get("genus_target"))
            if got != (sheets, branching, g_source, g_target):
                bad.append(f"(sheets, branching, g, g') = {got}, expected "
                           f"{(sheets, branching, g_source, g_target)}")
            elif 2 * g_source != 2 * sheets * (g_target - 1) + 2 + branching:
                bad.append("Riemann-Hurwitz identity fails on the reported numbers")
            return bad
        return Job(f"hurwitz@cover{m}", ["hurwitz", "--format", "json", path], check)


# ---------------------------------------------------------------------------
# genus3-dims: many small solves on a few shared surfaces


class Genus3Dims(Workload):
    """The 108-quad genus-3 cube cover under a few seeded weight draws."""

    SURFACES = 3
    PER_ROUND = (("riemann-roch", 24), ("abelian-second", 12), ("abelian-third", 12),
                 ("periods", 12), ("selftest", 1))
    GENUS = 3
    TAIL_PERCENTILE = 95  # 61 jobs a round, 500-700 jobs a run

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._base, _, _ = coverings.gen_cube_double_cover()
        self.surfaces = []
        for k in range(self.SURFACES):
            cx = generators.randomize_rho(self._base, self.rng(1 << 21, k))
            self.surfaces.append((cx, self.write(io.serialize_dqs(cx))))

    def warmup(self) -> Job:
        # its own weight draw, so no shared surface is computed before timing
        cx = generators.randomize_rho(self._base, self.rng(1 << 20))
        return self._job("periods", cx, self.write(io.serialize_dqs(cx)), self.rng(1 << 20))

    def round(self, r):
        rng = self.rng(r)
        jobs = []
        for command, count in self.PER_ROUND:
            for k in range(count):
                cx, path = self.surfaces[k % self.SURFACES]
                jobs.append(self._job(command, cx, path, rng))
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def _job(self, command, cx, path, rng) -> Job:
        g = self.GENUS
        if command == "riemann-roch":
            vc, qc = {}, {}
            for _ in range(int(rng.integers(1, 5))):
                if rng.random() < 0.4:
                    vc[int(rng.integers(cx.nv))] = -1
                else:
                    qc[int(rng.integers(cx.nq))] = int(rng.choice([-2, 1]))
            deg = sum(vc.values()) + sum(int(np.sign(c)) for c in qc.values())
            terms = [f"v:{v}={c}" for v, c in vc.items()] + [f"q:{q}={c}" for q, c in qc.items()]

            def check(reports):
                doc, bad = _one_report(reports, "riemann-roch")
                if doc is None:
                    return bad
                out = doc["outputs"]
                if out.get("genus") != g:
                    bad.append(f"genus {out.get('genus')} != {g}")
                if out.get("deg") != deg:
                    bad.append(f"degree {out.get('deg')} != {deg}")
                l_val, i_val = out.get("l"), out.get("i")
                if not (isinstance(l_val, int) and isinstance(i_val, int)
                        and l_val >= 0 and i_val >= 0):
                    bad.append(f"dimensions l={l_val}, i={i_val} are not counts")
                elif l_val - (deg - 2 * g + 2 + i_val) != 0:
                    bad.append(f"Riemann-Roch residual {l_val - (deg - 2 * g + 2 + i_val)}")
                return bad
            return Job("riemann-roch", ["riemann-roch", "--divisor", ",".join(terms),
                                        "--format", "json", path], check)

        if command.startswith("abelian"):
            return _abelian_job(command, command, cx, path, rng)

        if command == "periods":
            def check(reports):
                doc, bad = _one_report(reports, "periods")
                if doc is None:
                    return bad
                pi = np.array([[_z(z) for z in row] for row in doc["outputs"]["Pi"]])
                if pi.shape != (g, g):
                    return [f"Pi has shape {pi.shape}, expected genus {g}"]
                scale = max(1.0, float(np.abs(pi).max()))
                asym = float(np.abs(pi - pi.T).max())
                if asym > 1e-12 * cx.nq * scale:
                    bad.append(f"Pi not symmetric ({asym:.3e})")
                if np.linalg.eigvalsh((pi.imag + pi.imag.T) / 2).min() <= 0:
                    bad.append("Im Pi is not positive definite")
                return bad
            return Job(command, ["periods", "--format", "json", path], check)

        seed = int(rng.integers(1 << 16))

        def check(reports):
            if len(reports) != 12 or not all("criterion" in r for r in reports):
                return [f"expected 12 criteria, got {len(reports)} lines"]
            return [f"criterion {r['criterion']} failed: {r.get('detail')}"
                    for r in reports if not r.get("pass")]
        return Job("selftest", ["selftest", "--seed", str(seed), "--format", "json"], check)


WORKLOADS = {
    "torus-session": TorusSession,
    "topology-large": TopologyLarge,
    "genus3-dims": Genus3Dims,
}
