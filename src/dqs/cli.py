"""Command line interface.

Surfaces travel as DQS JSON on files or stdin/stdout, so commands
compose in pipelines: `dqs gen torus --m 4 --n 4 --tau 0+1i | dqs
periods`.  Analysis commands print a report (text or JSON lines) and
exit nonzero when a check fails or an input is malformed.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import calculus as ca
from . import differentials as di
from . import homology as ho
from . import jacobian as ja
from . import operators as op
from . import riemann_roch as rr
from .coverings import CoveringMap, check_riemann_hurwitz, gen_cube_double_cover, validate_map
from .errors import DqsError, ParseError, SurfaceError
from .generators import delaunay_voronoi, gen_torus
from .io import (
    oneform_doc,
    parse_divisor_string,
    parse_dqs,
    parse_map_bundle,
    parse_obj,
    serialize_dqs,
    serialize_function,
    serialize_map_bundle,
)
from .surface import genus, require_ids, require_surface, validate
from .selftest import run_all


def _read_input(path):
    """(text, name) of a UTF-8 file, or of stdin for None or "-"; a file
    that cannot be opened or decoded raises DqsError."""
    name = "<stdin>" if path in (None, "-") else path
    try:
        if name == "<stdin>":
            return sys.stdin.read(), name
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(), name
    except (OSError, UnicodeDecodeError) as exc:
        raise DqsError(f"{name}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None


def _read_surface(args):
    """Read, parse and check the surface argument: (text, complex, embedded
    basis).

    The surface must pass ``require_surface``: the first violation in
    ``validate``'s order is raised.  Edges shared by more than two quads
    (strong regularity) do not block a command.  ``check`` parses the
    surface itself and lists every violation instead.
    """
    text, name = _read_input(args.surface)
    cx, embedded = parse_dqs(text, name)
    require_surface(cx)
    return text, cx, embedded


def _complex_arg(s: str) -> complex:
    """A finite complex number written like 1+2i, 0.5, or 1+2j."""
    s = s.strip()
    try:
        z = complex(s[:-1] + "j" if s.endswith("i") else s)
    except ValueError:
        raise ParseError("<argument>", f"bad complex number {s!r}; write e.g. 1+2i") from None
    if not cmath.isfinite(z):
        raise ParseError("<argument>", f"complex number {s!r} is not finite")
    return z


def _matrix_json(m) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.atleast_2d(m)]


class Report:
    """Accumulates named checks and renders them as text or JSON lines."""

    def __init__(self, command, fmt, digest=None):
        self.command = command
        self.fmt = fmt
        self.digest = digest
        self.checks = []
        self.outputs = {}
        self.start = time.perf_counter()

    def check(self, name, passed, residual=None):
        self.checks.append({"name": name, "pass": bool(passed),
                            "residual": None if residual is None else float(residual)})

    def emit(self, stream=None):
        stream = stream if stream is not None else sys.stdout
        elapsed = time.perf_counter() - self.start
        if self.fmt == "json":
            doc = {"command": self.command, "input_digest": self.digest,
                   "outputs": self.outputs, "checks": self.checks,
                   "wall_time": elapsed}
            print(json.dumps(doc), file=stream)
        else:
            for key, val in self.outputs.items():
                print(f"{key}: {json.dumps(val)}", file=stream)
            for c in self.checks:
                status = "ok" if c["pass"] else "FAIL"
                res = "" if c["residual"] is None else f" (residual {c['residual']:.3e})"
                print(f"[{status}] {c['name']}{res}", file=stream)
        return 0 if all(c["pass"] for c in self.checks) else 1


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _basis_for(cx, embedded):
    """The embedded basis, once it passes ``require_basis``, or the tree-cotree one."""
    return ho.homology_basis(cx) if embedded is None else ho.require_basis(cx, embedded)


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args):
    text, name = _read_input(args.surface)
    cx, _ = parse_dqs(text, name)
    report = Report("check", args.format, _digest(text))
    vr = validate(cx)
    report.outputs["violations"] = [str(v) for v in vr.violations]
    report.check("surface-valid", vr.ok)
    return report.emit()


def cmd_genus(args):
    text, cx, _ = _read_surface(args)
    report = Report("genus", args.format, _digest(text))
    report.outputs["genus"] = genus(cx)
    return report.emit()


def cmd_homology(args):
    text, cx, embedded = _read_surface(args)
    basis = _basis_for(cx, embedded)
    report = Report("homology", args.format, _digest(text))
    report.outputs["genus"] = basis.g
    report.outputs["cycle_lengths"] = [len(c) for c in basis.all_cycles()]
    report.outputs["intersection_matrix"] = basis.intersection.tolist()
    return report.emit()


def cmd_periods(args):
    text, cx, embedded = _read_surface(args)
    basis = _basis_for(cx, embedded)
    pm = di.period_matrices(cx, basis, di.canonical_bases(cx, basis, tol=args.tol))
    report = Report("periods", args.format, _digest(text))
    report.outputs["Pi"] = _matrix_json(pm.Pi)
    if args.complete:
        report.outputs["Pi_full"] = _matrix_json(pm.Pi_full)
        report.outputs["Pi_black"] = _matrix_json(pm.Pi_black)
        report.outputs["Pi_white"] = _matrix_json(pm.Pi_white)
    if basis.g:
        asym = np.abs(pm.Pi - pm.Pi.T).max()
        report.check("symmetry", asym < args.tol * 10, asym)
        report.check("positive-imaginary",
                     np.linalg.eigvalsh((pm.Pi.imag + pm.Pi.imag.T) / 2).min() > 0)
    return report.emit()


def cmd_harmonic(args):
    text, cx, embedded = _read_surface(args)
    basis = _basis_for(cx, embedded)
    targets = [_complex_arg(t) for t in args.targets.split(",")] if args.targets \
        else [0.0] * (4 * basis.g)
    if len(targets) != 4 * basis.g:
        raise DqsError(f"need 4g = {4 * basis.g} targets, got {len(targets)}")
    omega = di.harmonic_with_periods(cx, basis, targets, tol=args.tol)
    report = Report("harmonic", args.format, _digest(text))
    report.outputs["form"] = oneform_doc(omega)
    # the checks read the form scaled to values of at most 1: they bound
    # the relative residual, and large targets do not overflow them
    unit = omega * (1.0 / max(1.0, omega.norm()))
    closed = ca.closedness_residual(cx, unit)
    report.check("closed", closed < args.tol * 10, closed)
    co = ca.closedness_residual(cx, ca.hodge_star(cx, unit))
    report.check("co-closed", co < args.tol * 10, co)
    return report.emit()


def cmd_abelian(args):
    text, cx, embedded = _read_surface(args)
    basis = _basis_for(cx, embedded)
    report = Report("abelian", args.format, _digest(text))
    if args.second is not None:
        diff, hb = di.abelian_second_with_bases(cx, basis, args.second, tol=args.tol)
        res = np.abs(di.residues(cx, diff.form)).max()
        report.outputs["form"] = oneform_doc(diff.form)
        report.check("residues-vanish", res < args.tol * 10, res)
        # plain b-periods: half the sums of the doubled b-shadow periods
        doubled = op.integrals(basis.b_shadow_steps, 2 * basis.g, [diff.form], cx.nq)[:, 0]
        lhs = (doubled[:basis.g] + doubled[basis.g:]) / 2.0
        p = np.array([ca.decompose_all(cx, w)[0][args.second] for w in hb.omega], dtype=complex)
        worst = np.abs(lhs - 2j * np.pi * p).max(initial=0.0)
        report.check("b-period-law", worst < 1e-8, worst)
    else:
        v, v2 = args.third
        diff = di.abelian_third(cx, basis, v, v2, tol=args.tol)
        res = di.residues(cx, diff.form)
        report.outputs["form"] = oneform_doc(diff.form)
        report.check("residue-plus", abs(res[v] - 1) < args.tol * 10, abs(res[v] - 1))
        report.check("residue-minus", abs(res[v2] + 1) < args.tol * 10, abs(res[v2] + 1))
        others = np.abs(np.delete(res, [v, v2])).max(initial=0.0)
        report.check("no-other-poles", others < args.tol * 10, others)
        aper = np.abs(op.integrals(basis.a_shadow_steps, 2 * basis.g,
                                   [diff.form], cx.nq)).max(initial=0.0)
        report.check("a-periods-vanish", aper < args.tol * 10, aper)
    return report.emit()


def cmd_riemann_roch(args):
    text, cx, _ = _read_surface(args)
    d = parse_divisor_string(args.divisor)
    rep = rr.check_riemann_roch(cx, d)
    report = Report("riemann-roch", args.format, _digest(text))
    report.outputs["l"] = rep.l_value
    report.outputs["i"] = rep.i_value
    report.outputs["deg"] = rep.deg
    report.outputs["genus"] = rep.genus
    report.outputs["identity"] = (
        f"{rep.l_value} = {rep.deg} - {2 * rep.genus} + 2 + {rep.i_value}")
    report.check("riemann-roch-identity", rep.residual == 0, abs(rep.residual))
    return report.emit()


def cmd_hurwitz(args):
    text, name = _read_input(args.map)

    def loader(p):
        base = os.path.dirname(name) if name != "<stdin>" else "."
        return _read_input(os.path.join(base, p))[0]

    source, target, vm, _, _ = parse_map_bundle(text, name, loader)
    for side, cx in (("source", source), ("target", target)):
        try:
            require_surface(cx)
        except SurfaceError as exc:
            raise SurfaceError(f"{side}: {exc}") from None
    cmap = CoveringMap(source, target, vm)
    report = Report("hurwitz", args.format, _digest(text))
    vrep = validate_map(cmap)
    report.check("map-valid", vrep.ok)
    if vrep.ok:
        br = check_riemann_hurwitz(cmap, vrep)
        report.outputs["sheets"] = br.sheets
        report.outputs["total_branching"] = br.total_branching
        report.outputs["genus_source"] = br.genus_source
        report.outputs["genus_target"] = br.genus_target
        report.outputs["identity"] = (
            f"{br.genus_source} = {br.sheets}*({br.genus_target}-1)+1+"
            f"{br.total_branching}/2")
        report.check("riemann-hurwitz-identity", br.genus_residual == 0)
    return report.emit()


def cmd_abel_jacobi(args):
    text, cx, embedded = _read_surface(args)
    v = args.point
    require_ids((args.base,), cx.nq, "quad")
    require_ids((v,), cx.nv, "vertex")
    basis = _basis_for(cx, embedded)
    hb = di.canonical_bases(cx, basis)
    pm = di.period_matrices(cx, basis, hb)
    jac, jb, jw = ja.jacobians(pm)
    report = Report("abel-jacobi", args.format, _digest(text))
    if cx.colors[v] == 0:
        val = ja.abel_jacobi_black(cx, hb, jb, args.base, v)
        lattice = jb
        which = "black"
    else:
        val = ja.abel_jacobi_white(cx, hb, jw, args.base, v)
        lattice = jw
        which = "white"
    report.outputs["map"] = which
    report.outputs["representative"] = [[z.real, z.imag] for z in val.vector]
    report.outputs["lattice_generators"] = _matrix_json(lattice.generators)
    # the components are the canonical forms: closed through the medial expansion
    closed = max((ca.closedness_residual(cx, w) for w in hb.omega), default=0.0)
    report.check("holomorphic-components", closed < 1e-10, closed)
    return report.emit()


def cmd_gen(args):
    if args.kind == "torus":
        cx = gen_torus(args.m, args.n, _complex_arg(args.tau))
        basis = ho.standard_torus_basis(cx, args.m, args.n)
        sys.stdout.write(serialize_dqs(cx, basis) + "\n")
    elif args.kind == "cube-cover":
        total, base, cmap = gen_cube_double_cover()
        sys.stdout.write(serialize_map_bundle(total, base, cmap.vertex_map) + "\n")
    elif args.kind == "one-pole":
        text, name = _read_input(args.base)
        cx, basis = parse_dqs(text, name)
        out, f = rr.gen_one_pole_surface(cx, args.quad,
                                         _complex_arg(args.rho1), _complex_arg(args.rho2))
        if basis is not None:
            touched = {e // 4 for c in basis.all_cycles() for (e, _) in c.edges}
            if args.quad in touched:
                print(f"note: dropping stored basis (cycles cross quad {args.quad})",
                      file=sys.stderr)
                basis = None
        sys.stdout.write(serialize_dqs(out, basis) + "\n")
        if args.function_out:
            try:
                with open(args.function_out, "w", encoding="utf-8") as fh:
                    fh.write(serialize_function(f) + "\n")
            except OSError as exc:
                raise DqsError(f"{args.function_out}: cannot write: {exc.strerror}") from None
    elif args.kind == "delaunay":
        text, name = _read_input(args.obj)
        verts, faces = parse_obj(text, name)
        cx = delaunay_voronoi(verts, faces)
        sys.stdout.write(serialize_dqs(cx) + "\n")
    return 0


def cmd_selftest(args):
    results = run_all(args.seed)
    for r in results:
        if args.format == "json":
            print(json.dumps({"criterion": r.criterion, "name": r.name,
                              "pass": r.passed, "detail": r.detail,
                              "seconds": r.seconds}))
        else:
            print(r.line())
    passed = all(r.passed for r in results)
    if args.format != "json":
        print(f"{'ALL CRITERIA PASS' if passed else 'FAILURES PRESENT'} "
              f"({sum(r.passed for r in results)}/{len(results)})")
    return 0 if passed else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process.

    Parsing keeps no state in the parser, and argparse looks up
    sys.stdout and sys.stderr when it prints, so one parser serves
    every call of main.  Each option goes only to the commands that read
    it, so a misplaced one is a usage error rather than ignored.
    """
    fmt, tol, seed = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    tol.add_argument("--tol", type=float, default=1e-9, help="numerical tolerance")
    seed.add_argument("--seed", type=int, default=0, help="seed for randomized checks")

    p = argparse.ArgumentParser(prog="dqs", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def surface_cmd(name, fn, help_, *options):
        sp = sub.add_parser(name, help=help_, parents=[fmt, *options])
        sp.add_argument("surface", nargs="?", default="-",
                        help="DQS file or - for stdin")
        sp.set_defaults(fn=fn)
        return sp

    surface_cmd("check", cmd_check, "validate a surface")
    surface_cmd("genus", cmd_genus, "print the genus")
    surface_cmd("homology", cmd_homology, "canonical homology basis summary")
    sp = surface_cmd("periods", cmd_periods, "period matrices", tol)
    sp.add_argument("--complete", action="store_true",
                    help="also print the 2g x 2g and shadow matrices")
    sp = surface_cmd("harmonic", cmd_harmonic, "harmonic form with given periods", tol)
    sp.add_argument("--targets", default=None,
                    help="comma list of 4g complex periods (AB..., AW..., BB..., BW...)")
    sp = surface_cmd("abelian", cmd_abelian, "abelian differential with verification", tol)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--second", type=int, metavar="Q",
                       help="double pole at quad Q")
    group.add_argument("--third", type=int, nargs=2, metavar=("V", "V2"),
                       help="simple poles at two same-color vertices")
    sp = surface_cmd("riemann-roch", cmd_riemann_roch, "dimension counts for a divisor")
    sp.add_argument("--divisor", default="", help='e.g. "v:3=-1,q:7=-2,q:9=1"')
    sp = sub.add_parser("hurwitz", help="branching report of a covering map",
                        parents=[fmt])
    sp.add_argument("map", nargs="?", default="-", help="map bundle JSON")
    sp.set_defaults(fn=cmd_hurwitz)
    sp = surface_cmd("abel-jacobi", cmd_abel_jacobi, "Abel-Jacobi value of a vertex")
    sp.add_argument("--base", type=int, required=True, help="base quad id")
    sp.add_argument("--point", type=int, required=True, help="target vertex id")

    sp = sub.add_parser("gen", help="generate surfaces")
    gensub = sp.add_subparsers(dest="kind", required=True)
    gt = gensub.add_parser("torus")
    gt.add_argument("--m", type=int, required=True)
    gt.add_argument("--n", type=int, required=True)
    gt.add_argument("--tau", required=True,
                    help="complex modulus, e.g. 0+1i; write one with a negative real "
                         "part as --tau=-0.27+0.9i")
    gt.set_defaults(fn=cmd_gen)
    gc = gensub.add_parser("cube-cover")
    gc.set_defaults(fn=cmd_gen)
    go = gensub.add_parser("one-pole")
    go.add_argument("--base", default="-", help="base DQS file or - for stdin")
    go.add_argument("--quad", type=int, required=True)
    go.add_argument("--rho1", required=True)
    go.add_argument("--rho2", required=True)
    go.add_argument("--function-out", default=None,
                    help="write the one-pole function JSON here")
    go.set_defaults(fn=cmd_gen)
    gd = gensub.add_parser("delaunay")
    gd.add_argument("--obj", default="-", help="OBJ triangle mesh or - for stdin")
    gd.set_defaults(fn=cmd_gen)

    st = sub.add_parser("selftest", help="run the full acceptance suite",
                        parents=[fmt, seed])
    st.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0].startswith("-") and argv[0] not in ("-", "-h", "--help"):
        # argparse would read the option's value as the command
        parser.error(f"options go after the command, e.g. dqs genus --format json FILE; "
                     f"got {argv[0]!r} first")
    args = parser.parse_args(argv)
    try:
        if "tol" in args and not (math.isfinite(args.tol) and args.tol > 0):
            raise DqsError(f"--tol must be a finite positive number, got {args.tol}")
        if "seed" in args and args.seed < 0:
            raise DqsError(f"--seed must be a nonnegative integer, got {args.seed}")
        return args.fn(args)
    except DqsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
