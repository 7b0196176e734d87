"""Layer spans recorded from outside the program.

The tracer wraps public functions of the ``dqs`` modules.  A function
imported by name (``from .io import parse_dqs``) is bound in several
modules, so the wrapper replaces every binding of the original function
object in every loaded ``dqs`` module.  Spans stay in memory until the
run ends.  A layer's self time is its span time minus the time of its
child spans; the self times of all layers, ``cli.main`` included, add up
to the job times.  Spans use the wall clock, which costs no system call
per reading as the process CPU clock does.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, layer).  Functions not listed run inside the span
# of their caller: QuadComplex.build and build_basis count as parsing,
# graph_path and integrate_graph_path as Abel-Jacobi, genus and
# branch_vertex as covering checks.
SPANS = (
    ("io", "parse_dqs", "io.parse"),
    ("io", "parse_map_bundle", "io.parse"),
    ("io", "parse_divisor_string", "io.parse"),
    ("io", "serialize_dqs", "io.serialize"),
    ("io", "serialize_oneform", "io.serialize"),
    ("io", "serialize_map_bundle", "io.serialize"),
    ("cli", "_matrix_json", "io.serialize"),
    ("cli", "Report.emit", "io.serialize"),
    ("surface", "validate", "surface.validate"),
    ("surface", "require_surface", "surface.validate"),
    ("homology", "homology_basis", "homology.basis"),
    ("homology", "integrate_cycle", "homology.integrate"),
    ("homology", "integrate_black_chain", "homology.integrate"),
    ("homology", "integrate_white_chain", "homology.integrate"),
    ("differentials", "holomorphic_with_a_periods", "differentials.solve"),
    ("differentials", "harmonic_with_periods", "differentials.solve"),
    ("differentials", "abelian_second", "differentials.solve"),
    ("differentials", "abelian_third", "differentials.solve"),
    ("differentials", "canonical_bases", "differentials.solve"),
    ("differentials", "period_matrices", "differentials.periods_self"),
    ("riemann_roch", "l_dim", "riemann_roch.kernel"),
    ("riemann_roch", "i_dim", "riemann_roch.kernel"),
    ("coverings", "validate_map", "coverings.map"),
    ("coverings", "check_riemann_hurwitz", "coverings.map"),
    ("jacobian", "abel_jacobi_black", "jacobian.aj"),
    ("jacobian", "abel_jacobi_white", "jacobian.aj"),
    ("jacobian", "abel_jacobi_quad", "jacobian.aj"),
    ("calculus", "closedness_residual", "calculus.verify"),
    ("calculus", "hodge_star", "calculus.verify"),
    ("calculus", "decompose_all", "calculus.verify"),
    ("selftest", "run_all", "selftest.run"),
    ("cli", "main", "cli.self"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in SPANS))
SOLVES = ("differentials.holomorphic_with_a_periods", "differentials.harmonic_with_periods",
          "differentials.abelian_second", "differentials.abelian_third")

# (metric, unit) in the order the benchmark reports them
METRICS = (
    ("io.parse_s", "s"), ("io.parse_bytes", "bytes"), ("io.serialize_s", "s"),
    ("surface.validate_s", "s"), ("surface.validate_calls", "count"),
    ("homology.basis_s", "s"), ("homology.basis_calls", "count"),
    ("homology.basis_repeat_frac", "ratio"), ("homology.integrate_s", "s"),
    ("differentials.solve_s", "s"), ("differentials.solve_calls", "count"),
    ("differentials.canonical_calls", "count"),
    ("differentials.canonical_repeat_frac", "ratio"),
    ("differentials.periods_self_s", "s"),
    ("riemann_roch.kernel_s", "s"), ("riemann_roch.calls", "count"),
    ("coverings.map_s", "s"), ("jacobian.aj_s", "s"), ("calculus.verify_s", "s"),
    ("selftest.run_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_jobs_per_cpu_s", "jobs/s"),
)


def _surface_key(cx):
    return hash((cx.colors, cx.quads, cx.rho))


def _extra(name):
    """What a span records besides its times: input size or input key."""
    if name in ("io.parse_dqs", "io.parse_map_bundle"):
        return lambda args: len(args[0])
    if name == "homology.homology_basis":
        return lambda args: _surface_key(args[0])
    if name == "differentials.canonical_bases":
        return lambda args: (_surface_key(args[0]),
                             tuple(c.edges for c in args[1].all_cycles()))
    return None


class Tracer:
    """Span recorder; ``install`` wraps the functions, ``remove`` restores them."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, job, extra]
        self.job = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, _extra(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            info = extra(args) if extra else None
            span = [name, 0, 0, stack[-1] if stack else -1, self.job, info]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "dqs" or key.startswith("dqs."))]
        for modname, attr, _ in SPANS:
            owner = sys.modules[f"dqs.{modname}"]
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{modname}.{attr}", original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{modname}.{attr}", original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def remove(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def metrics(self) -> dict:
        """Per-layer totals over every recorded span."""
        layer_of = {f"{m}.{a}": layer for m, a, layer in SPANS}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = {}
        parse_bytes = 0
        seen = {"homology.homology_basis": set(), "differentials.canonical_bases": set()}
        repeats = dict.fromkeys(seen, 0)
        for i, (name, start, end, parent, _, info) in enumerate(self.spans):
            self_s[layer_of[name]] += (end - start - child_ns[i]) * 1e-9
            calls[name] = calls.get(name, 0) + 1
            if name in ("io.parse_dqs", "io.parse_map_bundle") and (
                    parent < 0 or layer_of[self.spans[parent][0]] != "io.parse"):
                parse_bytes += info
            if name in seen:
                repeats[name] += info in seen[name]
                seen[name].add(info)

        def frac(name):
            return repeats[name] / calls[name] if calls.get(name) else 0.0

        return {
            "io.parse_s": self_s["io.parse"],
            "io.parse_bytes": parse_bytes,
            "io.serialize_s": self_s["io.serialize"],
            "surface.validate_s": self_s["surface.validate"],
            "surface.validate_calls": calls.get("surface.validate", 0)
            + calls.get("surface.require_surface", 0),
            "homology.basis_s": self_s["homology.basis"],
            "homology.basis_calls": calls.get("homology.homology_basis", 0),
            "homology.basis_repeat_frac": frac("homology.homology_basis"),
            "homology.integrate_s": self_s["homology.integrate"],
            "differentials.solve_s": self_s["differentials.solve"],
            "differentials.solve_calls": sum(calls.get(n, 0) for n in SOLVES),
            "differentials.canonical_calls": calls.get("differentials.canonical_bases", 0),
            "differentials.canonical_repeat_frac": frac("differentials.canonical_bases"),
            "differentials.periods_self_s": self_s["differentials.periods_self"],
            "riemann_roch.kernel_s": self_s["riemann_roch.kernel"],
            "riemann_roch.calls": calls.get("riemann_roch.l_dim", 0)
            + calls.get("riemann_roch.i_dim", 0),
            "coverings.map_s": self_s["coverings.map"],
            "jacobian.aj_s": self_s["jacobian.aj"],
            "calculus.verify_s": self_s["calculus.verify"],
            "selftest.run_s": self_s["selftest.run"],
            "cli.self_s": self_s["cli.self"],
        }

    def dump(self, path):
        """Write the spans as JSON: one [name, start_ns, end_ns, parent, job] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job"],
                       "spans": [s[:5] for s in self.spans]}, fh)
