"""Spans around casinv's layers, installed from outside the library.

`Tracer.install` replaces each traced function with a wrapper in every place
casinv binds it: `from .linalg import det_exact` copies the function into
`casinv.matrix`, so patching `casinv.linalg.det_exact` alone would miss the
calls `decompose` makes. The wrappers keep a stack of open spans and
aggregate, per (parent span, span) edge, the call count, the inclusive time
and the self time (inclusive time minus the time of child spans). Nothing is
written until the traced rounds end; `uninstall` puts every original back.
"""

from __future__ import annotations

import sys
from time import perf_counter

# span name -> (module, attribute path) of the function it wraps
SPANS = {
    "cli.main": ("casinv.cli", "main"),
    "sysfile.parse": ("casinv.sysfile", "parse_system"),
    "matrix.skew": ("casinv.matrix", "StructureMatrix.check_skew"),
    "matrix.jacobi": ("casinv.matrix", "StructureMatrix.jacobi_report"),
    "matrix.decompose": ("casinv.matrix", "StructureMatrix.decompose"),
    "linalg.det": ("casinv.linalg", "det_exact"),
    "linalg.solve": ("casinv.linalg", "solve_exact"),
    "linalg.nullspace": ("casinv.linalg", "nullspace_fractions"),
    "gamma.solve": ("casinv.gamma", "solve_gamma"),
    "integrate.all": ("casinv.integrate", "integrate_all"),
    "integrate.find_eta": ("casinv.integrate", "find_eta"),
    "integrate.closed": ("casinv.integrate", "integrate_closed"),
    "verify.casimir": ("casinv.verify", "casimir_check"),
    "verify.degeneracy": ("casinv.verify", "degeneracy_residual"),
    "verify.gradient_rank": ("casinv.verify", "gradient_rank"),
    "verify.flow": ("casinv.verify", "flow_conservation"),
    "expr.zero_verdict": ("casinv.expr", "zero_verdict"),
    "expr.evaluate": ("casinv.expr", "evaluate"),
    "poly.gcd": ("casinv.poly", "gcd"),
}


def _coeff_bits(p) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.terms.values()),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.edges: dict = {}  # (parent, name) -> [calls, inclusive_s, self_s]
        self._stack: list = []  # open spans: [name, child_s]
        self._patched: list = []  # (owner, attribute, original)
        self.eta_hits = 0
        self.verdicts_sampled = 0
        self.gcd_max_bits = 0

    def _observe(self, name, result):
        if name == "integrate.find_eta":
            self.eta_hits += result is not None
        elif name == "expr.zero_verdict":
            self.verdicts_sampled += result.status == "probably-zero"

    def _wrap(self, name, fn):
        stack = self._stack
        edges = self.edges
        observe = self._observe
        is_gcd = name == "poly.gcd"

        def span(*args, **kwargs):
            if is_gcd:
                bits = max(_coeff_bits(args[0]), _coeff_bits(args[1]))
                if bits > self.gcd_max_bits:
                    self.gcd_max_bits = bits
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                # a recursive call's time is already inside its caller's span
                if not any(f[0] == name for f in stack):
                    edge[1] += dt
                edge[2] += dt - frame[1]
            observe(name, result)
            return result

        return span

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "casinv" or k.startswith("casinv.")]
        for name, (module, path) in SPANS.items():
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def per_span(self) -> dict:
        """name -> (calls, total_s, self_s), summed over parents."""
        out = {name: [0, 0.0, 0.0] for name in SPANS}
        for (_, name), (calls, total, self_s) in self.edges.items():
            agg = out[name]
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return {k: tuple(v) for k, v in out.items()}

    def edge_table(self) -> list:
        return [
            {"parent": p, "span": s, "calls": c, "total_s": t, "self_s": st}
            for (p, s), (c, t, st) in sorted(self.edges.items(), key=lambda kv: -kv[1][2])
        ]
