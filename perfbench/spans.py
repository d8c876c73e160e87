"""Per-layer spans around halfline's public module attributes.

The tracer swaps each traced function (and each basis class's ``member``
method) for a wrapper that times the call, then swaps the originals back.
A function is replaced wherever a loaded ``halfline`` module binds it, so
names pulled in with ``from .x import y`` are traced too.  Spans nest: a
layer's self time is its span minus the spans of the traced calls made
inside it.  Only aggregates (self seconds, call count) are kept in memory.

Names that a refactor removes are reported as missing instead of failing,
and every wrapped attribute is restored even when the traced code raises.
"""

import contextlib
import functools
import sys
import time

# (layer metric prefix, module, attribute); "Class.method" names a method
LAYERS = (
    ("cli.run_case", "halfline.cli", "run_case"),
    ("cli.verify_case", "halfline.cli", "verify_case"),
    ("core.eval_expansion", "halfline.core", "eval_expansion"),
    ("laguerre.member", "halfline.laguerre", "LaguerreBasis.member"),
    ("laguerre.nodes", "halfline.laguerre", "laguerre_nodes"),
    ("laguerre.operator", "halfline.laguerre", "mglf_matrix"),
    ("hermite.member", "halfline.hermite", "HermiteBasis.member"),
    ("hermite.nodes", "halfline.hermite", "hermite_nodes"),
    ("hermite.operator", "halfline.hermite", "hermite_matrix"),
    ("sinc.member", "halfline.sinc", "SincBasis.member"),
    ("sinc.nodes", "halfline.sinc", "sinc_nodes"),
    ("sinc.operator", "halfline.sinc", "delta_matrix"),
    ("sinc.operator", "halfline.sinc", "chain_tables"),
    ("problems.build_system", "halfline.problems", "build_system"),
    ("problems.solve_problem", "halfline.problems", "solve_problem"),
    ("problems.pointwise_residual", "halfline.problems", "pointwise_residual"),
    ("problems.derived_slope", "halfline.problems", "derived_slope"),
    ("newton.newton_solve", "halfline.newton", "newton_solve"),
    ("newton.fd_jacobian", "halfline.newton", "fd_jacobian"),
    ("shooting.shoot", "halfline.shooting", "shoot"),
    ("shooting.rk4_integrate", "halfline.shooting", "rk4_integrate"),
)

# the residual map is an attribute of each built system, not of a module
RESIDUAL = "problems.residual"


class Tracer:
    """Self time and call count per layer, plus Newton iteration totals."""

    def __init__(self):
        self.stats = {}          # layer -> [self seconds, calls]
        self.covered_s = 0.0     # time inside outermost spans
        self.iterations = 0      # summed SolveReport.iterations
        self.missing = []        # "module:attribute" names not found
        self._stack = [0.0]      # child-span seconds of each open span

    def _span(self, layer, fn, after=None):
        stats = self.stats.setdefault(layer, [0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stats[0] += elapsed - stack.pop()
                stats[1] += 1
                stack[-1] += elapsed
            return result if after is None else after(result)
        return span

    def _after_build(self, system):
        residual_map = getattr(system, "residual_map", None)
        if callable(residual_map):
            system.residual_map = self._span(RESIDUAL, residual_map)
        return system

    def _after_newton(self, report):
        self.iterations += int(getattr(report, "iterations", 0) or 0)
        return report

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer found for the duration of the block."""
        self.stats.setdefault(RESIDUAL, [0.0, 0])
        hooks = {"problems.build_system": self._after_build,
                 "newton.newton_solve": self._after_newton}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "halfline"
                                         or name.startswith("halfline."))]
        undo = []
        try:
            for layer, module_name, attr in LAYERS:
                self.stats.setdefault(layer, [0.0, 0])
                owner = sys.modules.get(module_name)
                cls_name, _, method = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                    original = vars(owner).get(method) if owner else None
                else:
                    original = getattr(owner, attr, None)
                if not callable(original):
                    self.missing.append("%s:%s" % (module_name, attr))
                    continue
                wrapper = self._span(layer, original, hooks.get(layer))
                if cls_name:
                    targets = [(owner, method)]
                else:
                    targets = [(m, k) for m in modules
                               for k, v in list(vars(m).items()) if v is original]
                for target, key in targets:
                    setattr(target, key, wrapper)
                    undo.append((target, key, original))
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)
        self.covered_s = self._stack[0]

    def per_op(self, ops):
        """Self seconds and calls of every layer, and Newton counts, per op."""
        values = {}
        for layer, (self_s, calls) in self.stats.items():
            values[layer + ".self_s"] = self_s / ops
            values[layer + ".calls"] = calls / ops
        values["newton.iterations"] = self.iterations / ops
        values["newton.residual_calls_per_iter"] = (
            self.calls(RESIDUAL) / self.iterations if self.iterations else 0.0)
        return values

    def absent(self):
        """Layers that were never entered: missing, renamed, or unused."""
        return sorted(layer for layer, (_, calls) in self.stats.items()
                      if calls == 0)

    def calls(self, layer):
        return self.stats.get(layer, [0.0, 0])[1]

    def self_s(self, layer):
        return self.stats.get(layer, [0.0, 0])[0]
