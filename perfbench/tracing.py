"""Spans around the package's public functions, installed from outside it.

``Tracer.install()`` rebinds each traced name in the module that calls it
(``wrightmaps.cli``, ``wrightmaps.criteria``, ``wrightmaps.mappings``) to a
wrapper that records a span: name, start, end, parent span and operation id.
Spans stay in memory, in flat arrays, until ``write()``.  A name the package
no longer binds is skipped and reports zero calls.
"""

from __future__ import annotations

import importlib
import time
from array import array

# (span name, modules whose binding is replaced, attribute)
TRACED = (
    ("cli.main", ("wrightmaps.cli",), "main"),
    ("cli.sample_boundary_curves", ("wrightmaps.cli",), "sample_boundary_curves"),
    ("cli.curves_to_svg", ("wrightmaps.cli",), "curves_to_svg"),
    ("wright.derivs_at_one", ("wrightmaps.cli", "wrightmaps.criteria"), "derivs_at_one"),
    ("wright.wright_eval", ("wrightmaps.cli",), "wright_eval"),
    ("wright.normalized_eval", ("wrightmaps.cli",), "normalized_eval"),
    ("wright.norm_coeff", ("wrightmaps.mappings",), "norm_coeff"),
    ("mappings.convolve", ("wrightmaps.cli",), "convolve"),
    ("mappings.random_coefficients", ("wrightmaps.cli",), "random_coefficients"),
    ("criteria.stated_hypothesis", ("wrightmaps.cli",), "stated_hypothesis"),
    ("criteria.close_to_convex_probe", ("wrightmaps.cli",), "close_to_convex_probe"),
    ("criteria.lemma5_sum", ("wrightmaps.criteria",), "lemma5_sum"),
    ("criteria.class_bound_coeffs", ("wrightmaps.cli",), "class_bound_coeffs"),
    ("oracle.sweep", ("wrightmaps.cli",), "sweep"),
)
NAMES = tuple(name for name, _, _ in TRACED)
# Spans whose call count is a per-layer metric; every span reports self time.
COUNTED = ("wright.derivs_at_one", "wright.norm_coeff", "mappings.convolve",
           "criteria.stated_hypothesis", "criteria.close_to_convex_probe",
           "criteria.lemma5_sum", "oracle.sweep")
MODULES = ("cli", "wright", "mappings", "criteria", "oracle")


class Tracer:
    def __init__(self):
        self.name = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self._stack = []
        self._op = -1
        self._seen_params = set()
        self._bindings = self._bind()
        self.counts = dict.fromkeys(
            ("derivs_repeats", "derived_passes", "sweep_points", "sweep_violations"), 0)

    def begin_op(self, op_id):
        self._op = op_id
        self._seen_params.clear()

    # Observers see a call's arguments and result, to count at the boundary.
    def _derivs(self, args, result):
        p = args[0]
        if p in self._seen_params:
            self.counts["derivs_repeats"] += 1
        self._seen_params.add(p)

    def _stated(self, args, result):
        self.counts["derived_passes"] += bool(result[1].satisfied)

    def _sweep(self, args, result):
        grid = args[1]
        self.counts["sweep_points"] += len(grid.radii) * grid.theta_count
        self.counts["sweep_violations"] += len(result.violations)

    def _wrap(self, fn, name_id, observe):
        stack, clock = self._stack, time.perf_counter_ns
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._op)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _bind(self):
        """(module, attribute, original, wrapper) for every traced name still bound."""
        observers = {"wright.derivs_at_one": self._derivs,
                     "criteria.stated_hypothesis": self._stated,
                     "oracle.sweep": self._sweep}
        bindings = []
        for name_id, (name, modules, attr) in enumerate(TRACED):
            targets = [m for m in map(importlib.import_module, modules) if hasattr(m, attr)]
            if targets:
                original = getattr(targets[0], attr)
                wrapper = self._wrap(original, name_id, observers.get(name))
                bindings += [(m, attr, getattr(m, attr), wrapper) for m in targets]
        return bindings

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def totals(self, scales):
        """Per span name: (calls, self ns), plus the summed duration of root spans.

        Self time is a span's duration minus the durations of its direct
        children; calls are strictly nested in one thread, so children never
        overlap.  Times are multiplied by their operation's entry of `scales`
        (see speed.py).
        """
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        root_ns = 0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            scale = scales[self.op[i]]
            calls[self.name[i]] += 1
            self_ns[self.name[i]] += (dur - child[i]) * scale
            if self.parent[i] < 0:
                root_ns += dur * scale
        return ({NAMES[k]: (calls[k], self_ns[k]) for k in range(len(NAMES))}, root_ns)

    def write(self, path):
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{NAMES[self.name[i]]},{self.start[i] - t0},{self.end[i] - t0},"
                         f"{self.parent[i]},{self.op[i]}\n")


def layer_metrics(tracer, scales, items_per_s_plain, items_per_s_traced, output_bytes):
    """Per-layer metrics per traced operation; `scales` has one entry per traced operation."""
    per_name, root_ns = tracer.totals(scales)
    ops = max(len(scales), 1)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def share(part, whole):
        return part / whole if whole else 0.0

    for name in NAMES:
        calls, self_ns = per_name[name]
        if name in COUNTED:
            put(f"{name}.calls", calls / ops, "calls/op")
        put(f"{name}.self_ms", self_ns / ops / 1e6, "ms/op")
    c = tracer.counts
    put("cli.output_bytes", output_bytes / ops, "bytes/op")
    put("wright.derivs_at_one.repeat_share",
        share(c["derivs_repeats"], per_name["wright.derivs_at_one"][0]), "ratio")
    put("criteria.derived_pass_share",
        share(c["derived_passes"], per_name["criteria.stated_hypothesis"][0]), "ratio")
    put("oracle.sweep.points", c["sweep_points"] / ops, "points/op")
    put("oracle.sweep.ns_per_point",
        share(per_name["oracle.sweep"][1], c["sweep_points"]), "ns/point")
    put("oracle.sweep.violations", c["sweep_violations"] / ops, "count/op")
    for module in MODULES:
        module_ns = sum(per_name[n][1] for n in NAMES if n.split(".")[0] == module)
        put(f"layer.{module}.self_share", share(module_ns, root_ns), "ratio")
    put("trace.overhead_share", 1.0 - share(items_per_s_traced, items_per_s_plain), "ratio")
    return m
