"""Spans around macgeo's layer boundaries, recorded from outside the package.

Each wrapper replaces a function at the name its caller looks up (for
example ``macgeo.reception.sir_and_gradient``, which the tracer's Newton
step resolves through the reception module), records one span per call
with the span that was open when it started, and puts the original back on
``restore``.  Spans stay in memory; per-layer metrics are derived from
them after the timed passes.

A span's self time is its duration minus the time its child spans cover.
Calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import importlib
import time
import types

from macgeo.errors import PrecisionLossError


def _n_points(ps):
    return len(ps.points)


def _grid_points(args, kwargs, result):
    return {"points": _n_points(result)}


# (module looked up by the caller, attribute, span name, counter).  A
# counter maps (args, kwargs, result) to a dict of exact counts.
SITES = [
    ("macgeo.cli", "main", "cli.main", None),
    ("macgeo.cli", "run", "cli.run", None),
    ("macgeo.cli", "sweep", "cli.sweep", None),
    ("macgeo.spatial", "gen_grid", "spatial.gen_grid",
     _grid_points),
    ("macgeo.reception", "gen_grid", "spatial.gen_grid",
     _grid_points),
    ("macgeo.asymptotics", "gen_grid", "spatial.gen_grid",
     _grid_points),
    ("macgeo.multihop", "gen_grid", "spatial.gen_grid",
     _grid_points),
    ("macgeo.reception", "sir_and_gradient", "propagation.sir_and_gradient",
     lambda a, k, r: {"point_evals": _n_points(a[2])}),
    ("macgeo.reception", "sir", "propagation.sir",
     lambda a, k, r: {"point_evals": _n_points(a[2])}),
    ("macgeo.cli", "raster_field", "propagation.raster_field",
     lambda a, k, r: {"point_evals": a[3] * a[3] * _n_points(a[0])}),
    ("macgeo.reception", "membership_grid", "reception.membership_grid",
     lambda a, k, r: {"point_evals": a[4] * a[4] * _n_points(a[1])}),
    ("macgeo.reception", "grid_success_prob_fading",
     "reception.grid_success_prob_fading", None),
    ("macgeo.reception", "grid_success_prob_nofading",
     "reception.grid_success_prob_nofading", None),
    ("macgeo.reception", "trace_contour", "reception.trace_contour",
     lambda a, k, r: {"steps": r.steps}),
    ("macgeo.reception", "grid_range", "reception.grid_range", None),
    ("macgeo.reception", "max_range_membership",
     "reception.max_range_membership", None),
    ("macgeo.asymptotics", "beta_inf_range", "asymptotics.beta_inf_range",
     None),
    ("macgeo.aloha", "aloha_prob", "aloha.aloha_prob", None),
    ("macgeo.aloha", "curve", "aloha.curve", None),
    ("macgeo.aloha", "aloha_prob_exponential", "aloha.aloha_prob_exponential",
     None),
    ("macgeo.aloha", "optimize_range", "aloha.optimize_range", None),
    ("macgeo.aloha", "sample_w", "aloha.sample_w",
     lambda a, k, r: {"samples": len(r)}),
    ("macgeo.aloha", "mc_aloha_prob", "aloha.mc_aloha_prob", None),
    ("macgeo.multihop", "run_simulation", "multihop.run_simulation", None),
    ("macgeo.multihop", "select_transmitters", "multihop.select_transmitters",
     lambda a, k, r: {"tx": len(r)}),
    ("macgeo.multihop", "relay_step", "multihop.relay_step",
     lambda a, k, r: {"hops": int(r != a[1])}),
]

LAYERS = ("spatial", "propagation", "reception", "asymptotics", "aloha",
          "multihop", "cli")


class Tracer:
    """Span recorder; ``install`` wraps every site, ``restore`` undoes it."""

    def __init__(self):
        # Each span: [name, parent index or -1, start, end, counts or None].
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, module, attr, name, counter=None):
        orig = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except PrecisionLossError:
                span[4] = {"refused": 1}
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = orig
        setattr(module, attr, traced)
        self._saved.append((module, attr, orig))

    def install(self):
        for mod_name, attr, name, counter in SITES:
            self.wrap(importlib.import_module(mod_name), attr, name, counter)

    def restore(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def self_times(self):
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_, _, start, end, _), c in zip(self.spans, child)]

    def _has_ancestor(self, idx, name):
        parent = self.spans[idx][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def metrics(self, passes: int, span_cost: float) -> dict:
        """Every per-layer metric in UNITS, per timed pass (counts repeat
        exactly when the passes do).  ``span_cost`` is the measured cost of
        one wrapped call, which gives the tracing overhead."""
        total, layer = {}, dict.fromkeys(LAYERS, 0.0)
        for span, st in zip(self.spans, self.self_times()):
            name = span[0]
            total[f"{name}.calls"] = total.get(f"{name}.calls", 0) + 1
            total[f"{name}.self_s"] = total.get(f"{name}.self_s", 0.0) + st
            for key, val in (span[4] or {}).items():
                total[f"{name}.{key}"] = total.get(f"{name}.{key}", 0) + val
            layer[name.split(".", 1)[0]] += st
        m = {k: v / passes for k, v in total.items()}
        for name, val in layer.items():
            m[f"{name}.self_s"] = val / passes
        # The cli layer: argument parsing, dispatch and output writing.
        m["cli.run.self_s"] = m.pop("cli.self_s")

        def ratio(a, b):
            return m.get(a, 0.0) / m[b] if m.get(b) else 0.0

        def nested(names, ancestor):
            return sum(1 for i, s in enumerate(self.spans)
                       if s[0] in names and self._has_ancestor(i, ancestor))

        m["propagation.sir_and_gradient.evals_per_s"] = ratio(
            "propagation.sir_and_gradient.point_evals",
            "propagation.sir_and_gradient.self_s")
        m["aloha.sample_w.samples_per_s"] = ratio("aloha.sample_w.samples",
                                                  "aloha.sample_w.self_s")
        m["multihop.tx_per_slot"] = ratio("multihop.select_transmitters.tx",
                                          "multihop.select_transmitters.calls")
        m["multihop.hops_per_relay_step"] = ratio("multihop.relay_step.hops",
                                                  "multihop.relay_step.calls")
        steps = m.get("reception.trace_contour.steps", 0)
        m["reception.kernel_calls_per_step"] = nested(
            ("propagation.sir_and_gradient", "propagation.sir"),
            "reception.trace_contour") / passes / steps if steps else 0.0
        optima = m.get("aloha.optimize_range.calls", 0)
        m["aloha.prob_evals_per_optimum"] = nested(
            ("aloha.aloha_prob",),
            "aloha.optimize_range") / passes / optima if optima else 0.0
        m["traced.self_total_s"] = sum(layer.values()) / passes
        m["traced.spans"] = len(self.spans) / passes
        m["traced.overhead_s"] = m["traced.spans"] * span_cost
        return {name: m.get(name, 0.0) for name in UNITS}


def span_cost(reps: int = 20000) -> float:
    """Seconds one wrapped call adds over a plain call."""
    mod = types.SimpleNamespace(f=lambda x: x)
    plain = mod.f
    t0 = time.perf_counter()
    for i in range(reps):
        plain(i)
    base = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(mod, "f", "calibration")
    wrapped = mod.f
    t0 = time.perf_counter()
    for i in range(reps):
        wrapped(i)
    return max(0.0, (time.perf_counter() - t0 - base) / reps)


_COUNT_NAMES = [
    "spatial.gen_grid.calls", "spatial.gen_grid.points",
    "propagation.sir_and_gradient.calls",
    "propagation.sir_and_gradient.point_evals", "propagation.sir.calls",
    "propagation.raster_field.point_evals",
    "reception.membership_grid.point_evals",
    "reception.grid_success_prob_fading.calls",
    "reception.grid_success_prob_nofading.calls",
    "reception.trace_contour.calls", "reception.trace_contour.steps",
    "asymptotics.beta_inf_range.calls",
    "aloha.aloha_prob.calls", "aloha.aloha_prob.refused",
    "aloha.optimize_range.calls", "aloha.sample_w.samples",
    "multihop.select_transmitters.calls", "multihop.relay_step.calls",
    "traced.spans",
]
_RATIO_NAMES = [
    "reception.kernel_calls_per_step", "aloha.prob_evals_per_optimum",
    "multihop.tx_per_slot", "multihop.hops_per_relay_step",
]
_TIME_NAMES = [
    "spatial.gen_grid.self_s", "propagation.sir_and_gradient.self_s",
    "propagation.sir.self_s", "propagation.raster_field.self_s",
    "reception.membership_grid.self_s",
    "reception.grid_success_prob_fading.self_s",
    "reception.grid_success_prob_nofading.self_s",
    "reception.trace_contour.self_s", "asymptotics.beta_inf_range.self_s",
    "aloha.aloha_prob.self_s", "aloha.optimize_range.self_s",
    "aloha.sample_w.self_s", "multihop.select_transmitters.self_s",
    "multihop.relay_step.self_s", "multihop.run_simulation.self_s",
] + [f"{layer}.self_s" for layer in LAYERS[:-1]] + [
    "cli.run.self_s", "traced.wall_s", "traced.self_total_s",
    "traced.overhead_s",
]
# Every per-layer metric with its unit, in report order.
UNITS = {
    **{name: "count" for name in _COUNT_NAMES},
    **{name: "ratio" for name in _RATIO_NAMES},
    **{name: "s" for name in _TIME_NAMES},
    "propagation.sir_and_gradient.evals_per_s": "1/s",
    "aloha.sample_w.samples_per_s": "1/s",
    "cli.bytes_written": "B",
}
