"""Outside-in tracer for the traced benchmark run, and the per-layer metrics.

``Tracer.install`` wraps every public function of the gmtlab layer modules,
plus the parse and evaluate methods of ``expressions.Expression``, and then
rebinds every attribute of every loaded ``gmtlab.*`` module that *is* one of
those functions.  The rebinding matters because ``inequalities``, ``suite``
and ``cli`` import functions such as ``extract_boundary`` and
``estimate_hm_detail`` by name.  Nothing inside the package changes.

A span is ``[name, layer, start, end, parent, op, raised, counts]``.  Spans
stay in memory and are written out once, at the end of the run.  Calls made
while no op is running are not recorded.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = ("domains", "expressions", "hausdorff", "calculus", "inequalities", "suite", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return h.hexdigest()


def _probe_extract_boundary(args, kwargs, result):
    d = _arg(args, kwargs, 0, "domain")
    return {"key": _digest(d.mask, d.origin, d.spacing)}


def _probe_estimate(args, kwargs, result):
    cloud = _arg(args, kwargs, 0, "cloud")
    d, delta = _arg(args, kwargs, 1, "d"), _arg(args, kwargs, 2, "delta")
    return {"samples": len(cloud), "key": _digest(cloud.points, cloud.weights, d, delta)}


def _probe_partition(args, kwargs, result):
    return {"cells": len(result)}


def _probe_gradient(args, kwargs, result):
    return {"cells": int(_arg(args, kwargs, 0, "u").domain.mask.sum())}


# counts taken at the span boundary, after the span's end time is read
PROBES = {
    "domains.extract_boundary": _probe_extract_boundary,
    "hausdorff.estimate_hm_detail": _probe_estimate,
    "hausdorff.build_partition": _probe_partition,
    "calculus.grad_l1": _probe_gradient,
    "calculus.grad_l2_squared": _probe_gradient,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # id of the op in progress; None records nothing
        self._stack = []
        self._saved = []  # (owner, attribute, original) to restore

    def _wrap(self, fn, name, layer):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, True, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
                span[6] = False
                return result
            finally:
                span[3] = clock()
                stack.pop()
                if probe is not None and not span[6]:
                    span[7] = probe(args, kwargs, result)

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gmtlab.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "gmtlab" and not modname.startswith("gmtlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        expression = importlib.import_module("gmtlab.expressions").Expression
        for attr in ("__init__", "__call__"):
            original = expression.__dict__[attr]
            self._saved.append((expression, attr, original))
            setattr(expression, attr, self._wrap(original, f"expressions.Expression.{attr}",
                                                 "expressions"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
        return str(path)


# ---------------------------------------------------------------------------
# per-layer metrics from spans

DOMAIN_BUILDERS = {
    "domains.domain_from_spec", "domains.make_ball", "domains.make_box",
    "domains.make_annulus", "domains.rasterize_polygon",
}
GRADIENTS = {"calculus.grad_l1", "calculus.grad_l2_squared"}
ESTIMATORS = {"hausdorff.estimate_hm_detail", "hausdorff.estimate_hm"}
CHECK_PREFIX = "inequalities.check_"

# name -> (unit, better); every name here is emitted for every workload
PER_LAYER = {f"{layer}.self_s": ("s", "lower") for layer in LAYERS}
PER_LAYER.update({
    "domains.build_s": ("s", "lower"),
    "domains.extract_boundary_s": ("s", "lower"),
    "domains.extract_boundary.calls": ("count", "lower"),
    "domains.extract_boundary.distinct_frac": ("frac", "higher"),
    "expressions.from_expression_s": ("s", "lower"),
    "hausdorff.estimate_hm_s": ("s", "lower"),
    "hausdorff.estimate_hm.calls": ("count", "lower"),
    "hausdorff.estimate_hm.samples_per_s": ("samples/s", "higher"),
    "hausdorff.estimate_hm.distinct_frac": ("frac", "higher"),
    "hausdorff.build_partition_s": ("s", "lower"),
    "hausdorff.partition.cells": ("count", "lower"),
    "calculus.gradient_s": ("s", "lower"),
    "calculus.gradient.calls": ("count", "lower"),
    "calculus.gradient.cells_per_s": ("cells/s", "higher"),
    "calculus.total_variation_s": ("s", "lower"),
    "calculus.mollify_s": ("s", "lower"),
    "calculus.mollify.calls": ("count", "lower"),
    "calculus.mollify.first_s": ("s", "lower"),
    "calculus.truncate_s": ("s", "lower"),
    "calculus.shell_gradient_s": ("s", "lower"),
    "inequalities.checks_self_s": ("s", "lower"),
    "inequalities.checks.calls": ("count", "lower"),
    "inequalities.proof_trace_self_s": ("s", "lower"),
    "suite.parse_s": ("s", "lower"),
    "suite.run_suite_self_s": ("s", "lower"),
    "suite.emit_s": ("s", "lower"),
})
PER_LAYER.update({f"{layer}.errors": ("count", "lower") for layer in LAYERS})
PER_LAYER.update({
    "bench.traced_op_s": ("s", "lower"),
    "bench.untraced_op_s": ("s", "lower"),
    "bench.trace_overhead_frac": ("frac", "lower"),
})


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


def _op_metrics(spans: list) -> dict:
    """Metrics of one op from its spans (indices in ``spans`` are op-local)."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    self_t = list(dur)
    for s, d in zip(spans, dur):
        if s[4] >= 0:
            self_t[s[4]] -= d

    def outermost(names):
        """Spans in ``names`` with no ancestor in ``names`` (no double counting)."""
        out = []
        for i in range(n):
            if spans[i][0] not in names:
                continue
            p = spans[i][4]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][4]
            if p < 0:
                out.append(i)
        return out

    def incl(names):
        return sum(dur[i] for i in outermost(names))

    def self_of(pred):
        return sum(self_t[i] for i in range(n) if pred(spans[i][0]))

    def counts(names, key):
        return [spans[i][7][key] for i in outermost(names) if spans[i][7] is not None]

    m = {f"{layer}.self_s": sum(self_t[i] for i in range(n) if spans[i][1] == layer)
         for layer in LAYERS}
    keys = counts({"domains.extract_boundary"}, "key")
    est_keys = counts(ESTIMATORS, "key")
    est_s = incl(ESTIMATORS)
    grad_s = incl(GRADIENTS)
    m.update({
        "domains.build_s": incl(DOMAIN_BUILDERS),
        "domains.extract_boundary_s": incl({"domains.extract_boundary"}),
        "domains.extract_boundary.calls": len(keys),
        "domains.extract_boundary.distinct_frac": _ratio(len(set(keys)), len(keys)),
        "expressions.from_expression_s": incl({"calculus.from_expression"}),
        "hausdorff.estimate_hm_s": est_s,
        "hausdorff.estimate_hm.calls": len(est_keys),
        "hausdorff.estimate_hm.samples_per_s": _ratio(sum(counts(ESTIMATORS, "samples")), est_s),
        "hausdorff.estimate_hm.distinct_frac": _ratio(len(set(est_keys)), len(est_keys)),
        "hausdorff.build_partition_s": incl({"hausdorff.build_partition"}),
        "hausdorff.partition.cells": sum(counts({"hausdorff.build_partition"}, "cells")),
        "calculus.gradient_s": grad_s,
        "calculus.gradient.calls": len(outermost(GRADIENTS)),
        "calculus.gradient.cells_per_s": _ratio(sum(counts(GRADIENTS, "cells")), grad_s),
        "calculus.total_variation_s": incl({"calculus.total_variation"}),
        "calculus.mollify_s": incl({"calculus.mollify"}),
        "calculus.mollify.calls": len(outermost({"calculus.mollify"})),
        "calculus.truncate_s": incl({"calculus.truncate"}),
        "calculus.shell_gradient_s": incl({"calculus.shell_gradient_discrete"}),
        "inequalities.checks_self_s": self_of(lambda name: name.startswith(CHECK_PREFIX)),
        "inequalities.checks.calls": sum(1 for s in spans if s[0].startswith(CHECK_PREFIX)),
        "inequalities.proof_trace_self_s": self_of(lambda name: name == "inequalities.proof_trace"),
        "suite.parse_s": incl({"suite.parse_suite"}),
        "suite.run_suite_self_s": self_of(lambda name: name == "suite.run_suite"),
        "suite.emit_s": incl({"suite.emit"}),
    })
    return m


def split_by_op(spans: list) -> dict:
    """Group spans by op id, rewriting parent indices to be op-local."""
    by_op, local = {}, {}
    for i, s in enumerate(spans):
        group = by_op.setdefault(s[5], [])
        local[i] = len(group)
        group.append(s[:4] + [local[s[4]] if s[4] >= 0 else -1] + s[5:])
    return by_op


def per_layer_metrics(spans: list, traced_op_s: list, untraced_op_s: list) -> dict:
    """Every PER_LAYER metric: medians over the warm ops (op id >= 1) of the traced run.

    ``<layer>.errors`` counts spans that raised over all traced ops, and
    ``calculus.mollify.first_s`` is the first mollify of the cold first op
    (op 0), lazy imports included.  The ``bench.*`` op times are the medians of
    the op times passed in.
    """
    by_op = split_by_op(spans)
    warm = [_op_metrics(by_op.get(k, [])) for k in range(1, len(traced_op_s) + 1)]
    out = {name: statistics.median(m[name] for m in warm) for name in warm[0]}
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(1 for s in spans if s[1] == layer and s[6])
    first = [s for s in by_op.get(0, []) if s[0] == "calculus.mollify"]
    out["calculus.mollify.first_s"] = first[0][3] - first[0][2] if first else 0.0
    traced, untraced = statistics.median(traced_op_s), statistics.median(untraced_op_s)
    out["bench.traced_op_s"] = traced
    out["bench.untraced_op_s"] = untraced
    out["bench.trace_overhead_frac"] = traced / untraced - 1.0
    return out


def self_time_sums(spans: list, traced_op_s: list) -> list:
    """Per warm op: (sum of every layer's self time, traced op wall time)."""
    by_op = split_by_op(spans)
    sums = []
    for k, op_s in enumerate(traced_op_s, start=1):
        m = _op_metrics(by_op.get(k, []))
        sums.append((sum(m[f"{layer}.self_s"] for layer in LAYERS), op_s))
    return sums
