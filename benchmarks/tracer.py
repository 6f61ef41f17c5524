"""Spans around the public calls of each dirspan module, recorded from outside.

The tracer replaces module attributes with timing wrappers; the package itself
is not edited.  A function imported by name into several modules (such as
``enumerate_demand_paths``) is replaced in every loaded ``dirspan`` module that
holds it, so each importer's calls are seen.  Spans stay in memory and are
written once the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# (layer, defining module, attribute); the span name is "layer.attribute"
FUNCTIONS = (
    ("simplex", "dirspan.simplex", "solve_simplex"),
    ("lp", "dirspan.lp", "build_lp"),
    ("lp", "dirspan.lp", "solve_lp"),
    ("lp", "dirspan.lp", "violated_rows"),
    ("paths", "dirspan.paths", "enumerate_demand_paths"),
    ("graph", "dirspan.graph", "shortest_path_tree"),
    ("graph", "dirspan.graph", "reverse_graph"),
    ("graph", "dirspan.graph", "build_graph"),
    ("rounding", "dirspan.rounding", "build_spanner"),
    ("verify", "dirspan.verify", "is_k_spanner"),
    ("verify", "dirspan.verify", "brute_force_opt"),
    ("verify", "dirspan.verify", "demand_distance_rows"),
    ("pipeline", "dirspan.pipeline", "run_solve"),
    ("pipeline", "dirspan.pipeline", "run_oracle"),
    ("pipeline", "dirspan.pipeline", "run_claims"),
    ("io", "dirspan.io", "dumps_report"),
    ("generate", "dirspan.generate", "generate_instance"),
)
CLAIM_METHODS = ("path_within", "all_long_trees_cut", "min_long_cut_mass", "long_tree_count")
LAYERS = ("simplex", "lp", "paths", "graph", "rounding", "verify", "arborescence", "pipeline", "io", "generate")
OP_SPAN = "bench.op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; wrappers pass straight through while disabled."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.op = None
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, counter=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if counter is not None:
            span.attrs = counter(result, args, kwargs)
        return result

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced

    def op_span(self, op_id, fn):
        """Run fn() as one benchmark op under a root span."""
        self.op = op_id
        try:
            return self.call(OP_SPAN, fn, (), {})
        finally:
            self.op = None


def _tableau_bytes(c, a, b, senses, lower=None, **_):
    """Bytes of the dense simplex tableau: rows + 2 objective rows, all columns + rhs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lower = np.zeros(len(c)) if lower is None else np.asarray(lower, dtype=float)
    rhs = b - a.reshape(len(b), len(c)) @ lower if len(b) else b
    flip = {"<=": ">=", ">=": "<=", "=": "="}
    senses = [flip[s] if r < 0 else s for s, r in zip(senses, rhs)]
    slack = senses.count("<=")
    surplus = senses.count(">=")
    art = surplus + senses.count("=")
    return (len(b) + 2) * (len(c) + slack + surplus + art + 1) * 8


def _count_simplex(res, args, kwargs):
    names = ("c", "a", "b", "senses")
    return {"pivots": res.iterations, "bytes": _tableau_bytes(**dict(zip(names, args)), **kwargs)}


def _count_model(model, args, kwargs):
    p = model.program
    return {"rows": p.a.shape[0], "cols": p.a.shape[1], "nnz": int(np.count_nonzero(p.a)), "mandatory": len(model.mandatory)}


def _count_paths(dp, args, kwargs):
    return {"paths": len(dp.paths)}


def _count_check(check, args, kwargs):
    return {"infeasible": int(not check.feasible)}


def install(tracer):
    """Wrap every traced function in every loaded dirspan module; returns an undo."""
    modules = [m for name, m in list(sys.modules.items()) if name == "dirspan" or name.startswith("dirspan.")]
    keep_one = {}  # (id of x, alpha, n) -> (x, edges whose keep probability is 1)

    def count_spanner(res, args, kwargs):
        g, sol, params = args[:3]
        key = (id(sol.x), params.alpha, g.n)
        if key not in keep_one:
            keep_one[key] = (sol.x, int(np.count_nonzero(params.alpha * np.asarray(sol.x) * np.sqrt(g.n) >= 1.0)))
        return {
            "n": g.n,
            "m": g.m,
            "roots": len(res.tree_roots),
            "eh_is_e": int(len(res.e_h) == g.m),
            "keep_one": keep_one[key][1],
        }

    counters = {
        "solve_simplex": _count_simplex,
        "build_lp": _count_model,
        "enumerate_demand_paths": _count_paths,
        "is_k_spanner": _count_check,
        "build_spanner": count_spanner,
    }
    replaced = {}
    for layer, modname, attr in FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        replaced[id(original)] = tracer.wrap(f"{layer}.{attr}", original, counters.get(attr))
    original_ctx = sys.modules["dirspan.arborescence"].ClaimContext
    replaced[id(original_ctx)] = _traced_context(tracer, original_ctx)

    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
                undo.append((module, attr, value))

    def restore():
        for module, attr, value in undo:
            setattr(module, attr, value)

    return restore


def _traced_context(tracer, cls):
    def init(self, *args, **kwargs):
        tracer.call("arborescence.ClaimContext", cls.__init__, (self,) + args, kwargs,
                    lambda _res, a, _kw: {"trees": len(a[0].trees)})

    def method(name):
        base = getattr(cls, name)

        def traced(self, *args, **kwargs):
            return tracer.call(f"arborescence.{name}", base, (self,) + args, kwargs)

        return traced

    namespace = {"__init__": init, **{name: method(name) for name in CLAIM_METHODS}}
    return type(cls.__name__, (cls,), namespace)


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def layer_of(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, op_ids, setup_ids=()):
    """Per-op averages of every per-layer metric over the traced ops."""
    ops = max(len(op_ids), 1)
    op_set = set(op_ids)
    own = self_times(spans)
    by_name = {}
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    op_total = 0.0
    for span, self_s in zip(spans, own):
        if span.op not in op_set:
            continue
        entry = by_name.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": []})
        entry["calls"] += 1
        entry["s"] += span.end - span.start
        entry["self_s"] += self_s
        if span.attrs:
            entry["attrs"].append(span.attrs)
        layer_self[layer_of(span.name)] += self_s
        if span.name == OP_SPAN:
            op_total += span.end - span.start

    def get(name, key="s"):
        return by_name.get(name, {}).get(key, 0)

    def attr_sum(name, key):
        return sum(a[key] for a in by_name.get(name, {}).get("attrs", ()))

    def frac(num, den):
        return num / den if den else 0.0

    trials = get("rounding.build_spanner", "calls")
    spanners = by_name.get("rounding.build_spanner", {}).get("attrs", [])
    checks = get("verify.is_k_spanner", "calls")
    path_counts = [a["paths"] for a in by_name.get("paths.enumerate_demand_paths", {}).get("attrs", ())]
    mb_moved = sum(2 * a["pivots"] * a["bytes"] for a in by_name.get("simplex.solve_simplex", {}).get("attrs", ())) / 1e6
    setup_set = set(setup_ids)
    setups = max(len(setup_set), 1)
    setup_spans = [s for s in spans if s.op in setup_set]
    generate_s = sum(
        s.end - s.start
        for s in setup_spans
        if s.parent is None and s.name in ("generate.generate_instance", "graph.build_graph")
    )
    setup_simplex_s = sum(s.end - s.start for s in setup_spans if s.name == "simplex.solve_simplex")
    metrics = {
        "simplex.calls": get("simplex.solve_simplex", "calls") / ops,
        "simplex.s": get("simplex.solve_simplex") / ops,
        "simplex.pivots": attr_sum("simplex.solve_simplex", "pivots") / ops,
        "simplex.mb_moved_computed": mb_moved / ops,
        "lp.build_s": get("lp.build_lp", "self_s") / ops,
        "lp.check_s": get("lp.violated_rows") / ops,
        "lp.rows": attr_sum("lp.build_lp", "rows") / ops,
        "lp.cols": attr_sum("lp.build_lp", "cols") / ops,
        "lp.nnz": attr_sum("lp.build_lp", "nnz") / ops,
        "lp.mandatory": attr_sum("lp.build_lp", "mandatory") / ops,
        "paths.calls": get("paths.enumerate_demand_paths", "calls") / ops,
        "paths.s": get("paths.enumerate_demand_paths") / ops,
        "paths.total": sum(path_counts) / ops,
        "paths.max_per_demand": max(path_counts, default=0),
        "graph.spt_calls": get("graph.shortest_path_tree", "calls") / ops,
        "graph.spt_s": get("graph.shortest_path_tree") / ops,
        "graph.reverse_calls": get("graph.reverse_graph", "calls") / ops,
        "graph.reverse_s": get("graph.reverse_graph") / ops,
        "rounding.trials": trials / ops,
        "rounding.self_s": layer_self["rounding"] / ops,
        "rounding.roots_frac": frac(sum(a["roots"] for a in spanners), sum(a["n"] for a in spanners)),
        "rounding.eh_is_e_frac": frac(sum(a["eh_is_e"] for a in spanners), len(spanners)),
        "rounding.keep_prob_one_frac": frac(sum(a["keep_one"] for a in spanners), sum(a["m"] for a in spanners)),
        "verify.check_calls": checks / ops,
        "verify.check_s": get("verify.is_k_spanner") / ops,
        "verify.infeasible_frac": frac(attr_sum("verify.is_k_spanner", "infeasible"), checks),
        "verify.oracle_s": get("verify.brute_force_opt") / ops,
        "arborescence.contexts": get("arborescence.ClaimContext", "calls") / ops,
        "arborescence.trees": attr_sum("arborescence.ClaimContext", "trees") / ops,
        "arborescence.s": get("arborescence.ClaimContext") / ops,
        "pipeline.self_s": layer_self["pipeline"] / ops,
        "io.dumps_s": get("io.dumps_report") / ops,
        "generate.s": generate_s / setups,
        "simplex.setup_s": setup_simplex_s / setups,
    }
    for layer in LAYERS + ("bench",):
        metrics[f"{layer}.self_s"] = layer_self[layer] / ops
    metrics["trace.traced_op_s"] = op_total / ops
    return metrics


def dump_spans(spans):
    """Compact rows (name, start, end, parent, op) for the span file."""
    return [[s.name, s.start, s.end, s.parent, s.op] for s in spans]
