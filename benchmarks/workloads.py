"""The four workloads: inputs made from the workload seed, one op each, and the gates.

The LP ladder, the paper-alpha instance, the sweep instance and the large
exact-batch graphs are fixed generator outputs whose vertices are relabelled by
a permutation drawn from the workload seed, keeping edge order.  Relabelling
changes every per-vertex random draw (tree roots) and every label in the
reports but leaves the LP, the path sets and the simplex pivots unchanged, so
op cost does not move with the seed: an unlucky `er:n=40` seed pivots up to
five times longer and would swamp any change being measured.  The six-vertex
decimal-length graphs of exact-batch are relabelled the same way.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

OBJ_REL_TOL = 1e-7  # LP objective against the HiGHS reference, relative
OPT_TOL = 1e-7  # lp <= opt + OPT_TOL
DOCUMENTED_CAPS = ("PathExplosion", "TooLarge", "ExplosionCap")
SMALL_LENGTHS = (0.1, 0.2, 0.3, 0.7, 1.1)
# generator seeds of er:n=10,p=0.35,max_len=4 whose claim checks enumerate at
# most ~46k trees each, so one batch stays near 3 s on a 2-core host; seed 7
# has 23 free edges and exercises the oracle's TooLarge cap
BIG_GEN_SEEDS = (4, 5, 6, 7, 9, 13, 14, 15)

FULL = {
    "ladder": ("er:n=40,p=0.1,seed=1", "er:n=60,p=0.05,seed=1", "er:n=150,p=0.02,seed=1"),
    "round_spec": "er:n=200,p=0.01,seed=1",
    "round_trials": 20,
    "sweep_spec": "er:n=40,p=0.1,seed=1",
    "alphas": (0.25, 0.5, 1.0, 2.0),
    "sweep_trials": 250,
    "big": tuple(f"er:n=10,p=0.35,max_len=4,seed={s}" for s in BIG_GEN_SEEDS),
    "small_count": 300,
}
# same shapes at a size that runs in well under a second, for the smoke test
TINY = {
    "ladder": ("er:n=12,p=0.2,seed=1", "er:n=16,p=0.1,seed=1"),
    "round_spec": "er:n=30,p=0.05,seed=1",
    "round_trials": 3,
    "sweep_spec": "er:n=12,p=0.2,seed=1",
    "alphas": (0.25, 2.0),
    "sweep_trials": 6,
    "big": ("er:n=6,p=0.4,max_len=4,seed=1",),
    "small_count": 20,
}

WORKLOADS = ("lp-bound", "round-paper", "alpha-sweep", "exact-batch")  # why each: BENCHMARK.json


@dataclass
class Instance:
    label: str
    g: object
    k: int


@dataclass
class Call:
    """One call into dirspan.pipeline during an op."""

    kind: str  # 'solve' | 'oracle' | 'claims'
    inst: Instance
    report: dict | None
    error: str | None  # exception class name when the call raised
    message: str | None
    seconds: float

    @property
    def capped(self):
        return self.error in DOCUMENTED_CAPS

    @property
    def crashed(self):
        return self.error is not None and not self.capped


def _rng(seed, salt):
    return np.random.default_rng([seed, salt])


def relabelled(ds, spec, seed, salt):
    """The generator's graph with vertices permuted by the seed, edge order kept."""
    base = ds.generate.generate_instance(ds.generate.parse_gen_spec(spec))
    perm = _rng(seed, salt).permutation(base.n)
    edges = [(int(perm[t]), int(perm[h]), length) for t, h, length in base.edges]
    return ds.graph.build_graph(base.n, edges)


def small_decimal_graphs(ds, seed, count):
    """Six-vertex graphs, each ordered pair an edge with probability 1/4, lengths from SMALL_LENGTHS.

    The graphs come from one fixed stream; the workload seed relabels their vertices.
    """
    rng = _rng(0, 99)
    out = []
    while len(out) < count:
        keep = rng.random((6, 6)) < 0.25
        lens = rng.choice(SMALL_LENGTHS, size=(6, 6))
        edges = [(a, b, float(lens[a, b])) for a in range(6) for b in range(6) if a != b and keep[a, b]]
        if edges:
            perm = _rng(seed, 1000 + len(out)).permutation(6)
            out.append(ds.graph.build_graph(6, [(int(perm[a]), int(perm[b]), w) for a, b, w in edges]))
    return out


def setup(ds, name, seed, sizes):
    """Instances (and, for alpha-sweep, the solved LP) of one workload."""
    state = {"seed": seed, "sizes": sizes}
    if name == "lp-bound":
        state["insts"] = [Instance(f"{spec}/relabel={seed}", relabelled(ds, spec, seed, i), 3)
                          for i, spec in enumerate(sizes["ladder"])]
    elif name == "round-paper":
        spec = sizes["round_spec"]
        state["insts"] = [Instance(f"{spec}/relabel={seed}", relabelled(ds, spec, seed, 0), 3)]
    elif name == "alpha-sweep":
        spec = sizes["sweep_spec"]
        inst = Instance(f"{spec}/relabel={seed}", relabelled(ds, spec, seed, 0), 3)
        state["insts"] = [inst]
        state["sol"] = ds.lp.solve_lp(ds.lp.build_lp(inst.g, inst.k))
    elif name == "exact-batch":
        big = [Instance(f"{spec}/relabel={seed}", relabelled(ds, spec, seed, i), 3)
               for i, spec in enumerate(sizes["big"])]
        small = [Instance(f"small6/seed={seed}/{i}", g, 1)
                 for i, g in enumerate(small_decimal_graphs(ds, seed, sizes["small_count"]))]
        state["insts"] = big + small
    else:
        raise ValueError(f"unknown workload {name!r}")
    return state


def _call(ds, calls, kind, inst, fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        report = fn(*args, **kwargs)
        ds.io.dumps_report(report)  # what the CLI writes for every report
    except Exception as exc:  # every exception is counted: caps as capped, the rest as failed
        calls.append(Call(kind, inst, None, type(exc).__name__, str(exc)[:200], time.perf_counter() - t0))
        return None
    calls.append(Call(kind, inst, report, None, None, time.perf_counter() - t0))
    return report


def op(ds, name, state, jobs=1):
    """One op of the workload; returns its calls in order."""
    seed = state["seed"]
    sizes = state["sizes"]
    config = ds.pipeline.RunConfig
    calls = []
    if name == "lp-bound":
        for inst in state["insts"]:
            cfg = config(k=inst.k, input=inst.label, seed=seed, trials=1)
            _call(ds, calls, "solve", inst, ds.pipeline.run_solve, cfg, g=inst.g)
    elif name == "round-paper":
        inst = state["insts"][0]
        cfg = config(k=inst.k, input=inst.label, seed=seed, trials=sizes["round_trials"], jobs=jobs)
        _call(ds, calls, "solve", inst, ds.pipeline.run_solve, cfg, g=inst.g)
    elif name == "alpha-sweep":
        inst = state["insts"][0]
        for alpha in sizes["alphas"]:
            cfg = config(k=inst.k, input=inst.label, seed=seed, trials=sizes["sweep_trials"], alpha_override=alpha)
            _call(ds, calls, "solve", inst, ds.pipeline.run_solve, cfg, g=inst.g, sol=state["sol"])
    elif name == "exact-batch":
        for inst in state["insts"]:
            cfg = config(k=inst.k, input=inst.label, seed=seed, trials=5)
            oracle = _call(ds, calls, "oracle", inst, ds.pipeline.run_oracle, cfg, g=inst.g)
            opt = oracle["opt"] if oracle else None
            _call(ds, calls, "solve", inst, ds.pipeline.run_solve, cfg, g=inst.g, opt=opt)
            _call(ds, calls, "claims", inst, ds.pipeline.run_claims, cfg, g=inst.g)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return calls


# report fields as they exist today; fields added later do not change the digest
DIGEST_FIELDS = {
    "solve": ("instance", "alpha", "lp", "opt", "trials", "aggregate"),
    "oracle": ("instance", "opt", "witness"),
    "claims": ("instance", "lp_value", "demands_checked", "trees_enumerated", "claim1", "claim2"),
}


def _canonical(obj):
    # 12 significant digits: immune to last-bit summation-order differences
    # between BLAS kernels, while any real change in a value still shows
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def call_record(call):
    if call.report is None:
        return {"kind": call.kind, "error": call.error}
    return {"kind": call.kind, **{k: _canonical(call.report.get(k)) for k in DIGEST_FIELDS[call.kind]}}


def digest(records):
    text = json.dumps(records, sort_keys=True, allow_nan=False, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def without_timing(ds, report):
    return ds.io.dumps_report({k: v for k, v in report.items() if k != "timing"})


def highs_objective(program):
    """Optimal objective of a Program by scipy's HiGHS, or None if HiGHS finds no optimum."""
    from scipy.optimize import linprog

    senses = np.asarray(program.senses)
    a, b = program.a, program.b
    le, ge, eq = senses == "<=", senses == ">=", senses == "="
    a_ub = np.vstack([a[le], -a[ge]])
    b_ub = np.concatenate([b[le], -b[ge]])
    res = linprog(
        program.c,
        A_ub=a_ub if len(b_ub) else None,
        b_ub=b_ub if len(b_ub) else None,
        A_eq=a[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=[(lo, None) for lo in program.lower],
        method="highs",
    )
    return float(res.fun) if res.status == 0 else None


def gate_misses(ds, calls):
    """Exact checks of one op's outputs; returns (call index, reason) per miss."""
    refs = {}

    def reference(inst):
        if inst.label not in refs:
            refs[inst.label] = highs_objective(ds.lp.build_lp(inst.g, inst.k).program)
        return refs[inst.label]

    def lp_miss(value, inst):
        ref = reference(inst)
        if ref is None or value is None:
            return f"no LP reference (HiGHS {ref}, program {value})"
        if abs(value - ref) > OBJ_REL_TOL * max(1.0, abs(ref)):
            return f"LP objective {value!r} differs from HiGHS {ref!r}"
        return None

    misses = []
    for i, call in enumerate(calls):
        rep = call.report
        if rep is None:
            continue
        reasons = []
        if call.kind == "solve":
            reasons.append(lp_miss(rep["lp"]["value"], call.inst))
            opt = rep.get("opt")
            if opt is not None and rep["lp"]["value"] > opt + OPT_TOL:
                reasons.append(f"LP {rep['lp']['value']!r} above opt {opt}")
        elif call.kind == "claims":
            reasons.append(lp_miss(rep["lp_value"], call.inst))
            if rep["claim1"]["disagreements"]:
                reasons.append(f"{rep['claim1']['disagreements']} claim-1 disagreements")
            if rep["claim2"]["violations"]:
                reasons.append(f"{rep['claim2']['violations']} claim-2 violations")
        elif call.kind == "oracle":
            witness = rep["witness"]
            if len(witness) != rep["opt"]:
                reasons.append(f"witness has {len(witness)} edges, opt is {rep['opt']}")
            if not ds.verify.is_k_spanner(call.inst.g, witness, call.inst.k).feasible:
                reasons.append("oracle witness is not a k-spanner")
        misses.extend((i, r) for r in reasons if r)
    return misses


def quality(name, calls):
    """Deterministic output metrics of one op (the digest pins them exactly)."""
    solves = [c.report for c in calls if c.kind == "solve" and c.report is not None]
    out = {}
    if name in ("round-paper", "alpha-sweep"):
        eh = [t["eh_size"] for r in solves for t in r["trials"]]
        lp = solves[0]["lp"]["value"] if solves else None
        out["ratio_vs_lp"] = sum(eh) / len(eh) / lp if eh and lp else None
    if name == "alpha-sweep":
        feasible = [t["feasible"] for r in solves for t in r["trials"]]
        out["feasible_fraction"] = sum(feasible) / len(feasible) if feasible else None
        out["feasible_by_alpha"] = {str(r["alpha"]): r["aggregate"]["feasible_fraction"] for r in solves}
    if name == "exact-batch":
        ratios = [r["aggregate"]["ratio_vs_opt"] for r in solves if r["aggregate"]["ratio_vs_opt"] is not None]
        out["ratio_vs_opt"] = sum(ratios) / len(ratios) if ratios else None
        out["ratio_vs_opt_base"] = len(ratios)
    return out

