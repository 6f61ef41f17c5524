"""End-to-end runs on a loaded graph: solve, rounding trials, oracle, and claim batches.

Per-trial seeds come from the master seed through splitmix64(seed + index),
so each trial's record depends only on the config and its index; the trials
run in order in one thread.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

from .arborescence import ClaimContext
from .errors import BadSpec
from .graph import DistanceTable
from .lp import build_lp, solve_lp
from .rounding import CLAIMS_STREAM, RoundingParams, _stream, build_spanner, edge_inclusion_probs, select_alpha
from .verify import brute_force_opt

MASK64 = (1 << 64) - 1


def splitmix64(value):
    """One step of the splitmix64 sequence; the trial-seed mixing function."""
    z = (value + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def trial_seed(seed, index):
    return splitmix64((seed + index) & MASK64)


@dataclass(frozen=True)
class RunConfig:
    k: int
    input: str  # the report's label: the file path or 'gen:' spec the graph came from
    alpha_override: float | None = None
    seed: int = 0
    trials: int = 1
    jobs: int = 1  # ignored, as trials run in one loop; the benchmark still passes jobs=2

    def __post_init__(self):
        if self.k < 1:
            raise BadSpec(f"stretch factor must be >= 1, got {self.k}")
        if not self.k <= sys.float_info.max:
            raise BadSpec(f"stretch factor must be <= {sys.float_info.max!r}, the largest double")
        if self.seed < 0:
            raise BadSpec(f"seed must be >= 0, got {self.seed}")
        if self.trials < 0:
            raise BadSpec(f"trials must be >= 0, got {self.trials}")
        if self.alpha_override is not None and not 0 < self.alpha_override < math.inf:
            raise BadSpec(f"alpha must be a finite number > 0, got {self.alpha_override}")


def run_solve(config, g, opt=None, sol=None):
    """Full pipeline on graph g: LP once, then config.trials rounding trials.

    Returns a plain dict ready for dumps_report; the per-trial records are a
    pure function of the config, while timing lives only at the top level.
    A pre-solved LP may be passed in to round without re-solving.  One
    DistanceTable is the run's only cache of G: it serves the path sets,
    keeps every root's trees and gives the spanner checks their demand
    budgets, so each row of G is searched, each root's trees built and each
    budget computed at most once.  The keep probabilities are computed once
    and every trial draws against them.
    """
    t0 = time.perf_counter()
    mode = "unit" if g.unit_lengths() else "general"  # the regime of the alpha formula
    if config.alpha_override is not None:
        alpha = float(config.alpha_override)
    else:
        alpha = select_alpha(mode, g.n, config.k)
    table = DistanceTable(g)
    if sol is None:
        sol = solve_lp(build_lp(g, config.k, table=table))
    t_lp = time.perf_counter()
    probs = edge_inclusion_probs(sol.x, alpha, g.n)

    def one_trial(i):
        params = RoundingParams(alpha=alpha, seed=trial_seed(config.seed, i), k=config.k)
        result = build_spanner(g, sol, params, table, probs)
        return {
            "trial": i,
            "seed": params.seed,
            "alpha": alpha,
            "rounded_edges": len(result.rounded_edges),
            "tree_roots": len(result.tree_roots),
            "tree_edges": len(result.tree_edges),
            "eh_size": len(result.e_h),
            "feasible": result.feasible,
        }

    records = [one_trial(i) for i in range(config.trials)]
    t_end = time.perf_counter()

    feasible_count = sum(1 for r in records if r["feasible"])
    eh_sizes = [r["eh_size"] for r in records]
    mean_eh = sum(eh_sizes) / len(eh_sizes) if eh_sizes else None
    # inf, read as null, with no trial or a zero LP value, or when a tiny one (5e-324) overflows the quotient
    ratio_vs_lp = mean_eh / sol.objective_value if eh_sizes and sol.objective_value else math.inf
    return {
        "instance": {"input": config.input, "n": g.n, "m": g.m, "k": config.k, "mode": mode},
        "alpha": alpha,
        "lp": {"status": "optimal", "value": sol.objective_value},
        "opt": opt,
        "trials": records,
        "aggregate": {
            "trials": config.trials,
            "feasible_fraction": (feasible_count / config.trials) if config.trials else None,
            "mean_eh": mean_eh,
            "max_eh": max(eh_sizes) if eh_sizes else None,
            "ratio_vs_lp": ratio_vs_lp if ratio_vs_lp < math.inf else None,
            "ratio_vs_opt": mean_eh / opt if eh_sizes and opt else None,
        },
        "timing": {
            "lp_seconds": t_lp - t0,
            "trials_seconds": t_end - t_lp,
            "total_seconds": t_end - t0,
        },
    }


def run_oracle(config, g):
    t0 = time.perf_counter()
    res = brute_force_opt(g, config.k)
    return {
        "instance": {"input": config.input, "n": g.n, "m": g.m, "k": config.k},
        "opt": res.opt,
        "witness": sorted(res.witness),
        "timing": {"total_seconds": time.perf_counter() - t0},
    }


def claim_cap(threshold):
    """Upper end of claim 1's random thresholds; cli._load's range rule keeps it finite at k * (sum of lengths)."""
    return threshold * 2.5 + 1.0


def run_claims(config, g):
    """Check both claims on every demand of graph g.

    Each demand's claims are stated on the subgraph its covered vertices
    induce, so its ClaimContext grows on g over the covered edges and every
    edge index stays g's.  The cut-mass check runs once per demand against
    the solved LP's x; the equivalence check runs config.trials times per
    demand on random subgraphs of the covered edges, each kept with
    probability 1/2, and thresholds drawn from the run seed.
    """
    t0 = time.perf_counter()
    model = build_lp(g, config.k)
    sol = solve_lp(model)

    rng = _stream(config.seed, CLAIMS_STREAM)
    trees_total = 0
    claim1_disagreements = 0
    claim2_long_trees = 0
    claim2_violations = 0
    min_mass = None
    for d in range(g.m):
        u, v, length = g.edges[d]
        ctx = ClaimContext(g, u, v, model.demand_paths[d].covered)
        trees_total += len(ctx.trees)

        threshold = config.k * length
        worst = ctx.min_long_cut_mass(sol.x, threshold)
        claim2_long_trees += ctx.long_tree_count(threshold)
        if worst is not None:
            if min_mass is None or worst < min_mass:
                min_mass = worst
            if worst < 1.0 - 1e-9:
                claim2_violations += 1

        cap = claim_cap(threshold)
        for _ in range(config.trials):
            h_edges = frozenset(e for e, r in zip(ctx.edges, rng.random(len(ctx.edges)).tolist()) if r < 0.5)
            k_rand = float(rng.random()) * cap
            if ctx.path_within(h_edges, k_rand) != ctx.all_long_trees_cut(h_edges, k_rand):
                claim1_disagreements += 1

    return {
        "instance": {"input": config.input, "n": g.n, "m": g.m, "k": config.k},
        "lp_value": sol.objective_value,
        "demands_checked": g.m,
        "trees_enumerated": trees_total,
        "claim1": {"checks": g.m * config.trials, "disagreements": claim1_disagreements},
        "claim2": {
            "long_trees": claim2_long_trees,
            "violations": claim2_violations,
            "min_cut_mass": min_mass,
        },
        "timing": {"total_seconds": time.perf_counter() - t0},
    }
