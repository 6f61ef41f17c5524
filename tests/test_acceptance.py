"""Acceptance suite: nine end-to-end criteria, one test and one printed
PASS/FAIL line each.

Every instance stream is seeded, so reruns check byte-identical inputs.
Tolerances are pinned here and nowhere else.
"""

import math

import pytest

from dirspan import (
    ClaimContext,
    GenSpec,
    RoundingParams,
    RunConfig,
    TooLarge,
    build_graph,
    build_lp,
    build_spanner,
    brute_force_opt,
    dumps_report,
    edge_inclusion_probs,
    enumerate_demand_paths,
    generate_instance,
    round_edges,
    run_solve,
    select_alpha,
    solve_lp,
)
from dirspan.cli import load_input
from dirspan.graph import DistanceTable
from dirspan.rounding import EDGE_STREAM, _stream

from oracles import layered_lp_value, make_rng, random_edge_list
from support import edge_check_equals_allpairs_check

TOL_LP_VS_OPT = 1e-7
TOL_FORMULATIONS = 1e-6
TOL_CUT_MASS = 1e-6
RATIO_CONST = 15.0

# every build_spanner result in this module flows through _note_trial, so the
# tree-phase bound of criterion 7 is enforced on each trial everywhere
_tree_bound_trials = [0]
_tree_bound_violations = []


def _note_trial(res, n):
    _tree_bound_trials[0] += 1
    if len(res.tree_edges) > 2 * len(res.tree_roots) * (n - 1):
        _tree_bound_violations.append((n, len(res.tree_roots), len(res.tree_edges)))
    return res


def _stamp(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _instance(family, params, seed):
    return generate_instance(GenSpec(family, params, gen_seed=seed))


@pytest.fixture(scope="module")
def solved_batch():
    """Small instances with LP solution and exact optimum, shared by 1 and 6."""
    rng = make_rng(816)
    batch = []
    attempts = 0
    families = ("er_unit", "er_weighted", "cycle", "grid", "layered")
    while len(batch) < 210 and attempts < 600:
        kind = families[attempts % len(families)]
        k = (3, 4, 5)[attempts % 3]
        seed = 1000 + attempts
        attempts += 1
        if kind == "er_unit":
            g = _instance("er", {"n": rng.randint(4, 8), "p": rng.uniform(0.2, 0.45)}, seed)
        elif kind == "er_weighted":
            g = _instance(
                "er",
                {"n": rng.randint(4, 8), "p": rng.uniform(0.2, 0.45), "max_len": 4},
                seed,
            )
        elif kind == "cycle":
            g = _instance("cycle", {"n": rng.randint(4, 8)}, seed)
        elif kind == "grid":
            g = _instance("grid", {"rows": 2, "cols": rng.choice([3, 4]), "max_len": rng.choice([1, 4])}, seed)
        else:
            g = _instance("layered", {"layers": rng.choice([2, 3]), "width": 2, "p": 0.7}, seed)
        if g.m == 0:
            continue
        sol = solve_lp(build_lp(g, k))
        try:
            opt = brute_force_opt(g, k)
        except TooLarge:
            continue
        batch.append({"g": g, "k": k, "sol": sol, "opt": opt.opt, "kind": kind})
    return batch


def test_criterion_1_lp_below_opt(solved_batch):
    checked = len(solved_batch)
    worst = max(rec["sol"].objective_value - rec["opt"] for rec in solved_batch)
    kinds = {rec["kind"] for rec in solved_batch}
    ok = checked >= 200 and worst <= TOL_LP_VS_OPT and len(kinds) == 5
    _stamp(
        "criterion 1 (LP lower-bounds OPT)",
        ok,
        f"{checked} instances, max lp-opt gap {worst:.3e}, families {sorted(kinds)}",
    )


def test_criterion_2_formulation_equivalence():
    rng = make_rng(817)
    checked = 0
    worst = 0.0
    specs = []
    for i in range(70):
        specs.append(("er", {"n": rng.randint(4, 10), "p": rng.uniform(0.15, 0.35)}))
    for n in range(5, 11):
        specs.append(("cycle", {"n": n}))
        specs.append(("cycle", {"n": n}))
    for cols in (3, 4, 5):
        specs.append(("grid", {"rows": 2, "cols": cols}))
    for i in range(24):
        specs.append(("layered", {"layers": rng.choice([2, 3]), "width": rng.choice([2, 3]), "p": 0.6}))
    for i, (family, params) in enumerate(specs):
        g = _instance(family, params, 2000 + i)
        if g.m == 0:
            continue
        k = (3, 4, 5)[i % 3]
        pv = solve_lp(build_lp(g, k)).objective_value
        lv = layered_lp_value(g.n, g.edges, k)  # HiGHS, not the package's simplex
        worst = max(worst, abs(pv - lv))
        checked += 1
    ok = checked >= 100 and worst <= TOL_FORMULATIONS
    _stamp(
        "criterion 2 (path LP equals layered LP)",
        ok,
        f"{checked} unit instances, max |difference| {worst:.3e}",
    )


def test_criterion_3_claim1_equivalence():
    rng = make_rng(818)
    triples = 0
    disagreements = 0
    graphs = 0
    while triples < 500:
        n = rng.randint(4, 7)
        max_len = rng.choice([1, 1, 2])
        edges = random_edge_list(rng, n, rng.uniform(0.3, 0.7), max_len=max_len)
        g = build_graph(n, edges)
        u, v = rng.sample(range(n), 2)
        ctx = ClaimContext(g, u, v, range(n))
        graphs += 1
        for _ in range(5):
            h = frozenset(e for e in range(g.m) if rng.random() < 0.5)
            if rng.random() < 0.5:
                K = float(rng.randint(0, n * max_len + 1))
            else:
                K = rng.uniform(0.0, 1.5 * n * max_len)
            left = ctx.path_within(h, K)
            right = ctx.all_long_trees_cut(h, K)
            triples += 1
            if left != right:
                disagreements += 1
    ok = triples >= 500 and disagreements == 0
    _stamp(
        "criterion 3 (path-existence equals all-long-trees-cut)",
        ok,
        f"{triples} (G', H', K) triples over {graphs} graphs, {disagreements} disagreements",
    )


def test_criterion_4_claim2_cut_mass():
    rng = make_rng(819)
    instances = 0
    demands = 0
    worst = None
    while instances < 200:
        n = rng.randint(4, 6)
        p = rng.uniform(0.3, 0.6)
        max_len = rng.choice([1, 2])
        k = rng.choice([3, 4])
        g = _instance("er", {"n": n, "p": p, "max_len": max_len}, 3000 + instances * 7 + demands)
        if g.m == 0:
            continue
        table = DistanceTable(g)
        sol = solve_lp(build_lp(g, k, table=table))
        instances += 1
        for d in range(g.m):
            covered = enumerate_demand_paths(g, k, d, table).covered
            assert len(covered) <= 7
            u, v, length = g.edges[d]
            mass = ClaimContext(g, u, v, covered).min_long_cut_mass(sol.x, k * length)
            demands += 1
            if mass is not None and (worst is None or mass < worst):
                worst = mass
    ok = instances >= 200 and worst is not None and worst >= 1.0 - TOL_CUT_MASS
    _stamp(
        "criterion 4 (long-tree cut mass at least 1)",
        ok,
        f"{instances} instances, {demands} demands, min cut mass {worst}",
    )


def _criterion5_specs():
    out = []
    for i, n in enumerate((24, 36, 48, 60)):
        out.append(("er", {"n": n, "p": 2.4 / n}, 4100 + i))
    for i, n in enumerate((22, 40, 54, 30)):
        out.append(("er", {"n": n, "p": 2.4 / n, "max_len": 2}, 4200 + i))
    for i, n in enumerate((20, 33, 47, 60)):
        out.append(("cycle", {"n": n}, 4300 + i))
    for i, (r, c) in enumerate(((4, 5), (5, 7), (6, 8), (5, 12))):
        out.append(("grid", {"rows": r, "cols": c}, 4400 + i))
    for i, (layers, width) in enumerate(((5, 5), (7, 6), (10, 5))):
        out.append(("layered", {"layers": layers, "width": width, "p": 0.4}, 4500 + i))
    out.append(("layered", {"layers": 6, "width": 4, "p": 0.5, "max_len": 2}, 4600))
    return out


def test_criterion_5_feasibility_at_selected_alpha():
    specs = _criterion5_specs()
    assert len(specs) == 20
    trials_per_instance = 100
    total = 0
    infeasible = 0
    sizes = []
    for family, params, seed in specs:
        g = generate_instance(GenSpec(family, params, gen_seed=seed))
        assert 20 <= g.n <= 60 and g.m > 0
        sizes.append(g.n)
        table = DistanceTable(g)  # the path sets fill its inward rows
        sol = solve_lp(build_lp(g, 3, table=table))
        alpha = select_alpha("general", g.n, 3)
        probs = edge_inclusion_probs(sol.x, alpha, g.n)
        for t in range(trials_per_instance):
            params_t = RoundingParams(alpha=alpha, seed=seed * 1000 + t, k=3)
            res = _note_trial(build_spanner(g, sol, params_t, table, probs), g.n)
            total += 1
            if not res.feasible:
                infeasible += 1
    ok = total == 2000 and infeasible == 0
    _stamp(
        "criterion 5 (always feasible at selected alpha)",
        ok,
        f"{total} trials over 20 instances (n {min(sizes)}..{max(sizes)}), {infeasible} infeasible",
    )


def test_criterion_6_approximation_accounting(solved_batch):
    usable = [rec for rec in solved_batch if rec["opt"] >= 1]
    # part one: the guaranteed ratio holds in every trial on oracle-solved instances
    ratio_trials = 0
    ratio_violations = 0
    for idx, rec in enumerate(usable[:40]):
        g, k, sol, opt = rec["g"], rec["k"], rec["sol"], rec["opt"]
        mode = "unit" if g.unit_lengths() else "general"
        alpha = select_alpha(mode, g.n, k=k)
        bound = RATIO_CONST * math.sqrt(g.n) * math.log(g.n) * opt
        table = DistanceTable(g)
        for s in sorted({tail for tail, _, _ in g.edges}):
            table.outward(s)
        probs = edge_inclusion_probs(sol.x, alpha, g.n)
        for t in range(25):
            params = RoundingParams(alpha=alpha, seed=5000 + idx * 100 + t, k=k)
            res = _note_trial(build_spanner(g, sol, params, table, probs), g.n)
            ratio_trials += 1
            if len(res.e_h) > bound:
                ratio_violations += 1

    # part two: mean kept-edge count over 200 trials against the exact
    # Bernoulli expectation, within five standard deviations of that mean
    mean_checks = 0
    mean_failures = []
    for idx, rec in enumerate(usable[:3]):
        g, k, sol = rec["g"], rec["k"], rec["sol"]
        mode = "unit" if g.unit_lengths() else "general"
        for alpha in (select_alpha(mode, g.n, k=k), 0.25):
            probs = edge_inclusion_probs(sol.x, alpha, g.n)
            mu = sum(probs)
            sigma = math.sqrt(sum(p * (1 - p) for p in probs))
            # the edge phase of build_spanner at each seed: round_edges on the seed's edge stream
            counts = [
                int(round_edges(probs, _stream(6000 + idx * 1000 + t, EDGE_STREAM)).sum()) for t in range(200)
            ]
            mean = sum(counts) / len(counts)
            mean_checks += 1
            if sigma == 0.0:
                if mean != mu:
                    mean_failures.append((idx, alpha, mean, mu))
            elif abs(mean - mu) > 5.0 * sigma / math.sqrt(200):
                mean_failures.append((idx, alpha, mean, mu))

    ok = (
        len(usable) >= 40
        and ratio_violations == 0
        and mean_checks == 6
        and not mean_failures
    )
    _stamp(
        "criterion 6 (ratio bound and rounding expectation)",
        ok,
        f"{ratio_trials} ratio trials (0 violations expected, saw {ratio_violations}); "
        f"{mean_checks} mean checks, failures {mean_failures}",
    )


def test_criterion_7_tree_phase_bound():
    # dedicated run in the regime where the root sample is a proper subset
    rng = make_rng(820)
    g = build_graph(30, random_edge_list(rng, 30, 0.12, max_len=2))
    table = DistanceTable(g)  # the path sets fill its inward rows
    sol = solve_lp(build_lp(g, 3, table=table))
    probs = edge_inclusion_probs(sol.x, 2.0, g.n)
    root_counts = set()
    for t in range(50):
        params = RoundingParams(alpha=2.0, seed=7000 + t, k=3)
        res = _note_trial(build_spanner(g, sol, params, table, probs), 30)
        root_counts.add(len(res.tree_roots))
    # proper random subsets, not the degenerate all-or-nothing regimes
    assert any(0 < c < 30 for c in root_counts)
    assert len(root_counts) > 1
    ok = not _tree_bound_violations and _tree_bound_trials[0] >= 50
    _stamp(
        "criterion 7 (tree edges within 2|S|(n-1))",
        ok,
        f"checked on {_tree_bound_trials[0]} trials across the suite, violations {_tree_bound_violations}",
    )


def test_criterion_8_deterministic_records():
    config = RunConfig(k=3, input="gen:er:n=12,p=0.3,seed=21", trials=20, seed=13)
    first = dumps_report(run_solve(config, load_input(config.input))["trials"])
    second = dumps_report(run_solve(config, load_input(config.input))["trials"])
    parallel = dumps_report(
        run_solve(RunConfig(k=3, input="gen:er:n=12,p=0.3,seed=21", trials=20, seed=13, jobs=4),
                  load_input(config.input))["trials"]
    )
    ok = first == second == parallel
    _stamp(
        "criterion 8 (byte-identical per-trial records)",
        ok,
        f"{len(first)} bytes, serial repeat equal: {first == second}, jobs=4 equal: {first == parallel}",
    )


def test_criterion_9_edge_check_reduction():
    rng = make_rng(821)
    cases = 0
    mismatches = 0
    while cases < 1000:
        n = rng.randint(2, 15)
        p = rng.uniform(0.1, 0.5)
        max_len = rng.choice([1, 2, 3])
        g = build_graph(n, random_edge_list(rng, n, p, max_len=max_len))
        h = frozenset(e for e in range(g.m) if rng.random() < rng.choice([0.3, 0.5, 0.8]))
        k = rng.randint(1, 5)
        if not edge_check_equals_allpairs_check(g, h, k):
            mismatches += 1
        cases += 1
    ok = cases >= 1000 and mismatches == 0
    _stamp(
        "criterion 9 (demand check equals all-pairs check)",
        ok,
        f"{cases} random (G, H, k) cases, {mismatches} mismatches",
    )
