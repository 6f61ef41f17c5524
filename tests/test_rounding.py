import math

import numpy as np
import pytest

from dirspan import (
    LpSolution,
    RoundingParams,
    build_graph,
    build_lp,
    build_spanner,
    edge_inclusion_probs,
    is_k_spanner,
    round_edges,
    sample_tree_roots,
    select_alpha,
    solve_lp,
)
from dirspan.graph import DistanceTable, shortest_path_tree
from dirspan.rounding import EDGE_STREAM, ROOT_STREAM, _stream

from oracles import dp_distances, make_rng, random_edge_list

TRIANGLE = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def kept_set(g, x, alpha, rng):
    """The edges round_edges keeps at keep probabilities from x and alpha, as a set."""
    return frozenset(np.flatnonzero(round_edges(edge_inclusion_probs(x, alpha, g.n), rng)).tolist())


def one_trial(g, sol, params, table):
    """build_spanner with the keep probabilities a run would compute for it."""
    return build_spanner(g, sol, params, table, edge_inclusion_probs(sol.x, params.alpha, g.n))


def test_select_alpha_general():
    # the general constant ignores k
    assert select_alpha("general", 55, 3) == select_alpha("general", 55, 1) == 5.0 * math.log(55)
    assert select_alpha("general", 55, 3) == pytest.approx(20.03666592616237, rel=1e-12)


def test_select_alpha_unit():
    assert select_alpha("unit", 10, k=4) == pytest.approx(20.0 * math.log(10), rel=1e-12)
    assert select_alpha("unit", 3, k=1) == pytest.approx(10.986122886681098, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1])
def test_select_alpha_below_two_vertices_is_the_n_2_constant(n):
    # such a graph has no edge, so every positive constant builds the same empty spanner
    assert select_alpha("general", n, 3) == select_alpha("general", 2, 3)
    assert select_alpha("unit", n, k=3) == select_alpha("unit", 2, k=3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "unit", "n": 10},
        {"mode": "general", "n": 10},
        {"mode": "banana", "n": 10, "k": 3},
    ],
    ids=["unit-without-k", "general-without-k", "unknown-mode"],
)
def test_select_alpha_rejects(kwargs):
    # k is required whatever the mode: leaving it out is a TypeError, not a mode's ValueError
    mode = kwargs.pop("mode")
    n = kwargs.pop("n")
    with pytest.raises(ValueError if "k" in kwargs else TypeError):
        select_alpha(mode, n, **kwargs)


def test_edge_inclusion_probs_clamped():
    probs = edge_inclusion_probs([0.0, 0.25, 10.0], 1.0, 4)
    assert probs.dtype == float and probs.tolist() == [0.0, 0.5, 1.0]


def test_round_edges_deterministic_extremes():
    g = build_graph(3, TRIANGLE)
    assert kept_set(g, (0.0, 0.0, 0.0), 5.0, rng_for(1)) == frozenset()
    assert kept_set(g, (1.0, 1.0, 1.0), 5.0, rng_for(1)) == frozenset({0, 1, 2})


def test_round_edges_frequency():
    # keep probability 0.25 * 1.0 * sqrt(4) = 0.5
    g = build_graph(4, [(0, 1, 1.0)])
    rng = rng_for(2024)
    hits = sum(len(kept_set(g, (0.25,), 1.0, rng)) for _ in range(10000))
    assert 4800 <= hits <= 5200


def test_sample_tree_roots_frequency():
    # root probability 1.0 / sqrt(4) = 0.5, mean set size 2
    rng = rng_for(77)
    total = sum(len(sample_tree_roots(4, 1.0, rng)) for _ in range(10000))
    assert 19400 <= total <= 20600


def test_tiny_alpha_keeps_nothing():
    g = cycle(5)
    rng = rng_for(5)
    for _ in range(100):
        assert kept_set(g, (1.0,) * 5, 1e-9, rng) == frozenset()
        assert sample_tree_roots(5, 1e-9, rng) == frozenset()


def test_build_spanner_deterministic():
    g = cycle(8)
    sol = solve_lp(build_lp(g, 3))
    params = RoundingParams(alpha=0.9, seed=42, k=3)
    a = one_trial(g, sol, params, DistanceTable(g))
    b = one_trial(g, sol, params, DistanceTable(g))
    assert a == b


def test_build_spanner_seed_changes_draws():
    # alpha 0.2 leaves keep probabilities strictly inside (0, 1)
    g = cycle(8)
    sol = solve_lp(build_lp(g, 3))
    results = {
        one_trial(g, sol, RoundingParams(alpha=0.2, seed=s, k=3), DistanceTable(g)).e_h
        for s in range(6)
    }
    assert len(results) > 1


def test_shared_table_trees_change_nothing():
    # one table across many trials and chosen root sets, decimal lengths and
    # zero-length ties included: every result equals the one on a fresh table
    rng = make_rng(23)
    n = 9
    edges = [(t, h, rng.choice((0.0, 0.1, 0.3, 0.7, 1.1))) for t, h, _ in random_edge_list(rng, n, 0.4)]
    g = build_graph(n, edges)
    sol = LpSolution(x=tuple(rng.random() for _ in range(g.m)), objective_value=1.0)
    table = DistanceTable(g)
    for seed in range(24):
        params = RoundingParams(alpha=1.5, seed=seed, k=2)
        assert one_trial(g, sol, params, table) == one_trial(g, sol, params, DistanceTable(g))
        if seed % 3 == 0:
            roots = rng.sample(range(n), seed % 4)
            assert all(np.array_equal(a, b) for a, b in zip(table.trees(roots), DistanceTable(g).trees(roots)))
    assert table._trees and set(table._trees) <= set(range(n))
    for root, row in table._trees.items():
        assert row.dtype == bool and row.shape == (g.m,)
        assert frozenset(np.flatnonzero(row).tolist()) == shortest_path_tree(g, root)


def test_rounded_edges_are_the_edge_stream_draws():
    # the root phase draws from a stream of its own, so the edge phase is round_edges alone;
    # keep probabilities from 0.13 to 0.76 leave every edge to its draw
    g = cycle(8)
    sol = LpSolution(x=(0.05, 0.1, 0.2, 0.3) * 2, objective_value=1.3)
    kept = set()
    for seed in range(8):
        res = one_trial(g, sol, RoundingParams(alpha=0.9, seed=seed, k=3), DistanceTable(g))
        assert res.rounded_edges == kept_set(g, sol.x, 0.9, _stream(seed, EDGE_STREAM))
        kept.add(res.rounded_edges)
    assert len(kept) > 1


def test_tree_roots_are_the_root_stream_draws():
    # and the root phase is sample_tree_roots alone, whatever the LP point
    g = cycle(8)
    for x in ((0.0,) * 8, (1.0,) * 8):
        sol = LpSolution(x=x, objective_value=sum(x))
        for seed in range(8):
            res = one_trial(g, sol, RoundingParams(alpha=0.9, seed=seed, k=3), DistanceTable(g))
            assert res.tree_roots == sample_tree_roots(8, 0.9, _stream(seed, ROOT_STREAM))


def test_the_check_reads_the_tree_rows():
    # x = 0 keeps no edge, so H is the trees alone, and on a cycle one root's
    # two trees are every edge: a trial is feasible exactly when it has a root
    g = cycle(8)
    sol = LpSolution(x=(0.0,) * 8, objective_value=0.0)
    verdicts = set()
    for seed in range(12):
        res = one_trial(g, sol, RoundingParams(alpha=0.3, seed=seed, k=3), DistanceTable(g))
        assert res.rounded_edges == frozenset()
        assert res.feasible == bool(res.tree_roots) == (res.e_h == frozenset(range(8)))
        verdicts.add(res.feasible)
    assert verdicts == {True, False}


def test_triangle_saturated_probabilities():
    # x = (1, 0, 1) and alpha sqrt(3) > 1: edges 0 and 2 always kept, 1 never
    g = build_graph(3, TRIANGLE)
    sol = solve_lp(build_lp(g, 2))
    for seed in range(5):
        assert kept_set(g, sol.x, 10.0, _stream(seed, EDGE_STREAM)) == frozenset({0, 2})
    assert is_k_spanner(g, {0, 2}, 2).feasible
    res = one_trial(g, sol, RoundingParams(alpha=10.0, seed=123, k=2), DistanceTable(g))
    assert res.rounded_edges == frozenset({0, 2})
    assert res.feasible


def test_tree_edge_budget_holds():
    # synthetic x vectors; this invariant is purely about rounding and trees
    rng = make_rng(9)
    for trial in range(25):
        n = rng.randint(3, 12)
        g = build_graph(n, random_edge_list(rng, n, 0.5))
        if g.m == 0:
            continue
        sol = LpSolution(x=tuple(rng.random() for _ in range(g.m)), objective_value=1.0)
        params = RoundingParams(alpha=1.2, seed=trial, k=3)
        res = one_trial(g, sol, params, DistanceTable(g))
        assert len(res.tree_edges) <= 2 * len(res.tree_roots) * (n - 1)
        assert res.e_h == res.rounded_edges | res.tree_edges


def test_trees_realize_exact_distances():
    rng = make_rng(13)
    for _ in range(10):
        n = rng.randint(3, 8)
        g = build_graph(n, random_edge_list(rng, n, 0.6, max_len=3))
        if g.m == 0:
            continue
        root = rng.randrange(n)
        tree_edges = frozenset(np.flatnonzero(DistanceTable(g).trees([root])[0]).tolist())
        edges = list(g.edges)
        into = dp_distances(n, edges, root)
        tree_into = dp_distances(n, edges, root, allowed=tree_edges)
        assert tree_into == into
        # inward side: distances toward the root, via the reversed graph
        rev = [(h, t, l) for t, h, l in edges]
        assert dp_distances(n, rev, root, allowed=tree_edges) == dp_distances(n, rev, root)
