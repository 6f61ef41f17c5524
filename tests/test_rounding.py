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
    round_edges,
    sample_tree_roots,
    select_alpha,
    shortest_path_tree,
    solve_lp,
)
from dirspan.graph import DistanceTable

from oracles import dp_distances, make_rng, random_edge_list

TRIANGLE = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_select_alpha_general():
    assert select_alpha("general", 55) == 5.0 * math.log(55)
    assert select_alpha("general", 55) == pytest.approx(20.03666592616237, rel=1e-12)


def test_select_alpha_unit():
    assert select_alpha("unit", 10, k=4) == pytest.approx(20.0 * math.log(10), rel=1e-12)
    assert select_alpha("unit", 3, k=1) == pytest.approx(10.986122886681098, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1])
def test_select_alpha_below_two_vertices_is_the_n_2_constant(n):
    # such a graph has no edge, so every positive constant builds the same empty spanner
    assert select_alpha("general", n) == select_alpha("general", 2)
    assert select_alpha("unit", n, k=3) == select_alpha("unit", 2, k=3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "unit", "n": 10},
        {"mode": "unit", "n": 10, "k": 0.5},
        {"mode": "banana", "n": 10},
    ],
)
def test_select_alpha_rejects(kwargs):
    mode = kwargs.pop("mode")
    n = kwargs.pop("n")
    with pytest.raises(ValueError):
        select_alpha(mode, n, **kwargs)


def test_params_validation():
    with pytest.raises(ValueError):
        RoundingParams(alpha=0.0, seed=0, k=3)
    with pytest.raises(ValueError):
        RoundingParams(alpha=1.0, seed=0, k=0.5)


def test_edge_inclusion_probs_clamped():
    assert edge_inclusion_probs([0.0, 0.25, 10.0], 1.0, 4) == [0.0, 0.5, 1.0]


def test_round_edges_deterministic_extremes():
    g = build_graph(3, TRIANGLE)
    assert round_edges(g, (0.0, 0.0, 0.0), 5.0, rng_for(1)) == frozenset()
    assert round_edges(g, (1.0, 1.0, 1.0), 5.0, rng_for(1)) == frozenset({0, 1, 2})


def test_round_edges_frequency():
    # keep probability 0.25 * 1.0 * sqrt(4) = 0.5
    g = build_graph(4, [(0, 1, 1.0)])
    rng = rng_for(2024)
    hits = sum(len(round_edges(g, (0.25,), 1.0, rng)) for _ in range(10000))
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
        assert round_edges(g, (1.0,) * 5, 1e-9, rng) == frozenset()
        assert sample_tree_roots(5, 1e-9, rng) == frozenset()


def test_build_spanner_deterministic():
    g = cycle(8)
    sol = solve_lp(build_lp(g, 3))
    params = RoundingParams(alpha=0.9, seed=42, k=3)
    a = build_spanner(g, sol, params)
    b = build_spanner(g, sol, params)
    assert a == b


def test_build_spanner_seed_changes_draws():
    # alpha 0.2 leaves keep probabilities strictly inside (0, 1)
    g = cycle(8)
    sol = solve_lp(build_lp(g, 3))
    results = {
        build_spanner(g, sol, RoundingParams(alpha=0.2, seed=s, k=3)).e_h
        for s in range(6)
    }
    assert len(results) > 1


def test_shared_table_trees_change_nothing():
    # one table across many trials and forced root sets, decimal lengths and
    # zero-length ties included: every result equals the one on a fresh table
    rng = make_rng(23)
    n = 9
    edges = [(t, h, rng.choice((0.0, 0.1, 0.3, 0.7, 1.1))) for t, h, _ in random_edge_list(rng, n, 0.4)]
    g = build_graph(n, edges)
    sol = LpSolution(status="optimal", x=tuple(rng.random() for _ in range(g.m)), f={}, objective_value=1.0)
    table = DistanceTable(g)
    for seed in range(24):
        params = RoundingParams(alpha=1.5, seed=seed, k=2)
        forced = {"force_tree_roots": frozenset(rng.sample(range(n), seed % 4))} if seed % 3 == 0 else {}
        shared = build_spanner(g, sol, params, table=table, **forced)
        assert shared == build_spanner(g, sol, params, **forced)
    assert table._trees and set(table._trees) <= set(range(n))
    for root, row in table._trees.items():
        assert row.dtype == bool and row.shape == (g.m,)
        assert frozenset(np.flatnonzero(row).tolist()) == shortest_path_tree(g, root)


def test_forcing_roots_leaves_edge_stream_alone():
    g = cycle(8)
    sol = solve_lp(build_lp(g, 3))
    params = RoundingParams(alpha=0.9, seed=7, k=3)
    free = build_spanner(g, sol, params)
    forced = build_spanner(g, sol, params, force_tree_roots=frozenset())
    assert forced.rounded_edges == free.rounded_edges
    assert forced.tree_roots == frozenset()
    assert forced.tree_edges == frozenset()


def test_forcing_edges_leaves_root_stream_alone():
    g = cycle(8)
    sol = solve_lp(build_lp(g, 3))
    params = RoundingParams(alpha=0.9, seed=7, k=3)
    free = build_spanner(g, sol, params)
    forced = build_spanner(g, sol, params, force_rounded_edges=frozenset())
    assert forced.tree_roots == free.tree_roots


def test_triangle_saturated_probabilities():
    # x = (1, 0, 1) and alpha sqrt(3) > 1: edges 0 and 2 always kept, 1 never
    g = build_graph(3, TRIANGLE)
    sol = solve_lp(build_lp(g, 2))
    params = RoundingParams(alpha=10.0, seed=123, k=2)
    res = build_spanner(g, sol, params, force_tree_roots=frozenset())
    assert res.rounded_edges == frozenset({0, 2})
    assert res.e_h == frozenset({0, 2})
    assert res.feasible


def test_tree_edge_budget_holds():
    # synthetic x vectors; this invariant is purely about rounding and trees
    rng = make_rng(9)
    for trial in range(25):
        n = rng.randint(3, 12)
        g = build_graph(n, random_edge_list(rng, n, 0.5))
        if g.m == 0:
            continue
        sol = LpSolution(
            status="optimal",
            x=tuple(rng.random() for _ in range(g.m)),
            f={},
            objective_value=1.0,
        )
        params = RoundingParams(alpha=1.2, seed=trial, k=3)
        res = build_spanner(g, sol, params)
        assert len(res.tree_edges) <= 2 * len(res.tree_roots) * (n - 1)
        assert res.e_h == res.rounded_edges | res.tree_edges


def test_trees_realize_exact_distances():
    rng = make_rng(13)
    for trial in range(10):
        n = rng.randint(3, 8)
        g = build_graph(n, random_edge_list(rng, n, 0.6, max_len=3))
        if g.m == 0:
            continue
        sol = LpSolution(status="optimal", x=(0.0,) * g.m, f={}, objective_value=0.0)
        root = rng.randrange(n)
        params = RoundingParams(alpha=1.0, seed=trial, k=3)
        res = build_spanner(g, sol, params, force_rounded_edges=frozenset(), force_tree_roots={root})
        edges = list(g.edges)
        into = dp_distances(n, edges, root)
        tree_into = dp_distances(n, edges, root, allowed=res.tree_edges)
        assert tree_into == into
        # inward side: distances toward the root, via the reversed graph
        rev = [(h, t, l) for t, h, l in edges]
        assert dp_distances(n, rev, root, allowed=res.tree_edges) == dp_distances(n, rev, root)
