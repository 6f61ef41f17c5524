import math

import pytest

from dirspan import (
    ClaimContext,
    ExplosionCap,
    NotReachable,
    build_graph,
    enumerate_arborescences,
)
from dirspan.arborescence import cut_set_of_potentials

from oracles import make_rng, parent_vector_arborescences, random_edge_list
from support import shortest_path_tree_cut

INF = math.inf
TRIANGLE = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]


def test_path_graph_single_arborescence():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    arbs = list(enumerate_arborescences(g, 0))
    assert len(arbs) == 1
    a = arbs[0]
    assert a.potentials == (0.0, 1.0, 2.0)
    assert a.parent_edge == (None, 0, 1)
    assert a.cut_set == frozenset()


def test_triangle_two_arborescences():
    g = build_graph(3, TRIANGLE)
    arbs = list(enumerate_arborescences(g, 0))
    assert len(arbs) == 2
    pots = sorted(a.potentials for a in arbs)
    assert pots == [(0.0, 1.0, 1.0), (0.0, 1.0, 2.0)]


def test_diamond_two_arborescences():
    g = build_graph(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    assert len(list(enumerate_arborescences(g, 0))) == 2


def test_unreachable_vertex_rejected():
    g = build_graph(2, [])
    with pytest.raises(NotReachable):
        list(enumerate_arborescences(g, 0))


def test_enumeration_cap():
    g = build_graph(3, TRIANGLE)
    with pytest.raises(ExplosionCap):
        list(enumerate_arborescences(g, 0, max_count=1))


def test_potentials_follow_parent_edges():
    rng = make_rng(61)
    done = 0
    while done < 15:
        n = rng.randint(2, 5)
        edges = random_edge_list(rng, n, 0.6, max_len=3)
        g = build_graph(n, edges)
        from dirspan.arborescence import _reachable_from

        if not all(_reachable_from(g, 0)):
            continue
        for a in enumerate_arborescences(g, 0):
            assert a.potentials[0] == 0.0
            for v in range(1, n):
                e = a.parent_edge[v]
                tail, head, length = g.edges[e]
                assert head == v
                assert a.potentials[v] == a.potentials[tail] + length
            assert a.cut_set == cut_set_of_potentials(g, a.potentials)
        done += 1


def test_count_matches_parent_vector_oracle():
    rng = make_rng(67)
    done = 0
    while done < 15:
        n = rng.randint(2, 5)
        edges = random_edge_list(rng, n, 0.6)
        g = build_graph(n, edges)
        from dirspan.arborescence import _reachable_from

        if not all(_reachable_from(g, 0)):
            continue
        ours = list(enumerate_arborescences(g, 0))
        ref = parent_vector_arborescences(n, edges, 0)
        assert len(ours) == len(ref)
        # the parent assignments must match as sets
        ours_parents = {tuple(a.parent_edge[1:]) for a in ours}
        ref_parents = {tuple(p[v] for v in range(1, n)) for p in ref}
        assert ours_parents == ref_parents
        done += 1


def test_claim_context_tree_census():
    # rooted out-trees of the triangle: {0}, {0,1}, {0,2}, and two spanning
    g = build_graph(3, TRIANGLE)
    ctx = ClaimContext(g, 0, 2)
    assert ctx.tree_count() == 5
    assert ctx.long_tree_count(2.0) == 2
    assert ctx.long_tree_count(0.5) == 5


def test_claim_context_boundary_is_strict():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    ctx = ClaimContext(g, 0, 2)
    assert ctx.tree_count() == 3
    assert ctx.long_tree_count(2.0) == 2
    assert ctx.long_tree_count(1.9999) == 3


def test_claim1_empty_subgraph_agrees():
    # both sides false: no path, and partial trees with uncut empty masks exist
    ctx = ClaimContext(build_graph(3, TRIANGLE), 0, 2)
    assert not ctx.path_within(frozenset(), 2.0)
    assert not ctx.all_long_trees_cut(frozenset(), 2.0)


def test_claim1_detour_subgraph_agrees():
    ctx = ClaimContext(build_graph(3, TRIANGLE), 0, 2)
    assert ctx.path_within(frozenset({0, 2}), 2.0)
    assert ctx.all_long_trees_cut(frozenset({0, 2}), 2.0)


def test_claim1_random_never_disagrees():
    rng = make_rng(71)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 6)
        edges = random_edge_list(rng, n, 0.5, max_len=2)
        g = build_graph(n, edges)
        u, v = rng.sample(range(n), 2)
        h = frozenset(e for e in range(g.m) if rng.random() < 0.5)
        K = rng.choice([0.0, 1.0, 2.0, 2.5, 4.0, float(n)])
        ctx = ClaimContext(g, u, v)
        assert ctx.path_within(h, K) == ctx.all_long_trees_cut(h, K)
        checked += 1


def test_claim2_on_lp_point():
    ctx = ClaimContext(build_graph(3, TRIANGLE), 0, 2)
    assert ctx.min_long_cut_mass((1.0, 0.0, 1.0), 2.0) == 1.0
    assert ctx.long_tree_count(2.0) == 2


def test_claim2_rejects_zero_vector():
    ctx = ClaimContext(build_graph(3, TRIANGLE), 0, 2)
    assert ctx.min_long_cut_mass((0.0, 0.0, 0.0), 2.0) == 0.0


def test_claim2_trees_missing_target_are_always_long():
    # the single-vertex tree {root} never reaches the target, whatever K is
    ctx = ClaimContext(build_graph(3, TRIANGLE), 0, 2)
    assert ctx.min_long_cut_mass((1.0, 1.0, 1.0), 100.0) >= 1.0
    assert ctx.long_tree_count(100.0) == 2


def test_claim2_vacuous_when_root_equals_target():
    # no tree is long, so there is no cut mass to bound
    ctx = ClaimContext(build_graph(3, TRIANGLE), 0, 0)
    assert ctx.min_long_cut_mass((0.0, 0.0, 0.0), 1.0) is None
    assert ctx.long_tree_count(1.0) == 0


def test_sptree_cut_triangle():
    g = build_graph(3, TRIANGLE)
    assert shortest_path_tree_cut(g, {0}, 0) == frozenset({1, 2})
    assert shortest_path_tree_cut(g, {0, 1, 2}, 0) == frozenset()


def test_sptree_cut_always_disjoint_from_subgraph():
    rng = make_rng(73)
    for _ in range(40):
        n = rng.randint(2, 8)
        g = build_graph(n, random_edge_list(rng, n, 0.5, max_len=3))
        h = frozenset(e for e in range(g.m) if rng.random() < 0.6)
        root = rng.randrange(n)
        cut = shortest_path_tree_cut(g, h, root)
        assert not (cut & h)
