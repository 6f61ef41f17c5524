import pytest
from hypothesis import given, settings, strategies as st

from dirspan import ClaimContext, ExplosionCap, arborescence, build_graph
from dirspan.graph import INF

from oracles import make_rng, out_tree_census, random_edge_list
from support import shortest_path_tree_cut

TRIANGLE = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]
DECIMAL_LENGTHS = (0.0, 0.1, 0.2, 0.7, 1.0, 2.0, 3.0)
# 1e308 makes a tree distance overflow to INF while its vertex is on the tree
OVERFLOW_LENGTHS = DECIMAL_LENGTHS + (1e308,)
LP_VALUES = (0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 1 / 3, 1.0)


def test_enumeration_cap(monkeypatch):
    # a cap of exactly the tree count passes; one less trips it
    rng = make_rng(59)
    graphs = [(3, TRIANGLE)]
    graphs += [(n, random_edge_list(rng, n, 0.5)) for n in (3, 4, 5, 5, 6)]
    for n, edges in graphs:
        g = build_graph(n, edges)
        count = ClaimContext(g, 0, n - 1).tree_count()
        monkeypatch.setattr(arborescence, "MAX_TREES", count)
        assert ClaimContext(g, 0, n - 1).tree_count() == count
        if count > 1:
            monkeypatch.setattr(arborescence, "MAX_TREES", count - 1)
            with pytest.raises(ExplosionCap):
                ClaimContext(g, 0, n - 1)
        monkeypatch.undo()


def test_trees_match_parent_vector_oracle():
    rng = make_rng(67)
    for _ in range(60):
        n = rng.randint(1, 6)
        edges = [
            (i, j, rng.choice(DECIMAL_LENGTHS))
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.45
        ]
        root, target = rng.randrange(n), rng.randrange(n)
        ctx = ClaimContext(build_graph(n, edges), root, target)
        assert sorted(ctx.trees) == out_tree_census(n, edges, root, target)


def test_trees_as_deep_as_a_long_path():
    # the unit path 0 -> 1 -> ... -> 1999 has one rooted out-tree per prefix, each
    # cut by the edge leaving it, and only the whole path reaches the target;
    # the longest prefix finishes first, the root alone last
    n = 2000
    ctx = ClaimContext(build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)]), 0, n - 1)
    assert ctx.tree_count() == n
    assert ctx.trees == [(n - 1.0, 0)] + [(INF, 1 << e) for e in range(n - 2, -1, -1)]


@st.composite
def rooted_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = [(t, h, draw(st.sampled_from(OVERFLOW_LENGTHS))) for t, h in chosen]
    root, target = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    # inexact decimals, so that another summation order gives another float
    x = draw(st.lists(st.sampled_from(LP_VALUES), min_size=len(edges), max_size=len(edges)))
    K = draw(st.sampled_from(OVERFLOW_LENGTHS + (0.3, 1.5, float("inf"))))
    return n, edges, root, target, x, K


def ascending_cut_mass(mask, x):
    """x summed over the set bits of mask, one bit position at a time from edge 0 up."""
    total = 0.0
    for e in range(len(x)):
        if mask >> e & 1:
            total += x[e]
    return total


@settings(max_examples=300, deadline=None)
@given(rooted_graphs())
def test_incremental_masks_match_census(case):
    # the masks grown edge by edge with the tree equal a full rescan of every finished tree
    n, edges, root, target, x, K = case
    ctx = ClaimContext(build_graph(n, edges), root, target)
    assert sorted(ctx.trees) == out_tree_census(n, edges, root, target)
    masses = [ascending_cut_mass(mask, x) for dist_v, mask in ctx.trees if dist_v > K]
    assert ctx.min_long_cut_mass(x, K) == (min(masses) if masses else None)
    # the minimum rarely has three cut edges, so pin the summation order tree by tree too
    for tree in list(ctx.trees):
        ctx.trees = [tree]
        assert ctx.min_long_cut_mass(x, -1.0) == ascending_cut_mass(tree[1], x)


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
