import pytest

from dirspan import paths
from dirspan import (
    IndexOutOfRange,
    PathExplosion,
    build_graph,
    enumerate_demand_paths,
)
from dirspan.graph import DistanceTable

from oracles import all_simple_paths_within, dp_distances, make_rng, random_edge_list
from support import path_vertices

TRIANGLE = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]


def oracle_budget(n, edges, k, demand):
    """k * dist_G(u, v) of a demand (u, v), from the bounded-walk DP: exact on integer lengths."""
    tail, head, _ = edges[demand]
    return k * dp_distances(n, edges, tail)[head]


def test_stretch_budget_uses_distance_not_edge_length():
    # demand edge has length 5, but a length-2 detour sets the distance, so the budget is
    # 3 * 2 = 6, not 3 * 5 = 15: the detour of length 6 is in and the one of length 7 is out
    edges = [(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0), (0, 3, 3.0), (3, 1, 3.0), (0, 4, 3.0), (4, 1, 4.0)]
    assert oracle_budget(5, edges, 3, 0) == 6.0
    g = build_graph(5, edges)
    dp = enumerate_demand_paths(g, 3, 0, DistanceTable(g))
    assert set(dp.paths) == {(0,), (1, 2), (3, 4)}


def test_stretch_budget_direct_edge():
    # the demand edge is its own shortest path, so the budget is 4 * 2 = 8: a detour of
    # length 8 is in and one of length 9 is out
    edges = [(0, 1, 2.0), (0, 2, 4.0), (2, 1, 4.0), (0, 3, 4.0), (3, 1, 5.0)]
    assert oracle_budget(4, edges, 4, 0) == 8.0
    g = build_graph(4, edges)
    dp = enumerate_demand_paths(g, 4, 0, DistanceTable(g))
    assert set(dp.paths) == {(0,), (1, 2)}


@pytest.mark.parametrize("demand", [-1, 3], ids=["negative", "past-m"])
def test_demand_out_of_range_is_rejected(demand):
    # -1 once read the last edge and reported demand -1 as not mandatory,
    # though demand 2 is; 3 raised a bare IndexError
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    with pytest.raises(IndexOutOfRange, match="demand .* outside 0..2"):
        enumerate_demand_paths(g, 1, demand, DistanceTable(g))
    assert enumerate_demand_paths(g, 1, 2, DistanceTable(g)).mandatory


def test_triangle_paths():
    g = build_graph(3, TRIANGLE)
    dp = enumerate_demand_paths(g, 2, 1, DistanceTable(g))
    assert dp.demand == 1
    assert set(dp.paths) == {(1,), (0, 2)}  # 0->2 direct, and 0->1->2 at exactly the budget 2 * 1


def test_direct_only_when_budget_tight():
    g = build_graph(3, TRIANGLE)
    table = DistanceTable(g)
    dp = enumerate_demand_paths(g, 1, 1, table)
    assert dp.paths == ((1,),)
    assert dp.mandatory
    assert not enumerate_demand_paths(g, 2, 1, table).mandatory
    # one path, but a detour: the demand edge itself is over budget
    g = build_graph(3, [(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)])
    detour = enumerate_demand_paths(g, 1, 0, DistanceTable(g))
    assert detour.paths == ((1, 2),)  # 0->2->1
    assert not detour.mandatory


def test_max_paths_cap_raises(monkeypatch):
    # demand 1 has two paths at k=2: a cap of exactly 2 passes, one less trips it
    g = build_graph(3, TRIANGLE)
    monkeypatch.setattr(paths, "MAX_PATHS", 2)
    table = DistanceTable(g)
    assert len(enumerate_demand_paths(g, 2, 1, table).paths) == 2
    monkeypatch.setattr(paths, "MAX_PATHS", 1)
    with pytest.raises(PathExplosion):
        enumerate_demand_paths(g, 2, 1, table)


def test_zero_length_budget_zero():
    # the budget is exactly 0: 0->3->2, of length 0.5, is out
    edges = [(0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0), (0, 3, 0.0), (3, 2, 0.5)]
    assert oracle_budget(4, edges, 3, 2) == 0.0
    g = build_graph(4, edges)
    dp = enumerate_demand_paths(g, 3, 2, DistanceTable(g))
    assert set(dp.paths) == {(2,), (0, 1)}  # 0->2 direct, and 0->1->2


def test_paths_are_simple_and_within_budget():
    rng = make_rng(11)
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = random_edge_list(rng, n, 0.45, max_len=3)
        g = build_graph(n, edges)
        if g.m == 0:
            continue
        k = rng.choice([1, 2, 3])
        d = rng.randrange(g.m)
        dp = enumerate_demand_paths(g, k, d, DistanceTable(g))
        tail, head, _ = g.edges[d]
        for path in dp.paths:
            verts = path_vertices(g, path)
            assert verts[0] == tail
            assert verts[-1] == head
            assert len(set(verts)) == len(verts)
            total = sum(g.edges[e][2] for e in path)
            assert total <= oracle_budget(n, edges, k, d)


@pytest.mark.parametrize("seed", range(8))
def test_enumeration_matches_unpruned_oracle(seed):
    rng = make_rng(100 + seed)
    n = rng.randint(3, 7)
    edges = random_edge_list(rng, n, 0.5, max_len=4)
    g = build_graph(n, edges)
    table = DistanceTable(g)
    for d in range(g.m):
        k = 1 + seed % 3
        dp = enumerate_demand_paths(g, k, d, table)
        tail, head, _ = g.edges[d]
        expect = all_simple_paths_within(n, edges, tail, head, oracle_budget(n, edges, k, d))
        assert sorted(path_vertices(g, p) for p in dp.paths) == expect


def test_float_lengths_enumerate_exactly():
    # dyadic lengths: float sums along paths are exact, so is the budget test
    g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.75)])
    dp = enumerate_demand_paths(g, 1, 2, DistanceTable(g))
    assert set(dp.paths) == {(2,), (0, 1)}  # 0->2 direct, and 0->1->2
