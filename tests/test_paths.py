import pytest

from dirspan import paths
from dirspan import (
    PathExplosion,
    build_graph,
    enumerate_demand_paths,
)

from oracles import all_simple_paths_within, make_rng, random_edge_list
from support import path_vertices

TRIANGLE = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]


def test_stretch_budget_uses_distance_not_edge_length():
    # demand edge has length 5, but a length-2 detour sets the distance
    g = build_graph(3, [(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)])
    assert enumerate_demand_paths(g, 3, 0).budget == 6.0


def test_stretch_budget_direct_edge():
    g = build_graph(2, [(0, 1, 2.0)])
    assert enumerate_demand_paths(g, 4, 0).budget == 8.0


def test_triangle_paths():
    g = build_graph(3, TRIANGLE)
    dp = enumerate_demand_paths(g, 2, 1)
    assert dp.demand == 1
    assert dp.budget == 2.0
    assert set(dp.paths) == {(1,), (0, 2)}  # 0->2 direct, and 0->1->2
    assert dp.covered == frozenset({0, 1, 2})


def test_direct_only_when_budget_tight():
    g = build_graph(3, TRIANGLE)
    dp = enumerate_demand_paths(g, 1, 1)
    assert dp.paths == ((1,),)
    assert dp.covered == frozenset({0, 2})
    assert dp.mandatory
    assert not enumerate_demand_paths(g, 2, 1).mandatory
    # one path, but a detour: the demand edge itself is over budget
    detour = enumerate_demand_paths(build_graph(3, [(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)]), 1, 0)
    assert detour.paths == ((1, 2),)  # 0->2->1
    assert not detour.mandatory


def test_max_paths_cap_raises(monkeypatch):
    # demand 1 has two paths at k=2: a cap of exactly 2 passes, one less trips it
    g = build_graph(3, TRIANGLE)
    monkeypatch.setattr(paths, "MAX_PATHS", 2)
    assert len(enumerate_demand_paths(g, 2, 1).paths) == 2
    monkeypatch.setattr(paths, "MAX_PATHS", 1)
    with pytest.raises(PathExplosion):
        enumerate_demand_paths(g, 2, 1)


def test_zero_length_budget_zero():
    g = build_graph(3, [(0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0)])
    dp = enumerate_demand_paths(g, 3, 2)
    assert dp.budget == 0.0
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
        dp = enumerate_demand_paths(g, k, d)
        tail, head, _ = g.edges[d]
        for path in dp.paths:
            verts = path_vertices(g, path)
            assert verts[0] == tail
            assert verts[-1] == head
            assert len(set(verts)) == len(verts)
            total = sum(g.edges[e][2] for e in path)
            assert total <= dp.budget


@pytest.mark.parametrize("seed", range(8))
def test_enumeration_matches_unpruned_oracle(seed):
    rng = make_rng(100 + seed)
    n = rng.randint(3, 7)
    edges = random_edge_list(rng, n, 0.5, max_len=4)
    g = build_graph(n, edges)
    for d in range(g.m):
        k = 1 + seed % 3
        dp = enumerate_demand_paths(g, k, d)
        tail, head, _ = g.edges[d]
        expect = all_simple_paths_within(n, edges, tail, head, dp.budget)
        assert sorted(path_vertices(g, p) for p in dp.paths) == expect
        assert dp.covered == frozenset(v for p in expect for v in p)


def test_float_lengths_enumerate_exactly():
    # dyadic lengths: float sums along paths are exact, so is the budget test
    g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.75)])
    dp = enumerate_demand_paths(g, 1, 2)
    assert set(dp.paths) == {(2,), (0, 1)}  # 0->2 direct, and 0->1->2
