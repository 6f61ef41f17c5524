import pytest

from dirspan import (
    Caps,
    IncompleteEnumeration,
    PathExplosion,
    build_graph,
    covered_vertices,
    enumerate_demand_paths,
    stretch_budget,
)

from oracles import all_simple_paths_within, make_rng, random_edge_list

TRIANGLE = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]


def test_stretch_budget_uses_distance_not_edge_length():
    # demand edge has length 5, but a length-2 detour sets the distance
    g = build_graph(3, [(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)])
    assert stretch_budget(g, 3, 0) == 6.0


def test_stretch_budget_direct_edge():
    g = build_graph(2, [(0, 1, 2.0)])
    assert stretch_budget(g, 4, 0) == 8.0


def test_triangle_paths():
    g = build_graph(3, TRIANGLE)
    dp = enumerate_demand_paths(g, 2, 1)
    assert dp.demand == 1
    assert dp.budget == 2.0
    assert dp.complete
    assert set(dp.paths) == {(0, 2), (0, 1, 2)}
    assert dp.covered == frozenset({0, 1, 2})


def test_direct_only_when_budget_tight():
    g = build_graph(3, TRIANGLE)
    dp = enumerate_demand_paths(g, 1, 1)
    assert dp.paths == ((0, 2),)
    assert dp.covered == frozenset({0, 2})


def test_max_paths_cap_raises():
    g = build_graph(3, TRIANGLE)
    with pytest.raises(PathExplosion):
        enumerate_demand_paths(g, 2, 1, Caps(max_paths=1))


def test_hop_cap_marks_incomplete():
    g = build_graph(3, TRIANGLE)
    dp = enumerate_demand_paths(g, 2, 1, Caps(max_hops=1))
    assert dp.paths == ((0, 2),)
    assert not dp.complete
    with pytest.raises(IncompleteEnumeration):
        covered_vertices(dp)


def test_hop_cap_without_pressure_stays_complete():
    # budget already rules out anything longer than one hop
    g = build_graph(3, TRIANGLE)
    dp = enumerate_demand_paths(g, 1, 1, Caps(max_hops=1))
    assert dp.complete


def test_bad_caps_rejected():
    for name, bad in (("max_paths", 0), ("max_hops", 0), ("max_free_edges", -1), ("max_trees", 0)):
        with pytest.raises(ValueError, match=name):
            Caps(**{name: bad})


def test_zero_length_budget_zero():
    g = build_graph(3, [(0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0)])
    dp = enumerate_demand_paths(g, 3, 2)
    assert dp.budget == 0.0
    assert set(dp.paths) == {(0, 2), (0, 1, 2)}


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
        tail, head = g.endpoints(d)
        for path in dp.paths:
            assert path[0] == tail
            assert path[-1] == head
            assert len(set(path)) == len(path)
            total = sum(g.length(g.edge_index[(path[i], path[i + 1])]) for i in range(len(path) - 1))
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
        tail, head = g.endpoints(d)
        expect = all_simple_paths_within(n, edges, tail, head, dp.budget)
        assert sorted(dp.paths) == expect
        assert dp.covered == frozenset(v for p in expect for v in p)


def test_float_lengths_enumerate_exactly():
    # dyadic lengths: float sums along paths are exact, so is the budget test
    g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.75)])
    dp = enumerate_demand_paths(g, 1, 2)
    assert set(dp.paths) == {(0, 2), (0, 1, 2)}
