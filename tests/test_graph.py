import math

import pytest
from hypothesis import given, settings, strategies as st

from dirspan import (
    INF,
    INWARD,
    OUTWARD,
    DuplicateEdge,
    GraphError,
    IndexOutOfRange,
    NegativeLength,
    SelfLoop,
    build_graph,
    induced_subgraph,
    reverse_graph,
    shortest_path_tree,
    shortest_paths,
)

from oracles import dp_distances, make_rng, random_edge_list


def distance_matrix(g):
    return [list(shortest_paths(g, s).dist) for s in range(g.n)]


def test_build_graph_basics():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.5)])
    assert g.n == 3
    assert g.m == 2
    assert g.length(1) == 2.5
    assert g.endpoints(0) == (0, 1)
    assert g.out_edges[0] == (0,)
    assert g.in_edges[2] == (1,)
    assert g.edge_index[(0, 1)] == 0
    assert not g.unit_lengths()
    assert build_graph(2, [(0, 1, 1.0)]).unit_lengths()


@pytest.mark.parametrize(
    "n,edges,exc",
    [
        (2, [(0, 2, 1.0)], IndexOutOfRange),
        (2, [(-1, 0, 1.0)], IndexOutOfRange),
        (2, [(0, 1, -0.5)], NegativeLength),
        (2, [(0, 0, 1.0)], SelfLoop),
        (2, [(0, 1, 1.0), (0, 1, 2.0)], DuplicateEdge),
        (0, [], None),
    ],
)
def test_build_graph_validation(n, edges, exc):
    if exc is None:
        assert build_graph(n, edges).m == 0
    else:
        with pytest.raises(exc):
            build_graph(n, edges)


def test_non_finite_length_rejected():
    for length in (math.inf, float("1e309"), math.nan):
        with pytest.raises(GraphError, match="finite"):
            build_graph(2, [(0, 1, length)])
    # finite lengths stay accepted even where their sums overflow to inf
    assert build_graph(3, [(0, 1, 1e308), (1, 2, 1e308)]).length(0) == 1e308


def test_graph_equality_and_hash():
    a = build_graph(2, [(0, 1, 1.0)])
    b = build_graph(2, [(0, 1, 1.0)])
    c = build_graph(2, [(0, 1, 2.0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_zero_length_edges_allowed():
    g = build_graph(2, [(0, 1, 0.0)])
    assert shortest_paths(g, 0).dist[1] == 0.0


def test_reverse_graph_keeps_indices():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 3.0)])
    r = reverse_graph(g)
    assert r.edges[0] == (1, 0, 1.0)
    assert r.edges[1] == (2, 1, 3.0)


def test_cycle_distances():
    g = build_graph(4, [(i, (i + 1) % 4, 1.0) for i in range(4)])
    dm = shortest_paths(g, 0)
    assert dm.dist == (0.0, 1.0, 2.0, 3.0)
    assert dm.direction == OUTWARD


def test_unreachable_is_inf():
    g = build_graph(3, [(0, 1, 1.0)])
    dm = shortest_paths(g, 0)
    assert dm.dist[2] == INF
    assert dm.parent_edge[2] is None


def test_inward_distances():
    # dist from every vertex TO the source, along edge directions
    g = build_graph(3, [(0, 1, 2.0), (1, 2, 5.0)])
    dm = shortest_paths(g, 2, direction=INWARD)
    assert dm.dist == (7.0, 5.0, 0.0)


def test_tree_prefers_lowest_edge_index():
    # two tight parents for vertex 2: edge 1 (0->2, len 2) and edge 2 (1->2, len 1)
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.0)])
    t = shortest_path_tree(g, 0)
    assert t.tree_edges == frozenset({0, 1})


def test_tree_example_skips_slack_edge():
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 1.0)])
    t = shortest_path_tree(g, 0)
    assert t.tree_edges == frozenset({0, 2})
    assert t.direction == OUTWARD
    assert t.root == 0


def test_tree_zero_length_cycle_stays_acyclic():
    # 0-length two-cycle between 1 and 2; the tree must not use both directions
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 0.0), (2, 1, 0.0)])
    t = shortest_path_tree(g, 0)
    assert t.tree_edges == frozenset({0, 1})


def test_inward_tree_edges_point_at_root():
    g = build_graph(3, [(0, 2, 1.0), (1, 2, 1.0)])
    t = shortest_path_tree(g, 2, direction=INWARD)
    assert t.tree_edges == frozenset({0, 1})


def test_distance_matrix_three_cycle():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    assert distance_matrix(g) == [
        [0.0, 1.0, 2.0],
        [2.0, 0.0, 1.0],
        [1.0, 2.0, 0.0],
    ]


def test_induced_subgraph_mapping():
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 5.0)])
    sub = induced_subgraph(g, [0, 1, 3])
    assert sub.vertices == (0, 1, 3)
    assert sub.graph.n == 3
    # surviving edges: 0->1 and 0->3 (as 0->2 in local ids)
    assert sub.graph.edges == ((0, 1, 1.0), (0, 2, 5.0))
    assert sub.edge_map == (0, 3)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_dijkstra_matches_bounded_walk_dp(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = [
        (t, h, float(data.draw(st.integers(min_value=0, max_value=5))))
        for t, h in chosen
    ]
    g = build_graph(n, edges)
    source = data.draw(st.integers(min_value=0, max_value=n - 1))
    dm = shortest_paths(g, source)
    # integer lengths keep every sum exact, so equality is exact
    assert list(dm.dist) == dp_distances(n, edges, source)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tree_realizes_distances(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = [
        (t, h, float(data.draw(st.integers(min_value=0, max_value=3))))
        for t, h in chosen
    ]
    g = build_graph(n, edges)
    root = data.draw(st.integers(min_value=0, max_value=n - 1))
    dm = shortest_paths(g, root)
    t = shortest_path_tree(g, root)
    reachable = [v for v in range(n) if dm.dist[v] < INF]
    assert len(t.tree_edges) == len(reachable) - 1
    parent = {}
    for e in t.tree_edges:
        tail, head, _ = g.edges[e]
        assert head not in parent
        parent[head] = (tail, g.length(e))
    for v in reachable:
        if v == root:
            continue
        # walk up to the root, accumulating length backwards
        total = 0.0
        node = v
        hops = 0
        while node != root:
            tail, length = parent[node]
            total += length
            node = tail
            hops += 1
            assert hops <= n
        assert total == dm.dist[v] or math.isclose(total, dm.dist[v])


def test_dijkstra_float_lengths_match_dp():
    rng = make_rng(41)
    for trial in range(40):
        n = rng.randint(2, 9)
        edges = []
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.45:
                    edges.append((i, j, rng.random() * 3))
        g = build_graph(n, edges)
        dm = shortest_paths(g, trial % n)
        assert list(dm.dist) == dp_distances(n, edges, trial % n)


def test_induced_subgraph_distances_never_shorter_than_host():
    rng = make_rng(7)
    for _ in range(25):
        n = rng.randint(2, 8)
        edges = random_edge_list(rng, n, 0.4, max_len=3)
        g = build_graph(n, edges)
        vs = sorted(rng.sample(range(n), rng.randint(1, n)))
        sub = induced_subgraph(g, vs)
        host = distance_matrix(g)
        local = distance_matrix(sub.graph)
        for a, va in enumerate(sub.vertices):
            for b, vb in enumerate(sub.vertices):
                assert local[a][b] >= host[va][vb]


DECIMAL_LENGTHS = (0.0, 0.1, 0.2, 0.3, 0.7, 1.1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inward_walk_matches_reversed_graph(data):
    # the reversed copy is the reference: inward results must equal it bit for
    # bit, parents included, with zero-length ties and inexact decimal sums
    n = data.draw(st.integers(min_value=1, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = [(t, h, data.draw(st.sampled_from(DECIMAL_LENGTHS))) for t, h in chosen]
    g = build_graph(n, edges)
    source = data.draw(st.integers(min_value=0, max_value=n - 1))
    inward = shortest_paths(g, source, INWARD)
    reference = shortest_paths(reverse_graph(g), source, OUTWARD)
    assert inward.dist == reference.dist
    assert inward.parent_edge == reference.parent_edge
