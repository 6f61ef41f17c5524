import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dirspan import (
    INF,
    DuplicateEdge,
    GraphError,
    IndexOutOfRange,
    NegativeLength,
    SelfLoop,
    build_graph,
)
import dirspan.graph
from dirspan.graph import (
    DistanceTable,
    PausedSearch,
    _select_parents,
    edge_mask,
    reverse_graph,
    shortest_path_tree,
)
from dirspan.paths import demand_path_sets
from dirspan.verify import is_k_spanner

from oracles import dp_distances, make_rng
from support import _dijkstra, fresh_path_sets, fresh_shortest_path_tree


def outward_dist(g, source):
    return _dijkstra(g.n, g.out_edges, g.edges, source)


def inward_dist(g, source):
    """dist[w] is the w->source distance, walking in_edges backward."""
    return _dijkstra(g.n, g.in_edges, g.edges, source, far=0)


def distance_matrix(g):
    return [outward_dist(g, s) for s in range(g.n)]


def test_build_graph_basics():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.5)])
    assert g.n == 3
    assert g.m == 2
    assert g.edges == ((0, 1, 1.0), (1, 2, 2.5))
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
        (2, [(2, 0, 1.0)], IndexOutOfRange),  # a tail equal to n
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
    assert build_graph(3, [(0, 1, 1e308), (1, 2, 1e308)]).edges[0][2] == 1e308


def test_zero_length_edges_allowed():
    g = build_graph(2, [(0, 1, 0.0)])
    assert outward_dist(g, 0)[1] == 0.0


def test_reverse_graph_keeps_indices():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 3.0)])
    r = reverse_graph(g)
    assert r.edges[0] == (1, 0, 1.0)
    assert r.edges[1] == (2, 1, 3.0)


def test_cycle_distances():
    g = build_graph(4, [(i, (i + 1) % 4, 1.0) for i in range(4)])
    assert outward_dist(g, 0) == [0.0, 1.0, 2.0, 3.0]


def test_unreachable_is_inf():
    g = build_graph(3, [(0, 1, 1.0)])
    dist = outward_dist(g, 0)
    assert dist[2] == INF
    assert _select_parents(g, 0, dist, True)[2] is None


def test_inward_distances():
    # dist from every vertex TO the source, along edge directions
    g = build_graph(3, [(0, 1, 2.0), (1, 2, 5.0)])
    assert inward_dist(g, 2) == [7.0, 5.0, 0.0]


def test_tree_prefers_lowest_edge_index():
    # two tight parents for vertex 2: edge 1 (0->2, len 2) and edge 2 (1->2, len 1)
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.0)])
    assert shortest_path_tree(g, 0) == frozenset({0, 1})


def test_tree_example_skips_slack_edge():
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 1.0)])
    assert shortest_path_tree(g, 0) == frozenset({0, 2})


def test_tree_zero_length_cycle_stays_acyclic():
    # 0-length two-cycle between 1 and 2; the tree must not use both directions
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 0.0), (2, 1, 0.0)])
    assert shortest_path_tree(g, 0) == frozenset({0, 1})


def test_inward_tree_edges_point_at_root():
    g = build_graph(3, [(0, 2, 1.0), (1, 2, 1.0)])
    assert shortest_path_tree(g, 2) == frozenset({0, 1})


def test_distance_matrix_three_cycle():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    assert distance_matrix(g) == [
        [0.0, 1.0, 2.0],
        [2.0, 0.0, 1.0],
        [1.0, 2.0, 0.0],
    ]


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
    # integer lengths keep every sum exact, so equality is exact
    table = DistanceTable(g)
    assert table.outward(source) == dp_distances(n, edges, source)
    assert table.inward(source) == dp_distances(n, [(h, t, ln) for t, h, ln in edges], source)


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
    union = set()
    # outward, w's parent edge enters w from its tail; inward, it leaves w toward its head
    for outward, dist, near in ((True, outward_dist(g, root), 0), (False, inward_dist(g, root), 1)):
        parent = _select_parents(g, root, dist, outward)
        tree = {e for e in parent if e is not None}
        reachable = [v for v in range(n) if dist[v] < INF]
        assert len(tree) == len(reachable) - 1
        union |= tree
        for v in reachable:
            # walk to the root, accumulating length
            total = 0.0
            node = v
            hops = 0
            while node != root:
                e = parent[node]
                total += g.edges[e][2]
                node = g.edges[e][near]
                hops += 1
                assert hops <= n
            assert total == dist[v] or math.isclose(total, dist[v])
    assert shortest_path_tree(g, root) == union


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_shared_table_matches_fresh_searches(data):
    # zero lengths give the tree parent tie-breaks; the readers take turns on one table
    n = data.draw(st.integers(min_value=1, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    g = build_graph(n, [(t, h, float(data.draw(st.integers(min_value=0, max_value=3)))) for t, h in chosen])
    k = data.draw(st.sampled_from((1, 1.5, 2, 3)))
    roots = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2 * n))
    split = data.draw(st.integers(min_value=0, max_value=len(roots)))
    h = frozenset(data.draw(st.lists(st.integers(min_value=0, max_value=max(g.m - 1, 0)), max_size=g.m)) if g.m else ())
    table = DistanceTable(g)

    def rows_unchanged():
        for rows, dist in ((table._out, outward_dist), (table._in, inward_dist)):
            for v, row in rows.items():
                assert row == dist(g, v)
        for r, row in table._trees.items():
            assert frozenset(row.nonzero()[0].tolist()) == fresh_shortest_path_tree(g, r)

    for r in roots[:split]:
        assert tree_rows(table, [r]) == [fresh_shortest_path_tree(g, r)]
        rows_unchanged()
    assert demand_path_sets(g, k, table) == fresh_path_sets(g, k)
    rows_unchanged()
    assert [frozenset(row.nonzero()[0].tolist()) for row in table.trees(roots[:split])] == [
        fresh_shortest_path_tree(g, r) for r in roots[:split]
    ]
    rows_unchanged()
    for subset in (h, frozenset(range(g.m))):
        assert is_k_spanner(g, subset, k, table=table) == is_k_spanner(g, subset, k)
        rows_unchanged()
    for r in roots[split:]:
        assert tree_rows(table, [r]) == [fresh_shortest_path_tree(g, r)]
        rows_unchanged()


SEARCH_LENGTHS = (0.0, 0.1, 0.3, 1.1, 1e300, 1e308)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_paused_search_matches_full_h_row(data):
    # any sequence of (target, bound) queries on one search, either direction,
    # over a random mask or every edge: a result above its bound is the full
    # H row's value exactly (inf included), a result within it is a path
    # length no shorter than that value, and -1 runs the search to the end
    n = data.draw(st.integers(min_value=1, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    g = build_graph(n, [(t, h, data.draw(st.sampled_from(SEARCH_LENGTHS))) for t, h in chosen])
    h = data.draw(st.sets(st.integers(min_value=0, max_value=g.m - 1)) | st.just(set(range(g.m)))) if g.m else set()
    inward = data.draw(st.booleans())
    source = data.draw(st.integers(min_value=0, max_value=n - 1))
    adj = [[e for e in lst if e in h] for lst in (g.in_edges if inward else g.out_edges)]
    row = _dijkstra(n, adj, g.edges, source, 0 if inward else 1)
    search = PausedSearch(g, edge_mask(g, h), source, inward)
    bounds = st.sampled_from((-1.0, 0.0, 0.1, 0.4, 1.1, 2.2, 1e300, 2e300, 1e308, INF)) | st.floats(min_value=0)
    queries = data.draw(st.lists(st.tuples(st.integers(min_value=0, max_value=n - 1), bounds), max_size=12))
    for target, bound in queries:
        got = search.reach(target, bound)
        if got > bound:
            assert got == row[target]
        else:
            assert got >= row[target]
        if bound == -1:
            assert not search.heap
    for target in range(n):
        assert search.reach(target, -1) == row[target]


def test_distance_table_searches_each_row_once(monkeypatch):
    # a decimal graph searches each row once; an exact one searches only the outward rows asked for
    # before its first inward row, which builds the one all-pairs matrix every later row comes from
    calls = []
    passes = []
    all_pairs = dirspan.graph._all_pairs

    class CountingSearch(dirspan.graph.PausedSearch):
        def __init__(self, graph, mask, source, inward=False):
            calls.append((inward, source))
            super().__init__(graph, mask, source, inward)

    def counting_all_pairs(graph):
        passes.append(graph)
        return all_pairs(graph)

    monkeypatch.setattr(dirspan.graph, "PausedSearch", CountingSearch)
    monkeypatch.setattr(dirspan.graph, "_all_pairs", counting_all_pairs)
    table = DistanceTable(build_graph(3, [(0, 1, 1.5), (1, 2, 2.5), (2, 0, 0.0)]))
    for _ in range(2):
        assert table.outward(0) == [0.0, 1.5, 4.0]
        assert table.inward(0) == [0.0, 2.5, 0.0]
        assert table.outward(0) is table.outward(0)
    assert calls == [(False, 0), (True, 0)]
    assert not passes

    calls.clear()
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.0)])
    table = DistanceTable(g)
    for _ in range(2):
        assert table.outward(0) == [0.0, 1.0, 3.0]
        assert table.inward(0) == [0.0, 2.0, 0.0]
        assert table.outward(1) == [2.0, 0.0, 2.0]
        assert table.inward(2) == [3.0, 2.0, 0.0]
        assert table.outward(0) is table.outward(0)
        assert table.inward(2) is table.inward(2)
    table.trees(range(3))
    assert calls == [(False, 0)]
    assert passes == [g]


@pytest.mark.parametrize("v", [-1, 3], ids=["negative", "past-n"])
def test_search_source_out_of_range_is_rejected(v):
    # -1 once gave vertex n-1's row under key -1, and n raised a bare IndexError
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    table = DistanceTable(g)
    for search in (table.outward, table.inward, lambda source: PausedSearch(g, edge_mask(g, ()), source)):
        with pytest.raises(IndexOutOfRange, match="source .* outside 0..2"):
            search(v)
    assert not table._out and not table._in


def _rows_as_searched(table, g):
    # repr tells 0.0 from -0.0, which == does not
    for v in range(g.n):
        assert list(map(repr, table.inward(v))) == list(map(repr, inward_dist(g, v)))
        assert list(map(repr, table.outward(v))) == list(map(repr, outward_dist(g, v)))


def test_exact_graph_rows_match_searches():
    # every row of an exact graph comes from the matrix, asked for inward first, and equals the
    # searched row bit for bit; -0.0 lengths give 0.0 distances, as a search's 0.0 + -0.0 does
    rng = make_rng(53)
    for trial in range(60):
        n = rng.randint(1, 9)
        edges = [(t, h, rng.choice((-0.0, 0.0, 1.0, 2.0, 7.0, 2.0**40)))
                 for t in range(n) for h in range(n) if t != h and rng.random() < 0.35]
        g = build_graph(n, edges)
        table = DistanceTable(g)
        _rows_as_searched(table, g)
        assert table._pairs is not None
        for r, row in enumerate(table.trees(range(n))):
            assert frozenset(row.nonzero()[0].tolist()) == fresh_shortest_path_tree(g, r)


def test_sparse_exact_graph_rows_match_searches():
    # above _WHOLE_SWEEP_CELLS a sweep step writes only the cells it can lower: the random graphs
    # take all three kinds of step (the whole matrix, the finite block, the finite rows), and the
    # chain, whose step k reaches only rows 0..k and columns k and k + 1, takes blocks throughout
    rng = make_rng(59)
    graphs = []
    for n, degree in ((100, 1), (140, 2), (200, 3), (120, 3)):
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(n * degree)}
        graphs.append(build_graph(n, [(t, h, rng.choice((-0.0, 0.0, 1.0, 2.0, 7.0, 2.0**40)))
                                      for t, h in sorted(pairs) if t != h]))
    n = 150
    graphs.append(build_graph(n, [(v, v + 1, 1.0) for v in range(n - 1)] + [(0, n - 1, n - 1.0)]))
    for g in graphs:
        assert g.n * g.n > dirspan.graph._WHOLE_SWEEP_CELLS
        table = DistanceTable(g)
        _rows_as_searched(table, g)
        assert table._pairs is not None


def test_lengths_summing_to_2_53_are_searched():
    # the sweep adds the two halves of 0 -> 2 -> 1 -> 3 as 2**53 + (1 + 1), exactly 2**53 + 2,
    # while a search rounds (2**53 + 1) + 1 back to 2**53; the float sum 2**53 is not below
    # 2**53, so the rows are searched
    g = build_graph(4, [(0, 2, 2.0**53), (2, 1, 1.0), (1, 3, 1.0)])
    assert dirspan.graph._all_pairs(g)[0, 3] == 2.0**53 + 2
    table = DistanceTable(g)
    _rows_as_searched(table, g)
    assert table.outward(0)[3] == 2.0**53
    assert table._pairs is None


def test_lengths_summing_below_2_53_take_the_matrix():
    # 0 -> 1 runs through vertex n - 1, the last one the sweep visits
    g = build_graph(3, [(0, 2, 2.0**53 - 2), (2, 1, 1.0)])
    table = DistanceTable(g)
    _rows_as_searched(table, g)
    assert table.outward(0) == [0.0, 2.0**53 - 1, 2.0**53 - 2]
    assert table._pairs is not None


@pytest.mark.parametrize("v", [-1, 3], ids=["negative", "past-n"])
def test_matrix_row_out_of_range_is_rejected(v):
    # numpy reads -1 as the last vertex and rejects 3 with a bare IndexError
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    table = DistanceTable(g)
    table.inward(0)
    assert table._pairs is not None
    for row in (table.outward, table.inward):
        with pytest.raises(IndexOutOfRange, match="source .* outside 0..2"):
            row(v)
    assert table._out == {} and list(table._in) == [0]


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
        assert DistanceTable(g).outward(trial % n) == dp_distances(n, edges, trial % n)


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
    r = reverse_graph(g)
    inward = DistanceTable(g).inward(source)
    reference = outward_dist(r, source)
    assert inward == reference
    assert _select_parents(g, source, inward, False) == _select_parents(r, source, reference, True)


def tree_rows(table, roots):
    return [frozenset(row.nonzero()[0].tolist()) for row in table.trees(roots)]


BULK_LENGTHS = (0.0, 0.1, 0.3, 0.7, 1.0, 1.1, 2.0, 1e300, 2e300, 1e308)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bulk_trees_match_per_root_scan(data):
    # zero lengths and 1e300 + 1.0 == 1e300 give tight edges between equal
    # distances, 1e308 sums overflow; a tiny cell budget splits the roots
    # into blocks of one to three, so most calls take several blocks
    n = data.draw(st.integers(min_value=1, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    g = build_graph(n, [(t, h, data.draw(st.sampled_from(BULK_LENGTHS))) for t, h in chosen])
    cells = data.draw(st.integers(min_value=1, max_value=6 * max(n, g.m)))
    shared = DistanceTable(g)
    with mock.patch.object(dirspan.graph, "_BLOCK_CELLS", cells):
        for _ in range(2):  # the shared table's second call reuses its rows, trees and edge slots
            roots = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2 * n + 3))
            expect = [fresh_shortest_path_tree(g, r) for r in roots]
            fresh = DistanceTable(g)  # builds every root in this one call
            assert all(row.dtype == bool and row.shape == (g.m,) for row in fresh.trees(roots))
            assert tree_rows(fresh, roots) == expect
            assert tree_rows(shared, roots) == expect


def lowest_tight_edge(g, dist, w):
    return min(e for e in g.in_edges[w] if dist[g.edges[e][0]] + g.edges[e][2] == dist[w])


@pytest.mark.parametrize(
    "edges,vertex,lowest,scanned",
    [
        # zero length: vertex 1 (dist 1) attaches only through 4 -> 1 of length 0,
        # and 4 sorts after 1, so the scan skips edge 1 from 1 and takes edge 11
        (
            [(0, 2, 1), (1, 3, 2), (1, 4, 1), (2, 0, 2), (2, 1, 2), (2, 4, 0),
             (3, 1, 1), (3, 4, 1), (4, 0, 2), (4, 1, 0), (4, 2, 1), (4, 3, 2)],
            3, 1, 11,
        ),
        # absorbed length: 1e300 + 1.0 == 1e300 ties vertices 1, 2 and 3, and 3
        # sorts after 1, so the scan skips edge 7 from 3 and takes edge 9
        (
            [(0, 3, 1e300), (0, 4, 1), (1, 0, 1), (1, 2, 1), (2, 3, 2e300), (2, 4, 1e300),
             (3, 0, 1), (3, 1, 1), (3, 2, 1e300), (4, 1, 1e300), (4, 3, 1e300)],
            1, 7, 9,
        ),
    ],
    ids=["zero-length", "absorbed-length"],
)
def test_bulk_trees_keep_the_scan_where_lowest_tight_edge_differs(edges, vertex, lowest, scanned):
    # a positive lowest tight edge is not always the scan's pick: the bulk rule
    # must send these rows through the ordered scan
    g = build_graph(5, edges)
    table = DistanceTable(g)
    dist = table.outward(0)
    assert lowest_tight_edge(g, dist, vertex) == lowest
    assert _select_parents(g, 0, dist, True)[vertex] == scanned
    (tree,) = tree_rows(table, [0])
    assert tree == fresh_shortest_path_tree(g, 0)
    assert scanned in tree and lowest not in tree


def test_bulk_trees_skip_overflowing_sums():
    # 1e308 + 1e308 is inf: vertex 2 is unreachable from 0, so no edge may
    # attach it, although the sum equals its infinite distance
    g = build_graph(3, [(0, 1, 1e308), (1, 2, 1e308)])
    table = DistanceTable(g)
    assert table.outward(0) == [0.0, 1e308, INF]
    assert tree_rows(table, [0, 2]) == [frozenset({0}), frozenset({1})]
    assert tree_rows(table, [0, 2]) == [fresh_shortest_path_tree(g, r) for r in (0, 2)]


def test_kept_rows_come_back_as_the_same_arrays():
    # the zero-length edge 2 -> 0 ties two distances in each root's trees, so
    # every row is built through _select_parents; asking again, in another
    # order and with a duplicate, hands out the kept arrays without a rebuild
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.0)])
    table = DistanceTable(g)
    with mock.patch.object(dirspan.graph, "_select_parents", wraps=_select_parents) as spy:
        first = table.trees([2, 0, 1])
        assert 0 in {c.args[1] for c in spy.call_args_list}
        spy.reset_mock()
        again = table.trees((1, 0, 0, 2))
        assert not spy.called
    assert [row is kept for row, kept in zip(again, (first[2], first[1], first[1], first[0]))] == [True] * 4
    assert tree_rows(table, (1, 0, 0, 2)) == [fresh_shortest_path_tree(g, r) for r in (1, 0, 0, 2)]
    assert table.trees(()) == []
