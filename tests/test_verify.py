import copy

import pytest
from hypothesis import given, settings, strategies as st

import dirspan.graph
from dirspan import verify
from dirspan import (
    IndexOutOfRange,
    TooLarge,
    build_graph,
    build_lp,
    brute_force_opt,
    is_k_spanner,
    solve_lp,
)
from dirspan.graph import DistanceTable
from dirspan.verify import demand_distance_rows

from oracles import exhaustive_opt, make_rng, naive_is_spanner, random_edge_list
from support import all_pairs_spanner_check, eager_spanner_check, edge_check_equals_allpairs_check

TRIANGLE = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def test_detour_pair_is_spanner():
    g = build_graph(3, TRIANGLE)
    check = is_k_spanner(g, {0, 2}, 2)
    assert check.feasible
    assert check.violation is None


def test_dropping_both_detour_legs_fails():
    g = build_graph(3, TRIANGLE)
    check = is_k_spanner(g, {1}, 3)
    assert not check.feasible
    d, dist_g, dist_h = check.violation
    assert d in (0, 2)
    assert dist_g == 1.0
    assert dist_h == float("inf")


def test_stretch_threshold_is_sharp():
    # direct edge length 1, detour length 3: feasible iff k >= 3
    g = build_graph(3, [(0, 2, 1.0), (0, 1, 2.0), (1, 2, 1.0)])
    assert not is_k_spanner(g, {1, 2}, 2).feasible
    assert is_k_spanner(g, {1, 2}, 3).feasible


def test_violation_reports_exact_distances():
    g = build_graph(3, [(0, 2, 1.0), (0, 1, 2.0), (1, 2, 1.0)])
    check = is_k_spanner(g, {1, 2}, 2)
    assert check.violation == (0, 1.0, 3.0)


def test_full_edge_set_always_feasible():
    rng = make_rng(3)
    for _ in range(10):
        n = rng.randint(2, 8)
        g = build_graph(n, random_edge_list(rng, n, 0.5, max_len=3))
        assert is_k_spanner(g, set(range(g.m)), 1).feasible


def filled_table(g):
    """A DistanceTable of g that already holds the outward row of every demand tail."""
    table = DistanceTable(g)
    demand_distance_rows(g, table)
    return table


def test_precomputed_rows_give_same_answer():
    g = build_graph(3, TRIANGLE)
    table = filled_table(g)
    assert is_k_spanner(g, {0, 2}, 2, table=table).feasible
    assert not is_k_spanner(g, {0}, 2, table=table).feasible


def test_full_edge_set_reuses_g_rows(monkeypatch):
    # H = E at k >= 1: dist_H is dist_G, so the check returns without a G row or an H search, table or none
    g = build_graph(3, TRIANGLE)

    def no_search(*args, **kwargs):
        raise AssertionError("H = E must need no search")

    monkeypatch.setattr(dirspan.graph, "PausedSearch", no_search)
    monkeypatch.setattr(verify, "PausedSearch", no_search)
    assert is_k_spanner(g, frozenset(range(g.m)), 1) == is_k_spanner(g, [2, 1, 0], 1)
    assert is_k_spanner(g, range(g.m), 1, table=DistanceTable(g)).feasible


# 0->1, 1->2, 0->2, 2->3, 1->3, all of length 1: tails 0, 1 and 2; at k=2 each
# of 0->2 and 1->3 has a detour of length 2
SEARCH_GRAPH = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)]


@pytest.mark.parametrize(
    "h, given_rows, searches, feasible",
    [
        ([4, 3, 2, 1, 0], True, 0, True),  # every demand edge is in H within budget
        ({0, 1, 3, 4}, True, 1, True),  # only tail 0 lacks its own edge
        ({0, 1, 2, 3}, True, 1, True),  # only tail 1 lacks its own edge
        (set(), True, 1, False),  # demand 0 fails at once
        (set(), False, 2, False),  # tail 0's G row and its H row
    ],
)
def test_searches_only_the_tails_that_need_it(monkeypatch, h, given_rows, searches, feasible):
    # G rows are the table's PausedSearch constructions (dirspan.graph) and H
    # searches the check's own (dirspan.verify): both count
    g = build_graph(4, SEARCH_GRAPH)
    table = filled_table(g) if given_rows else None
    calls = []

    class CountingSearch(dirspan.graph.PausedSearch):
        def __init__(self, *args):
            calls.append(args)
            super().__init__(*args)

    monkeypatch.setattr(dirspan.graph, "PausedSearch", CountingSearch)
    monkeypatch.setattr(verify, "PausedSearch", CountingSearch)
    check = is_k_spanner(g, h, 2, table=table)
    assert check.feasible == feasible
    assert len(calls) == searches


@pytest.mark.parametrize("h", [{-1}, {0, 1, 7}], ids=["negative", "past-m"])
def test_h_index_out_of_range_is_rejected(h):
    # -1 once read as the last edge and 7 raised a bare IndexError
    g = build_graph(3, TRIANGLE)
    with pytest.raises(IndexOutOfRange, match="outside 0..2"):
        is_k_spanner(g, h, 1)


def test_own_edge_over_budget_is_still_searched():
    # edge 0 (0->2, length 3) is in H, but dist_G is 2 through 0->1->2
    g = build_graph(3, [(0, 2, 3.0), (0, 1, 1.0), (1, 2, 1.0)])
    assert is_k_spanner(g, {0, 1}, 1).violation == (0, 2.0, 3.0)
    assert is_k_spanner(g, {0, 1, 2}, 1).feasible  # H = E: the detour is in H
    assert is_k_spanner(g, {0, 1}, 1.5).violation == (2, 1.0, float("inf"))  # 3 <= 1.5 * 2 meets demand 0
    for h in ({0}, {0, 1}, {0, 2}, {0, 1, 2}):
        for k in (1, 1.5, 2):
            assert is_k_spanner(g, h, k) == eager_spanner_check(g, h, k)
    # below k = 1 even H = E is searched, and fails: 0->1 has dist_G = dist_H = 1 against a budget of 0.5
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert is_k_spanner(g, range(g.m), 0.5).violation == (0, 1.0, 1.0)


def test_length_m_list_missing_an_edge_gets_full_check():
    # three entries like E, but edge 1 (0->2) is missing and edge 0 repeats;
    # at k=1 the detour 0->1->2 of length 2 is too long
    g = build_graph(3, TRIANGLE)
    table = filled_table(g)
    check = is_k_spanner(g, [0, 0, 2], 1, table=table)
    assert not check.feasible
    assert check.violation == (1, 1.0, 2.0)
    assert is_k_spanner(g, [0, 0, 2], 2, table=table).feasible


def test_matches_naive_spanner_check():
    rng = make_rng(19)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = random_edge_list(rng, n, 0.5, max_len=3)
        g = build_graph(n, edges)
        if g.m == 0:
            continue
        h = frozenset(e for e in range(g.m) if rng.random() < 0.6)
        k = rng.choice([1, 2, 3])
        assert is_k_spanner(g, h, k).feasible == naive_is_spanner(n, edges, h, k)


def test_edge_check_agrees_with_all_pairs():
    rng = make_rng(37)
    for _ in range(60):
        n = rng.randint(2, 8)
        edges = random_edge_list(rng, n, 0.4, max_len=2)
        g = build_graph(n, edges)
        h = frozenset(e for e in range(g.m) if rng.random() < 0.5)
        k = rng.choice([1, 2, 3, 4])
        assert edge_check_equals_allpairs_check(g, h, k)
        assert is_k_spanner(g, h, k).feasible == all_pairs_spanner_check(g, h, k)


DECIMAL_LENGTHS = (0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 1.1, 3.0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lazy_check_matches_eager_reference(data):
    # the whole SpannerCheck must match, violation included, and the dist_G
    # rows the caller's table already holds (all, some or none) are never written
    n = data.draw(st.integers(min_value=1, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    g = build_graph(n, [(t, h, data.draw(st.sampled_from(DECIMAL_LENGTHS))) for t, h in chosen])
    h = data.draw(st.lists(st.integers(min_value=0, max_value=g.m - 1))) if g.m else []
    k = data.draw(st.sampled_from((1, 1.5, 2, 3)))
    given_rows = data.draw(st.sampled_from(("all", "some", "none")))
    table = DistanceTable(g)
    if given_rows == "all":
        demand_distance_rows(g, table)
    elif given_rows == "some":
        for s in sorted({tail for tail, _, _ in g.edges}):
            if data.draw(st.booleans()):
                table.outward(s)
    before = copy.deepcopy(table._out)
    assert is_k_spanner(g, h, k, table=None if given_rows == "none" else table) == eager_spanner_check(g, h, k)
    assert {s: table._out[s] for s in before} == before


def test_opt_triangle():
    g = build_graph(3, TRIANGLE)
    res = brute_force_opt(g, 2)
    assert res.opt == 2
    assert res.witness == frozenset({0, 2})


def test_opt_cycle_needs_everything():
    res = brute_force_opt(cycle(6), 3)
    assert res.opt == 6
    assert res.witness == frozenset(range(6))


def test_opt_trivial_graphs():
    assert brute_force_opt(build_graph(4, []), 3).opt == 0
    single = brute_force_opt(build_graph(2, [(0, 1, 1.0)]), 3)
    assert single.opt == 1
    assert single.witness == frozenset({0})


def test_opt_matches_exhaustive_subset_scan():
    rng = make_rng(43)
    done = 0
    while done < 25:
        n = rng.randint(2, 6)
        edges = random_edge_list(rng, n, 0.45, max_len=2)
        if len(edges) > 11:
            continue
        g = build_graph(n, edges)
        k = rng.choice([1, 2, 3])
        res = brute_force_opt(g, k)
        best, _ = exhaustive_opt(n, edges, k)
        assert res.opt == best
        assert naive_is_spanner(n, edges, res.witness, k)
        assert len(res.witness) == res.opt
        done += 1


def test_witness_is_minimum_not_just_minimal():
    rng = make_rng(47)
    done = 0
    while done < 10:
        n = rng.randint(3, 6)
        edges = random_edge_list(rng, n, 0.5)
        if not 2 <= len(edges) <= 11:
            continue
        g = build_graph(n, edges)
        res = brute_force_opt(g, 2)
        # any proper subset of a minimum witness must fail
        for drop in res.witness:
            smaller = set(res.witness) - {drop}
            assert not is_k_spanner(g, smaller, 2).feasible
        done += 1


def test_too_large_guard(monkeypatch):
    # at k=2 edge 0->2 is the triangle's one free edge: a cap of 1 passes, 0 trips it
    g = build_graph(3, TRIANGLE)
    monkeypatch.setattr(verify, "MAX_FREE_EDGES", 1)
    assert brute_force_opt(g, 2).opt == 2
    monkeypatch.setattr(verify, "MAX_FREE_EDGES", 0)
    with pytest.raises(TooLarge):
        brute_force_opt(g, 2)


def test_opt_sandwiched_by_lp():
    rng = make_rng(59)
    done = 0
    while done < 15:
        n = rng.randint(3, 7)
        g = build_graph(n, random_edge_list(rng, n, 0.4, max_len=2))
        if g.m == 0:
            continue
        k = rng.choice([2, 3])
        sol = solve_lp(build_lp(g, k))
        res = brute_force_opt(g, k)
        assert sol.objective_value <= res.opt + 1e-7
        assert res.opt <= g.m
        done += 1
