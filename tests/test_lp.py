import hashlib

import numpy as np
import pytest

from dirspan import (
    build_graph,
    build_lp,
    export_lp_text,
    generate_instance,
    parse_gen_spec,
    solve_lp,
    violated_rows,
)
from dirspan import NumericalFailure, lp, simplex
from dirspan.simplex import GREATER, LESS, SimplexResult, solve_simplex

from oracles import (
    check_solution,
    layered_lp_unit,
    layered_lp_value,
    lp_lower_bound_check,
    make_rng,
    path_lp_value,
    random_edge_list,
)
from support import flow_columns, path_vertices

TRIANGLE = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]


def simplex_point(model):
    """The simplex's full variable vector on the model's program: x first, then the flows."""
    p = model.program
    return solve_simplex(p.c, p.a, p.b, p.senses, lower=p.lower).z


def cycle(n, length=1.0):
    return build_graph(n, [(i, (i + 1) % n, length) for i in range(n)])


def test_triangle_shape_keeps_only_the_two_path_demand():
    # demands 0 and 2 have one path each and are presolved; demand 1 keeps 0->1->2 and 0->2,
    # in the path search's discovery order
    model = build_lp(build_graph(3, TRIANGLE), 2)
    assert model.mandatory == frozenset({0, 2})
    assert flow_columns(model) == [(1, (0, 2)), (1, (1,))]
    assert len(model.program.c) == 5
    assert model.row_labels == (("demand", 1), ("capacity", 1, 0), ("capacity", 1, 1), ("capacity", 1, 2))
    assert list(model.program.lower) == [1.0, 0.0, 1.0, 0.0, 0.0]


def test_single_edge_presolve_drops_rows():
    g = build_graph(2, [(0, 1, 1.0)])
    model = build_lp(g, 3)
    assert model.mandatory == frozenset({0})
    assert model.row_labels == ()
    assert model.program.lower[0] == 1.0
    sol = solve_lp(model)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(path_lp_value(g.n, g.edges, 3), abs=1e-9)
    assert sol.x == (1.0,)
    assert len(model.program.c) == 1  # the presolved demand carries no flow column


def test_triangle_lp_value_and_point():
    g = build_graph(3, TRIANGLE)
    sol = solve_lp(build_lp(g, 2))
    assert sol.objective_value == pytest.approx(2.0, abs=1e-9)
    assert path_lp_value(g.n, g.edges, 2) == pytest.approx(2.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.x[1] == pytest.approx(0.0, abs=1e-9)
    assert sol.x[2] == pytest.approx(1.0, abs=1e-9)


def test_triangle_flow_routes_middle_demand():
    g = build_graph(3, TRIANGLE)
    model = build_lp(g, 2)
    z = simplex_point(model)
    assert z[g.m + flow_columns(model).index((1, (0, 2)))] == pytest.approx(1.0, abs=1e-9)  # 0->1->2
    assert tuple(float(v) for v in z[:g.m]) == solve_lp(model).x


def test_cycle_forces_every_edge():
    g = cycle(6)
    assert path_lp_value(g.n, g.edges, 3) == pytest.approx(6.0, abs=1e-9)
    sol = solve_lp(build_lp(g, 3))
    assert sol.objective_value == pytest.approx(6.0, abs=1e-9)
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in sol.x)


def test_cycle_presolve_finds_all_mandatory():
    model = build_lp(cycle(6), 3)
    assert model.mandatory == frozenset(range(6))
    assert flow_columns(model) == [] and model.row_labels == ()
    assert len(model.program.c) == 6
    assert solve_lp(model).objective_value == pytest.approx(6.0, abs=1e-9)


def test_presolve_value_matches_on_random_instances():
    # the unpresolved value comes from the path-LP oracle, which shares no code with the package
    rng = make_rng(17)
    done = 0
    while done < 20:
        n = rng.randint(3, 7)
        g = build_graph(n, random_edge_list(rng, n, 0.4, max_len=3))
        if g.m == 0:
            continue
        k = rng.choice([2, 3, 4])
        value = solve_lp(build_lp(g, k)).objective_value
        assert value == pytest.approx(path_lp_value(g.n, g.edges, k), abs=1e-7)
        done += 1


def layered_value(g, k):
    return layered_lp_value(g.n, g.edges, k)


def test_layered_requires_unit_lengths():
    with pytest.raises(ValueError):
        layered_lp_unit(2, [(0, 1, 2.0)], 3)


def test_layered_matches_path_formulation_on_examples():
    assert layered_value(cycle(6), 3) == pytest.approx(6.0, abs=1e-7)
    g = build_graph(3, TRIANGLE)
    assert layered_value(g, 2) == pytest.approx(2.0, abs=1e-7)


def test_layered_matches_path_formulation_randomized():
    rng = make_rng(23)
    done = 0
    while done < 12:
        n = rng.randint(3, 7)
        g = build_graph(n, random_edge_list(rng, n, 0.4, max_len=1))
        if g.m == 0:
            continue
        k = rng.choice([2, 3])
        pv = solve_lp(build_lp(g, k)).objective_value
        lv = layered_value(g, k)
        assert lv == pytest.approx(pv, abs=1e-6)
        done += 1


def test_lp_value_bounded_by_edge_count():
    rng = make_rng(29)
    for _ in range(10):
        n = rng.randint(2, 7)
        g = build_graph(n, random_edge_list(rng, n, 0.5, max_len=2))
        if g.m == 0:
            continue
        sol = solve_lp(build_lp(g, 3))
        assert sol.objective_value <= g.m + 1e-7


def test_lp_lower_bound_check():
    g = build_graph(3, TRIANGLE)
    sol = solve_lp(build_lp(g, 2))
    assert lp_lower_bound_check(sol, 2)
    assert not lp_lower_bound_check(sol, 1)


def test_violated_rows_catches_corruption():
    g = build_graph(3, TRIANGLE)
    model = build_lp(g, 2)
    z = np.zeros(len(model.program.c))
    bad = violated_rows(model, z)
    assert any("demand" in msg for msg in bad)
    assert any("presolved edge 0 below 1" in msg for msg in bad)


def test_check_solution_roundtrip_and_detection():
    g = build_graph(3, TRIANGLE)
    model = build_lp(g, 2)
    z = simplex_point(model)
    assert check_solution(model, z) == []
    broken = z.copy()
    broken[g.m:] = 0.0
    assert check_solution(model, broken)


def test_simplex_unbounded_objective_raises():
    with pytest.raises(NumericalFailure, match=r"^objective unbounded below$"):
        solve_simplex([-1.0], [[1.0]], [1.0], [GREATER], lower=[0.0])
    with pytest.raises(NumericalFailure, match=r"^objective unbounded below \(no constraints\)$"):
        solve_simplex([-1.0], np.zeros((0, 1)), [], [], lower=[0.0])


def test_simplex_iteration_cap_raises(monkeypatch):
    # each >= row starts on an artificial, so phase 1 needs one pivot per row
    assert solve_simplex([1.0, 1.0], np.eye(2), [1.0, 1.0], [GREATER, GREATER], lower=[0.0, 0.0]).iterations == 2
    monkeypatch.setattr(simplex, "MAX_ITER", 1)
    with pytest.raises(NumericalFailure, match=r"^simplex exceeded 1 iterations$"):
        solve_simplex([1.0, 1.0], np.eye(2), [1.0, 1.0], [GREATER, GREATER], lower=[0.0, 0.0])


def test_solve_lp_rejects_an_infeasible_simplex_point(monkeypatch):
    # the triangle at k = 2 keeps demand 2, 0->2, with paths 0->2 and 0->1->2; zeroed flows leave its row unmet
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    model = build_lp(g, 2)
    z = simplex_point(model)
    z[g.m:] = 0.0
    zeroed = SimplexResult(status="optimal", z=z, objective=float(z[:g.m].sum()), iterations=0)
    monkeypatch.setattr(lp, "solve_simplex", lambda *args, **kwargs: zeroed)
    message = r"^solver returned an infeasible point: row \('demand', 2\) = 0\.0 < 1\.0$"
    with pytest.raises(NumericalFailure, match=message):
        solve_lp(model)


def test_demand_count_grows_with_edges():
    g = build_graph(3, TRIANGLE[:2])
    h = build_graph(3, TRIANGLE)
    assert len(build_lp(g, 2).demand_paths) == 2
    assert len(build_lp(h, 2).demand_paths) == 3


def test_extra_columns_never_raise_the_optimum():
    # widening a demand's path set (new usable columns) can only help the LP
    rng = make_rng(31)
    done = 0
    while done < 10:
        n = rng.randint(3, 6)
        g = build_graph(n, random_edge_list(rng, n, 0.5, max_len=1))
        if g.m < 2:
            continue
        base = build_lp(g, 2)
        base_val = solve_lp(base).objective_value
        wide = build_lp(g, 3)
        # same demands, strictly larger budgets, so path sets only grow
        for d in range(g.m):
            assert set(base.demand_paths[d].paths) <= set(wide.demand_paths[d].paths)
        wide_val = solve_lp(wide).objective_value
        assert wide_val <= base_val + 1e-9
        done += 1


def test_export_lp_text_mentions_all_variables():
    g = build_graph(3, TRIANGLE)
    text = export_lp_text(build_lp(g, 2))
    assert "Minimize" in text
    assert "x0" in text and "x2" in text
    assert "Subject To" in text


def test_row_senses_by_label():
    g = build_graph(3, TRIANGLE)
    model = build_lp(g, 2)
    assert model.row_labels
    for label, sense in zip(model.row_labels, model.program.senses):
        if label[0] == "demand":
            assert sense == GREATER
        else:
            assert sense == LESS


def test_build_lp_rows_follow_labels_and_path_columns():
    # each row's non-zeros are fixed by its label and the flow columns alone
    rng = make_rng(37)
    graphs = [generate_instance(parse_gen_spec("er:n=40,p=0.1,seed=1"))]
    while len(graphs) < 15:
        n = rng.randint(3, 7)
        g = build_graph(n, random_edge_list(rng, n, 0.45, max_len=3))
        if g.m:
            graphs.append(g)
    for g in graphs:
        model = build_lp(g, 3)
        m = g.m
        a = model.program.a
        cols = flow_columns(model)
        assert a.shape == (len(model.row_labels), m + len(cols))
        for d, path in cols:  # each column's path runs from its demand's tail to its head
            verts = path_vertices(g, path)
            assert (verts[0], verts[-1]) == g.edges[d][:2]
        # a demand has rows exactly when it is not presolved, and its columns are its path set
        assert {label[1] for label in model.row_labels} == set(range(m)) - model.mandatory
        for d, dp in enumerate(model.demand_paths):
            assert (d in model.mandatory) == (dp.paths == ((d,),))
            assert [p for dd, p in cols if dd == d] == ([] if d in model.mandatory else list(dp.paths))
        for row, label in zip(a, model.row_labels):
            d = label[1]
            expected = {}
            for j, (dd, path) in enumerate(cols):
                if dd == d and (label[0] == "demand" or label[2] in path):
                    expected[m + j] = 1.0
            if label[0] == "capacity":
                expected[label[2]] = -1.0
            got = {int(j): row[j] for j in np.flatnonzero(row)}
            assert got == expected, label


# iterations, objective and sha256 of z.tobytes() for the k=3 ladder; any change
# to the pivot rule, the tie-break or the tableau arithmetic moves one of them
PIVOT_PATH = [
    ("er:n=40,p=0.1,seed=1", 740, 90.75, "305813aae762e6ae7bbaffb070d5276f52ff9f8bd8c7cd053b659deaf48a5779"),
    ("er:n=60,p=0.05,seed=1", 283, 143.5, "4ad7656560c805f616cc40cd22ad1be2df9639a3ba068f90a30c4997e388a998"),
    ("er:n=150,p=0.02,seed=1", 343, 370.0, "91e708e3f7f85b2086cef43af147eb8640b497153ce4973bef7c672e45dd5146"),
]


# the same at k=3 with a streak of 16 degenerate pivots switching to Bland's rule, which
# then fires in phase 1 on the first and last LP: a Bland's rule reset before phase 2
# moves the first and last, and a streak carried from phase 1 into phase 2 the second
BLAND_PIVOT_PATH = [
    ("er:n=40,p=0.1,seed=1", 1242, 90.75, "9ea0e1e1cad5c2272b313d3a87f01837b9560fc527f8375c33bd2f3f8552535d"),
    ("er:n=60,p=0.05,seed=1", 283, 143.5, "4ad7656560c805f616cc40cd22ad1be2df9639a3ba068f90a30c4997e388a998"),
    ("er:n=12,p=0.3,seed=21", 486, 17.550000000000004, "2b326f734c65abc60fd5b3db4978f781c398c55e23fbc357463ac85031826601"),
]


@pytest.mark.parametrize("spec,iterations,objective,z_sha256", PIVOT_PATH)
def test_ladder_pivot_path_is_pinned(spec, iterations, objective, z_sha256):
    p = build_lp(generate_instance(parse_gen_spec(spec)), 3).program
    res = solve_simplex(p.c, p.a, p.b, p.senses, lower=p.lower)
    assert res.iterations == iterations
    assert res.objective == objective
    assert hashlib.sha256(res.z.tobytes()).hexdigest() == z_sha256


@pytest.mark.parametrize("spec,iterations,objective,z_sha256", BLAND_PIVOT_PATH)
def test_bland_pivot_path_is_pinned(monkeypatch, spec, iterations, objective, z_sha256):
    monkeypatch.setattr(simplex, "DEGENERATE_STREAK", 16)
    test_ladder_pivot_path_is_pinned(spec, iterations, objective, z_sha256)
