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
from dirspan.lp import LpSolution
from dirspan.simplex import GREATER, LESS, solve_simplex

from oracles import check_solution, layered_lp_unit, layered_lp_value, lp_lower_bound_check, make_rng, random_edge_list
from support import path_vertices

TRIANGLE = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]


def cycle(n, length=1.0):
    return build_graph(n, [(i, (i + 1) % n, length) for i in range(n)])


def test_single_edge_shape_without_presolve():
    g = build_graph(2, [(0, 1, 1.0)])
    model = build_lp(g, 3, presolve=False)
    assert model.path_cols == ((0, (0,)),)
    assert len(model.program.c) == 2
    labels = [lab[0] for lab in model.row_labels]
    assert labels.count("demand") == 1
    assert labels.count("capacity") == 1
    sol = solve_lp(model)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert sol.x == (1.0,)


def test_single_edge_presolve_drops_rows():
    g = build_graph(2, [(0, 1, 1.0)])
    model = build_lp(g, 3)
    assert model.mandatory == frozenset({0})
    assert model.row_labels == ()
    assert model.program.lower[0] == 1.0
    sol = solve_lp(model)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert sol.f[(0, (0,))] == 1.0


def test_triangle_lp_value_and_point():
    g = build_graph(3, TRIANGLE)
    for presolve in (False, True):
        sol = solve_lp(build_lp(g, 2, presolve=presolve))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(2.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.x[1] == pytest.approx(0.0, abs=1e-9)
        assert sol.x[2] == pytest.approx(1.0, abs=1e-9)


def test_triangle_flow_routes_middle_demand():
    g = build_graph(3, TRIANGLE)
    sol = solve_lp(build_lp(g, 2))
    assert sol.f[(1, (0, 2))] == pytest.approx(1.0, abs=1e-9)  # 0->1->2


def test_cycle_forces_every_edge():
    g = cycle(6)
    model = build_lp(g, 3, presolve=False)
    assert len(model.path_cols) == 6
    sol = solve_lp(model)
    assert sol.objective_value == pytest.approx(6.0, abs=1e-9)
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in sol.x)


def test_cycle_presolve_finds_all_mandatory():
    model = build_lp(cycle(6), 3)
    assert model.mandatory == frozenset(range(6))
    assert solve_lp(model).objective_value == pytest.approx(6.0, abs=1e-9)


def test_presolve_value_matches_on_random_instances():
    rng = make_rng(17)
    done = 0
    while done < 20:
        n = rng.randint(3, 7)
        g = build_graph(n, random_edge_list(rng, n, 0.4, max_len=3))
        if g.m == 0:
            continue
        k = rng.choice([2, 3, 4])
        a = solve_lp(build_lp(g, k, presolve=True))
        b = solve_lp(build_lp(g, k, presolve=False))
        assert a.objective_value == pytest.approx(b.objective_value, abs=1e-7)
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
    model = build_lp(g, 2, presolve=False)
    z = np.zeros(len(model.program.c))
    bad = violated_rows(model, z)
    assert bad
    assert any("demand" in msg for msg in bad)


def test_check_solution_roundtrip_and_detection():
    g = build_graph(3, TRIANGLE)
    model = build_lp(g, 2, presolve=False)
    sol = solve_lp(model)
    assert check_solution(model, sol) == []
    broken = LpSolution(
        status=sol.status,
        x=sol.x,
        f={key: 0.0 for key in sol.f},
        objective_value=sol.objective_value,
        iterations=sol.iterations,
    )
    assert check_solution(model, broken)


def test_demand_count_grows_with_edges():
    g = build_graph(3, TRIANGLE[:2])
    h = build_graph(3, TRIANGLE)
    assert len(build_lp(g, 2, presolve=False).demand_paths) == 2
    assert len(build_lp(h, 2, presolve=False).demand_paths) == 3


def test_extra_columns_never_raise_the_optimum():
    # widening a demand's path set (new usable columns) can only help the LP
    rng = make_rng(31)
    done = 0
    while done < 10:
        n = rng.randint(3, 6)
        g = build_graph(n, random_edge_list(rng, n, 0.5, max_len=1))
        if g.m < 2:
            continue
        base = build_lp(g, 2, presolve=False)
        base_val = solve_lp(base).objective_value
        wide = build_lp(g, 3, presolve=False)
        # same demands, strictly larger budgets, so path sets only grow
        for d in range(g.m):
            assert set(base.demand_paths[d].paths) <= set(wide.demand_paths[d].paths)
        wide_val = solve_lp(wide).objective_value
        assert wide_val <= base_val + 1e-9
        done += 1


def test_export_lp_text_mentions_all_variables():
    g = build_graph(3, TRIANGLE)
    text = export_lp_text(build_lp(g, 2, presolve=False))
    assert "Minimize" in text
    assert "x0" in text and "x2" in text
    assert "Subject To" in text


def test_row_senses_by_label():
    g = build_graph(3, TRIANGLE)
    model = build_lp(g, 2, presolve=False)
    for label, sense in zip(model.row_labels, model.program.senses):
        if label[0] == "demand":
            assert sense == GREATER
        else:
            assert sense == LESS


def test_build_lp_rows_follow_labels_and_path_columns():
    # each row's non-zeros are fixed by its label and model.path_cols alone
    rng = make_rng(37)
    graphs = [generate_instance(parse_gen_spec("er:n=40,p=0.1,seed=1"))]
    while len(graphs) < 15:
        n = rng.randint(3, 7)
        g = build_graph(n, random_edge_list(rng, n, 0.45, max_len=3))
        if g.m:
            graphs.append(g)
    for g in graphs:
        for presolve in (True, False):
            model = build_lp(g, 3, presolve=presolve)
            m = g.m
            a = model.program.a
            assert a.shape == (len(model.row_labels), m + len(model.path_cols))
            for d, path in model.path_cols:  # each column's path runs from its demand's tail to its head
                verts = path_vertices(g, path)
                assert (verts[0], verts[-1]) == g.edges[d][:2]
            for row, label in zip(a, model.row_labels):
                d = label[1]
                expected = {}
                for j, (dd, path) in enumerate(model.path_cols):
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


@pytest.mark.parametrize("spec,iterations,objective,z_sha256", PIVOT_PATH)
def test_ladder_pivot_path_is_pinned(spec, iterations, objective, z_sha256):
    p = build_lp(generate_instance(parse_gen_spec(spec)), 3).program
    res = solve_simplex(p.c, p.a, p.b, p.senses, lower=p.lower)
    assert res.iterations == iterations
    assert res.objective == objective
    assert hashlib.sha256(res.z.tobytes()).hexdigest() == z_sha256
