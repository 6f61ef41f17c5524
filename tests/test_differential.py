"""Every exit-0 report of the CLI judged by the independent oracles, on arbitrary small graphs.

Lengths come from {0, 1, 2, 3}, so every sum a run forms is exact in floats and
the package and the oracles must agree to the last bit on every comparison.
The CLI's -k is an integer, so k = 1.5, a fractional budget, is judged on
run_solve and is_k_spanner called directly.  Relabelling the vertices and
reordering the edges must move no verdict of lp, oracle or verify,
relabelling the vertices alone must move nothing in a claims report, and
scaling every length must move nothing in a solve or claims report.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dirspan import (
    LpSolution,
    RoundingParams,
    RunConfig,
    build_graph,
    build_lp,
    build_spanner,
    edge_inclusion_probs,
    is_k_spanner,
    run_solve,
    serialize_graph,
    solve_lp,
)
from dirspan.cli import main
from dirspan.graph import DistanceTable
from dirspan.lp import CHECK_TOL

from oracles import exhaustive_opt, naive_is_spanner, path_lp_value

TOL = 1e-7


@st.composite
def small_instances(draw, ks=(1, 2, 3)):
    n = draw(st.integers(min_value=0, max_value=5))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    edges = [(t, h, float(draw(st.integers(min_value=0, max_value=3)))) for t, h in chosen]
    subgraph = draw(st.sets(st.sampled_from(range(len(edges))))) if edges else set()
    k = draw(st.sampled_from(ks))
    alpha = draw(st.sampled_from(("0.25", "1", "7.5")))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return n, edges, subgraph, k, alpha, seed


def assert_trials_agree(g, sol, solve, k):
    """Each trial's E_H, rebuilt from its seed, has the record's size and naive_is_spanner's verdict."""
    table = DistanceTable(g)
    probs = edge_inclusion_probs(sol.x, solve["alpha"], g.n)
    for record in solve["trials"]:
        res = build_spanner(g, sol, RoundingParams(alpha=solve["alpha"], seed=record["seed"], k=k), table, probs)
        assert len(res.e_h) == record["eh_size"]
        assert naive_is_spanner(g.n, g.edges, res.e_h, k) == record["feasible"]


def _report(argv):
    """The report of one cli.main run, which must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, (argv[0], code, err.getvalue())
    return json.loads(out.getvalue())


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_instances())
def test_every_report_agrees_with_the_oracles(tmp_path_factory, case):
    n, edges, subgraph, k, alpha, seed = case
    d = tmp_path_factory.mktemp("diff")
    gpath, hpath = d / "g.txt", d / "h.txt"
    g = build_graph(n, edges)
    gpath.write_text(serialize_graph(g))
    hpath.write_text("".join(f"{edges[e][0]} {edges[e][1]}\n" for e in sorted(subgraph)))
    common = [str(gpath), "-k", str(k)]

    lp = _report(["lp", *common])
    assert lp["objective"] == pytest.approx(path_lp_value(n, edges, k), abs=TOL)

    opt, _ = exhaustive_opt(n, edges, k)
    oracle = _report(["oracle", *common])
    assert oracle["opt"] == opt
    assert len(oracle["witness"]) == opt and naive_is_spanner(n, edges, set(oracle["witness"]), k)

    solve = _report(["solve", *common, "--oracle", "--alpha", alpha, "--trials", "3", "--seed", str(seed)])
    assert solve["lp"]["value"] == lp["objective"]
    assert solve["opt"] == opt and solve["lp"]["value"] <= opt + TOL
    sol = LpSolution(x=tuple(lp["x"]), objective_value=lp["objective"])
    assert_trials_agree(g, sol, solve, k)

    verify = _report(["verify", *common, "--subgraph", str(hpath)])
    assert verify["feasible"] == naive_is_spanner(n, edges, subgraph, k)

    claims = _report(["claims", *common, "--trials", "2", "--seed", str(seed)])
    assert claims["claim1"]["disagreements"] == 0
    assert claims["claim2"]["violations"] == 0
    assert claims["lp_value"] == lp["objective"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_instances(ks=(1.5,)))
def test_fractional_k_agrees_with_the_oracles(case):
    # k * dist_G is a half-integer budget here, so got <= allowed is tested off the integers
    n, edges, subgraph, k, alpha, seed = case
    g = build_graph(n, edges)
    assert is_k_spanner(g, subgraph, k).feasible == naive_is_spanner(n, edges, subgraph, k)
    config = RunConfig(k=k, input="g", alpha_override=float(alpha), seed=seed, trials=3)
    solve = run_solve(config, g)
    assert solve["lp"]["value"] == pytest.approx(path_lp_value(n, edges, k), abs=TOL)
    assert_trials_agree(g, solve_lp(build_lp(g, k)), solve, k)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_instances(), st.data())
def test_relabelling_vertices_and_reordering_edges_changes_no_verdict(tmp_path_factory, case, data):
    n, edges, _, k, _, seed = case
    perm = data.draw(st.permutations(range(n)))
    order = data.draw(st.permutations(range(len(edges))))
    d = tmp_path_factory.mktemp("relabel")
    (d / "g.txt").write_text(serialize_graph(build_graph(n, edges)))
    moved = [(perm[edges[e][0]], perm[edges[e][1]], edges[e][2]) for e in order]
    (d / "moved.txt").write_text(serialize_graph(build_graph(n, moved)))
    relabelled = [(perm[tail], perm[head], length) for tail, head, length in edges]
    (d / "relabelled.txt").write_text(serialize_graph(build_graph(n, relabelled)))

    def run(command, name, *flags):
        return _report([command, str(d / f"{name}.txt"), "-k", str(k), *flags])

    lp = run("lp", "g")["objective"]
    assert abs(run("lp", "moved")["objective"] - lp) <= CHECK_TOL * max(1.0, lp)

    oracle = run("oracle", "g")
    assert run("oracle", "moved")["opt"] == oracle["opt"]

    # the optimum's witness as 'tail head' lines, under each labelling
    verdicts = []
    for name, label in (("g", range(n)), ("moved", perm)):
        hpath = d / f"{name}-witness.txt"
        hpath.write_text("".join(f"{label[edges[e][0]]} {label[edges[e][1]]}\n" for e in oracle["witness"]))
        verdicts.append(run("verify", name, "--subgraph", str(hpath))["feasible"])
    assert verdicts[0] == verdicts[1]

    # with the edge order kept, every edge index, LP column and claim draw stays
    # the same, so the whole claims report does, but for its timing and label
    claims = []
    for name in ("g", "relabelled"):
        report = run("claims", name, "--trials", "2", "--seed", str(seed))
        del report["timing"], report["instance"]["input"]
        claims.append(report)
    assert claims[0] == claims[1]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_instances())
def test_scaling_every_length_changes_no_report(tmp_path_factory, case):
    # every scaled sum stays exact, so each comparison keeps its outcome; x0.5 makes a graph with an
    # odd length inexact, so its rows of G come from searches while x1, x2 and x1024 take the
    # all-pairs matrix, and the relation cross-checks the two; --alpha holds alpha where the mode moves
    n, edges, _, k, alpha, seed = case
    d = tmp_path_factory.mktemp("scale")
    reports = {}
    for scale in (1, 2, 0.5, 1024):
        path = d / f"g{scale}.txt"
        path.write_text(serialize_graph(build_graph(n, [(t, h, length * scale) for t, h, length in edges])))
        for argv in (
            ["solve", str(path), "-k", str(k), "--alpha", alpha, "--trials", "3", "--seed", str(seed)],
            ["claims", str(path), "-k", str(k), "--trials", "2", "--seed", str(seed)],
        ):
            report = _report(argv)
            del report["timing"], report["instance"]["input"]
            report["instance"].pop("mode", None)
            reports[scale, argv[0]] = report
    for (scale, command), report in reports.items():
        assert report == reports[1, command], (scale, command)
