"""Every exit-0 report of the CLI judged by the independent oracles, on arbitrary small graphs.

Lengths come from {0, 1, 2, 3}, so every sum a run forms is exact in floats and
the package and the oracles must agree to the last bit on every comparison.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dirspan import LpSolution, RoundingParams, build_graph, build_spanner, serialize_graph
from dirspan.cli import main

from oracles import exhaustive_opt, naive_is_spanner, path_lp_value

TOL = 1e-7


@st.composite
def small_instances(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    edges = [(t, h, float(draw(st.integers(min_value=0, max_value=3)))) for t, h in chosen]
    subgraph = draw(st.sets(st.sampled_from(range(len(edges))))) if edges else set()
    k = draw(st.integers(min_value=1, max_value=3))
    alpha = draw(st.sampled_from(("0.25", "1", "7.5")))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return n, edges, subgraph, k, alpha, seed


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
    sol = LpSolution(status="optimal", x=tuple(lp["x"]), f={}, objective_value=lp["objective"])
    for record in solve["trials"]:
        res = build_spanner(g, sol, RoundingParams(alpha=solve["alpha"], seed=record["seed"], k=k))
        assert len(res.e_h) == record["eh_size"]
        assert naive_is_spanner(n, edges, res.e_h, k) == record["feasible"]

    verify = _report(["verify", *common, "--subgraph", str(hpath)])
    assert verify["feasible"] == naive_is_spanner(n, edges, subgraph, k)

    claims = _report(["claims", *common, "--trials", "2", "--seed", str(seed)])
    assert claims["claim1"]["disagreements"] == 0
    assert claims["claim2"]["violations"] == 0
    assert claims["lp_value"] == lp["objective"]
