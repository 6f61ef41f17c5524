import argparse
import ast
import collections
import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dirspan
import dirspan.graph

from dirspan import (
    BadSpec,
    ExplosionCap,
    LpSolution,
    PathExplosion,
    RunConfig,
    TooLarge,
    build_graph,
    dumps_report,
    is_k_spanner,
    run_claims,
    run_oracle,
    run_solve,
    select_alpha,
    serialize_graph,
    trial_seed,
)
from dirspan.cli import EXIT_INFEASIBLE, FAILURES, SHARED_FLAGS, build_parser, load_input, main
from dirspan.graph import DistanceTable
from dirspan.pipeline import splitmix64

from oracles import all_simple_paths_within, dp_distances, make_rng, random_edge_list


def cycle_text(n):
    return serialize_graph(build_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)]))


TRIANGLE_TEXT = "3 3\n0 1 1\n0 2 1\n1 2 1\n"


def test_splitmix64_known_answers():
    # reference outputs of the SplitMix64 stream seeded at 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert trial_seed(0, 0) == 0xE220A8397B1DCDAF
    assert trial_seed(0, 1) == 0x910A2DEC89025CC1


def test_trial_seed_wraps_and_spreads():
    assert trial_seed(2**64 - 1, 1) == splitmix64(0)
    seeds = {trial_seed(42, i) for i in range(100)}
    assert len(seeds) == 100


PUBLIC_NAMES = {
    "BadSpec", "ClaimContext", "DemandPaths", "DiGraph", "DirspanError",
    "DuplicateEdge", "ExplosionCap", "GenSpec", "GraphError", "GraphSyntaxError", "INF",
    "IndexOutOfRange", "LpModel", "LpSolution",
    "NegativeLength", "NumericalFailure", "OptResult", "PathExplosion",
    "RoundingParams", "RunConfig", "SelfLoop", "SpannerCheck", "SpannerResult", "TooLarge",
    "brute_force_opt", "build_graph", "build_lp", "build_spanner",
    "dumps_report", "edge_inclusion_probs", "enumerate_demand_paths",
    "export_lp_text", "generate_instance", "is_k_spanner", "parse_gen_spec",
    "parse_graph", "round_edges", "run_claims", "run_oracle", "run_solve",
    "sample_tree_roots", "select_alpha", "serialize_graph",
    "solve_lp", "trial_seed", "violated_rows",
}


def test_public_surface_is_pinned():
    # a helper only tests call belongs under tests/, not in this list
    assert len(dirspan.__all__) == len(set(dirspan.__all__))
    assert set(dirspan.__all__) == PUBLIC_NAMES
    for name in dirspan.__all__:
        assert getattr(dirspan, name) is not None


@pytest.mark.parametrize(
    "kwargs", [{"alpha_override": -math.inf}, {"alpha_override": 0.0}, {"alpha_override": -5.0},
               {"alpha_override": math.nan}, {"alpha_override": math.inf}],
    ids=["minus-inf", "zero", "negative", "nan", "inf"],
)
def test_run_config_rejects_bad_alpha(kwargs):
    with pytest.raises(BadSpec):
        RunConfig(k=3, input="", **kwargs)


def test_load_input_generator_and_file(tmp_path):
    g = load_input("gen:cycle:n=5")
    assert g.n == 5
    p = tmp_path / "g.txt"
    p.write_text(TRIANGLE_TEXT)
    assert load_input(str(p)).m == 3


def test_pipeline_imports_no_input_module():
    # runs take a loaded graph; reading files and generator specs is the CLI's job
    tree = ast.parse(Path(dirspan.pipeline.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported |= {base, *(f"{base}.{a.name}".replace("..", ".") for a in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert ".lp" in imported
    assert not imported & {".io", ".generate", "dirspan.io", "dirspan.generate"}


def _functions(tree, prefix):
    """(qualified name, node) of every function under tree, nested ones and methods included."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                found.append((name, node))
            found += _functions(node, name)
    return found


# module stem -> parsed source of every module of the package, parsed once so nodes keep their identity
PACKAGE_TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(Path(dirspan.__file__).parent.glob("*.py"))
}
PACKAGE_FUNCTIONS = [pair for stem, tree in PACKAGE_TREES.items() for pair in _functions(tree, stem)]


def _package_functions_where(test):
    return sorted(name for name, fn in PACKAGE_FUNCTIONS if test(fn))


def test_only_bounded_functions_recurse():
    # each level of a recursion is a Python frame, so a depth that grows with
    # the input reaches the recursion limit; these two are bounded whatever the input
    allowed = [
        "io._emit",  # the report's fixed nesting, at most four levels
        "verify.brute_force_opt.rec",  # at most MAX_FREE_EDGES + 1 levels, one per free edge
    ]
    assert _package_functions_where(lambda fn: any(
        isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == fn.name for c in ast.walk(fn)
    )) == allowed


def test_only_the_stream_helper_seeds_a_run():
    # numpy seeds a labelled stream of a run seed only in rounding._stream, which claims draws
    # from; the trial streams come from rounding.pcg64_states, numpy's SeedSequence mixing on word
    # arrays, which calls no SeedSequence, and the seeding property test holds it to _stream's states.
    # So a reused label shows in rounding alone; the generator draws from its spec's own seed
    assert _package_functions_where(lambda fn: any(
        isinstance(c, ast.Call) and "SeedSequence" in (getattr(c.func, "id", None), getattr(c.func, "attr", None))
        for c in ast.walk(fn)
    )) == [
        "generate.generate_instance",
        "rounding._stream",
    ]


def test_only_the_paused_search_pops_a_heap():
    # one Dijkstra: G's full rows and every search of H go through PausedSearch.reach
    pops = [
        node for tree in PACKAGE_TREES.values() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "heappop" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert len(pops) == 1
    assert _package_functions_where(lambda fn: any(node in pops for node in ast.walk(fn))) == [
        "graph.PausedSearch.reach",
    ]


# what the runtime-caller guard lets through because a benchmark binds it: name -> the file under
# the repo root that binds it; each entry goes, or moves to tests/, when ROADMAP item 2 unbinds it
BENCHMARK_BOUND = {
    "graph.reverse_graph": "benchmarks/tracer.py",
    "graph.shortest_path_tree": "benchmarks/tracer.py",
    "pipeline.RunConfig.jobs": "benchmarks/workloads.py",
    "simplex.SimplexResult.iterations": "benchmarks/tracer.py",
    "verify.demand_distance_rows": "benchmarks/tracer.py",
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_BOUND))
def test_each_benchmark_exemption_is_still_bound(name):
    # a benchmark that stops naming an exempt definition leaves it without a caller
    path = BENCHMARK_BOUND[name]
    text = (Path(__file__).resolve().parent.parent / path).read_text(encoding="utf-8")
    assert re.search(rf"\b{name.rpartition('.')[2]}\b", text), f"{path} no longer binds {name}"


def _class_members(cls):
    """Each dataclass field, __slots__ entry, property and non-dunder method of a class node."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in node.targets):
            yield from ((elt.value, node) for elt in node.value.elts)
        elif isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node


def test_every_definition_and_default_has_a_runtime_caller():
    # what only tests name, read or set belongs under tests/: each top-level function and class
    # must be named, each member of a top-level class read as an attribute, and each parameter
    # default both passed and left out, somewhere in the package outside __init__.py and outside
    # its own definition
    runtime = {stem: tree for stem, tree in PACKAGE_TREES.items() if stem != "__init__"}

    def names(node):
        return [n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]

    def reads(node):
        return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]

    uses = collections.Counter(name for tree in runtime.values() for name in names(tree))
    unnamed = [
        f"{stem}.{node.name}" for stem, tree in runtime.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and uses[node.name] == names(node).count(node.name)
    ]
    read = collections.Counter(name for tree in runtime.values() for name in reads(tree))
    unread = [
        f"{stem}.{cls.name}.{name}" for stem, tree in runtime.items() for cls in tree.body if isinstance(cls, ast.ClassDef)
        for name, node in _class_members(cls) if read[name] == reads(node).count(name)
    ]
    assert sorted(unnamed + unread) == sorted(BENCHMARK_BOUND)

    calls = [node for tree in runtime.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    owner = {id(fn): cls.name for tree in runtime.values() for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body}

    def defaults_no_call(fn, passing):
        # the defaulted parameters that no call passes (passing) or that no call leaves out (not passing);
        # a call passes a parameter by keyword or by position, and a method's callers do not pass self;
        # a call with *args or **kwargs may do either, so it counts as passing and as leaving out
        callee = owner[id(fn)] if fn.name == "__init__" else fn.name
        mine = [c for c in calls if callee in (getattr(c.func, "id", None), getattr(c.func, "attr", None))]
        params = fn.args.posonlyargs + fn.args.args
        skip = 1 if id(fn) in owner else 0
        defaulted = [(i - skip, a.arg) for i, a in enumerate(params) if i >= len(params) - len(fn.args.defaults)]
        defaulted += [(math.inf, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        return tuple(arg for i, arg in defaulted if not any(
            any(isinstance(a, ast.Starred) for a in c.args) or None in {kw.arg for kw in c.keywords}
            or (len(c.args) > i or arg in {kw.arg for kw in c.keywords}) == passing for c in mine
        ))

    unpassed = {name: args for name, fn in PACKAGE_FUNCTIONS if (args := defaults_no_call(fn, True))}
    assert unpassed == {"cli.main": ("argv",)}  # the entry point, called with no argument outside the tests
    # the mirror: a default that every call overrides only serves the tests
    unomitted = {name: args for name, fn in PACKAGE_FUNCTIONS if (args := defaults_no_call(fn, False))}
    assert unomitted == {}


def test_mode_auto_detects_unit():
    # the regime comes from the lengths alone; --alpha is the only way to pick another constant
    for spec, mode in (("gen:cycle:n=4", "unit"), ("gen:cycle:n=4,max_len=3,seed=2", "general")):
        report = run_solve(RunConfig(k=3, input=spec), load_input(spec))
        assert report["instance"]["mode"] == mode
        assert report["alpha"] == select_alpha(mode, 4, 3)


def test_run_solve_saturated_cycle():
    # alpha 3 > sqrt(8): every keep probability clamps to 1
    config = RunConfig(k=3, input="gen:cycle:n=8", alpha_override=3.0, trials=5, seed=1)
    report = run_solve(config, load_input(config.input))
    assert report["lp"]["value"] == pytest.approx(8.0, abs=1e-9)
    assert report["aggregate"]["feasible_fraction"] == 1.0
    assert all(r["eh_size"] == 8 for r in report["trials"])
    assert all(r["feasible"] for r in report["trials"])


def test_run_solve_aggregate_arithmetic():
    config = RunConfig(k=3, input="gen:er:n=9,p=0.35,seed=11", alpha_override=0.8, trials=12, seed=4)
    report = run_solve(config, load_input(config.input))
    records = report["trials"]
    assert len(records) == 12
    agg = report["aggregate"]
    assert agg["feasible_fraction"] == sum(r["feasible"] for r in records) / 12
    assert agg["mean_eh"] == sum(r["eh_size"] for r in records) / 12
    assert agg["max_eh"] == max(r["eh_size"] for r in records)
    m = report["instance"]["m"]
    for r in records:
        assert r["eh_size"] <= m
        assert r["seed"] == trial_seed(4, r["trial"])


def test_run_solve_trial_records_are_reproducible():
    config = RunConfig(k=3, input="gen:er:n=10,p=0.3,seed=2", alpha_override=1.1, trials=8, seed=9)
    a = run_solve(config, load_input(config.input))
    b = run_solve(config, load_input(config.input))
    assert dumps_report(a["trials"]) == dumps_report(b["trials"])
    # timing may differ; everything else must not
    a.pop("timing")
    b.pop("timing")
    assert dumps_report(a) == dumps_report(b)


def test_run_solve_jobs_do_not_change_records():
    base = RunConfig(k=3, input="gen:er:n=10,p=0.3,seed=2", alpha_override=1.1, trials=8, seed=9)
    par = RunConfig(k=3, input="gen:er:n=10,p=0.3,seed=2", alpha_override=1.1, trials=8, seed=9, jobs=4)
    a = run_solve(base, load_input(base.input))
    b = run_solve(par, load_input(par.input))
    assert dumps_report(a["trials"]) == dumps_report(b["trials"])


def test_run_claims_enumerates_each_demand_once(monkeypatch):
    # and hands demand d's ClaimContext the vertices of d's within-budget paths, as an unpruned oracle lists them
    import dirspan.paths
    import dirspan.pipeline

    seen = []
    covered = []  # run_claims builds the contexts in demand order
    enumerate_demand_paths = dirspan.paths.enumerate_demand_paths
    claim_context = dirspan.pipeline.ClaimContext

    def counting(g, k, demand, table=None):
        seen.append(demand)
        return enumerate_demand_paths(g, k, demand, table)

    def capturing(g, root, target, vertices):
        covered.append(frozenset(vertices))
        return claim_context(g, root, target, vertices)

    monkeypatch.setattr(dirspan.paths, "enumerate_demand_paths", counting)
    monkeypatch.setattr(dirspan.pipeline, "ClaimContext", capturing)
    config = RunConfig(k=3, input="gen:er:n=7,p=0.4,seed=3", trials=2, seed=1)
    report = run_claims(config, load_input(config.input))
    assert report["demands_checked"] > 0
    assert sorted(seen) == list(range(report["instance"]["m"]))

    triangle = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    covered.clear()
    run_claims(RunConfig(k=1, input="", trials=0), triangle)
    assert covered[1] == frozenset({0, 2})  # 0->2 is its own only path
    covered.clear()
    run_claims(RunConfig(k=2, input="", trials=0), triangle)
    assert covered[1] == frozenset({0, 1, 2})  # and 0->1->2 at exactly the budget 2 * 1
    for seed in range(8):
        rng = make_rng(100 + seed)
        n = rng.randint(3, 7)
        edges = random_edge_list(rng, n, 0.5, max_len=4)
        k = 1 + seed % 3
        covered.clear()
        run_claims(RunConfig(k=k, input="", trials=0), build_graph(n, edges))
        assert len(covered) == len(edges)
        for d, (tail, head, _) in enumerate(edges):
            expect = all_simple_paths_within(n, edges, tail, head, k * dp_distances(n, edges, tail)[head])
            assert covered[d] == frozenset(v for p in expect for v in p)


def test_run_solve_reads_null_ratio_when_the_quotient_overflows():
    # round rejects such an x, but a library caller may pass any LP value: mean |E_H| / 5e-324 is past the double range
    g = load_input("gen:cycle:n=3")
    config = RunConfig(k=2, input="", alpha_override=1.0, trials=2)
    report = run_solve(config, g, sol=LpSolution(x=(5e-324, 0, 0), objective_value=5e-324))
    assert report["lp"]["value"] == 5e-324
    assert report["aggregate"]["mean_eh"] > 0
    assert report["aggregate"]["ratio_vs_lp"] is None


def test_run_oracle_triangle(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(TRIANGLE_TEXT)
    report = run_oracle(RunConfig(k=2, input=str(p)), load_input(str(p)))
    assert report["opt"] == 2
    assert sorted(report["witness"]) == [0, 2]


def test_run_claims_cycle():
    config = RunConfig(k=3, input="gen:cycle:n=6", trials=4, seed=0)
    report = run_claims(config, load_input(config.input))
    assert report["demands_checked"] == 6
    assert report["claim1"]["checks"] == 24
    assert report["claim1"]["disagreements"] == 0
    assert report["claim2"]["violations"] == 0
    assert report["claim2"]["min_cut_mass"] == pytest.approx(1.0, abs=1e-9)


# zero-length edges, so the tree parents are picked among tied shortest paths
ZERO6_EDGES = [
    (0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0), (2, 3, 1.0), (1, 3, 1.0), (3, 0, 0.0),
    (3, 4, 2.0), (4, 5, 0.0), (5, 3, 0.0), (2, 4, 2.0), (4, 1, 1.0), (5, 0, 3.0),
]
# decimal lengths; at alpha 0.25 few vertices are roots, E_H != E and some trials are infeasible
DEC8_EDGES = [
    (0, 4, 0.1), (0, 6, 0.2), (1, 4, 0.7), (2, 5, 0.2), (2, 6, 1.1), (2, 7, 0.7), (3, 0, 0.1),
    (3, 7, 0.3), (4, 0, 0.1), (4, 2, 0.1), (4, 5, 0.7), (4, 6, 1.1), (4, 7, 1.1), (5, 4, 1.1),
    (6, 3, 0.7), (6, 5, 0.2), (7, 6, 0.3),
]


@pytest.mark.parametrize(
    "g, exact",
    [
        (load_input("gen:er:n=12,p=0.25,seed=2"), True),
        (build_graph(6, ZERO6_EDGES), True),
        (build_graph(8, DEC8_EDGES), False),
    ],
    ids=["er12", "zero6", "dec8"],
)
def test_run_solve_searches_each_row_of_g_once(monkeypatch, g, exact):
    # at the paper's alpha every vertex is a root, so every vertex's two rows are needed, each once;
    # a row of G is a PausedSearch over a mask that holds every edge, except on an exact graph
    # (integer lengths), where the path sets' first inward row builds the one all-pairs matrix
    paused = dirspan.graph.PausedSearch
    all_pairs = dirspan.graph._all_pairs
    searched = []
    passes = []

    class RecordingSearch(paused):
        def __init__(self, graph, mask, source, inward=False):
            if (graph.n, graph.edges) == (g.n, g.edges) and all(mask):
                searched.append(("in" if inward else "out", source))
            super().__init__(graph, mask, source, inward)

    def recording_all_pairs(graph):
        passes.append(graph)
        return all_pairs(graph)

    for name, module in list(sys.modules.items()):
        if name.startswith("dirspan") and getattr(module, "PausedSearch", None) is paused:
            monkeypatch.setattr(module, "PausedSearch", RecordingSearch)
    monkeypatch.setattr(dirspan.graph, "_all_pairs", recording_all_pairs)
    report = run_solve(RunConfig(k=3, input="g", trials=3, seed=1), g)
    assert all(t["tree_roots"] == g.n for t in report["trials"])
    if exact:
        assert passes == [g]
        assert searched == []
    else:
        assert passes == []
        assert len(searched) == len(set(searched))
        assert set(searched) == {(side, v) for side in ("out", "in") for v in range(g.n)}


def test_only_the_distance_table_searches_g(monkeypatch, tmp_path, capsys):
    # a search of G is a PausedSearch over a mask that holds every edge of G:
    # each must be a DistanceTable row, built through _row by outward or
    # inward, and no call searches one (direction, source) twice; H searches
    # over a smaller mask do not count
    g = build_graph(8, DEC8_EDGES)
    table_rows = {DistanceTable.outward.__code__: False, DistanceTable.inward.__code__: True}
    row_code = DistanceTable._row.__code__
    paused = dirspan.graph.PausedSearch
    searched = []

    class RecordingSearch(paused):
        def __init__(self, graph, mask, source, inward=False):
            if (graph.n, graph.edges) == (g.n, g.edges) and all(mask):
                caller = sys._getframe(1)
                if caller.f_code is row_code:
                    caller = caller.f_back
                searched.append((caller.f_code, inward, source))
            super().__init__(graph, mask, source, inward)

    for name, module in list(sys.modules.items()):
        if name.startswith("dirspan") and getattr(module, "PausedSearch", None) is paused:
            monkeypatch.setattr(module, "PausedSearch", RecordingSearch)

    def searches(call):
        searched.clear()
        call()
        assert searched, "the call searched no row of G"
        for caller, inward, source in searched:
            assert table_rows.get(caller) is inward, f"{caller.co_name} searched G from {source}"
        keys = [(inward, source) for _, inward, source in searched]
        assert len(keys) == len(set(keys))
        return set(keys)

    tails = {(False, tail) for tail, _, _ in g.edges}
    opt = [0, 1, 2, 3, 5, 6, 7, 8, 9, 13, 14, 15, 16]  # a minimum 2-spanner of DEC8_EDGES
    (tmp_path / "g.txt").write_text(serialize_graph(g))
    (tmp_path / "h.txt").write_text("".join(f"{g.edges[e][0]} {g.edges[e][1]}\n" for e in opt))
    argv = ["verify", str(tmp_path / "g.txt"), "-k", "2", "--subgraph", str(tmp_path / "h.txt")]
    assert searches(lambda: main(argv)) == tails
    assert '"feasible": true' in capsys.readouterr().out
    for h in (opt, ()):
        searches(lambda: is_k_spanner(g, h, 2))
    searched.clear()
    assert is_k_spanner(g, range(g.m), 2).feasible
    assert not searched  # H = E at k >= 1 needs no row of G
    for alpha in (None, 0.25):  # every vertex a root, then few roots with E_H != E
        config = RunConfig(k=2, input="dec8", seed=5, trials=12, alpha_override=alpha)
        assert tails <= searches(lambda: run_solve(config, g))


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_round_rejects_mismatched_dump(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text(cycle_text(6))
    other = tmp_path / "h.txt"
    other.write_text(TRIANGLE_TEXT)
    dump = tmp_path / "lp.json"
    code, _, _ = _run(capsys, ["lp", str(gpath), "-k", "3", "--out", str(dump)])
    assert code == 0
    # another graph, then the same graph at another k: the k=3 LP value must not reach a k=2 report
    for graph, k in ((other, "3"), (gpath, "2")):
        code, out, err = _run(capsys, ["round", str(graph), "-k", k, "--lp", str(dump)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: LP dump is for n=6, m=6, k=3; ")


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: {**d, "x": d["x"][:-2]},  # two entries short
        lambda d: {**d, "x": d["x"] + [0.5]},  # one too many
        lambda d: {**d, "x": [float("nan")] + d["x"][1:]},  # NaN would silently mean "never keep"
        lambda d: {**d, "x": [float("inf")] + d["x"][1:]},
        lambda d: {**d, "x": [-0.5] + d["x"][1:]},
        lambda d: {**d, "x": [None] + d["x"][1:]},
        lambda d: {**d, "x": ["0.5"] + d["x"][1:]},
        lambda d: {**d, "x": None},
        lambda d: {k: v for k, v in d.items() if k != "objective"},
        lambda d: {**d, "objective": float("nan")},
        lambda d: [d],
    ],
)
def test_cli_round_rejects_bad_dump(tmp_path, capsys, edit):
    gpath = tmp_path / "g.txt"
    gpath.write_text(cycle_text(6))
    dump = tmp_path / "lp.json"
    code, _, _ = _run(capsys, ["lp", str(gpath), "-k", "2", "--out", str(dump)])
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads(dump.read_text()))))
    code, out, err = _run(capsys, ["round", str(gpath), "-k", "2", "--lp", str(bad)])
    assert code == 2
    assert out == ""
    assert "LP dump" in err


@pytest.mark.parametrize(
    "dump, trials, message",
    [
        ({"objective": -7.0}, "1", "error: LP dump objective -7.0 is not the sum of its x, 2.0\n"),
        ({"objective": 2.0 + 1e-6}, "1", "error: LP dump objective 2.000001 is not the sum of its x, 2.0\n"),
        ({"objective": 2.0, "status": "infeasible"}, "1", "error: LP dump status is 'infeasible', not 'optimal'\n"),
        ({"objective": 2.0, "status": "infeasible"}, "0", "error: LP dump status is 'infeasible', not 'optimal'\n"),
    ],
    ids=["negative-objective", "objective-off-sum", "infeasible", "infeasible-no-trials"],
)
def test_cli_round_rejects_untrusted_objective_or_status(tmp_path, capsys, dump, trials, message):
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_TEXT)
    bad = tmp_path / "lp.json"
    bad.write_text(json.dumps({"n": 3, "m": 3, "k": 2, "x": [1, 0, 1], **dump}))
    code, out, err = _run(capsys, ["round", str(gpath), "-k", "2", "--lp", str(bad), "--trials", trials])
    assert (code, out, err) == (2, "", message)


# a JSON integer past the largest double is not a finite number, and neither is a sum of x past it
@pytest.mark.parametrize(
    "dump, message",
    [
        ({"objective": 10**400, "x": [1, 0, 1]}, f"error: LP dump objective {10**400} is not a finite number\n"),
        ({"objective": 2, "x": [1, 10**400, 1]},
         f"error: LP dump x[1] = {10**400} is not a finite nonnegative number\n"),
        ({"objective": 2, "x": [1e308, 1e308, 0]}, "error: LP dump x sums past the largest double\n"),
    ],
    ids=["objective-1e400", "x-1e400", "x-sum-past-double"],
)
def test_cli_round_rejects_numbers_past_the_double_range(tmp_path, capsys, dump, message):
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_TEXT)
    bad = tmp_path / "lp.json"
    bad.write_text(json.dumps({"n": 3, "m": 3, "k": 2, **dump}))
    code, out, err = _run(capsys, ["round", str(gpath), "-k", "2", "--lp", str(bad)])
    assert (code, out, err) == (2, "", message)


def test_cli_round_rejects_an_x_that_no_flow_fits(tmp_path, capsys):
    # the complete digraph on 3 vertices at k = 2: each demand has a two-edge detour, so no edge is
    # mandatory, and only phase 1 over the flow columns shows that x = 0 carries no demand's unit of flow
    gpath = tmp_path / "k3.txt"
    gpath.write_text("3 6\n0 1 1\n0 2 1\n1 0 1\n1 2 1\n2 0 1\n2 1 1\n")
    dump = tmp_path / "lp.json"
    argv = ["round", str(gpath), "-k", "2", "--lp", str(dump)]
    dump.write_text(json.dumps({"n": 3, "m": 6, "k": 2, "status": "optimal", "objective": 0, "x": [0] * 6}))
    assert _run(capsys, argv) == (2, "", "error: LP dump x is not feasible for the LP of this graph and k\n")
    # half of each edge carries half a unit on each demand's direct edge and half on its detour
    dump.write_text(json.dumps({"n": 3, "m": 6, "k": 2, "status": "optimal", "objective": 3, "x": [0.5] * 6}))
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["lp"]["value"] == 3.0


def test_cli_round_sweeps_g_once(tmp_path, capsys, monkeypatch):
    # the feasibility check's LP and the rounding trials share one DistanceTable: on an integer-length
    # graph, where every root's trees come from the all-pairs matrix, that matrix is built once
    spec, dump = "gen:er:n=12,p=0.25,seed=2", tmp_path / "lp.json"
    assert _run(capsys, ["lp", spec, "-k", "3", "--out", str(dump)])[0] == 0
    all_pairs = dirspan.graph._all_pairs
    passes = []

    def counting_all_pairs(graph):
        passes.append(graph)
        return all_pairs(graph)

    monkeypatch.setattr(dirspan.graph, "_all_pairs", counting_all_pairs)
    code, out, _ = _run(capsys, ["round", spec, "-k", "3", "--trials", "1", "--lp", str(dump)])
    assert code == 0
    assert json.loads(out)["trials"][0]["tree_roots"] == 12
    assert len(passes) == 1


@pytest.mark.parametrize("form", ["solve-alpha-1e308", "round-x-1e308"])
def test_cli_keep_probability_past_the_double_range_clips_quietly(tmp_path, capsys, form):
    # alpha * x_e * sqrt(n) overflows to inf, which clips to probability 1 with no warning
    if form == "solve-alpha-1e308":
        argv = ["solve", "gen:er:n=10,p=0.3,seed=1", "-k", "3", "--alpha", "1e308"]
        summary = "n=10 m=26 k=3 lp=14.5 alpha=1e+308 trials=1 feasible=1.0\n"
    else:
        gpath, dump = tmp_path / "t.txt", tmp_path / "lp.json"
        gpath.write_text(TRIANGLE_TEXT)
        # edges 0 and 2 are mandatory at k = 2, so the dump holds them at 1 or more
        dump.write_text(json.dumps({"n": 3, "m": 3, "k": 2, "status": "optimal", "objective": 1e308, "x": [1e308, 1, 1]}))
        argv = ["round", str(gpath), "-k", "2", "--lp", str(dump)]
        summary = "rounded 1 trials, feasible fraction 1.0\n"
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, summary)
    assert json.loads(out)["aggregate"]["feasible_fraction"] == 1.0


def test_cli_verify_paths(tmp_path, capsys):
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_TEXT)
    sub = tmp_path / "h.txt"
    sub.write_text("0 1\n1 2\n")
    code, out, _ = _run(capsys, ["verify", str(gpath), "-k", "2", "--subgraph", str(sub)])
    assert code == 0
    assert json.loads(out)["feasible"] is True

    sub.write_text("0 1\n")
    code, out, _ = _run(capsys, ["verify", str(gpath), "-k", "2", "--subgraph", str(sub)])
    assert code == 0
    report = json.loads(out)
    assert report["feasible"] is False
    # head of the violated demand is unreachable, reported as null
    assert report["violation"]["dist_h"] is None
    assert report["violation"]["dist_g"] == 1.0

    code, _, _ = _run(
        capsys,
        ["verify", str(gpath), "-k", "2", "--subgraph", str(sub), "--require-feasible"],
    )
    assert code == 4


def test_cli_bad_graph_is_exit_2(tmp_path, capsys):
    gpath = tmp_path / "broken.txt"
    gpath.write_text("not a graph\n")
    code, _, err = _run(capsys, ["solve", str(gpath), "-k", "3"])
    assert code == 2
    assert "error" in err


def test_cli_bad_gen_spec_is_exit_2(capsys):
    code, _, _ = _run(capsys, ["gen", "--spec", "er:n=5"])
    assert code == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ("er:n=5,p=nan,seed=1", "error: er: parameter 'p' out of range: nan\n"),
        ("er:n=5,p=2,seed=1", "error: er: parameter 'p' out of range: 2.0\n"),
        ("er:n=5,p=inf,seed=1", "error: er: parameter 'p' out of range: inf\n"),
        ("layered:layers=2,width=2,p=nan", "error: layered: parameter 'p' out of range: nan\n"),
        ("er:n=5,p=0.5,seed=-3", "error: seed must be >= 0, got -3\n"),
        ("er:n=3,n=8,p=0.5,seed=1", "error: repeated generator parameter 'n'\n"),
        ("er:n=8,p=0.5,seed=1,seed=2", "error: repeated generator parameter 'seed'\n"),
    ],
    ids=["p-nan", "p-2", "p-inf", "layered-p-nan", "seed-negative", "n-repeated", "seed-repeated"],
)
def test_cli_generator_range_is_exit_2(capsys, spec, message):
    # NaN fails every comparison, so it must not pass the range test as in range
    assert _run(capsys, ["solve", f"gen:{spec}", "-k", "2"]) == (2, "", message)
    assert _run(capsys, ["gen", "--spec", spec]) == (2, "", message)


def test_cli_round_rejects_a_dump_nested_too_deeply(tmp_path, capsys):
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_TEXT)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, out, err = _run(capsys, ["round", str(gpath), "-k", "2", "--lp", str(deep)])
    assert (code, out, err) == (2, "", "error: LP dump is nested too deeply to read\n")


# every (subcommand, cap) pair that can trip, with a value that trips it on the triangle at k=2
@pytest.mark.parametrize(
    "argv, constant, value",
    [
        (["solve"], "paths.MAX_PATHS", 1),
        (["lp"], "paths.MAX_PATHS", 1),
        (["oracle"], "paths.MAX_PATHS", 1),
        (["claims"], "paths.MAX_PATHS", 1),
        (["oracle"], "verify.MAX_FREE_EDGES", 0),
        (["solve", "--oracle"], "verify.MAX_FREE_EDGES", 0),
        (["claims"], "arborescence.MAX_TREES", 1),
    ],
    ids=lambda v: "".join(v) if isinstance(v, list) else None,
)
def test_cli_cap_is_exit_3(tmp_path, capsys, monkeypatch, argv, constant, value):
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_TEXT)
    command, *flags = argv
    run = [command, str(gpath), "-k", "2", *flags]
    assert _run(capsys, run)[0] == 0  # the constant's own value lets the run through
    module, name = constant.split(".")
    monkeypatch.setattr(getattr(dirspan, module), name, value)
    code, out, err = _run(capsys, run)
    assert code == 3
    assert out == ""
    assert err.startswith("cap exceeded: ")


@pytest.fixture(scope="module")
def long_chain(tmp_path_factory):
    # the unit path 0 -> 1 -> ... -> 999 and the shortcut 0 -> 999 of length 999:
    # at k=1 the shortcut's demand has a 999-edge path, longer than the recursion limit
    edges = [(i, i + 1, 1) for i in range(999)] + [(0, 999, 999)]
    gpath = tmp_path_factory.mktemp("chain") / "chain.txt"
    gpath.write_text(serialize_graph(build_graph(1000, edges)))
    return str(gpath)


@pytest.mark.parametrize(
    "command, code, summary",
    [
        ("lp", 0, "lp objective 999 (optimal)\n"),
        ("solve", 0, "n=1000 m=1000 k=1 lp=999 alpha=34.5388 trials=1 feasible=1.0\n"),
        ("oracle", 0, "opt 999 (witness of 999 edges)\n"),
        ("claims", 0, "demands=1000 trees=3997 claim1 0/1000 disagreements, claim2 0 violations (min mass 1.0)\n"),
    ],
    ids=["lp", "solve", "oracle", "claims"],
)
def test_cli_path_as_long_as_the_graph(capsys, long_chain, command, code, summary):
    got, out, err = _run(capsys, [command, long_chain, "-k", "1"])
    assert (got, err) == (code, summary)
    assert (out != "") == (code == 0)


@pytest.mark.parametrize(
    "argv", [["gen", "--spec", "er:n=268435456,p=0.5"], ["solve", "gen:er:n=268435456,p=0.5", "-k", "3"]], ids=["gen", "solve"]
)
def test_cli_out_of_memory_is_exit_3(capsys, argv):
    # one draw per candidate pair is n * (n - 1) doubles, 512 PiB: past every
    # 64-bit address space, so the allocation fails at once
    code, out, err = _run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("out of memory: ") and err.count("\n") == 1


# every option each subcommand declares; each one changes what the subcommand runs
CLI_FLAGS = {
    "solve": {"input", "-k", "--alpha", "--seed", "--trials", "--out", "--require-feasible", "--oracle"},
    "lp": {"input", "-k", "--out", "--export-lp"},
    "round": {"input", "-k", "--alpha", "--seed", "--trials", "--out", "--require-feasible", "--lp"},
    "verify": {"input", "-k", "--out", "--require-feasible", "--subgraph"},
    "oracle": {"input", "-k", "--out"},
    "claims": {"input", "-k", "--seed", "--trials", "--out"},
    "gen": {"--spec", "--out"},
}


def _declared_flags():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {flag for a in p._actions if not isinstance(a, argparse._HelpAction) for flag in a.option_strings or [a.dest]}
        for name, p in sub.choices.items()
    }


def test_cli_flag_sets_are_pinned():
    declared = _declared_flags()
    assert declared == CLI_FLAGS
    assert sum(len(flags) for flags in declared.values()) == 35


def test_the_parser_is_built_once_per_process(capsys):
    # the golden corpus and the differential properties make about 1,500 in-process main calls;
    # an argv the parser rejects leaves it as it was
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit):
        main(["lp", "gen:cycle:n=3"])
    assert main(["lp", "gen:cycle:n=3", "-k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["objective"] == 3.0


def test_every_shared_flag_is_declared():
    # a flag no subcommand declares would be a dead entry of the shared table
    declared = set().union(*_declared_flags().values())
    assert set(SHARED_FLAGS) <= declared


def test_readme_cli_table_matches_parser():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| Subcommand | Arguments and flags |") + 2  # past the header and its rule
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, flags = (cell.strip() for cell in line.strip("|").split("|"))
        table[name.strip("`")] = {flag.strip().strip("`") for flag in flags.split(",")}
    assert table == _declared_flags()


def _readme_table(header):
    """The cells of each row of README's table under header, a line such as '| Code | Meaning |'."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_size_cap_table_matches_the_constants():
    # each cap's constant, its default and the exception it trips with, in the module that enforces it
    caps = [
        (dirspan.paths, "MAX_PATHS", PathExplosion),
        (dirspan.verify, "MAX_FREE_EDGES", TooLarge),
        (dirspan.arborescence, "MAX_TREES", ExplosionCap),
    ]
    assert all(getattr(module, exc.__name__) is exc for module, _, exc in caps)
    rows = _readme_table("| Constant | Module | Default | Exception | What it bounds |")
    assert [row[:4] for row in rows] == [
        [f"`{name}`", f"`{module.__name__}`", str(getattr(module, name)), f"`{exc.__name__}`"]
        for module, name, exc in caps
    ]


def test_readme_exit_code_table_matches_the_cli():
    # main returns 0, EXIT_INFEASIBLE from a failed check, or the code FAILURES gives an exception
    codes = [int(row[0]) for row in _readme_table("| Code | Meaning |")]
    assert sorted(codes) == sorted({0, EXIT_INFEASIBLE, *(code for _, _, code in FAILURES)})


@pytest.mark.parametrize(
    "argv",
    [
        ["lp", "gen:cycle:n=4", "-k", "2", "--alpha", "2"],
        ["oracle", "gen:cycle:n=4", "-k", "2", "--max-trees", "5"],
        ["claims", "gen:cycle:n=4", "-k", "2", "--require-feasible"],
        ["round", "gen:cycle:n=4", "-k", "2", "--lp", "lp.json", "--max-paths", "3"],
        ["lp", "gen:cycle:n=4", "-k", "1", "--max-hops", "1"],
        ["oracle", "gen:cycle:n=4", "-k", "1", "--max-hops", "1"],
        ["solve", "gen:cycle:n=4", "-k", "2", "--mode", "general"],
        ["round", "gen:cycle:n=4", "-k", "2", "--lp", "lp.json", "--mode", "unit"],
        ["solve", "gen:cycle:n=4", "-k", "2", "--max-paths", "1"],
        ["lp", "gen:cycle:n=4", "-k", "2", "--max-paths", "1"],
        ["oracle", "gen:cycle:n=4", "-k", "2", "--max-free-edges", "0"],
        ["claims", "gen:cycle:n=4", "-k", "2", "--max-trees", "1"],
    ],
    ids=[
        "lp-alpha",
        "oracle-max-trees",
        "claims-require-feasible",
        "round-max-paths",
        "lp-max-hops",
        "oracle-max-hops",
        "solve-mode",
        "round-mode",
        "solve-max-paths",
        "lp-max-paths",
        "oracle-max-free-edges",
        "claims-max-trees",
    ],
)
def test_cli_unread_flag_is_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, var, value",
    [("solve", "DIRSPAN_MAX_PATHS", "1"), ("oracle", "DIRSPAN_MAX_FREE_EDGES", "0"), ("claims", "DIRSPAN_MAX_TREES", "1")],
)
def test_cli_ignores_cap_variables(tmp_path, capsys, monkeypatch, command, var, value):
    # the caps are constants: a variable that once set one to a value that trips changes no run
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_TEXT)
    argv = [command, str(gpath), "-k", "2"]
    code, base, _ = _run(capsys, argv)
    assert code == 0
    monkeypatch.setenv(var, value)
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    assert {**json.loads(out), "timing": None} == {**json.loads(base), "timing": None}


@pytest.mark.parametrize("trials", ["0", "1"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--alpha", "-5"],
        ["--alpha", "0"],
        ["--alpha", "nan"],
        ["--alpha", "inf"],
        ["--alpha=-inf"],
        ["--alpha", "0", "--oracle"],
    ],
    ids=["negative", "zero", "nan", "inf", "equals-minus-inf", "zero-with-oracle"],
)
def test_cli_bad_alpha_is_exit_2(capsys, monkeypatch, flags, trials):
    # rejected before the oracle and the LP solve, whether or not a trial would use the value;
    # with --oracle, a bad alpha exits 2 even where the oracle's cap would trip
    monkeypatch.setattr(dirspan.verify, "MAX_FREE_EDGES", 0)
    code, out, err = _run(capsys, ["solve", "gen:er:n=6,p=0.5,max_len=3,seed=1", "-k", "3", "--trials", trials, *flags])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("length", ["inf", "1e309"])
@pytest.mark.parametrize("command", ["lp", "oracle"])
def test_cli_non_finite_length_is_exit_2(tmp_path, capsys, command, length):
    gpath = tmp_path / "g.txt"
    gpath.write_text(f"3 3\n0 1 {length}\n1 2 1\n0 2 1\n")
    code, out, err = _run(capsys, [command, str(gpath), "-k", "2"])
    assert code == 2
    assert out == ""
    assert "not a finite nonnegative number" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "gen:er:n=8,p=0.3,seed=1", "-k", "3", "--trials", "-1"],
        ["solve", "gen:er:n=8,p=0.3,seed=1", "-k", "3", "--trials", "-1", "--require-feasible"],
        ["claims", "gen:cycle:n=4", "-k", "3", "--trials", "-3"],
        ["solve", "gen:cycle:n=4", "-k", "0"],
        # the seed is checked with the configuration, before the graph or the LP dump is read
        ["solve", "gen:cycle:n=4", "-k", "2", "--seed", "-1"],
        ["round", "gen:cycle:n=4", "-k", "2", "--seed", "-1", "--lp", "no-such-dump.json"],
        ["claims", "gen:cycle:n=4", "-k", "2", "--seed", "-1"],
    ],
    ids=[
        "solve-trials-negative",
        "solve-trials-negative-require-feasible",
        "claims-trials-negative",
        "solve-k-zero",
        "solve-seed-negative",
        "round-seed-negative-before-lp-dump",
        "claims-seed-negative",
    ],
)
def test_cli_negative_trials_or_k_is_exit_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "must be >= " in err


def test_cli_infeasible_trials_exit_4(capsys):
    code, _, _ = _run(
        capsys,
        [
            "solve",
            "gen:cycle:n=8",
            "-k",
            "3",
            "--alpha",
            "0.001",
            "--trials",
            "4",
            "--require-feasible",
        ],
    )
    assert code == 4


def test_cli_numerical_failure_exit_5(tmp_path, capsys, monkeypatch):
    from dirspan.errors import NumericalFailure
    import dirspan.cli as cli

    def boom(config, **kwargs):
        raise NumericalFailure("pivot limit")

    monkeypatch.setattr(cli, "run_solve", boom)
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_TEXT)
    code, _, err = _run(capsys, ["solve", str(gpath), "-k", "2"])
    assert code == 5
    assert "numerical failure" in err


@pytest.mark.parametrize("command", ["solve", "lp", "claims"])
def test_cli_infeasible_lp_is_exit_5(capsys, monkeypatch, command):
    # x = 1 with a unit of flow on any within-budget path meets every row, so "infeasible" is a solver failure
    import dirspan.lp
    from dirspan.simplex import SimplexResult

    def infeasible(*args, **kwargs):
        return SimplexResult(status="infeasible", z=None, objective=None, iterations=0)

    monkeypatch.setattr(dirspan.lp, "solve_simplex", infeasible)
    code, out, err = _run(capsys, [command, "gen:er:n=7,p=0.4,seed=3", "-k", "3"])
    assert (code, out) == (5, "")
    assert err == "numerical failure: simplex called the path LP infeasible, but x = 1 is always feasible\n"


# decimal lengths whose float sums make the path pruning drop demand 5's own shortest path at k=1
FLOAT_BUDGET_TEXT = "6 7\n3 4 1.1\n4 2 0.1\n3 1 0.1\n4 5 0.3\n0 5 0.2\n4 1 1.1\n5 3 0.7\n"


@pytest.mark.parametrize("command", ["solve", "lp", "oracle", "claims"])
def test_cli_internal_error_has_no_traceback(tmp_path, command):
    gpath = tmp_path / "g.txt"
    gpath.write_text(FLOAT_BUDGET_TEXT)
    env = dict(os.environ, PYTHONPATH=str(Path(dirspan.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "dirspan.cli", command, str(gpath), "-k", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    # every subcommand fails on the one path-set check, with the same line
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr == "internal error: demand 5 has no path within budget; shortest path must qualify\n"


def test_runtime_never_imports_scipy():
    # importing scipy.sparse.csgraph alone costs about 0.25 s and 32 MB of
    # RSS; scipy belongs to the tests' oracles, never to a run
    code = (
        "import sys\n"
        "from dirspan import RunConfig, generate_instance, parse_gen_spec, run_solve\n"
        "spec = 'er:n=8,p=0.3,seed=1'\n"
        "report = run_solve(RunConfig(k=2, input='gen:' + spec, trials=3), generate_instance(parse_gen_spec(spec)))\n"
        "assert report['trials'] and report['aggregate']['feasible_fraction'] is not None\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dirspan.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", ["solve", "round"])
def test_cli_empty_graph_with_alpha(tmp_path, capsys, command):
    # n = 0 samples no roots instead of dividing by sqrt(0)
    gpath = tmp_path / "e.txt"
    gpath.write_text("0 0\n")
    dump = tmp_path / "lp.json"
    assert main(["lp", str(gpath), "-k", "2", "--out", str(dump)]) == 0
    extra = {"round": ["--lp", str(dump)]}.get(command, [])
    code, out, err = _run(capsys, [command, str(gpath), "-k", "2", *extra, "--alpha", "1"])
    assert code == 0, err
    report = json.loads(out)
    assert report["trials"][0]["tree_roots"] == 0
    assert report["aggregate"]["feasible_fraction"] == 1.0


@pytest.mark.parametrize("text", ["0 0", "1 0"], ids=["n0", "n1"])
@pytest.mark.parametrize("command", ["solve", "round"])
def test_cli_graph_below_two_vertices_without_alpha(tmp_path, capsys, command, text):
    # no edge to span: the constant of n = 2 builds the same empty spanner as any other
    gpath = tmp_path / "g.txt"
    gpath.write_text(text + "\n")
    dump = tmp_path / "lp.json"
    assert main(["lp", str(gpath), "-k", "2", "--out", str(dump)]) == 0
    extra = {"round": ["--lp", str(dump)]}.get(command, [])
    code, out, err = _run(capsys, [command, str(gpath), "-k", "2", *extra])
    assert code == 0, err
    assert json.loads(out)["aggregate"]["feasible_fraction"] == 1.0


INPUT_COMMANDS = ("solve", "lp", "round", "verify", "oracle", "claims")


def _input_argv(tmp_path, command, gpath, k):
    """argv of one input subcommand; round reads lp.json and verify h.txt from tmp_path."""
    extra = {"round": ["--lp", str(tmp_path / "lp.json")], "verify": ["--subgraph", str(tmp_path / "h.txt")]}
    return [command, str(gpath), "-k", k, *extra.get(command, [])]


@pytest.mark.parametrize("command", INPUT_COMMANDS)
def test_each_input_subcommand_loads_its_graph_once(tmp_path, capsys, monkeypatch, command):
    import dirspan.cli as cli

    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_TEXT)
    (tmp_path / "h.txt").write_text("0 1\n1 2\n")
    assert main(["lp", str(gpath), "-k", "2", "--out", str(tmp_path / "lp.json")]) == 0
    loads = []

    def counting(spec):
        loads.append(spec)
        return load_input(spec)

    monkeypatch.setattr(cli, "load_input", counting)
    flags = ["--oracle"] if command == "solve" else []
    code, _, err = _run(capsys, [*_input_argv(tmp_path, command, gpath, "2"), *flags])
    assert code == 0, err
    assert loads == [str(gpath)]


@pytest.mark.parametrize(
    "command, flag",
    [*((command, "input") for command in INPUT_COMMANDS), *((command, "--out") for command in (*INPUT_COMMANDS, "gen")),
     ("round", "--lp"), ("verify", "--subgraph"), ("lp", "--export-lp")],
)
def test_cli_directory_path_is_exit_2(tmp_path, capsys, command, flag):
    # a directory where the CLI opens a file; unlike chmod, it also stops a run as root
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_TEXT)
    (tmp_path / "h.txt").write_text("0 1\n1 2\n")
    assert _run(capsys, ["lp", str(gpath), "-k", "2", "--out", str(tmp_path / "lp.json")])[0] == 0
    if command == "gen":
        argv = ["gen", "--spec", "cycle:n=3"]
    else:
        argv = _input_argv(tmp_path, command, tmp_path if flag == "input" else gpath, "2")
    if flag != "input":
        argv += [flag, str(tmp_path)]  # argparse keeps the last --lp or --subgraph given
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path)!r}\n"


# 3 * 1e308 overflows to inf, and the empty subgraph then passes as a 3-spanner
OVERFLOW_TEXT = "2 1\n0 1 1e308\n"


@pytest.mark.parametrize(
    "command, flags",
    [(command, []) for command in INPUT_COMMANDS] + [("solve", ["--alpha", "0.001"])],
    ids=[*INPUT_COMMANDS, "solve-alpha"],
)
@pytest.mark.parametrize(
    "text, k, message",
    [
        (OVERFLOW_TEXT, "3", "error: lengths sum to 1e+308, so 2.5 * k * sum + 1.0 overflows a double at k=3\n"),
        (TRIANGLE_TEXT, str(10**400),
         "error: stretch factor must be <= 1.7976931348623157e+308, the largest double\n"),
    ],
    ids=["length-1e308", "k-1e400"],
)
def test_cli_out_of_range_input_is_exit_2(tmp_path, capsys, text, k, message, command, flags):
    gpath = tmp_path / "g.txt"
    gpath.write_text(text)
    (tmp_path / "h.txt").write_text("")
    dump = {"n": 2, "m": 1, "k": 3, "status": "optimal", "objective": 1.0, "x": [1.0]}
    (tmp_path / "lp.json").write_text(json.dumps(dump))
    code, out, err = _run(capsys, [*_input_argv(tmp_path, command, gpath, k), *flags])
    assert (code, out, err) == (2, "", message)


# zero, inexact decimals, a large length whose sums stay finite, the largest and the smallest positive float
PROPERTY_LENGTHS = (0.0, 0.1, 0.2, 0.3, 0.7, 1.1, 1.0, 1e300, 1e308, 5e-324)


@st.composite
def cli_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    g = build_graph(n, [(t, h, draw(st.sampled_from(PROPERTY_LENGTHS))) for t, h in chosen])
    subgraph = draw(st.lists(st.sampled_from(chosen), unique=True)) if chosen else []
    k = draw(st.integers(min_value=1, max_value=3))
    alpha = draw(st.sampled_from(("0.25", "1", "7.5")))
    return g, subgraph, k, alpha


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_inputs())
def test_cli_exit_codes_are_documented(tmp_path_factory, case):
    g, subgraph, k, alpha = case
    d = tmp_path_factory.mktemp("cli")
    gpath, hpath, out, dump = d / "g.txt", d / "h.txt", d / "out.json", d / "lp.json"
    gpath.write_text(serialize_graph(g))
    hpath.write_text("".join(f"{t} {h}\n" for t, h in subgraph))
    common = [str(gpath), "-k", str(k), "--out", str(out)]
    runs = [
        ["solve", *common],
        ["solve", *common, "--alpha", alpha],
        ["lp", *common[:3], "--out", str(dump)],
        ["round", *common, "--lp", str(dump), "--alpha", alpha],
        ["oracle", *common],
        ["claims", *common],
        ["verify", *common, "--subgraph", str(hpath)],
    ]
    total = sum(length for _, _, length in g.edges)
    out_of_range = not math.isfinite(k * total * 2.5 + 1.0)  # the range rule: some sum a run forms would overflow
    for argv in runs:
        if argv[0] == "round" and not dump.exists():
            continue  # lp failed and wrote no dump for round to read
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)  # an exception escaping main fails the test with its traceback
        if out_of_range:
            assert code == 2, (argv[0], err.getvalue())
            message = f"error: lengths sum to {total!r}, so 2.5 * k * sum + 1.0 overflows a double at k={k}\n"
            assert err.getvalue() == message
        else:
            # exit 5 covers the float-budget case of the path pruning
            assert code in (0, 3, 4, 5), (argv[0], code, err.getvalue())
        assert "Traceback" not in err.getvalue()
