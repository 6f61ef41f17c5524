import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dirspan

from dirspan import (
    BadSpec,
    Caps,
    RunConfig,
    build_graph,
    caps_from_env,
    dumps_report,
    run_claims,
    run_oracle,
    run_solve,
    serialize_graph,
    trial_seed,
)
from dirspan.cli import build_parser, main
from dirspan.pipeline import load_input, resolve_mode, splitmix64


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


def test_caps_env_overrides(monkeypatch):
    monkeypatch.setenv("DIRSPAN_MAX_PATHS", "123")
    monkeypatch.setenv("DIRSPAN_MAX_FREE_EDGES", "5")
    caps = caps_from_env()
    assert caps.max_paths == 123
    assert caps.max_free_edges == 5
    assert caps.max_trees == Caps().max_trees
    monkeypatch.setenv("DIRSPAN_MAX_HOPS", "4")
    monkeypatch.setenv("DIRSPAN_MAX_TREES", "7")
    assert caps_from_env() == Caps(max_paths=123, max_hops=4, max_free_edges=5, max_trees=7)


def test_caps_env_rejects_garbage(monkeypatch):
    monkeypatch.setenv("DIRSPAN_MAX_PATHS", "lots")
    with pytest.raises(BadSpec):
        caps_from_env()
    # an integer that fails validation names the field it is for
    monkeypatch.delenv("DIRSPAN_MAX_PATHS")
    monkeypatch.setenv("DIRSPAN_MAX_TREES", "0")
    with pytest.raises(BadSpec, match="max_trees"):
        caps_from_env()


def test_caps_is_one_type():
    import dirspan.paths
    import dirspan.pipeline

    assert dirspan.pipeline.Caps is dirspan.paths.Caps is Caps


PUBLIC_NAMES = {
    "BadSpec", "Caps", "ClaimContext", "DemandPaths", "DiGraph", "DirspanError", "DistanceMap",
    "DuplicateEdge", "ExplosionCap", "GenSpec", "GraphError", "GraphSyntaxError", "INF", "INWARD",
    "IncompleteEnumeration", "IndexOutOfRange", "InducedSubgraph", "LpModel", "LpSolution",
    "NegativeLength", "NotUnitLength", "NumericalFailure", "OUTWARD", "OptResult", "PathExplosion",
    "RoundingParams", "RunConfig", "SelfLoop", "SpTree", "SpannerCheck", "SpannerResult", "TooLarge",
    "brute_force_opt", "build_graph", "build_lp", "build_spanner", "caps_from_env", "covered_vertices",
    "demand_distance_rows", "dumps_report", "edge_inclusion_probs", "enumerate_demand_paths",
    "export_lp_text", "generate_instance", "induced_subgraph", "is_k_spanner", "parse_gen_spec",
    "parse_graph", "reverse_graph", "round_edges", "run_claims", "run_oracle", "run_solve",
    "sample_tree_roots", "select_alpha", "serialize_graph", "shortest_path_tree", "shortest_paths",
    "solve_lp", "trial_seed", "violated_rows",
}


def test_public_surface_is_pinned():
    # a helper only tests call belongs under tests/, not in this list
    assert len(dirspan.__all__) == len(set(dirspan.__all__))
    assert set(dirspan.__all__) == PUBLIC_NAMES
    for name in dirspan.__all__:
        assert getattr(dirspan, name) is not None


@pytest.mark.parametrize(
    "kwargs", [{"mode": "nope"}, {"alpha_override": 0.0}, {"alpha_override": -5.0}, {"alpha_override": math.nan},
               {"alpha_override": math.inf}]
)
def test_run_config_rejects_bad_mode_or_alpha(kwargs):
    with pytest.raises(BadSpec):
        RunConfig(k=3, input="", **kwargs)


def test_load_input_generator_and_file(tmp_path):
    g = load_input("gen:cycle:n=5")
    assert g.n == 5
    p = tmp_path / "g.txt"
    p.write_text(TRIANGLE_TEXT)
    assert load_input(str(p)).m == 3


def test_mode_auto_detects_unit():
    unit = load_input("gen:cycle:n=4")
    assert resolve_mode(RunConfig(k=3, input=""), unit) == "unit"
    weighted = load_input("gen:cycle:n=4,max_len=3,seed=2")
    assert resolve_mode(RunConfig(k=3, input=""), weighted) == "general"
    forced = RunConfig(k=3, input="", mode="general")
    assert resolve_mode(forced, unit) == "general"


def test_run_solve_saturated_cycle():
    # alpha 3 > sqrt(8): every keep probability clamps to 1
    config = RunConfig(k=3, input="gen:cycle:n=8", alpha_override=3.0, trials=5, seed=1)
    report = run_solve(config)
    assert report["lp"]["value"] == pytest.approx(8.0, abs=1e-9)
    assert report["aggregate"]["feasible_fraction"] == 1.0
    assert all(r["eh_size"] == 8 for r in report["trials"])
    assert all(r["feasible"] for r in report["trials"])


def test_run_solve_aggregate_arithmetic():
    config = RunConfig(k=3, input="gen:er:n=9,p=0.35,seed=11", alpha_override=0.8, trials=12, seed=4)
    report = run_solve(config)
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
    a = run_solve(config)
    b = run_solve(config)
    assert dumps_report(a["trials"]) == dumps_report(b["trials"])
    # timing may differ; everything else must not
    a.pop("timing")
    b.pop("timing")
    assert dumps_report(a) == dumps_report(b)


def test_run_solve_jobs_do_not_change_records():
    base = RunConfig(k=3, input="gen:er:n=10,p=0.3,seed=2", alpha_override=1.1, trials=8, seed=9)
    par = RunConfig(k=3, input="gen:er:n=10,p=0.3,seed=2", alpha_override=1.1, trials=8, seed=9, jobs=4)
    assert dumps_report(run_solve(base)["trials"]) == dumps_report(run_solve(par)["trials"])


def test_run_claims_enumerates_each_demand_once(monkeypatch):
    import dirspan.lp
    import dirspan.paths
    import dirspan.pipeline

    seen = []

    def counting(g, k, demand, caps=None):
        seen.append(demand)
        return dirspan.paths.enumerate_demand_paths(g, k, demand, caps)

    for module in (dirspan.lp, dirspan.pipeline):
        monkeypatch.setattr(module, "enumerate_demand_paths", counting, raising=False)
    report = run_claims(RunConfig(k=3, input="gen:er:n=7,p=0.4,seed=3", trials=2, seed=1))
    assert report["demands_checked"] > 0
    assert sorted(seen) == list(range(report["instance"]["m"]))


def test_run_oracle_triangle(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(TRIANGLE_TEXT)
    report = run_oracle(RunConfig(k=2, input=str(p)))
    assert report["opt"] == 2
    assert sorted(report["witness"]) == [0, 2]


def test_run_claims_cycle():
    config = RunConfig(k=3, input="gen:cycle:n=6", trials=4, seed=0)
    report = run_claims(config)
    assert report["demands_checked"] == 6
    assert report["claim1"]["checks"] == 24
    assert report["claim1"]["disagreements"] == 0
    assert report["claim2"]["violations"] == 0
    assert report["claim2"]["min_cut_mass"] == pytest.approx(1.0, abs=1e-9)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_gen_and_solve(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    code, _, err = _run(capsys, ["gen", "--spec", "er:n=7,p=0.4,seed=3", "--out", str(gpath)])
    assert code == 0
    assert "generated" in err

    code, out, err = _run(capsys, ["solve", str(gpath), "-k", "3", "--trials", "3", "--seed", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["aggregate"]["trials"] == 3
    assert "lp=" in err


def test_cli_solve_with_oracle_and_outfile(tmp_path, capsys):
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_TEXT)
    rpath = tmp_path / "report.json"
    code, out, _ = _run(
        capsys,
        ["solve", str(gpath), "-k", "2", "--trials", "2", "--oracle", "--out", str(rpath)],
    )
    assert code == 0
    assert out == ""
    report = json.loads(rpath.read_text())
    assert report["opt"] == 2
    assert report["aggregate"]["ratio_vs_opt"] is not None


def test_cli_lp_round_chain(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text(cycle_text(6))
    dump = tmp_path / "lp.json"
    code, _, err = _run(capsys, ["lp", str(gpath), "-k", "3", "--out", str(dump)])
    assert code == 0
    assert "lp objective 6" in err

    code, out, _ = _run(
        capsys,
        ["round", str(gpath), "-k", "3", "--lp", str(dump), "--trials", "4", "--alpha", "3.0"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["aggregate"]["feasible_fraction"] == 1.0


def test_cli_round_rejects_mismatched_dump(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text(cycle_text(6))
    other = tmp_path / "h.txt"
    other.write_text(TRIANGLE_TEXT)
    dump = tmp_path / "lp.json"
    code, _, _ = _run(capsys, ["lp", str(gpath), "-k", "3", "--out", str(dump)])
    assert code == 0
    code, _, err = _run(capsys, ["round", str(other), "-k", "3", "--lp", str(dump)])
    assert code == 2
    assert "error" in err


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


def test_cli_lp_export_text(tmp_path, capsys):
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_TEXT)
    lpfile = tmp_path / "model.lp"
    code, _, _ = _run(capsys, ["lp", str(gpath), "-k", "2", "--export-lp", str(lpfile)])
    assert code == 0
    assert "Minimize" in lpfile.read_text()


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


def test_cli_oracle(tmp_path, capsys):
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_TEXT)
    code, out, _ = _run(capsys, ["oracle", str(gpath), "-k", "2"])
    assert code == 0
    assert json.loads(out)["opt"] == 2


def test_cli_claims(capsys):
    code, out, _ = _run(capsys, ["claims", "gen:cycle:n=5", "-k", "3", "--trials", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["claim1"]["disagreements"] == 0


def test_cli_bad_graph_is_exit_2(tmp_path, capsys):
    gpath = tmp_path / "broken.txt"
    gpath.write_text("not a graph\n")
    code, _, err = _run(capsys, ["solve", str(gpath), "-k", "3"])
    assert code == 2
    assert "error" in err


def test_cli_missing_file_is_exit_2(capsys):
    code, _, _ = _run(capsys, ["solve", "/nonexistent/g.txt", "-k", "3"])
    assert code == 2


def test_cli_bad_gen_spec_is_exit_2(capsys):
    code, _, _ = _run(capsys, ["gen", "--spec", "er:n=5"])
    assert code == 2


def test_cli_path_cap_is_exit_3(tmp_path, capsys):
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_TEXT)
    code, _, err = _run(capsys, ["solve", str(gpath), "-k", "2", "--max-paths", "1"])
    assert code == 3
    assert "cap exceeded" in err


def test_cli_oracle_cap_is_exit_3(tmp_path, capsys):
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_TEXT)
    code, _, _ = _run(capsys, ["oracle", str(gpath), "-k", "2", "--max-free-edges", "0"])
    assert code == 3


@pytest.mark.parametrize(
    "flags",
    [
        ["claims", "--max-trees", "0"],
        ["oracle", "--max-free-edges", "-1"],
        ["lp", "--max-paths", "0"],
        ["solve", "--max-hops", "0"],
    ],
)
def test_cli_invalid_cap_is_exit_2(capsys, flags):
    command, flag, value = flags
    code, _, err = _run(capsys, [command, "gen:cycle:n=4", "-k", "2", flag, value])
    assert code == 2
    assert flag[2:].replace("-", "_") in err


# every option each subcommand declares; each one changes what the subcommand runs
CLI_FLAGS = {
    "solve": {"input", "-k", "--mode", "--alpha", "--seed", "--trials", "--out", "--require-feasible",
              "--max-paths", "--max-hops", "--max-free-edges", "--oracle"},
    "lp": {"input", "-k", "--out", "--max-paths", "--max-hops", "--export-lp"},
    "round": {"input", "-k", "--mode", "--alpha", "--seed", "--trials", "--out", "--require-feasible", "--lp"},
    "verify": {"input", "-k", "--out", "--require-feasible", "--subgraph"},
    "oracle": {"input", "-k", "--out", "--max-paths", "--max-hops", "--max-free-edges"},
    "claims": {"input", "-k", "--seed", "--trials", "--out", "--max-paths", "--max-hops", "--max-trees"},
    "gen": {"--spec", "--out"},
}


def test_cli_flag_sets_are_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {flag for a in p._actions if not isinstance(a, argparse._HelpAction) for flag in a.option_strings or [a.dest]}
        for name, p in sub.choices.items()
    }
    assert declared == CLI_FLAGS
    assert sum(len(flags) for flags in declared.values()) == 48


@pytest.mark.parametrize(
    "argv",
    [
        ["lp", "gen:cycle:n=4", "-k", "2", "--alpha", "2"],
        ["oracle", "gen:cycle:n=4", "-k", "2", "--max-trees", "5"],
        ["claims", "gen:cycle:n=4", "-k", "2", "--require-feasible"],
        ["round", "gen:cycle:n=4", "-k", "2", "--lp", "lp.json", "--max-paths", "3"],
    ],
)
def test_cli_unread_flag_is_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "1"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--alpha", "-5"],
        ["--alpha", "0"],
        ["--alpha", "nan"],
        ["--alpha", "inf"],
        ["--mode", "unit"],
        ["--mode", "unit", "--oracle", "--max-free-edges", "0"],
    ],
)
def test_cli_bad_alpha_or_mode_is_exit_2(capsys, flags, trials):
    # rejected before the oracle and the LP solve, whether or not a trial would use the value
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
    assert proc.returncode in (0, 5), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode == 5:
        assert proc.stderr.startswith("internal error: ")
