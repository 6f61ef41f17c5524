"""Tests of the benchmark's own logic; run with `python3 -m pytest benchmarks`."""

import argparse
import io
import json
import shutil
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

import calibration
import run
import tracer as tracing
import workloads as wl

WORKLOADS = wl.WORKLOADS
SPEC = run.load_spec(run.ROOT)


@pytest.fixture(scope="module")
def ds():
    return run.import_package(run.ROOT)


def args(workload, trace=0, seconds=0.1, seed=3):
    return argparse.Namespace(workload=workload, seed=seed, seconds=seconds, trace=trace, record_digest=False)


@pytest.mark.parametrize(
    "count, expected",
    [(8, None), (19, None), (20, 50), (39, 50), (40, 75), (100, 90), (1000, 99), (10000, 99.9)],
)
def test_percentile_is_the_highest_with_ten_samples_beyond(count, expected):
    summary = run.summarize([float(i) for i in range(count)])
    assert summary["n"] == count
    assert summary["median"] == (count - 1) / 2
    if expected is None:
        assert summary["percentile"] is None
    else:
        assert summary["percentile"]["p"] == expected
        beyond = sum(1 for i in range(count) if i > summary["percentile"]["value"])
        assert beyond >= 10


def test_self_time_on_a_hand_built_span_tree():
    S = tracing.Span
    spans = [
        S(tracing.OP_SPAN, 0.0, 10.0, None, "traced0"),
        S("pipeline.run_solve", 1.0, 9.0, 0, "traced0"),
        S("lp.build_lp", 1.5, 4.0, 1, "traced0"),
        S("paths.enumerate_demand_paths", 2.0, 3.0, 2, "traced0"),
        S("graph.reverse_graph", 2.25, 2.75, 3, "traced0"),
        S("simplex.solve_simplex", 4.0, 8.0, 1, "traced0", {"pivots": 7, "bytes": 1000}),
        S("simplex.solve_simplex", 0.0, 100.0, None, "setup0", {"pivots": 1, "bytes": 1}),
    ]
    assert tracing.self_times(spans) == [2.0, 1.5, 1.5, 0.5, 0.5, 4.0, 100.0]
    m = tracing.layer_metrics(spans, ["traced0"], ["setup0"])
    assert m["bench.self_s"] == 2.0
    assert m["pipeline.self_s"] == 1.5
    assert m["lp.build_s"] == 1.5
    assert m["paths.self_s"] == 0.5 and m["paths.s"] == 1.0
    assert m["graph.reverse_s"] == 0.5 and m["graph.reverse_calls"] == 1
    assert m["simplex.s"] == 4.0 and m["simplex.pivots"] == 7
    assert m["simplex.mb_moved_computed"] == 2 * 7 * 1000 / 1e6
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS + ("bench",))
    assert layers == m["trace.traced_op_s"] == 10.0


def test_digest_is_stable_and_tracks_the_seed(ds):
    def op_digest(seed):
        state = wl.setup(ds, "alpha-sweep", seed, wl.TINY)
        return wl.digest([wl.call_record(c) for c in wl.op(ds, "alpha-sweep", state)])

    assert op_digest(5) == op_digest(5)
    assert op_digest(5) != op_digest(6)


def test_digest_ignores_timing_and_last_bits():
    inst = wl.Instance("x", None, 1)
    report = {"instance": {"n": 3}, "lp_value": 0.1 + 0.2, "demands_checked": 1, "trees_enumerated": 2,
              "claim1": {}, "claim2": {}, "timing": {"total_seconds": 1.0}}
    other = dict(report, lp_value=0.3, timing={"total_seconds": 9.0})
    records = [wl.call_record(wl.Call("claims", inst, r, None, None, 0.0)) for r in (report, other)]
    assert records[0] == records[1]
    changed = dict(report, lp_value=0.3001)
    assert wl.call_record(wl.Call("claims", inst, changed, None, None, 0.0)) != records[0]


def test_gates_catch_wrong_outputs(ds):
    state = wl.setup(ds, "exact-batch", 1, wl.TINY)
    calls = wl.op(ds, "exact-batch", state)
    assert wl.gate_misses(ds, calls) == []
    solve = next(i for i, c in enumerate(calls) if c.kind == "solve" and c.report)
    claims = next(i for i, c in enumerate(calls) if c.kind == "claims" and c.report)
    oracle = next(i for i, c in enumerate(calls) if c.kind == "oracle" and c.report)
    bad = list(calls)
    rep = calls[solve].report
    bad[solve] = replace(calls[solve], report=dict(rep, lp=dict(rep["lp"], value=rep["lp"]["value"] * (1 + 1e-6))))
    rep = calls[claims].report
    bad[claims] = replace(calls[claims], report=dict(rep, claim1=dict(rep["claim1"], disagreements=1)))
    rep = calls[oracle].report
    bad[oracle] = replace(calls[oracle], report=dict(rep, witness=rep["witness"][1:]))
    assert {i for i, _ in wl.gate_misses(ds, bad)} == {solve, claims, oracle}


COUNTS = ("simplex.pivots", "lp.rows", "lp.cols", "lp.nnz", "paths.calls", "graph.reverse_calls",
          "arborescence.trees", "rounding.eh_is_e_frac")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(ds, workload):
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        state = wl.setup(ds, workload, 2, wl.TINY)
        tracer.enabled = True
        for i in range(2):
            tracer.op_span(f"traced{i}", lambda: wl.op(ds, workload, state))
    finally:
        restore()
    first, second = (tracing.layer_metrics(tracer.spans, [f"traced{i}"]) for i in range(2))
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert any(first[k] for k in COUNTS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_at_tiny_size(workload, trace, tmp_path):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.run(args(workload, trace), sizes=wl.TINY, results_dir=tmp_path)
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert last["correct"] is True and last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    result = json.loads((tmp_path / f"BENCH_{workload}_seed3_trace{trace}.json").read_text())
    assert {"nproc", "python", "numpy", "scipy", "workload_seed", "git_commit", "blas_threads"} <= set(result["provenance"])
    assert result["provenance"]["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_exits_nonzero_without_the_package(tmp_path, capsys):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    assert run.run(args("lp-bound"), root=tmp_path, results_dir=tmp_path) == 2
    assert capsys.readouterr().out == ""


def test_scaling_uses_the_kernel_times_around_each_op():
    walls = [1.0, 2.0]
    kernels = [0.1, 0.2, 0.1]
    ref = calibration.REFERENCE_S
    assert calibration.scaled(walls, kernels) == pytest.approx([1.0 * 2 * ref / 0.3, 2.0 * 2 * ref / 0.3])
    # a host twice as slow doubles wall and kernel times alike: reference seconds stay put
    assert calibration.scaled([2 * w for w in walls], [2 * k for k in kernels]) == pytest.approx(
        calibration.scaled(walls, kernels))
    assert calibration.Kernel().seconds() > 0
