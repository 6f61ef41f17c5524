"""Benchmark of the dirspan pipeline: one workload per run, outputs checked.

    python3 benchmarks/run.py --workload lp-bound --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The package is imported from ./src.  Each
run sets up its workload several times (set-up time is the median), repeats
the workload's op for --seconds, checks every output against independent
references, writes a result file under benchmarks/results/ and prints, as its
last line, one JSON object: the end-to-end metrics of BENCHMARK.json with
--trace 0 (timings in reference seconds, see calibration.py), the per-layer
metrics with --trace 1.  It exits 1 when a correctness gate fails and 2 when
the package cannot be found.
"""

from __future__ import annotations

import os

# one BLAS thread, pinned before numpy loads; set-up children inherit it
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_ENV, "1"))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
IMPORT_CODE = "import time; t = time.perf_counter(); import dirspan; print(time.perf_counter() - t)"
# the name each workload's op time goes by in the human-readable table
OP_NAMES = {"lp-bound": "ladder_s", "round-paper": "solve_s", "alpha-sweep": "sweep_s", "exact-batch": "batch_s"}


def summarize(samples):
    """Median, sample count and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs), "percentile": None}
    for p in PERCENTILES:
        value = xs[max(0, math.ceil(len(xs) * p / 100) - 1)]  # nearest rank
        if sum(1 for x in xs if x > value) >= 10:
            out["percentile"] = {"p": p, "value": value}
    return out


def import_package(root):
    src = root / "src"
    if not (src / "dirspan" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import dirspan

    if Path(dirspan.__file__).resolve().parent != (src / "dirspan").resolve():
        return None
    return dirspan


def child_import_seconds(root):
    """Time of `import dirspan` in a fresh interpreter, as each CLI run pays it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], env=env, cwd=root, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip())


def blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(root, seed):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "workload_seed": seed,
        "git_commit": git_commit(root),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


class OpLog:
    """Op times and call outcomes; only the first op keeps its reports.

    Later ops are reduced to their digest records at once, compared with the
    reference records, and dropped, so memory does not grow with the op count.
    """

    def __init__(self, reference=None):
        self.times = []
        self.kernels = []  # calibration kernel times bracketing the ops
        self.first = None
        self.reference = reference
        self.call_seconds = []  # per op, per call
        self.trials = []  # rounding trials per op
        self.calls = self.crashed = self.capped = 0
        self.crashes = {}
        self.differs = []  # (op index, call index) whose output differs from the reference

    def add(self, calls, seconds):
        records = [wl.call_record(c) for c in calls]
        if self.reference is None:
            self.first, self.reference = calls, records
        else:
            self.differs += [(len(self.times), i) for i, r in enumerate(records)
                             if i >= len(self.reference) or r != self.reference[i]]
        self.times.append(seconds)
        self.call_seconds.append([c.seconds for c in calls])
        self.trials.append(sum(len(r.get("trials") or ()) for r in records))
        self.calls += len(calls)
        for c in calls:
            self.crashed += c.crashed
            self.capped += c.capped
            if c.crashed:
                self.crashes.setdefault(f"{c.kind}: {c.error}", c.message)


def run_ops(ds, name, state, window, log, kernel, tracer=None, prefix="op"):
    """Repeat the op until the next one would overrun the window; at least one op."""
    start = time.perf_counter()
    log.kernels.append(kernel.seconds())
    while not log.times or time.perf_counter() - start + statistics.median(log.times) <= window:
        t0 = time.perf_counter()
        if tracer is None:
            calls = wl.op(ds, name, state)
        else:
            calls = tracer.op_span(f"{prefix}{len(log.times)}", lambda: wl.op(ds, name, state))
        log.add(calls, time.perf_counter() - t0)
        log.kernels.append(kernel.seconds())
    return log


def jobs2_check(ds, state, jobs1_calls):
    """One jobs=2 op beside the jobs=1 ops; its records must match byte for byte."""
    t0 = time.perf_counter()
    calls = wl.op(ds, "round-paper", state, jobs=2)
    seconds = time.perf_counter() - t0
    same = [c.report is not None and d.report is not None and wl.without_timing(ds, c.report) == wl.without_timing(ds, d.report)
            for c, d in zip(calls, jobs1_calls)]
    ok = len(calls) == len(jobs1_calls) and all(same)
    return seconds, ok


def load_spec(root):
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_digests():
    path = HERE / "digests.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def record_digest(name, seed, digest):
    stored = load_digests()
    stored.setdefault(name, {})[str(seed)] = digest
    with open(HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run(args, sizes=wl.FULL, root=ROOT, results_dir=None):
    ds = import_package(root)
    if ds is None:
        print(f"error: no dirspan package under {root / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec(root)
    name, seed = args.workload, args.seed
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    tracer = tracing.Tracer() if args.trace else None
    restore = tracing.install(tracer) if tracer else None
    kernel = calibration.Kernel()
    try:
        setup_s, setup_ids, setup_kernels = [], [], [kernel.seconds()]
        for i in range(SETUPS):
            t_import = child_import_seconds(root)
            if tracer:
                tracer.op = f"setup{i}"
                tracer.enabled = True
                setup_ids.append(tracer.op)
            t0 = time.perf_counter()
            state = wl.setup(ds, name, seed, sizes)
            setup_s.append(t_import + time.perf_counter() - t0)
            if tracer:
                tracer.enabled = False
                tracer.op = None
            setup_kernels.append(kernel.seconds())

        window = args.seconds / 2 if tracer else args.seconds
        log = run_ops(ds, name, state, window, OpLog(), kernel)
        logs = [log]
        if tracer:
            tracer.enabled = True
            logs.append(run_ops(ds, name, state, window, OpLog(log.reference), kernel, tracer, prefix="traced"))
            tracer.enabled = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        jobs2 = jobs2_check(ds, state, log.first) if name == "round-paper" else None

        gate = wl.gate_misses(ds, log.first)
    finally:
        if restore:
            restore()

    misses = [f"call {i} ({log.first[i].kind} {log.first[i].inst.label}): {r}" for i, r in gate]
    failed = len({i for i, _ in gate}) + sum(lg.crashed for lg in logs)
    for k, lg in enumerate(logs):
        for op_index, i in lg.differs:
            misses.append(f"{('untraced', 'traced')[k]} op {op_index} call {i}: output differs from the first op")
        failed += len(lg.differs)
    if jobs2 is not None and not jobs2[1]:
        misses.append("jobs=2 records differ from jobs=1 records")
        failed += 1
    digest = wl.digest(log.reference)
    # stored digests are for the full-size workloads only
    stored = load_digests().get(name, {}).get(str(seed)) if sizes is wl.FULL else None
    if args.record_digest:
        if not misses:
            record_digest(name, seed, digest)
    elif stored is not None and stored != digest:
        misses.append(f"op digest {digest} differs from the stored {stored}")
        failed += len(log.first)

    attempted = sum(lg.calls for lg in logs) + (1 if jobs2 else 0)
    op = summarize(log.times)
    named = {
        "setup_s": summarize(calibration.scaled(setup_s, setup_kernels)),
        "op_s": summarize(calibration.scaled(log.times, log.kernels)),
        "setup_wall_s": summarize(setup_s),
        OP_NAMES[name]: op,
        "kernel_s": summarize(log.kernels),
        "failed_frac": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "capped_calls": sum(lg.capped for lg in logs),
    }
    if name == "lp-bound":
        for i, inst in enumerate(state["insts"]):
            named[f"solve_s[{inst.label}]"] = summarize([secs[i] for secs in log.call_seconds])
    if name in ("round-paper", "alpha-sweep"):
        named["trials_per_s"] = summarize([n / t for n, t in zip(log.trials, log.times)])
    if jobs2 is not None:
        named["jobs2_speedup"] = op["median"] / jobs2[0]
    named.update(wl.quality(name, log.first))

    if tracer:
        traced = logs[1]
        metrics = tracing.layer_metrics(tracer.spans, [f"traced{i}" for i in range(len(traced.times))], setup_ids)
        metrics["verify.capped"] = traced.capped / len(traced.times)
        metrics["pipeline.jobs2_speedup"] = named.get("jobs2_speedup", 0.0)
        # per-layer values are per-op means, so the overhead compares means too
        metrics["trace.untraced_op_s"] = statistics.fmean(log.times)
        metrics["trace.overhead_s"] = metrics["trace.traced_op_s"] - metrics["trace.untraced_op_s"]
        wanted = spec["per_layer"]
    else:
        metrics = {"setup_s": named["setup_s"]["median"], "op_s": named["op_s"]["median"], "peak_rss_mb": peak_rss_mb}
        named["peak_rss_mb"] = peak_rss_mb
        wanted = spec["end_to_end"]
    out_metrics = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted}
    crashes = {k: v for lg in logs for k, v in lg.crashes.items()}

    result = {
        "workload": name,
        "why": why,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(root, seed),
        "op_samples_s": log.times,
        "op_kernels_s": log.kernels,
        "setup_samples_s": setup_s,
        "setup_kernels_s": setup_kernels,
        "named": named,
        "metrics": out_metrics,
        "digest": digest,
        "stored_digest": stored,
        "misses": misses,
        "crashes": crashes,
    }
    results_dir = results_dir or HERE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"BENCH_{name}_seed{seed}_trace{args.trace}"
    with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if tracer:
        with open(results_dir / f"{stem}_spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracing.dump_spans(tracer.spans), fh)

    print_table(name, seed, why, named, metrics if tracer else None, misses, crashes)
    correct = not misses
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


def print_table(name, seed, why, named, layer, misses, crashes):
    print(f"workload {name} (seed {seed}): {why}")
    for key, val in named.items():
        if isinstance(val, dict) and "median" in val:
            pct = val["percentile"]
            pct_txt = f"p{pct['p']} {pct['value']:.6g}" if pct else "no percentile with 10 samples beyond"
            unit = {"trials_per_s": "1/s", "setup_s": "reference s", "op_s": "reference s"}.get(key, "s")
            print(f"  {key:<40} {val['median']:.6g} {unit}  median of n={val['n']}; {pct_txt}")
        elif key == "failed_frac":
            print(f"  {key:<40} {val['value']:.6g}  ({val['failed']} failed of {val['attempted']} attempted calls)")
        elif isinstance(val, float):
            unit = {"peak_rss_mb": " MB", "jobs2_speedup": "x (jobs=1 median / jobs=2)"}.get(key, "")
            print(f"  {key:<40} {val:.6g}{unit}")
        else:
            print(f"  {key:<40} {val}")
    if layer:
        op_s = layer["trace.traced_op_s"]
        print("  per-layer self time per traced op:")
        total = 0.0
        for lay in tracing.LAYERS + ("bench",):
            s = layer[f"{lay}.self_s"]
            total += s
            print(f"    {lay:<14} {s:10.6f} s  {100 * s / op_s if op_s else 0:5.1f} %")
        print(f"    {'sum':<14} {total:10.6f} s  mean traced op {op_s:.6f} s, mean untraced op "
              f"{layer['trace.untraced_op_s']:.6f} s, tracing overhead {layer['trace.overhead_s']:.6f} s")
    for key, msg in crashes.items():
        print(f"  crash {key}: {msg}")
    for miss in misses[:20]:
        print(f"  MISS {miss}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digest", action="store_true", help="store this run's op digest in digests.json")
    return p.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
