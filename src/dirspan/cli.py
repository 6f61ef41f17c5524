"""Command line interface.

Every input subcommand takes one run path through `main`: `_load` resolves
the configuration and the input graph once, the subcommand's `_cmd_*` handler
returns its report, summary line and exit code, and `main` writes the report
to `--out` or stdout and the summary line to stderr.  `gen` writes its graph
text the same way.  Every file the command reads or writes goes through
`_read_file` or `_write_file`.

Exit codes: 0 success, 2 bad input or configuration (a file that is missing,
a directory or unreadable included), 3 a size cap tripped or memory ran out,
4 a spanner check failed under --require-feasible, 5 numerical failure or a
broken internal check.  `FAILURES` maps each failure to its code and message label.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields

from .errors import BadSpec, DirspanError, ExplosionCap, NumericalFailure, PathExplosion, TooLarge
from .generate import generate_instance, parse_gen_spec
from .io import dumps_report, parse_graph, parse_subgraph, serialize_graph
from .lp import CHECK_TOL, LpSolution, build_lp, export_lp_text, solve_lp, x_is_feasible
from .pipeline import RunConfig, claim_cap, run_claims, run_oracle, run_solve
from .verify import is_k_spanner

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CAP = 3
EXIT_INFEASIBLE = 4
EXIT_NUMERICAL = 5

# checked top to bottom: the first row whose types match an exception gives its label and exit code
FAILURES = (
    ((PathExplosion, TooLarge, ExplosionCap), "cap exceeded", EXIT_CAP),
    (MemoryError, "out of memory", EXIT_CAP),
    (NumericalFailure, "numerical failure", EXIT_NUMERICAL),
    (AssertionError, "internal error", EXIT_NUMERICAL),
    ((DirspanError, OSError, ValueError), "error", EXIT_BAD_INPUT),  # ValueError covers JSONDecodeError
)


# flags several subcommands read; each subcommand declares only the ones it reads
SHARED_FLAGS = {
    "--alpha": dict(dest="alpha_override", metavar="ALPHA", type=float, help="override the sampling constant"),
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, default=1),
    "--require-feasible": dict(action="store_true", help="exit 4 if a spanner check fails"),
}


def _add_subcommand(sub, name, summary, func, *flags):
    """A subcommand on one input graph and k, with the shared flags it reads."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("input", help="graph file path, or gen:family:key=value,... to generate")
    p.add_argument("-k", type=int, required=True, help="stretch factor (integer >= 1)")
    p.add_argument("--out", help="write the report here instead of stdout")
    for flag in flags:
        p.add_argument(flag, **SHARED_FLAGS[flag])
    p.set_defaults(func=func)
    return p


def _read_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_file(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_input(spec_text):
    """Resolve an input: 'gen:family:...' generates, anything else is a path."""
    if spec_text.startswith("gen:"):
        return generate_instance(parse_gen_spec(spec_text[len("gen:"):]))
    return parse_graph(_read_file(spec_text))


def _load(args):
    """The run configuration (unread fields keep their defaults) and its graph, loaded once and range-checked."""
    given = vars(args)
    config = RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})
    g = load_input(config.input)
    total = sum(length for _, _, length in g.edges)  # no sum a run forms exceeds the claims cap of k * total
    if not math.isfinite(claim_cap(config.k * total)):
        raise BadSpec(f"lengths sum to {total!r}, so 2.5 * k * sum + 1.0 overflows a double at k={config.k}")
    return config, g


def _rounding_exit(args, frac):
    """Exit 4 under --require-feasible when some trial's spanner check failed."""
    return EXIT_INFEASIBLE if args.require_feasible and frac is not None and frac < 1.0 else EXIT_OK


def _cmd_solve(args, config, g):
    opt = None
    if args.oracle:
        opt = run_oracle(config, g=g)["opt"]
    report = run_solve(config, g=g, opt=opt)
    frac = report["aggregate"]["feasible_fraction"]
    summary = (f"n={g.n} m={g.m} k={config.k} lp={report['lp']['value']:.6g} "
               f"alpha={report['alpha']:.6g} trials={config.trials} feasible={frac}")
    return report, summary, _rounding_exit(args, frac)


def _cmd_lp(args, config, g):
    model = build_lp(g, config.k)
    sol = solve_lp(model)
    if args.export_lp:
        _write_file(args.export_lp, export_lp_text(model))
    report = {
        "n": g.n,
        "m": g.m,
        "k": config.k,
        "status": "optimal",
        "objective": sol.objective_value,
        "x": list(sol.x),
    }
    return report, f"lp objective {sol.objective_value:.10g} (optimal)", EXIT_OK


def _finite(v):
    """A JSON number a double holds: an integer beyond the double range counts as not finite."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _dump_x(dump, m):
    """The x vector of an LP dump, which must hold exactly m finite, nonnegative numbers."""
    x = dump.get("x")
    if not isinstance(x, list) or len(x) != m:
        raise BadSpec(f"LP dump x must list exactly {m} values")
    for i, v in enumerate(x):
        if not (_finite(v) and v >= 0):
            raise BadSpec(f"LP dump x[{i}] = {v!r} is not a finite nonnegative number")
    return tuple(float(v) for v in x)


def _cmd_round(args, config, g):
    text = _read_file(args.lp)
    try:
        dump = json.loads(text)
    except RecursionError:
        raise BadSpec("LP dump is nested too deeply to read") from None
    if not isinstance(dump, dict):
        raise BadSpec("LP dump must be a JSON object")
    if not _finite(dump.get("objective")):
        raise BadSpec(f"LP dump objective {dump.get('objective')!r} is not a finite number")
    if (dump.get("n"), dump.get("m"), dump.get("k")) != (g.n, g.m, config.k):
        raise BadSpec(f"LP dump is for n={dump.get('n')}, m={dump.get('m')}, k={dump.get('k')}; "
                      f"the run has n={g.n}, m={g.m}, k={config.k}")
    x = _dump_x(dump, g.m)
    status = dump.get("status", "optimal")
    if status != "optimal":
        raise BadSpec(f"LP dump status is {status!r}, not 'optimal'")
    try:
        total = math.fsum(x)
    except OverflowError:
        raise BadSpec("LP dump x sums past the largest double") from None
    if abs(dump["objective"] - total) > CHECK_TOL * max(1.0, total):
        raise BadSpec(f"LP dump objective {dump['objective']!r} is not the sum of its x, {total!r}")
    if not x_is_feasible(build_lp(g, config.k), x):
        raise BadSpec("LP dump x is not feasible for the LP of this graph and k")
    sol = LpSolution(x=x, objective_value=float(dump["objective"]))
    report = run_solve(config, g=g, sol=sol)
    frac = report["aggregate"]["feasible_fraction"]
    return report, f"rounded {config.trials} trials, feasible fraction {frac}", _rounding_exit(args, frac)


def _cmd_verify(args, config, g):
    h_edges = parse_subgraph(g, _read_file(args.subgraph))
    check = is_k_spanner(g, h_edges, config.k)
    violation = None
    if check.violation is not None:
        d, dist_g, dist_h = check.violation
        tail, head, _ = g.edges[d]
        # JSON has no infinity; an unreachable head is reported as null
        violation = {
            "edge": d,
            "tail": tail,
            "head": head,
            "dist_g": dist_g,
            "dist_h": dist_h if math.isfinite(dist_h) else None,
        }
    report = {"n": g.n, "m": g.m, "k": config.k, "h_size": len(h_edges), "feasible": check.feasible, "violation": violation}
    code = EXIT_INFEASIBLE if args.require_feasible and not check.feasible else EXIT_OK
    return report, f"subgraph of {len(h_edges)} edges: feasible={check.feasible}", code


def _cmd_oracle(args, config, g):
    report = run_oracle(config, g=g)
    return report, f"opt {report['opt']} (witness of {len(report['witness'])} edges)", EXIT_OK


def _cmd_claims(args, config, g):
    report = run_claims(config, g=g)
    c1 = report["claim1"]
    c2 = report["claim2"]
    summary = (f"demands={report['demands_checked']} trees={report['trees_enumerated']} "
               f"claim1 {c1['disagreements']}/{c1['checks']} disagreements, "
               f"claim2 {c2['violations']} violations (min mass {c2['min_cut_mass']})")
    return report, summary, EXIT_INFEASIBLE if c1["disagreements"] or c2["violations"] else EXIT_OK


@functools.cache  # built on the first main call, not at import; parse_args leaves it as it was
def build_parser():
    parser = argparse.ArgumentParser(prog="dirspan", description="Directed k-spanner approximation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    rounding = ("--alpha", "--seed", "--trials", "--require-feasible")
    p = _add_subcommand(sub, "solve", "LP, rounding trials, and feasibility checks", _cmd_solve, *rounding)
    p.add_argument("--oracle", action="store_true", help="also compute the exact optimum")
    p = _add_subcommand(sub, "lp", "solve the LP relaxation and dump x values", _cmd_lp)
    p.add_argument("--export-lp", help="also write the model in LP text format")
    p = _add_subcommand(sub, "round", "rounding trials from an existing LP dump", _cmd_round, *rounding)
    p.add_argument("--lp", required=True, help="JSON dump produced by the lp subcommand")
    p = _add_subcommand(sub, "verify", "check a candidate subgraph", _cmd_verify, "--require-feasible")
    p.add_argument("--subgraph", required=True, help="file of 'tail head' lines selecting edges")
    _add_subcommand(sub, "oracle", "exact minimum spanner by branch and bound", _cmd_oracle)
    _add_subcommand(sub, "claims", "cut-structure checks on every demand", _cmd_claims, "--seed", "--trials")

    p = sub.add_parser("gen", help="write a generated instance as graph text")
    p.add_argument("--spec", required=True, help="family:key=value,... e.g. er:n=10,p=0.3,seed=1")
    p.add_argument("--out", default=None)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            g = generate_instance(parse_gen_spec(args.spec))
            text, summary, code = serialize_graph(g), f"generated n={g.n} m={g.m}", EXIT_OK
        else:
            report, summary, code = args.func(args, *_load(args))
            text = dumps_report(report) + "\n"
        if args.out:
            _write_file(args.out, text)
        else:
            sys.stdout.write(text)
    except Exception as exc:
        for types, label, failure in FAILURES:
            if isinstance(exc, types):
                print(f"{label}: {exc}", file=sys.stderr)
                return failure
        raise
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
