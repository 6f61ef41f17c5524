"""Command line interface.

Exit codes: 0 success, 2 bad input or configuration, 3 a size cap tripped,
4 a spanner check failed under --require-feasible, 5 numerical failure or a
broken internal check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from .errors import (
    BadSpec,
    DirspanError,
    ExplosionCap,
    GraphError,
    GraphSyntaxError,
    NumericalFailure,
    PathExplosion,
    TooLarge,
)
from .generate import generate_instance, parse_gen_spec
from .io import dumps_report, parse_graph, serialize_graph
from .lp import CHECK_TOL, LpSolution, build_lp, export_lp_text, solve_lp
from .pipeline import RunConfig, run_claims, run_oracle, run_solve
from .verify import is_k_spanner

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CAP = 3
EXIT_INFEASIBLE = 4
EXIT_NUMERICAL = 5


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


def load_input(spec_text):
    """Resolve an input: 'gen:family:...' generates, anything else is a path."""
    if spec_text.startswith("gen:"):
        return generate_instance(parse_gen_spec(spec_text[len("gen:"):]))
    with open(spec_text, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _load(args):
    """The run configuration (unread fields keep their defaults) and its graph, loaded once and range-checked."""
    given = vars(args)
    config = RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})
    g = load_input(config.input)
    total = sum(length for _, _, length in g.edges)  # no sum a run forms exceeds the claims cap below
    if not math.isfinite(config.k * total * 2.5 + 1.0):
        raise BadSpec(f"lengths sum to {total!r}, so 2.5 * k * sum + 1.0 overflows a double at k={config.k}")
    return config, g


def _write_report(report, args):
    text = dumps_report(report) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args):
    config, g = _load(args)
    opt = None
    if args.oracle:
        opt = run_oracle(config, g=g)["opt"]
    report = run_solve(config, g=g, opt=opt)
    _write_report(report, args)
    frac = report["aggregate"]["feasible_fraction"]
    print(
        f"n={g.n} m={g.m} k={config.k} lp={report['lp']['value']:.6g} "
        f"alpha={report['alpha']:.6g} trials={config.trials} feasible={frac}",
        file=sys.stderr,
    )
    if args.require_feasible and frac is not None and frac < 1.0:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_lp(args):
    config, g = _load(args)
    model = build_lp(g, config.k)
    sol = solve_lp(model)
    if args.export_lp:
        with open(args.export_lp, "w", encoding="utf-8") as fh:
            fh.write(export_lp_text(model))
    report = {
        "n": g.n,
        "m": g.m,
        "k": config.k,
        "status": sol.status,
        "objective": sol.objective_value,
        "x": list(sol.x),
    }
    _write_report(report, args)
    print(f"lp objective {sol.objective_value:.10g} ({sol.status})", file=sys.stderr)
    return EXIT_OK


def _finite(v):
    return type(v) in (int, float) and math.isfinite(v)


def _dump_x(dump, m):
    """The x vector of an LP dump, which must hold exactly m finite, nonnegative numbers."""
    x = dump.get("x")
    if not isinstance(x, list) or len(x) != m:
        raise BadSpec(f"LP dump x must list exactly {m} values")
    for i, v in enumerate(x):
        if not (_finite(v) and v >= 0):
            raise BadSpec(f"LP dump x[{i}] = {v!r} is not a finite nonnegative number")
    return tuple(float(v) for v in x)


def _cmd_round(args):
    config, g = _load(args)
    with open(args.lp, "r", encoding="utf-8") as fh:
        dump = json.load(fh)
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
    total = math.fsum(x)
    if abs(dump["objective"] - total) > CHECK_TOL * max(1.0, total):
        raise BadSpec(f"LP dump objective {dump['objective']!r} is not the sum of its x, {total!r}")
    sol = LpSolution(status=status, x=x, f={}, objective_value=float(dump["objective"]))
    report = run_solve(config, g=g, sol=sol)
    _write_report(report, args)
    frac = report["aggregate"]["feasible_fraction"]
    print(f"rounded {config.trials} trials, feasible fraction {frac}", file=sys.stderr)
    if args.require_feasible and frac is not None and frac < 1.0:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _read_subgraph_edges(g, path):
    chosen = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphSyntaxError(f"subgraph line must be 'tail head', got {line!r}", line=lineno)
            try:
                tail, head = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphSyntaxError(f"endpoints must be integers, got {line!r}", line=lineno) from None
            if (tail, head) not in g.edge_index:
                raise BadSpec(f"subgraph edge ({tail}, {head}) is not an edge of the graph")
            chosen.append(g.edge_index[(tail, head)])
    return frozenset(chosen)


def _cmd_verify(args):
    config, g = _load(args)
    h_edges = _read_subgraph_edges(g, args.subgraph)
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
    _write_report(report, args)
    print(f"subgraph of {len(h_edges)} edges: feasible={check.feasible}", file=sys.stderr)
    if args.require_feasible and not check.feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_oracle(args):
    config, g = _load(args)
    report = run_oracle(config, g=g)
    _write_report(report, args)
    print(f"opt {report['opt']} (witness of {len(report['witness'])} edges)", file=sys.stderr)
    return EXIT_OK


def _cmd_claims(args):
    config, g = _load(args)
    report = run_claims(config, g=g)
    _write_report(report, args)
    c1 = report["claim1"]
    c2 = report["claim2"]
    print(
        f"demands={report['demands_checked']} trees={report['trees_enumerated']} "
        f"claim1 {c1['disagreements']}/{c1['checks']} disagreements, "
        f"claim2 {c2['violations']} violations (min mass {c2['min_cut_mass']})",
        file=sys.stderr,
    )
    if c1["disagreements"] or c2["violations"]:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_gen(args):
    g = generate_instance(parse_gen_spec(args.spec))
    text = serialize_graph(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"generated n={g.n} m={g.m}", file=sys.stderr)
    return EXIT_OK


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
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphSyntaxError, GraphError, BadSpec, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (PathExplosion, TooLarge, ExplosionCap) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DirspanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
