"""The mutant register: hand-made faults in src/dirspan and the tests that must catch each one.

Each row names a mutant, the file it edits, the exact text it replaces (which must occur
exactly once there; tests/test_mutants.py checks that in tier 1) and the new text, and the
pytest node ids expected to kill it.  A check that a change adds comes with its mutant here.

    python tests/mutants.py [NAME...]

copies src/, tests/, pyproject.toml and README.md into a temporary directory and runs the
killers of the named mutants (all of them by default) there, first on the unmutated copy,
where they must pass, then under one mutant at a time with `pytest -x`, where they must fail.
It prints one line per mutant and exits 1 when a mutant survives or its killers do not pass
unmutated.  It is not part of tier 1: one pass over the register takes about ten seconds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repo root
    old: str
    new: str
    killers: tuple[str, ...]


ZEROING_PINS = "tests/test_simplex.py::test_artificial_zeroing_path_is_pinned"
LADDER_PINS = "tests/test_lp.py::test_ladder_pivot_path_is_pinned"
SEEDING_PINS = "tests/test_rounding.py::test_seeding_pass_equals_numpys_seeding"


def golden(case):
    return f"tests/test_golden.py::test_golden_transcript[{case}]"


MUTANTS = (
    # phase 1 could then never re-enter an artificial column
    Mutant(
        "simplex-zero-before-phase-1",
        "src/dirspan/simplex.py",
        "    if n_surplus:\n        status = run_phase(P1, ncols)\n",
        "    if n_surplus:\n        T[:, art_start:ncols] = 0.0\n        status = run_phase(P1, ncols)\n",
        (ZEROING_PINS,),
    ),
    Mutant(
        "simplex-zero-rhs-too",
        "src/dirspan/simplex.py",
        "T[:, art_start:ncols] = 0.0",
        "T[:, art_start:] = 0.0",
        (ZEROING_PINS, LADDER_PINS),
    ),
    # the row width without the rhs column
    Mutant(
        "simplex-flat-width",
        "src/dirspan/simplex.py",
        "width = T.shape[1]\n",
        "width = ncols\n",
        (LADDER_PINS, ZEROING_PINS),
    ),
    # a tree vertex's parent becomes its highest-index tight edge
    Mutant(
        "tree-parent-highest-tight-edge",
        "src/dirspan/graph.py",
        "for e in adj[w]:",
        "for e in reversed(adj[w]):",
        (golden("solve-zero-ties-small-alpha"), golden("huge-lengths")),
    ),
    # every root of a block scatters its parents onto the block's first row
    Mutant(
        "tree-scatter-drops-row-offset",
        "src/dirspan/graph.py",
        "[:, None] * (2 * g.n) + far",
        "[:, None] * 0 + far",
        (
            "tests/test_graph.py::test_exact_graph_rows_match_searches",
            "tests/test_graph.py::test_bulk_trees_match_per_root_scan",
            golden("solve-oracle"),
            golden("lp-then-round"),
            golden("gen"),
        ),
    ),
    # a tie resets the other direction's half of the root's row, keeping the scatter's parents on its own
    Mutant(
        "tree-tie-resets-other-half",
        "src/dirspan/graph.py",
        "g.n * inward : g.n * (inward + 1)",
        "g.n * (1 - inward) : g.n * (2 - inward)",
        (
            "tests/test_graph.py::test_exact_graph_rows_match_searches",
            "tests/test_graph.py::test_bulk_trees_match_per_root_scan",
        ),
    ),
    # a child frame restarts at frontier slot 0, so trees are grown more than once
    Mutant(
        "claim-tree-child-restarts-frontier",
        "src/dirspan/arborescence.py",
        "stack.append([i + 1, child, head, end])",
        "stack.append([0, child, head, end])",
        (golden("claims"), golden("small6-k1"), golden("er10-k3"), golden("huge-lengths")),
    ),
    # a claim context lets in the covered vertices' edges to uncovered heads
    Mutant(
        "claim-tree-uncovered-edge",
        "src/dirspan/arborescence.py",
        "inside[t] and inside[h]",
        "inside[t]",
        (
            "tests/test_arborescence.py::test_incremental_masks_match_census",
            golden("claims"),
            golden("small6-k1"),
            golden("er10-k3"),
            golden("huge-lengths"),
            golden("disconnected"),
        ),
    ),
    # a tree whose distance to the target equals the threshold counts as long
    Mutant(
        "long-tree-count-not-strict",
        "src/dirspan/arborescence.py",
        "return sum(1 for dist_v, _ in self.trees if dist_v > K)",
        "return sum(1 for dist_v, _ in self.trees if dist_v >= K)",
        ("tests/test_arborescence.py::test_claim_context_boundary_is_strict",),
    ),
    # the all-pairs sweep never routes a path through the last vertex
    Mutant(
        "all-pairs-skips-last-vertex",
        "src/dirspan/graph.py",
        "for k in range(n):",
        "for k in range(n - 1):",
        (
            "tests/test_graph.py::test_lengths_summing_below_2_53_take_the_matrix",
            "tests/test_graph.py::test_exact_graph_rows_match_searches",
            "tests/test_differential.py::test_scaling_every_length_changes_no_report",
        ),
    ),
    # a -0.0 length stays -0.0 in the matrix, where a search's 0.0 + -0.0 gives 0.0
    Mutant(
        "all-pairs-keeps-negative-zero",
        "src/dirspan/graph.py",
        "np.add(lengths, 0.0)",
        "lengths",
        ("tests/test_graph.py::test_exact_graph_rows_match_searches",),
    ),
    # a sweep step takes its columns from the finite entries of column k instead of row k
    Mutant(
        "all-pairs-columns-from-wrong-axis",
        "src/dirspan/graph.py",
        "cols = np.flatnonzero(d[k] < INF)",
        "cols = np.flatnonzero(d[:, k] < INF)",
        ("tests/test_graph.py::test_sparse_exact_graph_rows_match_searches",),
    ),
    # build_graph accepts a tail equal to n, which then fails on a bare IndexError
    Mutant(
        "graph-accepts-tail-n",
        "src/dirspan/graph.py",
        "0 <= tail < n",
        "0 <= tail <= n",
        ("tests/test_graph.py::test_build_graph_validation[2-edges6-IndexOutOfRange]",),
    ),
    # edge_mask lets index m through to a bare IndexError
    Mutant(
        "edge-mask-lets-m-through",
        "src/dirspan/graph.py",
        "if not 0 <= e < m:",
        "if not 0 <= e <= m:",
        ("tests/test_verify.py::test_h_index_out_of_range_is_rejected[equal-to-m]",),
    ),
    # lengths summing past 2**53 take the matrix, whose sums then round differently from a search's
    Mutant(
        "exact-bound-2-64",
        "src/dirspan/graph.py",
        "_EXACT_BELOW = 2.0**53",
        "_EXACT_BELOW = 2.0**64",
        ("tests/test_graph.py::test_lengths_summing_to_2_53_are_searched",),
    ),
    # the check skips a demand whose own edge fits its budget even when that edge is not in H
    Mutant(
        "budget-fits-ignores-h",
        "src/dirspan/verify.py",
        "(~(h & fits))",
        "(~fits)",
        (golden("solve-alpha-infeasible"),),
    ),
    # a demand filled by one check is skipped by every later check at its k, whatever its budget
    Mutant(
        "budget-fill-always-fits",
        "src/dirspan/verify.py",
        "fits[d] = length <= allowed",
        "fits[d] = True",
        ("tests/test_verify.py::test_shared_table_checks_match_fresh_and_eager",),
    ),
    # each demand's budget is dist_G, as if k were 1
    Mutant(
        "budget-fill-drops-k",
        "src/dirspan/verify.py",
        "k * table.outward(tail)[head]",
        "table.outward(tail)[head]",
        ("tests/test_verify.py::test_detour_pair_is_spanner",),
    ),
    # the oracle searches on below a branch that can at best tie the best spanner so far, so a later tie
    # replaces the witness
    Mutant(
        "oracle-keeps-later-ties",
        "src/dirspan/verify.py",
        "size + extra >= best",
        "size + extra > best",
        (golden("oracle-tied-witness"),),
    ),
    # the oracle branches first on the free edges that the fewest demand paths use
    Mutant(
        "oracle-branch-order-reversed",
        "src/dirspan/verify.py",
        "(-counts[e], e)",
        "(counts[e], e)",
        (golden("oracle-tied-witness"),),
    ),
    # the oracle's cap moves and README's size-cap table still reads 22
    Mutant(
        "free-edge-cap-off-the-readme",
        "src/dirspan/verify.py",
        "MAX_FREE_EDGES = 22",
        "MAX_FREE_EDGES = 23",
        ("tests/test_pipeline_cli.py::test_readme_size_cap_table_matches_the_constants",),
    ),
    # a trial's E_H is its rounded edges alone, without the trees
    Mutant(
        "spanner-eh-from-kept-mask",
        "src/dirspan/rounding.py",
        "e_h=np.flatnonzero(h),",
        "e_h=np.flatnonzero(kept),",
        ("tests/test_rounding.py::test_tree_edge_budget_holds", golden("lp-then-round")),
    ),
    # a claim context covers only the tails of its demand's path edges
    Mutant(
        "claims-covered-tails-only",
        "src/dirspan/pipeline.py",
        "g.edges[e][:2]}",
        "g.edges[e][:1]}",
        ("tests/test_pipeline_cli.py::test_run_claims_enumerates_each_demand_once", golden("claims")),
    ),
    # round takes any x whose flow columns alone are feasible, mandatory edges below 1 included
    Mutant(
        "round-check-ignores-violated-rows",
        "src/dirspan/lp.py",
        'res.status == "optimal" and not violated_rows(model, np.concatenate([x, res.z]))',
        'res.status == "optimal"',
        (golden("round-tiny-lp-value"),),
    ),
    # round checks x's rows with no regard for whether phase 1 found flows
    Mutant(
        "round-check-ignores-phase-1",
        "src/dirspan/lp.py",
        'return res.status == "optimal" and not',
        "return not",
        ("tests/test_pipeline_cli.py::test_cli_round_rejects_an_x_that_no_flow_fits",),
    ),
    # one digit of a SeedSequence hash multiplier off: every trial stream's state moves
    Mutant(
        "seeding-wrong-hash-constant",
        "src/dirspan/rounding.py",
        "MULT_A = 0x931E8875",
        "MULT_A = 0x931E8876",
        (SEEDING_PINS,),
    ),
    # the label follows the seed's two words, as if numpy did not pad the entropy to the pool size
    Mutant(
        "seeding-label-without-padding",
        "src/dirspan/rounding.py",
        "entropy[POOL_SIZE] = np.resize(",
        "entropy[2] = np.resize(",
        (SEEDING_PINS,),
    ),
)


def _pytest(tree, node_ids):
    """pytest's exit code for the node ids, run with -x in the copied tree on its own src/."""
    # no bytecode cache: a same-length edit within one second of the last import could reuse it
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names):
    by_name = {m.name: m for m in MUTANTS}
    unknown = sorted(set(names) - set(by_name))
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[n] for n in names] if names else list(MUTANTS)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        shutil.copy(ROOT / "README.md", tree)  # the README table pins read it
        killers = sorted({k for m in chosen for k in m.killers})
        code = _pytest(tree, killers)
        if code != 0:
            print(f"the killers fail on the unmutated tree (pytest exit {code})")
            return 1
        survivors = 0
        for m in chosen:
            target = tree / m.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            code = _pytest(tree, m.killers)
            target.write_text(text, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            survivors += code != 1
            print(f"{verdict:10} {m.name}")
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
