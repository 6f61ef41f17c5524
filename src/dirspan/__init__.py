"""Directed k-spanner toolkit.

Flow-based LP relaxation of the minimum directed k-spanner problem,
randomized rounding with shortest-path-tree sampling, exact verification
and optimum oracles, and the cut-structure checks that justify the
construction on small instances.
"""

from .arborescence import ClaimContext
from .errors import (
    BadSpec,
    DirspanError,
    DuplicateEdge,
    ExplosionCap,
    GraphError,
    GraphSyntaxError,
    IndexOutOfRange,
    NegativeLength,
    NumericalFailure,
    PathExplosion,
    SelfLoop,
    TooLarge,
)
from .generate import GenSpec, generate_instance, parse_gen_spec
from .graph import INF, DiGraph, build_graph
from .io import dumps_report, parse_graph, serialize_graph
from .lp import (
    LpModel,
    LpSolution,
    build_lp,
    export_lp_text,
    solve_lp,
    violated_rows,
)
from .paths import DemandPaths, enumerate_demand_paths
from .pipeline import RunConfig, run_claims, run_oracle, run_solve, trial_seed
from .rounding import (
    RoundingParams,
    SpannerResult,
    build_spanner,
    edge_inclusion_probs,
    round_edges,
    sample_tree_roots,
    select_alpha,
)
from .verify import (
    OptResult,
    SpannerCheck,
    brute_force_opt,
    is_k_spanner,
)

__version__ = "0.1.0"

__all__ = [
    "BadSpec",
    "ClaimContext",
    "DemandPaths",
    "DiGraph",
    "DirspanError",
    "DuplicateEdge",
    "ExplosionCap",
    "GenSpec",
    "GraphError",
    "GraphSyntaxError",
    "IndexOutOfRange",
    "INF",
    "LpModel",
    "LpSolution",
    "NegativeLength",
    "NumericalFailure",
    "OptResult",
    "PathExplosion",
    "RoundingParams",
    "RunConfig",
    "SelfLoop",
    "SpannerCheck",
    "SpannerResult",
    "TooLarge",
    "brute_force_opt",
    "build_graph",
    "build_lp",
    "build_spanner",
    "dumps_report",
    "edge_inclusion_probs",
    "enumerate_demand_paths",
    "export_lp_text",
    "generate_instance",
    "is_k_spanner",
    "parse_gen_spec",
    "parse_graph",
    "round_edges",
    "run_claims",
    "run_oracle",
    "run_solve",
    "sample_tree_roots",
    "select_alpha",
    "serialize_graph",
    "solve_lp",
    "trial_seed",
    "violated_rows",
]
