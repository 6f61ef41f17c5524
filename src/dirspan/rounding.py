"""Randomized spanner construction from a fractional LP solution.

Three steps: start from the empty edge set, keep each edge independently
with probability min(alpha * x_e * sqrt(n), 1), then sample tree roots
each with probability min(alpha / sqrt(n), 1) and add a full outward and
inward shortest-path tree per root.  The trees alone repair every demand
whose covered vertex set is large, the rounded edges handle the rest with
high probability, and the expected size stays within alpha * sqrt(n) times
the LP value plus the tree budget.  A run computes the keep probabilities
once and its DistanceTable keeps each root's tree row, so a trial only
draws, ORs the kept edges and tree rows into one boolean mask of H, checks
that mask and keeps its edge index arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .verify import is_k_spanner

EDGE_STREAM = 0
ROOT_STREAM = 1
CLAIMS_STREAM = 2


def _stream(seed, label):
    """Independent per-phase generator derived from the master seed by a labeled split."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(label,))))


def select_alpha(mode, n, k):
    """Scaling constant of the sampling probabilities, natural logarithm.

    unit-length instances afford 10 * sqrt(k) * ln n for the stretch factor
    k; the general setting uses 5 * ln n and ignores k.  A graph of fewer
    than 2 vertices has no edge, so any positive constant builds the same
    empty spanner: it takes the n = 2 one.
    """
    log_n = math.log(max(n, 2))
    if mode == "unit":
        return 10.0 * math.sqrt(k) * log_n
    if mode == "general":
        return 5.0 * log_n
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class RoundingParams:
    alpha: float
    seed: int
    k: float


def edge_inclusion_probs(x, alpha, n):
    """Exact per-edge keep probabilities min(alpha * x_e * sqrt(n), 1), a float array over the edges."""
    with np.errstate(over="ignore"):  # a product past the largest double is inf, which clips to 1
        return np.minimum(alpha * np.asarray(x, dtype=float) * math.sqrt(n), 1.0)


def round_edges(probs, rng):
    """Independent Bernoulli keep per edge, one uniform draw in index order: a boolean mask over the edges."""
    return rng.random(len(probs)) < probs


def sample_tree_roots(n, alpha, rng):
    """Independent Bernoulli per vertex with probability min(alpha / sqrt(n), 1)."""
    if n == 0:
        return frozenset()
    p = min(alpha / math.sqrt(n), 1.0)
    return frozenset(np.flatnonzero(rng.random(n) < p).tolist())


@dataclass(frozen=True)
class SpannerResult:
    rounded_edges: np.ndarray  # this and the other edge fields: ascending edge indices of g
    tree_roots: frozenset  # as sample_tree_roots draws them
    tree_edges: np.ndarray
    e_h: np.ndarray
    feasible: bool


def build_spanner(g, lp_sol, params, table, probs):
    """One full randomized construction from lp_sol plus an exact feasibility check.

    probs is edge_inclusion_probs(lp_sol.x, params.alpha, g.n), which a run
    computes once for all its trials; the body reads only probs, and
    lp_sol stays the second argument because the benchmark's tracer reads
    its x (benchmarks/tracer.py).  The edge and root phases consume
    separate labeled streams of the master seed, so each phase's draws are
    those of round_edges or sample_tree_roots alone on its stream.  Every
    random choice is per-edge or per-vertex independent and shortest-path
    trees never leave a weak component, so a single pass over the whole
    graph equals running each component alone.

    table, the run's DistanceTable of g, lets many trials on one graph share
    work: it keeps each root's tree row and the demand budgets the check
    reads.  H is one boolean mask, the kept edges ORed with the roots' tree
    rows; the check reads it as it is and the result keeps index arrays.
    """
    kept = round_edges(probs, _stream(params.seed, EDGE_STREAM))
    roots = sample_tree_roots(g.n, params.alpha, _stream(params.seed, ROOT_STREAM))
    rows = table.trees(roots)
    trees = np.logical_or.reduce(rows) if rows else np.zeros(g.m, dtype=bool)
    h = kept | trees
    return SpannerResult(
        rounded_edges=np.flatnonzero(kept),
        tree_roots=roots,
        tree_edges=np.flatnonzero(trees),
        e_h=np.flatnonzero(h),
        feasible=is_k_spanner(g, h, params.k, table=table).feasible,
    )
