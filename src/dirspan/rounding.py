"""Randomized spanner construction from a fractional LP solution.

Three steps: start from the empty edge set, keep each edge independently
with probability min(alpha * x_e * sqrt(n), 1), then sample tree roots
each with probability min(alpha / sqrt(n), 1) and add a full outward and
inward shortest-path tree per root.  The trees alone repair every demand
whose covered vertex set is large, the rounded edges handle the rest with
high probability, and the expected size stays within alpha * sqrt(n) times
the LP value plus the tree budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import DistanceTable
from .verify import is_k_spanner

EDGE_STREAM = 0
ROOT_STREAM = 1


def _stream(seed, label):
    """Independent per-phase generator derived from the master seed by a labeled split."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(label,))))


def select_alpha(mode, n, k=None):
    """Scaling constant of the sampling probabilities, natural logarithm.

    unit-length instances afford 10 * sqrt(k) * ln n; the general setting
    uses 5 * ln n.  A graph of fewer than 2 vertices has no edge, so any
    positive constant builds the same empty spanner: it takes the n = 2 one.
    """
    log_n = math.log(max(n, 2))
    if mode == "unit":
        if k is None or k < 1:
            raise ValueError("unit mode needs the stretch factor k >= 1")
        return 10.0 * math.sqrt(k) * log_n
    if mode == "general":
        return 5.0 * log_n
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class RoundingParams:
    alpha: float
    seed: int
    k: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.k < 1:
            raise ValueError(f"stretch factor must be >= 1, got {self.k}")


def edge_inclusion_probs(x, alpha, n):
    """Exact per-edge keep probabilities min(alpha * x_e * sqrt(n), 1)."""
    return np.minimum(alpha * np.asarray(x, dtype=float) * math.sqrt(n), 1.0).tolist()


def round_edges(g, x, alpha, rng):
    """Independent Bernoulli keep per edge, one uniform draw in index order."""
    probs = edge_inclusion_probs(x, alpha, g.n)
    return frozenset(np.flatnonzero(rng.random(g.m) < probs).tolist())


def sample_tree_roots(n, alpha, rng):
    """Independent Bernoulli per vertex with probability min(alpha / sqrt(n), 1)."""
    if n == 0:
        return frozenset()
    p = min(alpha / math.sqrt(n), 1.0)
    return frozenset(np.flatnonzero(rng.random(n) < p).tolist())


@dataclass(frozen=True)
class SpannerResult:
    rounded_edges: frozenset
    tree_roots: frozenset
    tree_edges: frozenset
    e_h: frozenset
    feasible: bool


def build_spanner(g, lp_sol, params, force_rounded_edges=None, force_tree_roots=None, table=None):
    """One full randomized construction plus an exact feasibility check.

    The edge and root phases consume separate labeled streams of the master
    seed, so forcing one phase through the override hooks leaves the other
    phase's draws untouched.  Every random choice is per-edge or per-vertex
    independent and shortest-path trees never leave a weak component, so a
    single pass over the whole graph equals running each component alone.

    table, a DistanceTable of g (a fresh one when not given), lets many
    trials on one graph share work: it keeps each root's tree row and every
    dist_G row the check reads.  A trial's tree edges are one OR over its
    roots' rows.
    """
    if lp_sol.status != "optimal":
        raise ValueError(f"need an optimal LP solution, got status {lp_sol.status!r}")

    if force_rounded_edges is not None:
        rounded = frozenset(force_rounded_edges)
    else:
        rounded = round_edges(g, lp_sol.x, params.alpha, _stream(params.seed, EDGE_STREAM))
    if force_tree_roots is not None:
        roots = frozenset(force_tree_roots)
    else:
        roots = sample_tree_roots(g.n, params.alpha, _stream(params.seed, ROOT_STREAM))

    if table is None:
        table = DistanceTable(g)
    rows = table.trees(roots)
    tree_edges = frozenset(np.logical_or.reduce(rows).nonzero()[0].tolist() if rows else ())
    e_h = rounded | tree_edges

    check = is_k_spanner(g, e_h, params.k, table=table)
    return SpannerResult(
        rounded_edges=rounded,
        tree_roots=roots,
        tree_edges=tree_edges,
        e_h=e_h,
        feasible=check.feasible,
    )
