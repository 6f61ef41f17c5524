"""Exact spanner checking (is_k_spanner) and the exact minimum spanner search (brute_force_opt)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, TooLarge
from .graph import DistanceTable, PausedSearch, edge_mask
from .paths import demand_path_sets

MAX_FREE_EDGES = 22  # edges the optimum search may branch over


@dataclass(frozen=True)
class SpannerCheck:
    feasible: bool
    violation: tuple | None  # (demand edge index, dist_g, dist_h)


def demand_distance_rows(g):
    """dist_G rows for every demand tail: the outward rows of a fresh DistanceTable of g.

    No runtime path calls it, since is_k_spanner reads each row through the
    run's table on first need.  It stays public because the benchmark's
    tracer binds it by name (benchmarks/tracer.py).
    """
    table = DistanceTable(g)
    return {s: table.outward(s) for s in sorted({tail for tail, _, _ in g.edges})}


def is_k_spanner(g, h_edges, k, table=None):
    """Exact per-demand stretch check; returns the lowest-index violation if any.

    H is a k-spanner when dist_H(u, v) <= k * dist_G(u, v) for every pair;
    checking only the demands (the edges of G) is equivalent, because
    shortest paths of G decompose into edges.  h_edges is H as edge indices
    or as a boolean mask over g's edges.  H = E at k >= 1 returns feasible
    without a search, since dist_H = dist_G <= k * dist_G.  Otherwise the
    check scans, in index order, only the demands not known to fit: a demand
    whose own edge is in H with length <= k * dist_G needs no search, since
    the first relaxation from its tail sets dist_H[head] <= 0.0 + length
    exactly.  Each other demand resumes its tail's PausedSearch over H,
    started on first need, only until the head is within budget; on a
    violation the search has run to the end, so dist_h is the exact H
    distance.  The budget and the fit are kept in table.budgets(k) (table a
    DistanceTable of g; a fresh one when not given), which a run's checks
    share: the first check to read a demand fills them from its tail's
    outward row of the table, which also gives a violation's dist_g, so the
    check searches G through the run's table alone.  Raises IndexOutOfRange
    for an H index outside 0..m-1 or a mask whose length is not m.
    """
    if isinstance(h_edges, np.ndarray) and h_edges.dtype == bool:
        if h_edges.shape != (g.m,):
            raise IndexOutOfRange(f"H mask of shape {h_edges.shape} is not one entry per edge of {g.m}")
        h, h_bytes = h_edges, h_edges.tobytes()
    else:
        h_bytes = edge_mask(g, h_edges)
        h = np.frombuffer(h_bytes, dtype=bool)
    if k >= 1 and 0 not in h_bytes:
        return SpannerCheck(feasible=True, violation=None)
    if table is None:
        table = DistanceTable(g)
    budget, fits = table.budgets(k)
    searches = {}
    for d in (~(h & fits)).nonzero()[0].tolist():
        tail, head, length = g.edges[d]
        allowed = budget[d]
        if allowed is None:  # no check at this k has read this demand yet
            allowed = budget[d] = k * table.outward(tail)[head]
            fits[d] = length <= allowed
        if h_bytes[d] and length <= allowed:  # filled after the filter was taken
            continue
        search = searches.get(tail)
        if search is None:
            search = searches[tail] = PausedSearch(g, h_bytes, tail)
        got = search.reach(head, allowed)
        if not got <= allowed:
            return SpannerCheck(feasible=False, violation=(d, table.outward(tail)[head], got))
    return SpannerCheck(feasible=True, violation=None)


@dataclass(frozen=True)
class OptResult:
    opt: int
    witness: frozenset  # edge indices of one minimum spanner


def brute_force_opt(g, k):
    """Exact minimum k-spanner size by branch and bound over free edges.

    Each within-budget path is a bitmask of its edge indices.  An edge is
    forced when its demand admits no other within-budget path.
    The remaining free edges are branched include-first, most-used first by
    the count of within-budget paths through them; pruning uses monotone
    infeasibility of the still-available edge set plus a disjoint-demand
    lower bound.
    Raises TooLarge when more than MAX_FREE_EDGES edges stay free.
    """
    m = g.m
    demand_masks = []
    forced = 0
    for dp in demand_path_sets(g, k):
        masks = []
        for p in dp.paths:
            pm = 0
            for e in p:
                pm |= 1 << e
            masks.append(pm)
        if dp.mandatory:
            forced |= 1 << dp.demand
        demand_masks.append(tuple(sorted(masks, key=lambda pm: (bin(pm).count("1"), pm))))

    free = [e for e in range(m) if not (forced >> e) & 1]
    if len(free) > MAX_FREE_EDGES:
        raise TooLarge(f"{len(free)} free edges exceed the cap of {MAX_FREE_EDGES}")
    counts = [sum(1 for masks in demand_masks for pm in masks if (pm >> e) & 1) for e in range(m)]
    free.sort(key=lambda e: (-counts[e], e))

    def satisfied(d, mask):
        for pm in demand_masks[d]:
            if pm & mask == pm:
                return True
        return False

    full = (1 << m) - 1

    # greedy initial upper bound: cover unmet demands by their smallest path
    greedy = forced
    for d in range(m):
        if not satisfied(d, greedy):
            greedy |= demand_masks[d][0]
    best_mask = greedy
    best = bin(greedy).count("1")

    def lower_extra(chosen, avail):
        """Count demands whose remaining options use pairwise disjoint new edges."""
        footprints = []
        for d in range(m):
            if satisfied(d, chosen):
                continue
            fp = 0
            for pm in demand_masks[d]:
                if pm & avail == pm:
                    fp |= pm & ~chosen
            if fp == 0:
                return None  # some demand can no longer be met
            footprints.append(fp)
        footprints.sort(key=lambda fp: bin(fp).count("1"))
        used = 0
        count = 0
        for fp in footprints:
            if fp & used == 0:
                count += 1
                used |= fp
        return count

    def rec(idx, chosen, avail):
        nonlocal best, best_mask
        size = bin(chosen).count("1")
        extra = lower_extra(chosen, avail)
        if extra is None or size + extra >= best:
            return
        if extra == 0:
            best = size
            best_mask = chosen
            return
        if idx == len(free):
            return
        e = free[idx]
        bit = 1 << e
        if avail & bit:
            rec(idx + 1, chosen | bit, avail)
            rec(idx + 1, chosen, avail & ~bit)
        else:
            rec(idx + 1, chosen, avail)

    rec(0, forced, full)
    witness = frozenset(e for e in range(m) if (best_mask >> e) & 1)
    return OptResult(opt=best, witness=witness)
