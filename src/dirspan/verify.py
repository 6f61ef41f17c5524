"""Exact spanner checking and brute-force optimum search.

A subgraph H of G is a k-spanner when dist_H(u, v) <= k * dist_G(u, v) for
every pair; checking only the demand pairs (the edges of G) is equivalent,
because shortest paths of G decompose into edges.  The check searches H
only from the tails that some demand needs, up to the first violation.  The
optimum search fixes the edges no alternative route can replace, then
branches over the rest with bitmask path covers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooLarge
from .graph import DistanceTable, _dijkstra
from .paths import demand_path_sets

MAX_FREE_EDGES = 22  # edges the optimum search may branch over


@dataclass(frozen=True)
class SpannerCheck:
    feasible: bool
    violation: tuple | None  # (demand edge index, dist_g, dist_h)


def _subset_out_edges(g, h_edges):
    out = [[] for _ in range(g.n)]
    for e in sorted(h_edges):
        tail = g.edges[e][0]
        out[tail].append(e)
    return out


def demand_distance_rows(g, table=None):
    """dist_G rows for every demand tail: table's outward rows (a fresh DistanceTable of g when not given).

    No runtime path calls it, since is_k_spanner reads each row from its
    table on first need.  It stays public because the benchmark's tracer
    binds it by name (benchmarks/tracer.py); tests use it to fill a table.
    """
    if table is None:
        table = DistanceTable(g)
    return {s: table.outward(s) for s in sorted({tail for tail, _, _ in g.edges})}


def is_k_spanner(g, h_edges, k, table=None):
    """Exact per-demand stretch check; returns the lowest-index violation if any.

    Demands are scanned in index order.  One whose own edge is in H with
    length <= k * dist_G needs no search, since the first relaxation from its
    tail sets dist_H[head] <= 0.0 + length exactly; any other reads its tail's
    full H row, computed on first need.  dist_G comes only from table's
    outward rows (a DistanceTable of g; a fresh one when not given), so the
    check searches G through the run's table alone.  H = E reads its rows
    from the table too; any other H is searched here.
    """
    h = frozenset(h_edges)
    if table is None:
        table = DistanceTable(g)
    h_out = None if h == frozenset(range(g.m)) else _subset_out_edges(g, h)
    h_rows = {}
    for d, (tail, head, length) in enumerate(g.edges):
        dist_g = table.outward(tail)[head]
        allowed = k * dist_g
        if d in h and length <= allowed:
            continue
        if tail not in h_rows:
            h_rows[tail] = table.outward(tail) if h_out is None else _dijkstra(g.n, h_out, g.edges, tail)
        got = h_rows[tail][head]
        if not got <= allowed:
            return SpannerCheck(feasible=False, violation=(d, dist_g, got))
    return SpannerCheck(feasible=True, violation=None)


@dataclass(frozen=True)
class OptResult:
    opt: int
    witness: frozenset  # edge indices of one minimum spanner


def brute_force_opt(g, k):
    """Exact minimum k-spanner size by branch and bound over free edges.

    An edge is forced when its demand admits no other within-budget path.
    The remaining free edges are branched include-first, most-used first by
    the count of within-budget paths through them; pruning uses monotone
    infeasibility of the still-available edge set plus a disjoint-demand
    lower bound.
    Raises TooLarge when more than MAX_FREE_EDGES edges stay free.
    """
    m = g.m
    if m == 0:
        return OptResult(opt=0, witness=frozenset())

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
