"""Budget-limited path enumeration for demand edges.

Every edge (u, v) of the input graph is a demand: the spanner must connect u to
v within k times their shortest distance.  The demand's path set is the simple
u->v paths whose length stays within that budget, each a tuple of edge
indices.  The LP and the exact optimum search both read one complete path
set per demand, so neither may drop a within-budget path; the claims derive
each demand's covered vertices, those its paths visit, from the same set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, PathExplosion
from .graph import INF, DistanceTable

MAX_PATHS = 100_000  # within-budget simple paths one demand may have


@dataclass(frozen=True)
class DemandPaths:
    """One demand's complete path set; run_claims derives the demand's covered vertices from paths."""

    demand: int  # edge index in the host graph
    paths: tuple  # tuple of edge-index tuples, tail to head, DFS discovery order

    @property
    def mandatory(self):
        """True when the demand edge is its own only within-budget path, so every spanner keeps it."""
        return self.paths == ((self.demand,),)


def enumerate_demand_paths(g, k, demand, table):
    """All simple within-budget paths for one demand edge, each a tuple of edge indices.

    A depth-first search on an explicit stack, so a path may be as long as
    the graph; each vertex's out-edges are tried in ascending index order.
    Exact float pruning against the remaining inward distance, the head's
    inward row of table, a DistanceTable of g;
    the prune is lossless whenever length sums are exactly representable,
    which holds for the integer lengths every generator in this package
    emits.  Exceeding MAX_PATHS raises PathExplosion, and a demand outside
    0..m-1 raises IndexOutOfRange.
    """
    if not 0 <= demand < g.m:
        raise IndexOutOfRange(f"demand {demand} outside 0..{g.m - 1}")
    src, dst, _ = g.edges[demand]
    to_dst = table.inward(dst)
    budget = k * to_dst[src]

    paths = []
    path = []  # edges from src to the vertex on top of the stack
    on_path = [False] * g.n
    on_path[src] = True
    stack = [(iter(g.out_edges[src]), 0.0)]  # per path vertex: its untried out-edges, its path length
    while stack:
        untried, length = stack[-1]
        for e in untried:
            _, head, elen = g.edges[e]
            if on_path[head]:
                continue
            new_len = length + elen
            if to_dst[head] == INF or new_len + to_dst[head] > budget:
                continue
            if head == dst:
                if len(paths) >= MAX_PATHS:
                    raise PathExplosion(f"demand {demand}: more than {MAX_PATHS} paths within budget")
                paths.append(tuple(path) + (e,))
                continue
            path.append(e)
            on_path[head] = True
            stack.append((iter(g.out_edges[head]), new_len))
            break
        else:
            stack.pop()
            if path:
                on_path[g.edges[path.pop()][1]] = False
    return DemandPaths(demand=demand, paths=tuple(paths))


def demand_path_sets(g, k, table=None):
    """The complete path set of every demand edge of g, indexed by demand.

    Every demand into the same head reads one inward row of table, a
    DistanceTable of g (a fresh one when not given).  Raises AssertionError
    when a demand has no path: its shortest path fits the budget in exact
    arithmetic, so an empty set means float rounding in the prune dropped it.
    """
    if table is None:
        table = DistanceTable(g)
    out = []
    for d in range(g.m):
        dp = enumerate_demand_paths(g, k, d, table)
        if not dp.paths:
            raise AssertionError(f"demand {d} has no path within budget; shortest path must qualify")
        out.append(dp)
    return tuple(out)
