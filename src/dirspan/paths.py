"""Budget-limited path enumeration for demand edges.

Every edge (u, v) of the input graph is a demand: the spanner must connect u to
v within k times their shortest distance.  The demand's path set is the simple
u->v paths whose length stays within that budget; their vertex union is the
demand's covered set.  The LP and the exact optimum search both read one
complete path set per demand, so neither may drop a within-budget path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PathExplosion
from .graph import INF, DistanceTable

MAX_PATHS = 100_000  # within-budget simple paths one demand may have


@dataclass(frozen=True)
class DemandPaths:
    demand: int  # edge index in the host graph
    budget: float
    paths: tuple  # tuple of vertex tuples, DFS discovery order
    covered: frozenset  # union of path vertices

    @property
    def mandatory(self):
        """True when the demand edge is its own only within-budget path, so every spanner keeps it."""
        return len(self.paths) == 1 and len(self.paths[0]) == 2


def enumerate_demand_paths(g, k, demand, table=None):
    """All simple within-budget paths for one demand edge.

    Exact float pruning against the remaining inward distance, the head's
    inward row of table (a DistanceTable of g; a fresh one when not given);
    the prune is lossless whenever length sums are exactly representable,
    which holds for the integer lengths every generator in this package
    emits.  Exceeding MAX_PATHS raises PathExplosion.
    """
    if k < 1:
        raise ValueError(f"stretch factor must be >= 1, got {k}")
    if table is None:
        table = DistanceTable(g)
    src, dst, _ = g.edges[demand]
    to_dst = table.inward(dst)
    budget = k * to_dst[src]

    paths = []
    path = [src]
    on_path = [False] * g.n
    on_path[src] = True

    def extend(vertex, length):
        for e in g.out_edges[vertex]:
            _, head, elen = g.edges[e]
            if on_path[head]:
                continue
            new_len = length + elen
            if to_dst[head] == INF or new_len + to_dst[head] > budget:
                continue
            if head == dst:
                if len(paths) >= MAX_PATHS:
                    raise PathExplosion(
                        f"demand {demand}: more than {MAX_PATHS} paths within budget",
                        demand=demand,
                    )
                paths.append(tuple(path) + (dst,))
                continue
            path.append(head)
            on_path[head] = True
            extend(head, new_len)
            path.pop()
            on_path[head] = False

    extend(src, 0.0)
    covered = frozenset(v for p in paths for v in p)
    return DemandPaths(demand=demand, budget=budget, paths=tuple(paths), covered=covered)


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
