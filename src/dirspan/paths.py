"""Budget-limited path enumeration for demand edges.

Every edge (u, v) of the input graph is a demand: the spanner must connect u to
v within k times their shortest distance.  The demand's path set is the simple
u->v paths whose length stays within that budget; their vertex union is the
demand's covered set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompleteEnumeration, PathExplosion
from .graph import INF, INWARD, _dijkstra, shortest_paths


@dataclass(frozen=True)
class Caps:
    """Size caps of one run; each default is written here and nowhere else."""

    max_paths: int = 100_000  # simple paths enumerated per demand
    max_hops: int | None = None  # None means n - 1, i.e. no real restriction
    max_free_edges: int = 22  # edges the optimum search may branch over
    max_trees: int = 10**6  # rooted trees enumerated per claim context

    def __post_init__(self):
        if self.max_paths < 1:
            raise ValueError(f"max_paths must be at least 1, got {self.max_paths}")
        if self.max_hops is not None and self.max_hops < 1:
            raise ValueError(f"max_hops must be at least 1 when set, got {self.max_hops}")
        if self.max_free_edges < 0:
            raise ValueError(f"max_free_edges must be at least 0, got {self.max_free_edges}")
        if self.max_trees < 1:
            raise ValueError(f"max_trees must be at least 1, got {self.max_trees}")


@dataclass(frozen=True)
class DemandPaths:
    demand: int  # edge index in the host graph
    budget: float
    paths: tuple  # tuple of vertex tuples, DFS discovery order
    covered: frozenset  # union of path vertices
    complete: bool


def stretch_budget(g, k, demand):
    """Length allowance for the demand: k times the exact shortest distance."""
    if k < 1:
        raise ValueError(f"stretch factor must be >= 1, got {k}")
    tail, head, _ = g.edges[demand]
    dm = shortest_paths(g, head, INWARD)
    return k * dm.dist[tail]


def enumerate_demand_paths(g, k, demand, caps=None):
    """All simple within-budget paths for one demand edge.

    Exact float pruning against the remaining inward distance; the prune is
    lossless whenever length sums are exactly representable, which holds for
    the integer lengths every generator in this package emits.  Exceeding
    max_paths raises PathExplosion; a binding max_hops only clears the
    completeness flag.
    """
    if k < 1:
        raise ValueError(f"stretch factor must be >= 1, got {k}")
    caps = caps or Caps()
    max_hops = caps.max_hops if caps.max_hops is not None else g.n - 1
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    src, dst, _ = g.edges[demand]
    to_dst = _dijkstra(g.n, g.in_edges, g.edges, dst, far=0)
    budget = k * to_dst[src]

    paths = []
    hop_capped = False
    path = [src]
    on_path = [False] * g.n
    on_path[src] = True

    def extend(vertex, length, hops):
        nonlocal hop_capped
        for e in g.out_edges[vertex]:
            _, head, elen = g.edges[e]
            if on_path[head]:
                continue
            new_len = length + elen
            if to_dst[head] == INF or new_len + to_dst[head] > budget:
                continue
            if head == dst:
                if len(paths) >= caps.max_paths:
                    raise PathExplosion(
                        f"demand {demand}: more than {caps.max_paths} paths within budget",
                        demand=demand,
                    )
                paths.append(tuple(path) + (dst,))
                continue
            if hops == max_hops - 1:
                # a budget-feasible continuation exists but the hop cap bars it
                hop_capped = True
                continue
            path.append(head)
            on_path[head] = True
            extend(head, new_len, hops + 1)
            path.pop()
            on_path[head] = False

    extend(src, 0.0, 0)
    covered = frozenset(v for p in paths for v in p)
    return DemandPaths(
        demand=demand,
        budget=budget,
        paths=tuple(paths),
        covered=covered,
        complete=not hop_capped,
    )


def covered_vertices(dp):
    """Union of vertices over the demand's paths; refuses capped enumerations."""
    if not dp.complete:
        raise IncompleteEnumeration(
            f"demand {dp.demand}: enumeration was hop-capped, covered set would be partial"
        )
    return frozenset(v for p in dp.paths for v in p)
