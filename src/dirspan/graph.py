"""Directed graphs with finite nonnegative float edge lengths, shortest paths, and trees.

Vertices are integers 0..n-1.  Edges are (tail, head, length) triples addressed
by their position in the edge tuple; that index is the stable identity used by
every other module (LP variables, rounding, cut sets).  All distance arithmetic
is plain float addition with exact comparisons; there is no epsilon anywhere in
this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import DuplicateEdge, IndexOutOfRange, NegativeLength, SelfLoop

INF = math.inf

OUTWARD = "outward"
INWARD = "inward"


class DiGraph:
    """Immutable directed graph. Construct through build_graph or the ops below."""

    __slots__ = ("n", "edges", "out_edges", "in_edges", "edge_index")

    def __init__(self, n, edges):
        if n < 0:
            raise IndexOutOfRange(f"vertex count must be nonnegative, got {n}")
        norm = []
        seen = {}
        for i, (tail, head, length) in enumerate(edges):
            if not (0 <= tail < n and 0 <= head < n):
                raise IndexOutOfRange(f"edge {i}: endpoints ({tail}, {head}) outside 0..{n - 1}")
            if tail == head:
                raise SelfLoop(f"edge {i}: self loop at vertex {tail}")
            length = float(length)
            if not 0 <= length < INF:
                raise NegativeLength(f"edge {i}: length {length} is not a finite nonnegative number")
            if (tail, head) in seen:
                raise DuplicateEdge(f"edge {i}: duplicate of edge {seen[(tail, head)]} ({tail} -> {head})")
            seen[(tail, head)] = i
            norm.append((tail, head, length))
        self.n = n
        self.edges = tuple(norm)
        out = [[] for _ in range(n)]
        inn = [[] for _ in range(n)]
        for i, (tail, head, _) in enumerate(norm):
            out[tail].append(i)
            inn[head].append(i)
        # adjacency lists stay in ascending edge-index order by construction
        self.out_edges = tuple(tuple(lst) for lst in out)
        self.in_edges = tuple(tuple(lst) for lst in inn)
        self.edge_index = seen

    @property
    def m(self):
        return len(self.edges)

    def length(self, e):
        return self.edges[e][2]

    def endpoints(self, e):
        tail, head, _ = self.edges[e]
        return tail, head

    def unit_lengths(self):
        return all(length == 1.0 for _, _, length in self.edges)

    def __eq__(self, other):
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"DiGraph(n={self.n}, m={self.m})"


def build_graph(n, edge_list):
    """Validate and freeze an edge list into a DiGraph."""
    return DiGraph(n, edge_list)


def reverse_graph(g):
    """Reversed copy; edge i of the result is edge i of g with endpoints swapped.

    No runtime path builds one: inward searches walk in_edges directly.  It
    stays public as the reference those searches are tested against.
    """
    return DiGraph(g.n, tuple((head, tail, length) for tail, head, length in g.edges))


@dataclass(frozen=True)
class DistanceMap:
    """Single-source distances. For direction=inward, dist[w] is the w->source distance."""

    source: int
    direction: str
    dist: tuple
    parent_edge: tuple


@dataclass(frozen=True)
class SpTree:
    root: int
    direction: str
    tree_edges: frozenset


def _check_vertex(g, v, what):
    if not (0 <= v < g.n):
        raise IndexOutOfRange(f"{what} {v} outside 0..{g.n - 1}")


def _dijkstra(n, adj, edges, source, far=1):
    """Textbook heap Dijkstra; returns the distance list.

    adj[v] lists the edges leaving v in the walk's direction and far picks
    the endpoint each one reaches: 1 (head) walks out_edges forward, 0 (tail)
    walks in_edges backward.
    """
    dist = [INF] * n
    dist[source] = 0.0
    done = [False] * n
    heap = [(0.0, source)]
    while heap:
        d, v = heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for e in adj[v]:
            edge = edges[e]
            w = edge[far]
            nd = d + edge[2]
            if nd < dist[w]:
                dist[w] = nd
                heappush(heap, (nd, w))
    return dist


def _select_parents(g, source, dist, direction):
    """Pick one tight edge per reachable vertex, toward the source's side.

    Outward, w's parent is an edge entering w from an attached tail; inward,
    an edge leaving w toward an attached head.  Rule: lowest tight edge index
    whose near end is already attached, scanning vertices in (distance, index)
    order.  With positive lengths one pass attaches everything and the rule
    reduces to plain lowest-tight-index; the attachment condition only matters
    for zero-length ties, where it keeps the parent pointers acyclic.
    """
    adj, near = (g.in_edges, 0) if direction == OUTWARD else (g.out_edges, 1)
    parent = [None] * g.n
    attached = [False] * g.n
    attached[source] = True
    pending = sorted(
        (w for w in range(g.n) if w != source and dist[w] < INF),
        key=lambda w: (dist[w], w),
    )
    while pending:
        remaining = []
        for w in pending:
            chosen = None
            for e in adj[w]:
                edge = g.edges[e]
                u = edge[near]
                if attached[u] and dist[u] + edge[2] == dist[w]:
                    chosen = e
                    break  # adjacency is ascending, so the first hit is the lowest index
            if chosen is None:
                remaining.append(w)
            else:
                parent[w] = chosen
                attached[w] = True
        if len(remaining) == len(pending):
            # every reachable vertex has a fully tight shortest path, so a
            # fixpoint with unattached reachable vertices cannot occur
            raise AssertionError("parent selection stalled")
        pending = remaining
    return parent


def shortest_paths(g, source, direction=OUTWARD):
    """Dijkstra from source. direction=inward walks the edges backward, so
    dist[w] is the w->source distance and parent_edge[w] the first edge of a
    shortest w->source path."""
    _check_vertex(g, source, "source")
    if direction == OUTWARD:
        dist = _dijkstra(g.n, g.out_edges, g.edges, source)
    elif direction == INWARD:
        dist = _dijkstra(g.n, g.in_edges, g.edges, source, far=0)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    parent = _select_parents(g, source, dist, direction)
    return DistanceMap(source=source, direction=direction, dist=tuple(dist), parent_edge=tuple(parent))


def shortest_path_tree(g, root, direction=OUTWARD):
    """Shortest-path tree reaching every vertex connected to the root in the
    given direction; tree paths realize exact shortest distances."""
    dm = shortest_paths(g, root, direction)
    return SpTree(
        root=root,
        direction=direction,
        tree_edges=frozenset(e for e in dm.parent_edge if e is not None),
    )


@dataclass(frozen=True)
class InducedSubgraph:
    """Subgraph on a vertex subset plus maps back to the original indices."""

    graph: DiGraph
    vertices: tuple  # new vertex id -> original vertex id
    edge_map: tuple  # new edge id -> original edge id


def induced_subgraph(g, vs):
    vs = sorted(set(vs))
    for v in vs:
        _check_vertex(g, v, "vertex")
    new_id = {v: i for i, v in enumerate(vs)}
    sub_edges = []
    edge_map = []
    for i, (tail, head, length) in enumerate(g.edges):
        if tail in new_id and head in new_id:
            sub_edges.append((new_id[tail], new_id[head], length))
            edge_map.append(i)
    return InducedSubgraph(
        graph=DiGraph(len(vs), sub_edges),
        vertices=tuple(vs),
        edge_map=tuple(edge_map),
    )
