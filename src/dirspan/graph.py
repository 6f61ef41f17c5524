"""Directed graphs with finite nonnegative float edge lengths, shortest paths, and trees.

Vertices are integers 0..n-1.  Edges are (tail, head, length) triples addressed
by their position in the edge tuple; that index is the stable identity used by
every other module (LP variables, rounding, cut sets).  All distance arithmetic
is plain float addition with exact comparisons; there is no epsilon anywhere in
this module.  G's distances come from PausedSearch, except on an exact graph
(integer lengths summing below 2**53), where every sum is exact in any order
and one Floyd-Warshall sweep in numpy gives the same rows bit for bit.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

import numpy as np

from .errors import DuplicateEdge, IndexOutOfRange, NegativeLength, SelfLoop

INF = math.inf
# cells of one float temporary in a block of DistanceTable.trees roots (128 KB)
_BLOCK_CELLS = 1 << 14
# integers below this are exact floats, and so is every sum of them that stays below it
_EXACT_BELOW = 2.0**53


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

    def unit_lengths(self):
        return all(length == 1.0 for _, _, length in self.edges)

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


def _check_vertex(g, v, what):
    if not (0 <= v < g.n):
        raise IndexOutOfRange(f"{what} {v} outside 0..{g.n - 1}")


def edge_mask(g, edges):
    """A bytearray over g's edges, 1 at each index in edges.

    Raises IndexOutOfRange for an index outside 0..m-1, which a bytearray
    would otherwise read from its end (-1) or reject with a bare IndexError.
    """
    m = g.m
    mask = bytearray(m)
    for e in edges:
        if not 0 <= e < m:
            raise IndexOutOfRange(f"edge index {e} outside 0..{m - 1}")
        mask[e] = 1
    return mask


class PausedSearch:
    """Dijkstra from source over the edges of g that mask marks, run only as far as each query needs.

    Outward it walks out_edges to their heads, giving dist(source, w);
    inward it walks in_edges to their tails, giving dist(w, source).  dist
    and heap persist between queries, so each reach resumes where the last
    one paused.  Edges are walked in ascending index order and each push
    strictly lowers its vertex's entry, so the pops are always a prefix of a
    full run's pop order.  DistanceTable runs it over an all-ones mask to
    the end for G's rows.  Raises IndexOutOfRange for a source outside
    0..n-1.
    """

    __slots__ = ("edges", "adj", "far", "mask", "dist", "heap")

    def __init__(self, g, mask, source, inward=False):
        _check_vertex(g, source, "source")
        self.edges = g.edges
        self.adj, self.far = (g.in_edges, 0) if inward else (g.out_edges, 1)
        self.mask = mask
        self.dist = [INF] * g.n
        self.dist[source] = 0.0
        self.heap = [(0.0, source)]

    def reach(self, target, bound):
        """The source's distance to target once it is at most bound or exact.

        Pops until target's tentative distance is <= bound or the heap is
        empty.  A tentative distance is the float sum of a real path and
        only falls, so a result <= bound is >= the exact distance, which is
        <= bound too; any other result is the exact distance, INF when
        target is unreachable.  A bound of -1 runs the search to the end.
        """
        dist, heap = self.dist, self.heap
        edges, adj, far, mask = self.edges, self.adj, self.far, self.mask
        while heap and not dist[target] <= bound:
            d, v = heappop(heap)
            if d > dist[v]:
                continue  # a stale entry: v was pushed again with a lower distance
            for e in adj[v]:
                if mask[e]:
                    edge = edges[e]
                    w = edge[far]
                    nd = d + edge[2]
                    if nd < dist[w]:
                        dist[w] = nd
                        heappush(heap, (nd, w))
        return dist[target]


def _select_parents(g, source, dist, outward):
    """Pick one tight edge per reachable vertex, toward the source's side.

    Outward, w's parent is an edge entering w from an attached tail; inward,
    an edge leaving w toward an attached head.  Rule: lowest tight edge index
    whose near end is already attached, scanning vertices in (distance, index)
    order.  When every tight edge climbs strictly in distance, one pass
    attaches everything and the rule reduces to plain lowest-tight-index; the
    attachment condition only matters for tight edges between equal distances
    (a zero length, or a positive one absorbed by rounding, as in
    1e300 + 1.0 == 1e300), where it keeps the parent pointers acyclic.
    """
    adj, near = (g.in_edges, 0) if outward else (g.out_edges, 1)
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


def _edge_groups(g):
    """G's edges grouped by the vertex a tree parent edge reaches.

    Returns (near, far, length, ids, starts, split) over 2m slots: the m
    outward slots, each edge grouped under its head, then the m inward ones,
    each under its tail.  Groups run in ascending vertex order with ascending
    edge index inside; starts holds the first slot of each non-empty group
    and split the number of outward groups.  near and far index a row
    [outward(r) | inward(r)] of 2n distances.
    """
    near, far, length, ids, starts = [], [], [], [], []
    for shift, adj, near_end in ((0, g.in_edges, 0), (g.n, g.out_edges, 1)):
        for w, lst in enumerate(adj):
            if lst:
                starts.append(len(ids))
            for e in lst:
                edge = g.edges[e]
                near.append(edge[near_end] + shift)
                far.append(w + shift)
                length.append(edge[2])
                ids.append(e)
    return (
        np.array(near, dtype=np.intp),
        np.array(far, dtype=np.intp),
        np.array(length, dtype=float),
        np.array(ids, dtype=np.intp),
        np.array(starts, dtype=np.intp),
        sum(1 for lst in g.in_edges if lst),
    )


def _exact(g):
    """Whether every length is an integer and their sum is below 2**53.

    Every path then sums to an integer below 2**53, exact whatever the order
    of its additions.  The float sum is a true test: adding nonnegative
    floats rounds monotonically, so it reaches 2**53 whenever the exact sum
    does.
    """
    lengths = [length for _, _, length in g.edges]
    return all(length.is_integer() for length in lengths) and sum(lengths) < _EXACT_BELOW


def _all_pairs(g):
    """G's n x n distance matrix by Floyd-Warshall: row v is outward(v), column v is inward(v).

    For an exact graph only.  Each entry stays a shortest distance through
    the intermediates swept so far, an exact integer below 2**53.  A
    candidate sum at or above 2**53 may round, but it loses to the entry it
    is compared with: when the two halves share no vertex but k, they form a
    simple path, which is shorter than 2**53; when they share one, the entry
    already holds a path no longer than the candidate.  So the matrix equals
    PausedSearch's rows bit for bit.
    """
    n = g.n
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)
    if g.m:
        tails, heads, lengths = zip(*g.edges)
        d[tails, heads] = np.add(lengths, 0.0)  # -0.0 + 0.0 is 0.0, as a search's 0.0 + length gives
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[k], out=d)
    return d


class DemandBudgets:
    """Each demand's dist_G, its budget k * dist_G and whether its own edge fits that budget, at one k.

    dist and budget are lists over g's edges, None until filled, and fits is
    a boolean array, False until filled.  fill(tail) fills every demand of
    one tail from the table's outward row, so a row is read only when some
    demand of its tail is first needed.
    """

    __slots__ = ("table", "k", "dist", "budget", "fits")

    def __init__(self, table, k):
        self.table = table
        self.k = k
        self.dist = [None] * table.g.m
        self.budget = [None] * table.g.m
        self.fits = np.zeros(table.g.m, dtype=bool)

    def fill(self, tail):
        g = self.table.g
        row = self.table.outward(tail)
        for e in g.out_edges[tail]:
            _, head, length = g.edges[e]
            dist = self.dist[e] = row[head]
            budget = self.budget[e] = self.k * dist
            self.fits[e] = length <= budget


class DistanceTable:
    """One run's cache of G: its distance rows, shortest-path trees and demand budgets, each computed on first request.

    outward(v) is dist_G(v, w) and inward(v) is dist_G(w, v) over every w;
    trees(roots) gives each root's tree edges and budgets(k) the demands'
    budgets at k.  A row is a PausedSearch over every edge of G run to the
    end, except on an exact graph (_exact): there the first inward row, or
    the first trees call, builds _all_pairs's matrix, and every row asked
    for after that is a row or column of it.  Outward rows asked for before
    that stay searched, so a caller that reads only outward rows, as the
    spanner check does, still searches only the tails it needs.  Everything
    is kept once computed, so the path sets, the trees and the spanner
    checks of one run share every row and every budget, and no other code
    computes G's distances; readers never change what they get.  A table
    lives for one run: nothing keeps it or its matrix on the graph.
    """

    __slots__ = ("g", "_every", "_exact", "_pairs", "_out", "_in", "_trees", "_groups", "_budgets")

    def __init__(self, g):
        self.g = g
        self._every = bytearray([1]) * g.m  # the mask of G itself
        self._exact = _exact(g)
        self._pairs = None  # _all_pairs(g), built by _matrix
        self._out = {}
        self._in = {}
        self._trees = {}
        self._groups = None  # _edge_groups(g), built with the first tree
        self._budgets = {}  # k -> DemandBudgets

    def outward(self, source):
        row = self._out.get(source)
        if row is None:
            row = self._out[source] = self._row(source, False)
        return row

    def inward(self, target):
        row = self._in.get(target)
        if row is None:
            row = self._in[target] = self._row(target, True)
        return row

    def _matrix(self):
        """The all-pairs matrix, built on the first call on an exact graph; None on any other."""
        if self._pairs is None and self._exact:
            self._pairs = _all_pairs(self.g)
        return self._pairs

    def _row(self, v, inward):
        pairs = self._matrix() if inward else self._pairs  # an outward row never builds the matrix
        if pairs is not None:
            _check_vertex(self.g, v, "source")  # numpy would read -1 as the last vertex
            return (pairs[:, v] if inward else pairs[v]).tolist()
        search = PausedSearch(self.g, self._every, v, inward)
        search.reach(v, -1)  # 0 <= -1 never holds, so the search runs until its heap is empty
        return search.dist

    def budgets(self, k):
        budgets = self._budgets.get(k)
        if budgets is None:
            budgets = self._budgets[k] = DemandBudgets(self, k)
        return budgets

    def trees(self, roots):
        """Each root's tree edges, a boolean row over g's edges, in the order given.

        A root's row marks the edges of its outward and inward shortest-path
        trees: the outward tree reaches every vertex the root reaches and the
        inward tree every vertex that reaches the root, and each tree path
        realizes the exact shortest distance in its direction.  Every row is
        kept and handed out again as the same array, so a call over kept
        roots only looks them up.  The roots not kept yet are built together,
        in blocks of _BLOCK_CELLS cells per temporary, so memory stays flat
        however many roots are asked for.

        A vertex's parent is its lowest-index tight edge, the edge _select_parents
        picks whenever every tight edge climbs strictly in distance.  A root and
        direction with a tight edge between two equal distances (a zero length,
        or a positive one absorbed by rounding) goes through _select_parents
        itself.  A tight edge into the root is such an edge, since it needs
        dist 0 at its near end, so the root's own group needs no mask.
        """
        g = self.g
        new = sorted(set(roots) - self._trees.keys())
        if not new:
            return [self._trees[r] for r in roots]
        for r in new:
            _check_vertex(g, r, "root")
        # column m collects the groups without a tight edge and is dropped at the end
        member = np.zeros((len(new), g.m + 1), dtype=bool)
        if g.m:
            if self._groups is None:
                self._groups = _edge_groups(g)
            near, far, length, ids, starts, split = self._groups
            pairs = self._matrix()
            step = max(1, _BLOCK_CELLS // (2 * max(g.n, g.m)))
            with np.errstate(over="ignore"):  # 1e308 + 1e308 is inf, which is never tight
                for lo in range(0, len(new), step):
                    block = new[lo : lo + step]
                    if pairs is None:
                        dist = np.array([self.outward(r) + self.inward(r) for r in block], dtype=float)
                    else:
                        dist = np.hstack((pairs[block], pairs[:, block].T))
                    dist[dist == INF] = np.nan  # nan is never tight, at either end
                    d_near = dist[:, near]
                    d_far = dist[:, far]
                    tight = d_near + length == d_far
                    chosen = np.minimum.reduceat(np.where(tight, ids, g.m), starts, axis=1)
                    ties = tight & (d_near == d_far)
                    if ties.any():
                        for i, inward in zip(*ties.reshape(len(block), 2, g.m).any(axis=2).nonzero()):
                            chosen[i, slice(split, None) if inward else slice(split)] = g.m
                            r = block[i]
                            parents = _select_parents(g, r, self.inward(r) if inward else self.outward(r), not inward)
                            member[lo + i, [e for e in parents if e is not None]] = True
                    member[np.arange(lo, lo + len(block))[:, None], chosen] = True
        self._trees.update(zip(new, member[:, : g.m]))
        return [self._trees[r] for r in roots]


def shortest_path_tree(g, root, table=None):
    """The root's outward and inward tree edges as one set: its row of table.trees.

    table is a DistanceTable of g; without one a fresh table builds the row.
    """
    return frozenset((table or DistanceTable(g)).trees((root,))[0].nonzero()[0].tolist())

