"""Directed graphs with finite nonnegative float edge lengths, shortest paths, and trees.

Vertices are integers 0..n-1.  Edges are (tail, head, length) triples addressed
by their position in the edge tuple; that index is the stable identity used by
every other module (LP variables, rounding, cut sets).  All distance arithmetic
is plain float addition with exact comparisons; there is no epsilon anywhere in
this module.  DistanceTable owns every distance of G.
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
# up to this many cells, _all_pairs updates the whole matrix at every step: finding each
# step's finite rows and columns costs more there than the cells it skips
_WHOLE_SWEEP_CELLS = 1 << 13


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


def _edge_slots(g):
    """G's edges as 2m tree-parent slots (near, far, length, ids), in edge index order.

    Slot e walks edge e outward, from its tail to its head; slot m + e walks it
    inward, from head + n to tail + n; ids holds each slot's edge.  near and
    far index a row [outward(r) | inward(r)] of 2n distances.
    """
    tails, heads, lengths = zip(*g.edges)
    tails, heads = np.array(tails, dtype=np.intp), np.array(heads, dtype=np.intp)
    near = np.concatenate((tails, heads + g.n))
    far = np.concatenate((heads, tails + g.n))
    return near, far, np.tile(np.array(lengths, dtype=float), 2), np.arange(2 * g.m) % g.m


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

    Above _WHOLE_SWEEP_CELLS cells, step k writes only the rows with a finite
    d[:, k] crossed with the columns with a finite d[k]: any other cell's
    candidate is INF plus a nonnegative entry, INF, which never lowers it.
    So each cell is lowered by the same candidates, in the same order of k,
    as in the whole update, and the matrix is the same bit for bit.  The
    step updates the whole matrix when that block is over half of it, the
    block alone when under a quarter of the columns are finite, and whole
    finite rows otherwise.  Where few vertices reach k, as on a long path,
    each step is then a thin block instead of n * n cells.
    """
    n = g.n
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)
    if g.m:
        tails, heads, lengths = zip(*g.edges)
        d[tails, heads] = np.add(lengths, 0.0)  # -0.0 + 0.0 is 0.0, as a search's 0.0 + length gives
    whole = n * n <= _WHOLE_SWEEP_CELLS
    for k in range(n):
        if not whole:
            rows = np.flatnonzero(d[:, k] < INF)
            cols = np.flatnonzero(d[k] < INF)
        if whole or 2 * rows.size * cols.size > n * n:
            np.minimum(d, d[:, k, None] + d[k], out=d)
        elif 4 * cols.size < n:
            block = np.ix_(rows, cols)
            d[block] = np.minimum(d[block], d[rows, k, None] + d[k, cols])
        else:
            d[rows] = np.minimum(d[rows], d[rows, k, None] + d[k])
    return d


class DistanceTable:
    """One run's cache of G: its distance rows, shortest-path trees and demand budgets, each computed on first request.

    outward(v) is dist_G(v, w) and inward(v) is dist_G(w, v) over every w;
    trees(roots) gives each root's tree edges.  budgets(k) is the pair the
    spanner check keeps at k: a list over g's edges of each demand's budget
    k * dist_G, None until the check first reads that demand and fills it,
    and a boolean array of whether the demand's own edge fits that budget,
    False until then.  A row is a PausedSearch over every edge of G run to
    the end, except on an exact graph (_exact): there the first inward row,
    or the first trees call, builds _all_pairs's matrix, and every row asked
    for after that is a row or column of it.  Outward rows asked for before
    that stay searched, so a caller that reads only outward rows, as the
    spanner check does, still searches only the tails it needs.  Everything
    is kept once computed, so the path sets, the trees and the spanner
    checks of one run share every row and every budget, and no other code
    computes G's distances; readers never change what they get.  A table
    lives for one run: nothing keeps it or its matrix on the graph.
    """

    __slots__ = ("g", "_every", "_exact", "_pairs", "_out", "_in", "_trees", "_slots", "_budgets")

    def __init__(self, g):
        self.g = g
        self._every = bytearray([1]) * g.m  # the mask of G itself
        self._exact = _exact(g)
        self._pairs = None  # _all_pairs(g), built by _matrix
        self._out = {}
        self._in = {}
        self._trees = {}
        self._slots = None  # _edge_slots(g), built with the first tree
        self._budgets = {}  # k -> (budget list, fits array)

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
            budgets = self._budgets[k] = ([None] * self.g.m, np.zeros(self.g.m, dtype=bool))
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
        picks whenever every tight edge climbs strictly in distance: one
        np.minimum.at per block scatters each tight slot's edge index onto the
        cell of the vertex it reaches, in a row of 2n cells per root (outward
        then inward) filled with m.  A root and direction with a tight edge
        between two equal distances (a zero length, or a positive one absorbed
        by rounding) resets its half of the row and goes through
        _select_parents itself.  A tight edge into the root is such an edge,
        since it needs dist 0 at its near end, so the root's own cell needs no
        mask.
        """
        g = self.g
        new = sorted(set(roots) - self._trees.keys())
        if not new:
            return [self._trees[r] for r in roots]
        for r in new:
            _check_vertex(g, r, "root")
        # column m collects the vertices without a tight edge and is dropped at the end
        member = np.zeros((len(new), g.m + 1), dtype=bool)
        if g.m:
            if self._slots is None:
                self._slots = _edge_slots(g)
            near, far, length, ids = self._slots
            pairs = self._matrix()
            step = max(1, _BLOCK_CELLS // (2 * max(g.n, g.m)))
            # each slot's cell in a block's flattened chosen, row by row
            cells = np.arange(min(step, len(new)))[:, None] * (2 * g.n) + far
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
                    chosen = np.full((len(block), 2 * g.n), g.m)
                    np.minimum.at(chosen.ravel(), cells[: len(block)].ravel(), np.where(tight, ids, g.m).ravel())
                    ties = tight & (d_near == d_far)
                    if ties.any():
                        for i, inward in zip(*ties.reshape(len(block), 2, g.m).any(axis=2).nonzero()):
                            chosen[i, g.n * inward : g.n * (inward + 1)] = g.m
                            r = block[i]
                            parents = _select_parents(g, r, self.inward(r) if inward else self.outward(r), not inward)
                            member[lo + i, [e for e in parents if e is not None]] = True
                    member[np.arange(lo, lo + len(block))[:, None], chosen] = True
        self._trees.update(zip(new, member[:, : g.m]))
        return [self._trees[r] for r in roots]


def shortest_path_tree(g, root):
    """The root's outward and inward tree edges as one set: its row of a fresh DistanceTable's trees.

    No runtime path calls it, since a run reads its own table's trees.  It
    stays public because the benchmark's tracer binds it by name
    (benchmarks/tracer.py).
    """
    return frozenset(DistanceTable(g).trees((root,))[0].nonzero()[0].tolist())

