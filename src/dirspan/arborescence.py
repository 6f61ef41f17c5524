"""Rooted out-tree enumeration and the cut-based path-existence checks.

For a rooted out-tree T, every vertex w on the tree gets the potential
L_T(w) = tree distance from the root, and every vertex off the tree gets
infinity.  The cut set of T collects the edges (w1, w2) with
L_T(w2) > L_T(w1) + length(w1, w2); under the infinity convention this
includes every edge leaving the tree's vertex set.  The checks below rest on
two facts about a subgraph H of the host graph:

* every u->v path in H of length at most K meets the cut set of every
  rooted-at-u out-tree whose tree distance to v exceeds K, and
* the shortest-path tree of H rooted at u has a cut set disjoint from H.

Together they make path existence within K equivalent to "every out-tree
with tree distance to v beyond K is cut by H", quantified over all rooted
out-trees, spanning or not.  Restricting the quantifier to spanning
arborescences breaks the equivalence (a graph whose spanning arborescences
are all short says nothing about H), so ClaimContext grows every rooted
out-tree of the host graph, each exactly once.
"""

from __future__ import annotations

from .errors import ExplosionCap
from .graph import INF, _dijkstra
from .verify import _subset_out_edges

MAX_TREES = 10**6  # rooted out-trees one ClaimContext may grow


def _grow(g, on_tree, pot, mask, frontier, start, leaf):
    """Decide frontier[start:] in order, calling leaf(pot, mask) once per finished tree.

    The frontier lists the edges leaving the tree in discovery order.  An edge
    whose head is already on the tree is passed over; any other edge is either
    taken (its head joins, its out-edges join the frontier, and the rest is
    decided recursively) or skipped for good, which is the loop moving on.
    Every rooted out-tree comes from exactly one sequence of decisions, and the
    recursion is only as deep as the tree is large.

    mask is the cut set of the current tree as a bit per edge.  Only the
    potential of the joining vertex changes, so only its out- and in-edges
    can change cut status: each of those is re-tested, and its bit set or
    cleared, in the child's copy of the mask.
    """
    edges = g.edges
    for i in range(start, len(frontier)):
        tail, head, length = edges[frontier[i]]
        if on_tree[head]:
            continue
        on_tree[head] = True
        pot[head] = pot[tail] + length
        child = mask
        for e in g.out_edges[head] + g.in_edges[head]:
            t, w, le = edges[e]
            if pot[w] > pot[t] + le:
                child |= 1 << e
            else:
                child &= ~(1 << e)
        mark = len(frontier)
        frontier.extend(g.out_edges[head])
        _grow(g, on_tree, pot, child, frontier, i + 1, leaf)
        del frontier[mark:]
        on_tree[head] = False
        pot[head] = INF
    leaf(pot, mask)


class ClaimContext:
    """Every rooted out-tree of one small graph, materialized for reuse.

    Grows each out-tree of g rooted at root once and keeps one
    (distance-to-target, cut-mask) pair per tree; the distance is INF when
    the tree misses the target.  Both claim checks are methods that loop over
    this list, so checking many subgraphs or LP vectors against the same
    demand costs one enumeration.  Raises ExplosionCap past MAX_TREES trees.
    """

    def __init__(self, g, root, target):
        self.graph = g
        self.root = root
        self.target = target
        trees = []

        def leaf(pot, mask):
            if len(trees) == MAX_TREES:
                raise ExplosionCap(f"more than {MAX_TREES} rooted out-trees")
            trees.append((pot[target], mask))

        # membership is kept apart from pot: a tree distance can overflow to INF
        on_tree = [False] * g.n
        on_tree[root] = True
        pot = [INF] * g.n
        pot[root] = 0.0
        mask = 0  # every length is finite, so the root alone is cut by exactly its out-edges
        for e in g.out_edges[root]:
            mask |= 1 << e
        _grow(g, on_tree, pot, mask, list(g.out_edges[root]), 0, leaf)
        self.trees = trees

    def tree_count(self):
        return len(self.trees)

    def path_within(self, h_edges, K):
        g = self.graph
        return _dijkstra(g.n, _subset_out_edges(g, h_edges), g.edges, self.root)[self.target] <= K

    def all_long_trees_cut(self, h_edges, K):
        h_mask = 0
        for e in h_edges:
            h_mask |= 1 << e
        return all(mask & h_mask for dist_v, mask in self.trees if dist_v > K)

    def min_long_cut_mass(self, x, K):
        """Smallest cut mass over the long trees; None when no tree is long.

        Each mass sums x over the tree's cut edges in ascending edge order,
        walking the mask's set bits lowest first.
        """
        best = None
        for dist_v, mask in self.trees:
            if dist_v > K:
                total = 0.0
                while mask:
                    low = mask & -mask
                    total += x[low.bit_length() - 1]
                    mask ^= low
                if best is None or total < best:
                    best = total
        return best

    def long_tree_count(self, K):
        return sum(1 for dist_v, _ in self.trees if dist_v > K)
