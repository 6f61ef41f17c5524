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


class ClaimContext:
    """Every rooted out-tree of one small graph, materialized for reuse.

    Grows each out-tree of g rooted at root once and keeps one
    (distance-to-target, cut-mask) pair per tree; the distance is INF when
    the tree misses the target.  Both claim checks are methods that loop over
    this list, so checking many subgraphs or LP vectors against the same
    demand costs one enumeration.  Raises ExplosionCap past MAX_TREES trees.

    The trees grow on an explicit stack with one frame per tree vertex, so a
    tree may be as deep as the graph.  The frontier lists the edges leaving
    the tree in discovery order.  A frame passes over an edge whose head is
    on the tree; any other edge it either takes (the head joins in a child
    frame, with its out-edges appended to the frontier) or, once that child
    is done, skips for good.  So every rooted out-tree comes from exactly one
    take/skip sequence, and a frame's tree is finished after its children's.
    Only the joining vertex's potential changes, so only its out- and
    in-edges can change cut status: the child's mask re-tests just those.
    """

    def __init__(self, g, root, target):
        self.graph = g
        self.root = root
        self.target = target
        edges, out_edges, in_edges = g.edges, g.out_edges, g.in_edges
        # membership is kept apart from pot: a tree distance can overflow to INF
        on_tree = [False] * g.n
        on_tree[root] = True
        pot = [INF] * g.n
        pot[root] = 0.0
        mask = 0  # every length is finite, so the root alone is cut by exactly its out-edges
        for e in out_edges[root]:
            mask |= 1 << e
        frontier = list(out_edges[root])
        trees = []
        # a frame: [next frontier slot, cut mask, vertex, frontier length before it joined]
        stack = [[0, mask, root, 0]]
        while stack:
            frame = stack[-1]
            i, end = frame[0], len(frontier)
            while i < end and on_tree[edges[frontier[i]][1]]:
                i += 1
            if i == end:  # every slot decided: the frame's tree is finished
                if len(trees) == MAX_TREES:
                    raise ExplosionCap(f"more than {MAX_TREES} rooted out-trees")
                trees.append((pot[target], frame[1]))
                _, _, vertex, mark = stack.pop()
                del frontier[mark:]
                on_tree[vertex] = False
                pot[vertex] = INF
                continue
            frame[0] = i + 1
            tail, head, length = edges[frontier[i]]
            on_tree[head] = True
            pot[head] = pot[tail] + length
            child = frame[1]
            for e in out_edges[head] + in_edges[head]:
                t, w, le = edges[e]
                if pot[w] > pot[t] + le:
                    child |= 1 << e
                else:
                    child &= ~(1 << e)
            stack.append([i + 1, child, head, end])
            frontier.extend(out_edges[head])
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
