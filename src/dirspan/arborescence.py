"""Arborescence enumeration and the cut-based path-existence checks.

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
are all short says nothing about H), so the checks walk every vertex subset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExplosionCap, NotReachable
from .graph import INF, _dijkstra, induced_subgraph
from .paths import Caps

DEFAULT_MAX_TREES = Caps.max_trees


@dataclass(frozen=True)
class Arborescence:
    graph: object
    root: int
    parent_edge: tuple  # per vertex; None at the root and off the tree
    potentials: tuple  # tree distance from the root, INF off the tree
    cut_set: frozenset  # edge indices violating the potential inequality


def _reachable_from(g, root, out_edges=None):
    out = out_edges if out_edges is not None else g.out_edges
    seen = [False] * g.n
    seen[root] = True
    stack = [root]
    while stack:
        v = stack.pop()
        for e in out[v]:
            head = g.edges[e][1]
            if not seen[head]:
                seen[head] = True
                stack.append(head)
    return seen


def cut_set_of_potentials(g, potentials):
    """Edges of g whose head potential exceeds tail potential plus length.

    Exact float comparison; infinities follow IEEE rules, so edges leaving
    the finite region are in, edges between infinite potentials are out.
    """
    out = []
    for e, (tail, head, length) in enumerate(g.edges):
        if potentials[head] > potentials[tail] + length:
            out.append(e)
    return frozenset(out)


def enumerate_arborescences(g, root, max_count=DEFAULT_MAX_TREES):
    """Yield every spanning arborescence of g rooted at root.

    Backtracks over one incoming edge per non-root vertex, rejecting cycles
    as they form.  Raises NotReachable when no spanning arborescence can
    exist and ExplosionCap past max_count trees.
    """
    if not (0 <= root < g.n):
        raise NotReachable(f"root {root} outside 0..{g.n - 1}")
    if not all(_reachable_from(g, root)):
        raise NotReachable(f"not every vertex is reachable from {root}")
    others = [v for v in range(g.n) if v != root]
    parent = [None] * g.n
    count = 0

    def ancestor_of(w, start):
        node = start
        while node != root:
            pe = parent[node]
            if pe is None:
                return False
            node = g.edges[pe][0]
            if node == w:
                return True
        return False

    def materialize():
        pot = [INF] * g.n
        pot[root] = 0.0

        def potential(w):
            if pot[w] == INF:
                tail, _, length = g.edges[parent[w]]
                pot[w] = potential(tail) + length
            return pot[w]

        for w in others:
            potential(w)
        return Arborescence(
            graph=g,
            root=root,
            parent_edge=tuple(parent),
            potentials=tuple(pot),
            cut_set=cut_set_of_potentials(g, pot),
        )

    def rec(i):
        nonlocal count
        if i == len(others):
            count += 1
            if count > max_count:
                raise ExplosionCap(f"more than {max_count} arborescences")
            yield materialize()
            return
        w = others[i]
        for e in g.in_edges[w]:
            tail = g.edges[e][0]
            if ancestor_of(w, tail):
                continue
            parent[w] = e
            yield from rec(i + 1)
            parent[w] = None

    if g.n == 0:
        return
    yield from rec(0)


class ClaimContext:
    """Every rooted out-tree of one small graph, materialized for reuse.

    Walks all vertex subsets containing the root, enumerates the spanning
    arborescences of each induced subgraph, and keeps one (distance-to-target,
    cut-mask) pair per tree.  Both claim checks below are loops over this
    list, so checking many subgraphs or LP vectors against the same demand
    costs one enumeration.
    """

    def __init__(self, g, root, target, max_trees=DEFAULT_MAX_TREES):
        self.graph = g
        self.root = root
        self.target = target
        trees = []
        reachable = _reachable_from(g, root)
        reach = [v for v in range(g.n) if v != root and reachable[v]]
        for pick in range(1 << len(reach)):
            vs = [root] + [reach[i] for i in range(len(reach)) if (pick >> i) & 1]
            sub = induced_subgraph(g, vs)
            sub_root = sub.vertices.index(root)
            if not all(_reachable_from(sub.graph, sub_root)):
                continue
            for arb in enumerate_arborescences(sub.graph, sub_root, max_count=max_trees - len(trees)):
                pot = [INF] * g.n
                for i, orig in enumerate(sub.vertices):
                    pot[orig] = arb.potentials[i]
                dist_v = pot[target]
                mask = 0
                for e in cut_set_of_potentials(g, pot):
                    mask |= 1 << e
                trees.append((dist_v, mask))
        self.trees = trees

    def tree_count(self):
        return len(self.trees)

    def path_within(self, h_edges, K):
        out = [[] for _ in range(self.graph.n)]
        for e in h_edges:
            out[self.graph.edges[e][0]].append(e)
        dist = _dijkstra(self.graph.n, out, self.graph.edges, self.root)
        return dist[self.target] <= K

    def all_long_trees_cut(self, h_edges, K):
        h_mask = 0
        for e in h_edges:
            h_mask |= 1 << e
        return all(mask & h_mask for dist_v, mask in self.trees if dist_v > K)

    def min_long_cut_mass(self, x, K):
        """Smallest cut mass over the long trees; None when no tree is long."""
        best = None
        for dist_v, mask in self.trees:
            if dist_v > K:
                total = 0.0
                e = 0
                while mask:
                    if mask & 1:
                        total += x[e]
                    mask >>= 1
                    e += 1
                if best is None or total < best:
                    best = total
        return best

    def long_tree_count(self, K):
        return sum(1 for dist_v, _ in self.trees if dist_v > K)


@dataclass(frozen=True)
class Claim1Result:
    agree: bool
    path_exists: bool
    long_trees_cut: bool


def check_claim1(g_prime, h_edges_prime, u, v, K, max_trees=DEFAULT_MAX_TREES):
    """Compare path existence within K against the all-long-trees-cut predicate.

    Both sides are computed from scratch with no shared reasoning; the result
    reports them and whether they agree (they must, on every input).
    """
    ctx = ClaimContext(g_prime, u, v, max_trees=max_trees)
    left = ctx.path_within(h_edges_prime, K)
    right = ctx.all_long_trees_cut(h_edges_prime, K)
    return Claim1Result(agree=left == right, path_exists=left, long_trees_cut=right)


@dataclass(frozen=True)
class Claim2Result:
    ok: bool
    min_mass: float | None  # None when no tree is long
    long_trees: int


def check_claim2(x, g_prime, u, v, K, tol=1e-9, max_trees=DEFAULT_MAX_TREES):
    """Every long out-tree must carry at least one unit of LP mass on its cut.

    Holds whenever x restricts a feasible solution of the full LP, because
    each unit of demand flow crosses every long tree's cut.
    """
    ctx = ClaimContext(g_prime, u, v, max_trees=max_trees)
    worst = ctx.min_long_cut_mass(x, K)
    ok = worst is None or worst >= 1.0 - tol
    return Claim2Result(ok=ok, min_mass=worst, long_trees=ctx.long_tree_count(K))


def shortest_path_tree_cut(g, h_edges, root):
    """Cut set of the shortest-path tree that H induces from the root.

    Tree potentials are exact H-distances (infinite where H does not reach),
    so this cut is always disjoint from H itself: a within-H edge can never
    shorten an exact H-distance.
    """
    out = [[] for _ in range(g.n)]
    for e in h_edges:
        out[g.edges[e][0]].append(e)
    dist = _dijkstra(g.n, out, g.edges, root)
    return cut_set_of_potentials(g, dist)
