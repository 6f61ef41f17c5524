"""Test helpers built on package primitives.

These restate a claim about the package's own structures in another form,
so tests can check that both forms agree.  The rows they search
themselves come from _dijkstra, a textbook heap Dijkstra kept apart from
the package's paused search, which it judges: G's rows walk G's
adjacency, and H's rows walk an adjacency built here (h_out_edges), not an
edge mask.  This module also
holds cut_set_of_potentials, a rescan of every edge against a potential
vector, which restates the cut masks that ClaimContext grows with each tree,
and the fresh_* references, which search G anew for every call instead of
sharing one DistanceTable: fresh_path_sets hands each demand a new table of
its own.  listed_generator_edges restates the er and
layered generators with a Python list of every candidate pair,
path_vertices turns an edge-index path into the vertex tuple that the
oracles speak in, and flow_columns lists the path LP's flow columns from
the model's path sets, in the order build_lp lays them out.  trial_rngs
gives a trial seed's two generators from numpy's own seeding, for tests
that rebuild a trial, and holds the run's seeding pass to them.
"""

from heapq import heappop, heappush

import numpy as np

from dirspan import INF, enumerate_demand_paths, is_k_spanner
from dirspan.graph import DistanceTable, _select_parents
from dirspan.rounding import EDGE_STREAM, ROOT_STREAM, _stream, pcg64_states
from dirspan.verify import SpannerCheck


def trial_rngs(seed):
    """The (edge, root) generators of a trial seed, each seeded by numpy's SeedSequence through _stream.

    A run takes the same states from pcg64_states; every trial rebuilt from
    these checks that the pass gave them.
    """
    rngs = _stream(seed, EDGE_STREAM), _stream(seed, ROOT_STREAM)
    assert list(pcg64_states([seed], (EDGE_STREAM, ROOT_STREAM))) == [rng.bit_generator.state for rng in rngs]
    return rngs


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


def h_out_edges(g, h_edges):
    """The out-edge lists of the subgraph H, each in ascending edge-index order."""
    out = [[] for _ in range(g.n)]
    for e in sorted(h_edges):
        out[g.edges[e][0]].append(e)
    return out


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


def shortest_path_tree_cut(g, h_edges, root):
    """Cut set of the shortest-path tree that H induces from the root.

    Tree potentials are exact H-distances (infinite where H does not reach),
    so this cut is always disjoint from H itself: a within-H edge can never
    shorten an exact H-distance.
    """
    return cut_set_of_potentials(g, _dijkstra(g.n, h_out_edges(g, h_edges), g.edges, root))


def all_pairs_spanner_check(g, h_edges, k):
    """The quantifier-over-all-pairs variant of the stretch condition."""
    h_out = h_out_edges(g, h_edges)
    for s in range(g.n):
        grow = _dijkstra(g.n, g.out_edges, g.edges, s)
        hrow = _dijkstra(g.n, h_out, g.edges, s)
        for t in range(g.n):
            if not hrow[t] <= k * grow[t]:
                return False
    return True


def edge_check_equals_allpairs_check(g, h_edges, k):
    """True when the demand-only check and the all-pairs check agree."""
    return is_k_spanner(g, h_edges, k).feasible == all_pairs_spanner_check(g, h_edges, k)


def eager_spanner_check(g, h_edges, k):
    """The demand check with every dist_G and dist_H row computed up front.

    It reports the first violated demand in index order, as the lazy scan of
    is_k_spanner must, so the two results compare whole.
    """
    tails = sorted({tail for tail, _, _ in g.edges})
    h_out = h_out_edges(g, h_edges)
    g_rows = {s: _dijkstra(g.n, g.out_edges, g.edges, s) for s in tails}
    h_rows = {s: _dijkstra(g.n, h_out, g.edges, s) for s in tails}
    for d, (tail, head, _) in enumerate(g.edges):
        if not h_rows[tail][head] <= k * g_rows[tail][head]:
            return SpannerCheck(feasible=False, violation=(d, g_rows[tail][head], h_rows[tail][head]))
    return SpannerCheck(feasible=True, violation=None)


def path_vertices(g, path):
    """The vertex tuple of an edge-index path, so it compares with the vertex-based oracles.

    Raises AssertionError when an edge does not start where the one before it ends.
    """
    verts = [g.edges[path[0]][0]]
    for e in path:
        tail, head, _ = g.edges[e]
        assert tail == verts[-1], f"edge {e} does not continue the path at vertex {verts[-1]}"
        verts.append(head)
    return tuple(verts)


def flow_columns(model):
    """(demand, path) per flow column of a path LP model: column m + j carries entry j.

    Every demand not presolved into model.mandatory contributes its path set,
    demand by demand in index order.
    """
    return [(d, p) for d, dp in enumerate(model.demand_paths) if d not in model.mandatory for p in dp.paths]


def fresh_path_sets(g, k):
    """Every demand's path set, each enumerated with a table of its own."""
    return tuple(enumerate_demand_paths(g, k, d, DistanceTable(g)) for d in range(g.m))


def fresh_shortest_path_tree(g, root):
    """The root's tree edges from two rows searched for this call alone."""
    outward = _dijkstra(g.n, g.out_edges, g.edges, root)
    inward = _dijkstra(g.n, g.in_edges, g.edges, root, far=0)
    parents = _select_parents(g, root, outward, True) + _select_parents(g, root, inward, False)
    return frozenset(e for e in parents if e is not None)


def listed_generator_edges(family, n_or_layers, p, max_len=1, width=None, seed=0):
    """Edges of an er or layered spec, drawn over an explicit list of candidate pairs.

    er takes n vertices; layered takes layers and width.  The draws come from
    the generator's stream in the same order: one uniform per candidate pair,
    then one length per chosen pair.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
    if family == "er":
        n = n_or_layers
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    else:
        pairs = [
            (a * width + i, (a + 1) * width + j)
            for a in range(n_or_layers - 1)
            for i in range(width)
            for j in range(width)
        ]
    draws = rng.random(len(pairs))
    chosen = [pair for pair, d in zip(pairs, draws) if d < p]
    if max_len <= 1:
        lens = [1.0] * len(chosen)
    else:
        lens = [float(v) for v in rng.integers(1, max_len + 1, size=len(chosen))]
    return tuple((i, j, ln) for (i, j), ln in zip(chosen, lens))
