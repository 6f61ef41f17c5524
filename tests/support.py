"""Test helpers built on package primitives.

Unlike oracles.py, these reuse the package's Dijkstra and cut extraction:
they restate a claim about the package's own structures in another form,
so tests can check that both forms agree.
"""

from dirspan import is_k_spanner
from dirspan.arborescence import cut_set_of_potentials
from dirspan.graph import _dijkstra
from dirspan.verify import _subset_out_edges


def shortest_path_tree_cut(g, h_edges, root):
    """Cut set of the shortest-path tree that H induces from the root.

    Tree potentials are exact H-distances (infinite where H does not reach),
    so this cut is always disjoint from H itself: a within-H edge can never
    shorten an exact H-distance.
    """
    return cut_set_of_potentials(g, _dijkstra(g.n, _subset_out_edges(g, h_edges), g.edges, root))


def all_pairs_spanner_check(g, h_edges, k):
    """The quantifier-over-all-pairs variant of the stretch condition."""
    h_out = _subset_out_edges(g, h_edges)
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
