"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: dynamic programs over bounded walks,
unpruned recursive enumeration, and exhaustive subset scans.  None of it
shares code with the library under test.
"""

import itertools
import math
import random

import numpy as np
from scipy.optimize import linprog

INF = math.inf


def dp_distances(n, edges, source, allowed=None):
    """Min length over walks of at most n-1 edges, Bellman-Ford style."""
    use = range(len(edges)) if allowed is None else sorted(allowed)
    dist = [INF] * n
    dist[source] = 0.0
    for _ in range(n - 1):
        nxt = list(dist)
        for e in use:
            tail, head, length = edges[e]
            if dist[tail] + length < nxt[head]:
                nxt[head] = dist[tail] + length
        dist = nxt
    return dist


def all_simple_paths_within(n, edges, src, dst, budget):
    """Every simple src->dst path with length <= budget, no pruning at all."""
    out = [[] for _ in range(n)]
    for tail, head, length in edges:
        out[tail].append((head, length))
    found = []

    def walk(path, length):
        here = path[-1]
        if here == dst:
            if length <= budget:
                found.append(tuple(path))
            return
        for head, elen in out[here]:
            if head not in path:
                walk(path + [head], length + elen)

    walk([src], 0.0)
    return sorted(found)


def naive_is_spanner(n, edges, h_edges, k):
    for d, (tail, head, _) in enumerate(edges):
        dg = dp_distances(n, edges, tail)[head]
        dh = dp_distances(n, edges, tail, allowed=h_edges)[head]
        if not dh <= k * dg:
            return False
    return True


def exhaustive_opt(n, edges, k):
    """Minimum spanner size by scanning every edge subset. Keep m small."""
    m = len(edges)
    best = None
    best_set = None
    for mask in range(1 << m):
        size = bin(mask).count("1")
        if best is not None and size >= best:
            continue
        subset = frozenset(e for e in range(m) if (mask >> e) & 1)
        if naive_is_spanner(n, edges, subset, k):
            best = size
            best_set = subset
    return best, best_set


def parent_vector_out_trees(n, edges, root):
    """All rooted out-trees by filtering every parent-edge combination.

    Each non-root vertex takes one of its in-edges or None (off the tree); a
    combination is a tree when every on-tree vertex's parent chain reaches
    the root without a cycle.
    """
    others = [v for v in range(n) if v != root]
    choices = [[None] + [e for e, (_, head, _) in enumerate(edges) if head == v] for v in others]

    def reaches_root(parent, v):
        seen = set()
        while v != root:
            if v in seen or parent[v] is None:
                return False
            seen.add(v)
            v = edges[parent[v]][0]
        return True

    result = []
    for combo in itertools.product(*choices):
        parent = dict(zip(others, combo))
        if all(parent[v] is None or reaches_root(parent, v) for v in others):
            result.append(parent)
    return result


def out_tree_census(n, edges, root, target):
    """Sorted (tree distance to target, cut mask) over every rooted out-tree.

    Off-tree vertices sit at infinity; the cut mask sets bit e for each edge
    whose head potential exceeds its tail potential plus its length.
    """
    census = []
    for parent in parent_vector_out_trees(n, edges, root):
        pot = [INF] * n
        pot[root] = 0.0

        def potential(w):
            if w != root and pot[w] == INF:
                tail, _, length = edges[parent[w]]
                pot[w] = potential(tail) + length
            return pot[w]

        for v, e in parent.items():
            if e is not None:
                potential(v)
        mask = 0
        for e, (tail, head, length) in enumerate(edges):
            if pot[head] > pot[tail] + length:
                mask |= 1 << e
        census.append((pot[target], mask))
    return sorted(census)


def random_edge_list(rng, n, p, max_len=1):
    """Plain random digraph; integer lengths so float sums stay exact."""
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                length = 1.0 if max_len <= 1 else float(rng.randint(1, max_len))
                edges.append((i, j, length))
    return edges


def make_rng(seed):
    return random.Random(seed)


def layered_lp_unit(n, edges, k):
    """Layered-flow formulation of the spanner LP, valid only for unit lengths.

    Returns (c, a, b, senses): the m edge variables come first, then one flow
    column per (demand, edge, layer) arc.  For each demand (u, v), layer
    copies (w, i) carry the walks of at most floor(k) hops from u; flow
    conservation plus per-edge capacities summed over layers reproduce the
    path formulation's optimal value, with polynomially many rows.
    """
    if any(length != 1.0 for _, _, length in edges):
        raise ValueError("layered formulation requires every edge length to be 1")
    kk = int(math.floor(k))
    if kk < 1:
        raise ValueError(f"stretch factor must be >= 1, got {k}")
    m = len(edges)
    reverse = [(head, tail, length) for tail, head, length in edges]

    arcs = []  # (demand, edge, layer): edge from layer i to layer i + 1
    for d, (u, v, _) in enumerate(edges):
        hops_from_u = dp_distances(n, edges, u)
        hops_to_v = dp_distances(n, reverse, v)

        def alive(w, i):
            if w == u:
                return i == 0
            return 1 <= i <= kk and hops_from_u[w] <= i and hops_to_v[w] <= kk - i

        for e, (wa, wb, _) in enumerate(edges):
            if wa == v or wb == u:
                continue  # the sink absorbs, the source exists only at layer 0
            arcs.extend((d, e, i) for i in range(kk) if alive(wa, i) and alive(wb, i + 1))

    ncols = m + len(arcs)
    rows, b, senses = [], [], []

    def add_row(entries, sense, rhs):
        row = np.zeros(ncols)
        for j, coef in entries:
            row[j] += coef
        rows.append(row)
        b.append(rhs)
        senses.append(sense)

    for d, (u, v, _) in enumerate(edges):
        mine = [(m + j, e, i) for j, (dd, e, i) in enumerate(arcs) if dd == d]
        nodes = {(edges[e][1], i + 1) for _, e, i in mine} | {(edges[e][0], i) for _, e, i in mine}
        for w, layer in sorted(nodes):
            if w in (u, v):
                continue
            into = [(j, 1.0) for j, e, i in mine if (edges[e][1], i + 1) == (w, layer)]
            out_of = [(j, -1.0) for j, e, i in mine if (edges[e][0], i) == (w, layer)]
            add_row(into + out_of, "=", 0.0)
        add_row([(j, 1.0) for j, e, _ in mine if edges[e][1] == v], ">=", 1.0)
        for cap_edge in sorted({e for _, e, _ in mine}):
            add_row([(j, 1.0) for j, e, _ in mine if e == cap_edge] + [(cap_edge, -1.0)], "<=", 0.0)

    c = np.zeros(ncols)
    c[:m] = 1.0
    a = np.array(rows) if rows else np.zeros((0, ncols))
    return c, a, np.array(b), senses


def highs_solve(c, a, b, senses, lower=None):
    """scipy's HiGHS on min c @ z subject to A z (<=, >= or =) b row by row, z >= lower."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    le, ge, eq = ([i for i, s in enumerate(senses) if s == sense] for sense in ("<=", ">=", "="))
    return linprog(
        c,
        A_ub=np.vstack([a[le], -a[ge]]) if le or ge else None,
        b_ub=np.concatenate([b[le], -b[ge]]) if le or ge else None,
        A_eq=a[eq] if eq else None,
        b_eq=b[eq] if eq else None,
        bounds=(0, None) if lower is None else [(lo, None) for lo in lower],
        method="highs",
    )


def layered_lp_value(n, edges, k):
    """The layered LP's optimum by HiGHS, a solver that shares no code with the package."""
    res = highs_solve(*layered_lp_unit(n, edges, k))
    if res.status != 0:
        raise AssertionError(f"HiGHS found no optimum of the layered LP: {res.message}")
    return res.fun


def check_solution(model, sol, tol=1e-8):
    """Rows of a path LP model that an LpSolution violates (empty means feasible).

    Rebuilds the variable vector from the solution's public x and f maps and
    evaluates every row of model.program directly, lower bounds included.
    """
    p = model.program
    z = np.array(list(sol.x) + [sol.f.get(key, 0.0) for key in model.path_cols])
    fails = [f"variable {j} = {z[j]} < {p.lower[j]}" for j in np.flatnonzero(z < p.lower - tol)]
    for label, sense, rhs, val in zip(model.row_labels, p.senses, p.b, p.a @ z):
        if {"<=": val > rhs + tol, ">=": val < rhs - tol, "=": abs(val - rhs) > tol}[sense]:
            fails.append(f"row {label} = {val}, want {sense} {rhs}")
    return fails


def lp_lower_bound_check(sol, opt, tol=1e-7):
    """The relaxation can never exceed the exact optimum (up to solver tolerance)."""
    return sol.objective_value <= opt + tol
