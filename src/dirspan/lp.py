"""Flow-based LP relaxation of the directed k-spanner problem.

One fractional variable x_e per edge, one flow variable per within-budget
path of each demand.  Each demand must route one unit of flow across its
path set, and per demand the flow through any edge is capped by that edge's
x value.  The optimum is a lower bound on the size of every feasible spanner
because the indicator vector of a spanner, with flow on one surviving path
per demand, satisfies every row.

A second, polynomially sized formulation for unit-length instances routes
each demand through a layered copy of the graph (layer i holds the vertices
reachable in i hops); its optimal value matches the path formulation and
serves as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotUnitLength, NumericalFailure
from .graph import INWARD, OUTWARD, shortest_paths
from .paths import enumerate_demand_paths
from .simplex import EQUAL, GREATER, LESS, solve_simplex

OBJ_TOL = 1e-7
FEAS_TOL = 1e-9


@dataclass
class Program:
    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    senses: list
    lower: np.ndarray


@dataclass
class LpModel:
    graph: object
    k: float
    kind: str  # 'path' | 'layered'
    num_edge_vars: int
    path_cols: tuple  # path kind: (demand, path) per flow column
    flow_cols: tuple  # layered kind: (demand, edge, layer) per flow column
    demand_paths: dict | None
    mandatory: frozenset  # edge indices presolved to x_e >= 1
    row_labels: tuple
    program: Program = field(repr=False)


@dataclass(frozen=True)
class LpSolution:
    status: str  # 'optimal' | 'infeasible' | 'cap_exceeded'
    x: tuple | None
    f: dict | None  # (demand, path) -> value; empty for layered models
    objective_value: float | None
    iterations: int = 0


def _path_edges(g, path):
    return [g.edge_index[(path[i], path[i + 1])] for i in range(len(path) - 1)]


def build_lp(g, k, caps=None, presolve=True):
    """Assemble the path formulation for every demand edge of g.

    presolve drops demands whose only within-budget path is the demand edge
    itself, fixing that edge's variable to >= 1 instead of carrying its rows.
    """
    m = g.m
    demand_paths = {}
    mandatory = set()
    for d in range(m):
        dp = enumerate_demand_paths(g, k, d, caps)
        if not dp.paths:
            raise AssertionError(f"demand {d} has no path within budget; shortest path must qualify")
        demand_paths[d] = dp
        tail, head, _ = g.edges[d]
        if presolve and dp.paths == ((tail, head),):
            mandatory.add(d)

    path_cols = []
    for d in range(m):
        if d in mandatory:
            continue
        for p in demand_paths[d].paths:
            path_cols.append((d, p))
    ncols = m + len(path_cols)

    rows = []
    labels = []
    rhs = []
    senses = []
    for d in range(m):
        if d in mandatory:
            continue
        cols_of_demand = [m + j for j, (dd, _) in enumerate(path_cols) if dd == d]
        row = np.zeros(ncols)
        row[cols_of_demand] = 1.0
        rows.append(row)
        rhs.append(1.0)
        senses.append(GREATER)
        labels.append(("demand", d))
        by_edge = {}
        for j, (dd, p) in enumerate(path_cols):
            if dd != d:
                continue
            for e in _path_edges(g, p):
                by_edge.setdefault(e, []).append(m + j)
        for e in sorted(by_edge):
            row = np.zeros(ncols)
            row[by_edge[e]] = 1.0
            row[e] = -1.0
            rows.append(row)
            rhs.append(0.0)
            senses.append(LESS)
            labels.append(("capacity", d, e))

    c = np.zeros(ncols)
    c[:m] = 1.0
    lower = np.zeros(ncols)
    for e in mandatory:
        lower[e] = 1.0
    a = np.array(rows).reshape(len(rows), ncols) if rows else np.zeros((0, ncols))
    program = Program(c=c, a=a, b=np.array(rhs), senses=senses, lower=lower)
    return LpModel(
        graph=g,
        k=k,
        kind="path",
        num_edge_vars=m,
        path_cols=tuple(path_cols),
        flow_cols=(),
        demand_paths=demand_paths,
        mandatory=frozenset(mandatory),
        row_labels=tuple(labels),
        program=program,
    )


def build_layered_lp_unit(g, k):
    """Layered-flow formulation, valid only for unit-length instances.

    For each demand (u, v), layer copies (w, i) carry the walks of at most
    floor(k) hops from u; flow conservation plus per-edge capacities summed
    over layers reproduce the path formulation's optimal value.
    """
    if not g.unit_lengths():
        raise NotUnitLength("layered formulation requires every edge length to be 1")
    kk = int(math.floor(k))
    if kk < 1:
        raise ValueError(f"stretch factor must be >= 1, got {k}")
    m = g.m

    flow_cols = []
    col_of = {}
    arcs_per_demand = {}
    for d in range(m):
        u, v, _ = g.edges[d]
        hu = shortest_paths(g, u, OUTWARD).dist
        hv = shortest_paths(g, v, INWARD).dist

        def alive(w, i):
            if w == u:
                return i == 0
            if not (1 <= i <= kk):
                return False
            return hu[w] <= i and hv[w] <= kk - i

        arcs = []
        for e, (wa, wb, _) in enumerate(g.edges):
            if wa == v or wb == u:
                continue  # sinks absorb, the source exists only at layer 0
            for i in range(kk):
                if alive(wa, i) and alive(wb, i + 1):
                    col_of[(d, e, i)] = m + len(flow_cols)
                    flow_cols.append((d, e, i))
                    arcs.append((e, i))
        arcs_per_demand[d] = arcs

    ncols = m + len(flow_cols)
    rows = []
    labels = []
    rhs = []
    senses = []
    for d in range(m):
        u, v, _ = g.edges[d]
        arcs = arcs_per_demand[d]
        into = {}
        outof = {}
        for e, i in arcs:
            wa, wb, _ = g.edges[e]
            into.setdefault((wb, i + 1), []).append(col_of[(d, e, i)])
            outof.setdefault((wa, i), []).append(col_of[(d, e, i)])
        for node in sorted(set(into) | set(outof)):
            w, i = node
            if w == u or w == v:
                continue
            row = np.zeros(ncols)
            for col in into.get(node, []):
                row[col] += 1.0
            for col in outof.get(node, []):
                row[col] -= 1.0
            rows.append(row)
            rhs.append(0.0)
            senses.append(EQUAL)
            labels.append(("conserve", d, w, i))
        row = np.zeros(ncols)
        for node, cols in into.items():
            if node[0] == v:
                for col in cols:
                    row[col] += 1.0
        rows.append(row)
        rhs.append(1.0)
        senses.append(GREATER)
        labels.append(("demand", d))
        by_edge = {}
        for e, i in arcs:
            by_edge.setdefault(e, []).append(col_of[(d, e, i)])
        for e in sorted(by_edge):
            row = np.zeros(ncols)
            row[by_edge[e]] = 1.0
            row[e] = -1.0
            rows.append(row)
            rhs.append(0.0)
            senses.append(LESS)
            labels.append(("capacity", d, e))

    c = np.zeros(ncols)
    c[:m] = 1.0
    a = np.array(rows).reshape(len(rows), ncols) if rows else np.zeros((0, ncols))
    program = Program(c=c, a=a, b=np.array(rhs), senses=senses, lower=np.zeros(ncols))
    return LpModel(
        graph=g,
        k=k,
        kind="layered",
        num_edge_vars=m,
        path_cols=(),
        flow_cols=tuple(flow_cols),
        demand_paths=None,
        mandatory=frozenset(),
        row_labels=tuple(labels),
        program=program,
    )


def solve_lp(model):
    """Run the simplex on the model and re-check the answer independently."""
    p = model.program
    res = solve_simplex(p.c, p.a, p.b, p.senses, lower=p.lower)
    if res.status == "infeasible":
        return LpSolution(status="infeasible", x=None, f=None, objective_value=None, iterations=res.iterations)
    m = model.num_edge_vars
    x = tuple(float(v) for v in res.z[:m])
    f = {}
    if model.kind == "path":
        for j, (d, pth) in enumerate(model.path_cols):
            f[(d, pth)] = float(res.z[m + j])
        for d in model.mandatory:
            tail, head, _ = model.graph.edges[d]
            f[(d, (tail, head))] = 1.0
    sol = LpSolution(
        status="optimal",
        x=x,
        f=f,
        objective_value=float(res.objective),
        iterations=res.iterations,
    )
    fails = violated_rows(model, res.z)
    if fails:
        raise NumericalFailure(f"solver returned an infeasible point: {fails[0]}")
    return sol


def violated_rows(model, z, tol=FEAS_TOL * 10):
    """Independent feasibility evaluation of a full variable vector.

    Walks the model rows directly instead of trusting the solver's basis;
    returns descriptions of every violated row (empty means feasible).
    """
    p = model.program
    m = model.num_edge_vars
    z = np.asarray(z, dtype=float)
    fails = []
    if np.any(z < -tol):
        fails.append("negative variable value")
    for e in sorted(model.mandatory):
        if z[e] < 1.0 - tol:
            fails.append(f"presolved edge {e} below 1: {z[e]}")
    for row, sense, b, label in zip(p.a, p.senses, p.b, model.row_labels):
        val = float(row @ z)
        if sense == GREATER and val < b - tol:
            fails.append(f"row {label} = {val} < {b}")
        elif sense == LESS and val > b + tol:
            fails.append(f"row {label} = {val} > {b}")
        elif sense == EQUAL and abs(val - b) > tol:
            fails.append(f"row {label} = {val} != {b}")
    return fails


def check_solution(model, sol, tol=FEAS_TOL * 10):
    """Row-level feasibility of an LpSolution for path models.

    Rebuilds the variable vector from the solution's x and f maps, so it
    exercises the public fields rather than solver internals.
    """
    if model.kind != "path":
        raise ValueError("check_solution rebuilds path-flow columns; use violated_rows for layered models")
    p = model.program
    m = model.num_edge_vars
    z = np.zeros(p.c.shape[0])
    z[:m] = sol.x
    for j, key in enumerate(model.path_cols):
        z[m + j] = sol.f.get(key, 0.0)
    return violated_rows(model, z, tol=tol)


def lp_lower_bound_check(sol, opt, tol=OBJ_TOL):
    """The relaxation can never exceed the exact optimum (up to solver tolerance)."""
    return sol.objective_value <= opt + tol


def export_lp_text(model):
    """Writable LP-format text of the model, for external cross-checking."""
    p = model.program
    m = model.num_edge_vars

    def vname(j):
        if j < m:
            return f"x{j}"
        return f"p{j - m}" if model.kind == "path" else f"f{j - m}"

    def terms(row):
        parts = []
        for j in np.nonzero(row)[0]:
            coef = row[j]
            sign = "+" if coef >= 0 else "-"
            mag = abs(coef)
            coef_txt = "" if mag == 1.0 else f"{mag:.17g} "
            parts.append(f"{sign} {coef_txt}{vname(j)}")
        txt = " ".join(parts)
        return txt[2:] if txt.startswith("+ ") else txt

    lines = ["Minimize", " obj: " + (terms(p.c) or "0")]
    lines.append("Subject To")
    for idx, (row, sense, b, label) in enumerate(zip(p.a, p.senses, p.b, model.row_labels)):
        name = "_".join(str(t) for t in label)
        op = {LESS: "<=", GREATER: ">=", EQUAL: "="}[sense]
        lines.append(f" r{idx}_{name}: {terms(row)} {op} {b:.17g}")
    bounds = [f" {vname(j)} >= {p.lower[j]:.17g}" for j in np.nonzero(p.lower)[0]]
    if bounds:
        lines.append("Bounds")
        lines.extend(bounds)
    lines.append("End")
    return "\n".join(lines) + "\n"
