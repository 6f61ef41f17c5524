"""Flow-based LP relaxation of the directed k-spanner problem.

One fractional variable x_e per edge, one flow variable per within-budget
path of each demand.  Each demand must route one unit of flow across its
path set, and per demand the flow through any edge is capped by that edge's
x value.  The optimum is a lower bound on the size of every feasible spanner
because the indicator vector of a spanner, with flow on one surviving path
per demand, satisfies every row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure
from .paths import demand_path_sets
from .simplex import GREATER, LESS, solve_simplex

CHECK_TOL = 1e-8  # row slack violated_rows forgives, ten times the simplex's feasibility tolerance


@dataclass
class Program:
    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    senses: list
    lower: np.ndarray


@dataclass
class LpModel:
    """The path LP of (graph, k): column e < m is x_e, and the flow columns follow.

    Columns m, m + 1, ... carry the paths of each demand not in mandatory, one
    column per path, demand by demand in index order.  Row ("capacity", d, e)
    caps the flow on demand d's paths through edge e by x_e.
    """

    graph: object
    demand_paths: tuple  # DemandPaths per demand, indexed by demand
    mandatory: frozenset  # edge indices presolved to x_e >= 1
    row_labels: tuple
    program: Program = field(repr=False)


@dataclass(frozen=True)
class LpSolution:
    x: tuple
    objective_value: float


def build_lp(g, k, table=None):
    """Assemble the path formulation for every demand edge of g.

    A presolve drops each demand whose only within-budget path is the demand
    edge itself, fixing that edge's variable to >= 1 instead of carrying its
    rows.  table, a DistanceTable of g, is handed to the path enumeration.
    """
    m = g.m
    demand_paths = demand_path_sets(g, k, table)
    mandatory = {dp.demand for dp in demand_paths if dp.mandatory}

    # one pass over the demands: each row's flow columns (and capacity edge)
    ncols = m
    row_cells = []
    labels = []
    rhs = []
    senses = []
    for d in range(m):
        if d in mandatory:
            continue
        paths = demand_paths[d].paths
        cols = range(ncols, ncols + len(paths))
        ncols += len(paths)
        row_cells.append((cols, None))
        rhs.append(1.0)
        senses.append(GREATER)
        labels.append(("demand", d))
        by_edge = {}
        for j, p in zip(cols, paths):
            for e in p:
                by_edge.setdefault(e, []).append(j)
        for e in sorted(by_edge):
            row_cells.append((by_edge[e], e))
            rhs.append(0.0)
            senses.append(LESS)
            labels.append(("capacity", d, e))

    a = np.zeros((len(labels), ncols))
    for i, (cols, e) in enumerate(row_cells):
        a[i, cols] = 1.0
        if e is not None:
            a[i, e] = -1.0
    c = np.zeros(ncols)
    c[:m] = 1.0
    lower = np.zeros(ncols)
    for e in mandatory:
        lower[e] = 1.0
    program = Program(c=c, a=a, b=np.array(rhs), senses=senses, lower=lower)
    return LpModel(
        graph=g,
        demand_paths=demand_paths,
        mandatory=frozenset(mandatory),
        row_labels=tuple(labels),
        program=program,
    )


def solve_lp(model):
    """Run the simplex, re-check its full point independently, and keep each x_e and the optimum."""
    p = model.program
    res = solve_simplex(p.c, p.a, p.b, p.senses, lower=p.lower)
    if res.status == "infeasible":
        # x_e = 1 everywhere, with a unit of flow on any within-budget path, meets every row
        raise NumericalFailure("simplex called the path LP infeasible, but x = 1 is always feasible")
    m = model.graph.m
    sol = LpSolution(x=tuple(float(v) for v in res.z[:m]), objective_value=float(res.objective))
    fails = violated_rows(model, res.z)
    if fails:
        raise NumericalFailure(f"solver returned an infeasible point: {fails[0]}")
    return sol


def violated_rows(model, z):
    """Independent feasibility evaluation of a full variable vector.

    Walks the model rows directly instead of trusting the solver's basis;
    returns descriptions of every violated row (empty means feasible).
    """
    p = model.program
    z = np.asarray(z, dtype=float)
    fails = []
    if np.any(z < -CHECK_TOL):
        fails.append("negative variable value")
    for e in sorted(model.mandatory):
        if z[e] < 1.0 - CHECK_TOL:
            fails.append(f"presolved edge {e} below 1: {z[e]}")
    for val, sense, b, label in zip((p.a @ z).tolist(), p.senses, p.b, model.row_labels):
        if sense == GREATER and val < b - CHECK_TOL:
            fails.append(f"row {label} = {val} < {b}")
        elif sense == LESS and val > b + CHECK_TOL:
            fails.append(f"row {label} = {val} > {b}")
    return fails


def x_is_feasible(model, x):
    """True when some flows meet every row with x: phase 1 over the flow columns alone, then violated_rows."""
    p, m = model.program, model.graph.m
    res = solve_simplex(np.zeros(p.a.shape[1] - m), p.a[:, m:], p.b - p.a[:, :m] @ x, p.senses, lower=p.lower[m:])
    return res.status == "optimal" and not violated_rows(model, np.concatenate([x, res.z]))


def export_lp_text(model):
    """Writable LP-format text of the model, for external cross-checking."""
    p = model.program
    m = model.graph.m

    def vname(j):
        if j < m:
            return f"x{j}"
        return f"p{j - m}"

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
        lines.append(f" r{idx}_{name}: {terms(row)} {sense} {b:.17g}")  # LESS and GREATER are LP-format operators
    bounds = [f" {vname(j)} >= {p.lower[j]:.17g}" for j in np.nonzero(p.lower)[0]]
    if bounds:
        lines.append("Bounds")
        lines.extend(bounds)
    lines.append("End")
    return "\n".join(lines) + "\n"
