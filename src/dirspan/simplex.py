"""Dense two-phase simplex for the small linear programs built in this package.

Solves
    minimize    c @ z
    subject to  A z  (<= | >=)  b,   z >= lower,   lower >= 0

The tableau is a dense array, but a pivot updates only the rows where the
pivot column is non-zero crossed with the columns where the pivot row is
non-zero: everywhere else the full rank-1 update would subtract exactly zero,
so the pivot path and every result are those of the full update.  The
tableau carries two objective rows (the real one and the phase-1
artificial one) so both stay reduced through every pivot.  Pivoting starts
with Dantzig's rule and switches permanently to Bland's rule after a run of
degenerate pivots, which guarantees termination; a global iteration cap turns
pathological models into a hard error instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-10
DEGENERATE_STREAK = 64
MAX_ITER = 10**6

LESS = "<="
GREATER = ">="


@dataclass
class SimplexResult:
    status: str  # 'optimal' | 'infeasible'
    z: np.ndarray | None
    objective: float | None
    iterations: int


def solve_simplex(c, a, b, senses, lower=None):
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    senses = list(senses)
    nvars = c.shape[0]
    nrows = b.shape[0]
    if a.size == 0 and nrows * nvars == 0:
        a = a.reshape(nrows, nvars)
    if a.shape != (nrows, nvars) or len(senses) != nrows:
        raise ValueError(
            f"constraint matrix {a.shape} and {len(senses)} senses do not fit {nrows} rows x {nvars} variables"
        )
    for s in senses:
        if s not in (LESS, GREATER):
            raise ValueError(f"row sense must be {LESS!r} or {GREATER!r}, got {s!r}")
    if lower is None:
        lower = np.zeros(nvars)
    else:
        lower = np.asarray(lower, dtype=float)

    if nvars == 0:
        # with no variables every row reads 0 against its b
        for s, rhs in zip(senses, b):
            if (rhs > FEAS_TOL and s != LESS) or (rhs < -FEAS_TOL and s != GREATER):
                return SimplexResult(status="infeasible", z=None, objective=None, iterations=0)
        return SimplexResult(status="optimal", z=np.zeros(0), objective=0.0, iterations=0)
    if nrows == 0:
        if np.any(c < 0):
            raise NumericalFailure("objective unbounded below (no constraints)")
        z = lower.copy()
        return SimplexResult(status="optimal", z=z, objective=float(c @ z), iterations=0)

    # shift to y = z - lower >= 0 and normalize rhs signs
    rhs = b - a @ lower
    flipped = np.flatnonzero(rhs < 0)
    rhs[flipped] = -rhs[flipped]
    for i in flipped:
        senses[i] = {LESS: GREATER, GREATER: LESS}[senses[i]]

    n_slack = sum(1 for s in senses if s == LESS)
    n_surplus = sum(1 for s in senses if s == GREATER)  # each >= row also gets an artificial column
    art_start = nvars + n_slack + n_surplus
    ncols = art_start + n_surplus

    T = np.zeros((nrows + 2, ncols + 1))
    T[:nrows, :nvars] = a
    T[flipped, :nvars] *= -1.0
    T[:nrows, -1] = rhs
    basis = np.empty(nrows, dtype=int)

    slack_at = nvars
    surplus_at = nvars + n_slack
    art_at = art_start
    for i, s in enumerate(senses):
        if s == LESS:
            T[i, slack_at] = 1.0
            basis[i] = slack_at
            slack_at += 1
        else:
            T[i, surplus_at] = -1.0
            T[i, art_at] = 1.0
            basis[i] = art_at
            surplus_at += 1
            art_at += 1

    OBJ = nrows  # reduced real costs
    P1 = nrows + 1  # reduced phase-1 costs
    T[OBJ, :nvars] = c
    T[P1, art_start:ncols] = 1.0
    for i in range(nrows):
        if basis[i] >= art_start:
            T[P1] -= T[i]

    state = {"iters": 0, "bland": False, "streak": 0}

    def pivot(row, col):
        T[row] /= T[row, col]
        # the rank-1 update subtracts exactly zero outside these rows x columns
        nz_rows = np.flatnonzero(T[:, col])
        nz_rows = nz_rows[nz_rows != row]
        nz_cols = np.flatnonzero(T[row])
        T[np.ix_(nz_rows, nz_cols)] -= np.outer(T[nz_rows, col], T[row, nz_cols])
        T[:, col] = 0.0
        T[row, col] = 1.0
        basis[row] = col

    def run_phase(cost_row, allowed):
        while True:
            if state["iters"] >= MAX_ITER:
                raise NumericalFailure(f"simplex exceeded {MAX_ITER} iterations")
            reduced = T[cost_row, :ncols]
            if state["bland"]:
                candidates = np.nonzero(allowed & (reduced < -FEAS_TOL))[0]
                if candidates.size == 0:
                    return "optimal"
                col = int(candidates[0])
            else:
                masked = np.where(allowed, reduced, 0.0)
                col = int(np.argmin(masked))
                if masked[col] >= -FEAS_TOL:
                    return "optimal"
            entries = T[:nrows, col]
            ratios = np.full(nrows, np.inf)
            positive = entries > PIVOT_TOL
            ratios[positive] = T[:nrows, -1][positive] / entries[positive]
            row = int(np.argmin(ratios))
            if ratios[row] == np.inf:
                return "unbounded"
            # tie-break on lowest basis index keeps the leaving choice deterministic
            tied = np.flatnonzero(ratios == ratios[row])
            row = int(tied[np.argmin(basis[tied])])
            before = T[cost_row, -1]
            pivot(row, col)
            state["iters"] += 1
            if abs(T[cost_row, -1] - before) <= 1e-13:
                state["streak"] += 1
                if state["streak"] >= DEGENERATE_STREAK:
                    state["bland"] = True
            else:
                state["streak"] = 0

    allowed_all = np.ones(ncols, dtype=bool)
    if n_surplus:
        status = run_phase(P1, allowed_all)
        if status == "unbounded":
            raise NumericalFailure("phase-1 objective unbounded; inconsistent tableau")
        # -T[P1, -1] is the artificial mass left over
        if -T[P1, -1] > FEAS_TOL:
            return SimplexResult(status="infeasible", z=None, objective=None, iterations=state["iters"])
        # drive leftover artificials out of the basis
        for i in range(nrows):
            if basis[i] >= art_start:
                options = np.nonzero(np.abs(T[i, :art_start]) > PIVOT_TOL)[0]
                if options.size:
                    pivot(i, int(options[0]))
                    state["iters"] += 1
                # else: redundant row, harmless to keep with its artificial at zero

    allowed_real = np.ones(ncols, dtype=bool)
    allowed_real[art_start:] = False
    state["streak"] = 0
    status = run_phase(OBJ, allowed_real)
    if status == "unbounded":
        raise NumericalFailure("objective unbounded below")

    y = np.zeros(ncols)
    for i in range(nrows):
        y[basis[i]] = T[i, -1]
    z = lower + y[:nvars]
    return SimplexResult(
        status="optimal",
        z=z,
        objective=float(c @ z),
        iterations=state["iters"],
    )
