import numpy as np
import pytest

from dirspan.simplex import GREATER, LESS, SimplexResult, solve_simplex

from oracles import highs_solve, make_rng


def test_single_covering_row():
    res = solve_simplex([1.0, 1.0], [[1.0, 1.0]], [1.0], [GREATER])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.z.sum() == pytest.approx(1.0, abs=1e-9)


def test_equality_row():
    # x >= 1, and x + y = 4 as a <= row and a >= row: cheapest is x = 4, y = 0
    res = solve_simplex([2.0, 3.0], [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]], [4.0, 4.0, 1.0], [LESS, GREATER, GREATER])
    assert res.objective == pytest.approx(8.0, abs=1e-9)


def test_upper_bound_rows():
    res = solve_simplex(
        [-1.0, -1.0],
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        [2.0, 2.0, 3.0],
        [LESS, LESS, LESS],
    )
    assert res.objective == pytest.approx(-3.0, abs=1e-9)


def test_infeasible_detected():
    res = solve_simplex([1.0], [[1.0], [1.0]], [2.0, 1.0], [GREATER, LESS])
    assert res.status == "infeasible"
    assert res.z is None


def test_lower_bounds_shift():
    res = solve_simplex([1.0, 1.0], [[1.0, 1.0]], [1.0], [GREATER], lower=[2.0, 0.0])
    # x >= 2 already covers the row
    assert res.objective == pytest.approx(2.0, abs=1e-9)
    assert res.z[0] == pytest.approx(2.0, abs=1e-9)


def test_no_rows_sits_at_lower_bounds():
    res = solve_simplex([1.0, 3.0], np.zeros((0, 2)), np.zeros(0), [], lower=[1.5, 0.25])
    assert res.objective == pytest.approx(2.25, abs=1e-12)
    # an empty matrix given as a flat list is still accepted
    assert solve_simplex([1.0, 3.0], [], [], [], lower=[1.5, 0.25]).objective == res.objective


def test_no_vars():
    res = solve_simplex(np.zeros(0), np.zeros((0, 0)), np.zeros(0), [])
    assert res.status == "optimal"
    assert res.objective == 0.0
    assert solve_simplex([], [], [], []).objective == 0.0
    # rows without variables read 0 against b: 0 >= 1 cannot hold, 0 <= 1 and 0 >= 0 do
    assert solve_simplex([], np.zeros((1, 0)), [1.0], [GREATER]).status == "infeasible"
    assert solve_simplex([], np.zeros((2, 0)), [1.0, 0.0], [LESS, GREATER]).status == "optimal"


def test_negative_rhs_normalized():
    # -x <= -1 is x >= 1
    res = solve_simplex([1.0], [[-1.0]], [-1.0], [LESS])
    assert res.objective == pytest.approx(1.0, abs=1e-9)


def test_degenerate_problem_terminates():
    # many redundant rows through the same vertex
    rows = [[1.0, 1.0]] * 12 + [[1.0, 0.0], [0.0, 1.0]]
    rhs = [1.0] * 12 + [0.0, 0.0]
    senses = [GREATER] * 12 + [GREATER, GREATER]
    res = solve_simplex([1.0, 2.0], rows, rhs, senses)
    assert res.objective == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(40))
def test_matches_scipy_on_random_programs(seed):
    rng = make_rng(500 + seed)
    nvars = rng.randint(1, 7)
    nrows = rng.randint(1, 9)
    # nonnegative costs keep the minimum bounded for any feasible region
    c = [rng.randint(0, 5) * 1.0 for _ in range(nvars)]
    a = [[rng.randint(-3, 4) * 1.0 for _ in range(nvars)] for _ in range(nrows)]
    b = [rng.randint(-4, 8) * 1.0 for _ in range(nrows)]
    senses = [rng.choice([LESS, GREATER]) for _ in range(nrows)]
    lower = [rng.choice([0.0, 0.0, 1.0]) for _ in range(nvars)]

    ours = solve_simplex(c, a, b, senses, lower=lower)
    ref = highs_solve(c, a, b, senses, lower)

    if ref.status == 2:
        assert ours.status == "infeasible"
        return
    assert ref.status == 0
    assert ours.status == "optimal"
    assert ours.objective == pytest.approx(ref.fun, abs=1e-6)
    # the reported point must satisfy what it claims
    z = ours.z
    for lo, zi in zip(lower, z):
        assert zi >= lo - 1e-9
    for row, rhs, sense in zip(a, b, senses):
        val = float(np.dot(row, z))
        if sense == LESS:
            assert val <= rhs + 1e-7
        else:
            assert val >= rhs - 1e-7


def test_result_type():
    res = solve_simplex([1.0], [[1.0]], [1.0], [GREATER])
    assert isinstance(res, SimplexResult)
    assert res.iterations >= 1


def test_misshaped_inputs_rejected():
    # a 3x2 matrix for 2 rows x 3 variables used to be reshaped into another LP
    with pytest.raises(ValueError):
        solve_simplex([1, 1, 1], [[1, 0], [1, 1], [0, 1]], [1, 1], [GREATER, GREATER])
    with pytest.raises(ValueError):
        solve_simplex([1.0, 1.0], [[1.0, 1.0]], [1.0], [GREATER, GREATER])
    with pytest.raises(ValueError):
        solve_simplex([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [1.0], [GREATER])


def test_unknown_sense_rejected():
    # an unknown sense would get an artificial column that the phase-1 count misses,
    # and [">=", "ge"] would come back optimal at z = [3, 1]
    for senses in ([GREATER, "ge"], ["=", LESS], ["==", GREATER]):
        with pytest.raises(ValueError):
            solve_simplex([1, 1], [[1, 0], [0, 1]], [3, 2], senses)
    with pytest.raises(ValueError):
        solve_simplex([], np.zeros((1, 0)), [0.0], ["="])  # no variables: checked all the same
