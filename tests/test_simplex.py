import hashlib

import numpy as np
import pytest

from dirspan.simplex import GREATER, LESS, SimplexResult, solve_simplex

from oracles import highs_solve, make_rng


def test_single_covering_row():
    res = solve_simplex([1.0, 1.0], [[1.0, 1.0]], [1.0], [GREATER], lower=[0.0, 0.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.z.sum() == pytest.approx(1.0, abs=1e-9)


def test_equality_row():
    # x >= 1, and x + y = 4 as a <= row and a >= row: cheapest is x = 4, y = 0
    res = solve_simplex([2.0, 3.0], [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]], [4.0, 4.0, 1.0], [LESS, GREATER, GREATER],
                        lower=[0.0, 0.0])
    assert res.objective == pytest.approx(8.0, abs=1e-9)


def test_upper_bound_rows():
    res = solve_simplex(
        [-1.0, -1.0],
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        [2.0, 2.0, 3.0],
        [LESS, LESS, LESS],
        lower=[0.0, 0.0],
    )
    assert res.objective == pytest.approx(-3.0, abs=1e-9)


def test_infeasible_detected():
    res = solve_simplex([1.0], [[1.0], [1.0]], [2.0, 1.0], [GREATER, LESS], lower=[0.0])
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
    # a flat list is not a 0 x 2 matrix: the shape check rejects it
    with pytest.raises(ValueError):
        solve_simplex([1.0, 3.0], [], [], [], lower=[1.5, 0.25])


def test_no_vars():
    res = solve_simplex(np.zeros(0), np.zeros((0, 0)), np.zeros(0), [], lower=np.zeros(0))
    assert res.status == "optimal"
    assert res.objective == 0.0
    # a flat list is not a 0 x 0 matrix: the shape check rejects it
    with pytest.raises(ValueError):
        solve_simplex([], [], [], [], lower=[])
    # rows without variables read 0 against b: 0 >= 1 and 0 <= -1 cannot hold, 0 <= 1, 0 >= 0 and
    # 0 >= -1 do; a negative b flips its row's sense before the two phases
    for b, senses, status in (
        ([1.0], [GREATER], "infeasible"),
        ([-1.0], [LESS], "infeasible"),
        ([1.0, 0.0], [LESS, GREATER], "optimal"),
        ([-1.0], [GREATER], "optimal"),
    ):
        res = solve_simplex([], np.zeros((len(b), 0)), b, senses, lower=[])
        assert res.status == status
        if status == "optimal":
            assert res.objective == 0.0 and res.z.shape == (0,)


def test_negative_rhs_normalized():
    # -x <= -1 is x >= 1
    res = solve_simplex([1.0], [[-1.0]], [-1.0], [LESS], lower=[0.0])
    assert res.objective == pytest.approx(1.0, abs=1e-9)


def test_degenerate_problem_terminates():
    # many redundant rows through the same vertex
    rows = [[1.0, 1.0]] * 12 + [[1.0, 0.0], [0.0, 1.0]]
    rhs = [1.0] * 12 + [0.0, 0.0]
    senses = [GREATER] * 12 + [GREATER, GREATER]
    res = solve_simplex([1.0, 2.0], rows, rhs, senses, lower=[0.0, 0.0])
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
    res = solve_simplex([1.0], [[1.0]], [1.0], [GREATER], lower=[0.0])
    assert isinstance(res, SimplexResult)
    assert res.iterations >= 1


def test_misshaped_inputs_rejected():
    # a 3x2 matrix for 2 rows x 3 variables used to be reshaped into another LP
    with pytest.raises(ValueError):
        solve_simplex([1, 1, 1], [[1, 0], [1, 1], [0, 1]], [1, 1], [GREATER, GREATER], lower=[0, 0, 0])
    with pytest.raises(ValueError):
        solve_simplex([1.0, 1.0], [[1.0, 1.0]], [1.0], [GREATER, GREATER], lower=[0.0, 0.0])
    with pytest.raises(ValueError):
        solve_simplex([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [1.0], [GREATER], lower=[0.0, 0.0])


def test_unknown_sense_rejected():
    # an unknown sense would get an artificial column that the phase-1 count misses,
    # and [">=", "ge"] would come back optimal at z = [3, 1]
    for senses in ([GREATER, "ge"], ["=", LESS], ["==", GREATER]):
        with pytest.raises(ValueError):
            solve_simplex([1, 1], [[1, 0], [0, 1]], [3, 2], senses, lower=[0, 0])
    with pytest.raises(ValueError):
        solve_simplex([], np.zeros((1, 0)), [0.0], ["="], lower=[])  # no variables: checked all the same


def small_program(seed):
    """Up to 5 variables and 7 rows, entries -2..2, about 70 % >= rows, every lower bound 0."""
    rng = make_rng(seed)
    nvars = rng.randint(1, 5)
    nrows = rng.randint(1, 7)
    c = [rng.randint(0, 3) * 1.0 for _ in range(nvars)]
    a = [[rng.randint(-2, 2) * 1.0 for _ in range(nvars)] for _ in range(nrows)]
    b = [rng.randint(-2, 4) * 1.0 for _ in range(nrows)]
    senses = [GREATER if rng.random() < 0.7 else LESS for _ in range(nrows)]
    return c, a, b, senses, [0.0] * nvars


# iterations, objective and sha256 of z.tobytes() on small programs whose phase 1 re-enters an
# artificial column: zeroing the artificial columns before phase 1 instead of after it moves
# one of the three on each; 315 and 16524 also end phase 1 with artificials basic at zero (one
# and three), so the drive-out pivots on a tableau whose artificial columns are already zero
ZEROING_PATH = [
    (315, 8, 26.000000000000007, "0dcaf3cce87a22b2474c3f2740a10816794555aaacd93fbf8faa1512b046c326"),
    (4632, 7, 23.500000000000007, "5ff03bea78623466ff3cf53274e434c925cb5691f2a0fa49db77c3dfd06a9201"),
    (5200, 10, 4.666666666666666, "a6d77092291642a8d0d10a4f4176e4d96a276f16876dec9d5826f920bc035f14"),
    (7262, 9, 5.333333333333334, "dc5e7669b362a59b60b392d67d2b57559abb935b88c4742efc39aaa02184bd78"),
    (16524, 8, 0.0, "f60a3b0c3cb8f31c35067a6b32dac116387177918c0e146d549359f6cb992c59"),
]


@pytest.mark.parametrize("seed,iterations,objective,z_sha256", ZEROING_PATH)
def test_artificial_zeroing_path_is_pinned(seed, iterations, objective, z_sha256):
    res = solve_simplex(*small_program(seed))
    assert res.iterations == iterations
    assert res.objective == objective
    assert hashlib.sha256(res.z.tobytes()).hexdigest() == z_sha256
