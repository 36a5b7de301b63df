"""The exact LP core, exercised directly in standard form."""

from fractions import Fraction

from chowstab.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_standard_lp


def test_basic_minimum():
    # min -x - y  s.t.  x + y + s = 4, x + 3y + t = 6
    status, x, value = solve_standard_lp(
        [[1, 1, 1, 0], [1, 3, 0, 1]], [4, 6], [-1, -1, 0, 0])
    assert status == OPTIMAL
    assert value == -4
    assert x[0] + x[1] == 4


def test_equality_constraint():
    # min x + y  s.t.  x - y = 0, x + y = 2  ->  x = y = 1
    status, x, value = solve_standard_lp(
        [[1, -1], [1, 1]], [0, 2], [1, 1])
    assert status == OPTIMAL
    assert x == [1, 1]
    assert value == 2


def test_infeasible():
    # x = -1 with x >= 0 is impossible (rhs is normalized to 1 with -x)
    status, _, _ = solve_standard_lp([[1], [1]], [1, 2], [0])
    assert status == INFEASIBLE


def test_unbounded():
    # min -x  s.t.  x - s = 0  (x free to grow)
    status, _, _ = solve_standard_lp([[1, -1]], [0], [-1, 0])
    assert status == UNBOUNDED


def test_exact_fractions():
    # min -x  s.t.  3x + s = 1  ->  x = 1/3 exactly
    status, x, value = solve_standard_lp([[3, 1]], [1], [-1, 0])
    assert status == OPTIMAL
    assert x[0] == Fraction(1, 3)
    assert value == Fraction(-1, 3)


def test_degenerate_vertex_terminates():
    # redundant constraints meet at the optimum; Bland must not cycle
    rows = [[1, 1, 1, 0, 0],
            [1, 2, 0, 1, 0],
            [2, 1, 0, 0, 1]]
    status, x, value = solve_standard_lp(rows, [2, 2, 2], [-1, -1, 0, 0, 0])
    assert status == OPTIMAL
    assert value == Fraction(-4, 3)
    assert x[0] == x[1] == Fraction(2, 3)


def test_rows_that_vanish():
    # every row is 0 = 0, so phase 1 drops them all and phase 2 runs on an
    # empty tableau
    status, x, value = solve_standard_lp([[0, 0], [0, 0]], [0, 0], [1, 0])
    assert (status, x, value) == (OPTIMAL, [0, 0], 0)
    status, _, _ = solve_standard_lp([[0, 0]], [0], [-1, 0])
    assert status == UNBOUNDED
    status, _, _ = solve_standard_lp([], [], [-1])
    assert status == UNBOUNDED
