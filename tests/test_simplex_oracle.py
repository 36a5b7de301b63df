"""The fraction-free simplex against the Fraction simplex it replaced.

solve_standard_lp used to keep its tableau, costs and reduced costs as
Fractions and divide the pivot row by the pivot.  That solver is kept here
as the oracle, verbatim in behaviour apart from a log of its pivots and of
what it did to each artificial variable left in the basis.  On
seeded LPs, and on the tableaux the stability code builds, the integer
tableau must make the same (row, column) pivots and return the same status,
x and value, with the same types.
"""

import random
from fractions import Fraction

import pytest

from chowstab import FP, QQ, destab_search, SearchBudget, simplex, \
    stability, torus_certificate
from chowstab.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, \
    LinearProgramError, solve_standard_lp

from conftest import random_homogeneous, random_standard_lp


# -- the old path, verbatim in behaviour ---------------------------------------

def oracle_solve(rows, rhs, cost, pivots, drive_outs):
    m = len(rows)
    n = len(cost)
    A = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    for i in range(m):
        if len(A[i]) != n:
            raise LinearProgramError("ragged constraint matrix")
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]

    tableau = [A[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
               + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    phase1_cost = [Fraction(0)] * n + [Fraction(1)] * m
    _oracle_run(tableau, basis, phase1_cost, n + m, pivots)
    if sum(tableau[i][-1] * phase1_cost[basis[i]] for i in range(m)) != 0:
        return INFEASIBLE, [], Fraction(0)

    i = 0
    while i < len(tableau):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is None:
                drive_outs.append("dropped")
                del tableau[i]
                del basis[i]
                continue
            drive_outs.append("negative" if tableau[i][col] < 0
                              else "positive")
            _oracle_pivot(tableau, basis, i, col, pivots)
        i += 1
    tableau = [row[:n] + [row[-1]] for row in tableau]

    full_cost = [Fraction(v) for v in cost]
    status = _oracle_run(tableau, basis, full_cost, n, pivots)
    if status == UNBOUNDED:
        return UNBOUNDED, [], Fraction(0)
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        x[var] = tableau[i][-1]
    value = sum(c * v for c, v in zip(full_cost, x))
    return OPTIMAL, x, value


def _oracle_run(tableau, basis, cost, allowed, pivots):
    m = len(tableau)
    width = allowed + 1
    obj = []
    for j in range(width):
        cj = cost[j] if j < len(cost) else Fraction(0)
        obj.append(cj - sum(cost[basis[i]] * tableau[i][j] for i in range(m)))
    while True:
        entering = next((j for j in range(allowed) if obj[j] < 0), None)
        if entering is None:
            return OPTIMAL
        leaving = None
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _oracle_pivot(tableau, basis, leaving, entering, pivots)
        factor = obj[entering]
        if factor != 0:
            prow = tableau[leaving]
            obj[:] = [a - factor * b for a, b in zip(obj, prow)]


def _oracle_pivot(tableau, basis, row, col, pivots):
    pivots.append((row, col))
    inv = 1 / tableau[row][col]
    tableau[row] = [v * inv for v in tableau[row]]
    for i in range(len(tableau)):
        if i == row:
            continue
        factor = tableau[i][col]
        if factor != 0:
            tableau[i] = [a - factor * b
                          for a, b in zip(tableau[i], tableau[row])]
    basis[row] = col


# -- comparison -------------------------------------------------------------------

@pytest.fixture
def solve_logged(monkeypatch):
    """solve_standard_lp returning (result, pivots made)."""
    pivots = []
    pivot = simplex._pivot

    def logged(rows, basis, row, col, det):
        pivots.append((row, col))
        return pivot(rows, basis, row, col, det)

    monkeypatch.setattr(simplex, "_pivot", logged)

    def solve(rows, rhs, cost):
        pivots.clear()
        return solve_standard_lp(rows, rhs, cost), list(pivots)
    return solve


def _typed(result):
    status, x, value = result
    return (status, [(v, type(v)) for v in x], (value, type(value)))


def _assert_same(solve_logged, rows, rhs, cost):
    """Compare both solvers; returns the status and the drive-out events."""
    pivots = []
    drive_outs = []
    expected = oracle_solve(rows, rhs, cost, pivots, drive_outs)
    got, got_pivots = solve_logged(rows, rhs, cost)
    assert _typed(got) == _typed(expected), (rows, rhs, cost)
    assert got_pivots == pivots, (rows, rhs, cost)
    return got[0], drive_outs


def test_seeded_lps_match_fraction_simplex(solve_logged):
    rng = random.Random(2024)
    statuses = {INFEASIBLE: 0, OPTIMAL: 0, UNBOUNDED: 0}
    events = {"dropped": 0, "negative": 0, "positive": 0}
    for _ in range(600):
        rows, rhs, cost = random_standard_lp(rng)
        status, drive_outs = _assert_same(solve_logged, rows, rhs, cost)
        statuses[status] += 1
        for event in drive_outs:
            events[event] += 1
    assert min(statuses.values()) >= 40, statuses
    assert min(events.values()) >= 3, events


def test_stability_tableaux_match_fraction_simplex(solve_logged, monkeypatch):
    # the interior, separation and cone LPs of seeded supports, and the
    # separation LPs of a search
    seen = []
    solve = stability.solve_standard_lp

    def record(rows, rhs, cost):
        seen.append((rows, rhs, cost))
        return solve(rows, rhs, cost)

    monkeypatch.setattr(stability, "solve_standard_lp", record)
    rng = random.Random(77)
    for _ in range(80):
        n1 = rng.randrange(2, 5)
        domain = rng.choice([QQ, FP(3)])
        f = random_homogeneous(rng, n1, rng.randrange(1, 5),
                               rng.randrange(1, 9), domain)
        torus_certificate(f)
    destab_search(random_homogeneous(rng, 3, 3, 4, QQ),
                  SearchBudget(max_candidates=10, depth=1, seed=3))
    monkeypatch.setattr(stability, "solve_standard_lp", solve)
    assert len(seen) >= 100
    has_fraction = 0
    for rows, rhs, cost in seen:
        _assert_same(solve_logged, rows, rhs, cost)
        has_fraction += any(isinstance(v, Fraction) for row in rows
                            for v in row)
    assert has_fraction > 0
