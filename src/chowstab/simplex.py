"""Exact two-phase simplex over the rationals.

Solves  minimize c.x  subject to  A x = b, x >= 0  with Fraction arithmetic
and Bland's anti-cycling rule, so optima are exact and runs terminate.
Stability certificates are built on top of this; floating point would
invalidate them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

INFEASIBLE = "infeasible"
OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


class LinearProgramError(Exception):
    pass


def solve_standard_lp(rows: Sequence[Sequence], rhs: Sequence,
                      cost: Sequence) -> tuple[str, list, Fraction]:
    """Minimize cost.x over {A x = b, x >= 0}.

    Returns (status, x, value); x and value are meaningful only when the
    status is OPTIMAL.
    """
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

    # Phase 1: artificial variables n .. n+m-1 form the starting basis.
    tableau = [A[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
               + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    phase1_cost = [Fraction(0)] * n + [Fraction(1)] * m
    _run_simplex(tableau, basis, phase1_cost, allowed=n + m)
    if sum(tableau[i][-1] * phase1_cost[basis[i]] for i in range(m)) != 0:
        return INFEASIBLE, [], Fraction(0)

    # Drive remaining artificial variables out of the basis (or drop the row).
    i = 0
    while i < len(tableau):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is None:
                del tableau[i]
                del basis[i]
                continue
            _pivot(tableau, basis, i, col)
        i += 1
    tableau = [row[:n] + [row[-1]] for row in tableau]

    # Phase 2 on the original objective.
    full_cost = [Fraction(v) for v in cost]
    status = _run_simplex(tableau, basis, full_cost, allowed=n)
    if status == UNBOUNDED:
        return UNBOUNDED, [], Fraction(0)
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        x[var] = tableau[i][-1]
    value = sum(c * v for c, v in zip(full_cost, x))
    return OPTIMAL, x, value


def _run_simplex(tableau, basis, cost, allowed: int) -> str:
    """Bland-rule simplex on an equality tableau with rhs in the last column."""
    m = len(tableau)
    width = allowed + 1  # the rows are the allowed columns, then the rhs
    # Reduced-cost row, priced against the starting basis and updated per pivot.
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
        _pivot(tableau, basis, leaving, entering)
        factor = obj[entering]
        if factor != 0:
            prow = tableau[leaving]
            obj[:] = [a - factor * b for a, b in zip(obj, prow)]


def _pivot(tableau, basis, row: int, col: int):
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
