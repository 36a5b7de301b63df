"""Exact two-phase simplex on fraction-free integer tableaux.

Solves  minimize c.x  subject to  A x = b, x >= 0  for int or Fraction data
with Bland's anti-cycling rule; each pivot is an integer Bareiss step
(Edmonds 1967; Bareiss 1968), so optima are exact and runs terminate.
Stability certificates are built on top of this; floating point would
invalidate them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Sequence

from .poly import _bareiss_step

INFEASIBLE = "infeasible"
OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


class LinearProgramError(Exception):
    pass


def solve_standard_lp(rows: Sequence[Sequence], rhs: Sequence,
                      cost: Sequence) -> tuple[str, list, Fraction]:
    """Minimize cost.x over {A x = b, x >= 0}; entries are ints or Fractions.

    Returns (status, x, value); x and value are meaningful only when the
    status is OPTIMAL.
    """
    m = len(rows)
    n = len(cost)
    # Phase 1: artificial variables n .. n+m-1 form the starting basis.  Row
    # i, scaled to integers by s_i with its rhs >= 0, scales its artificial
    # by s_i; costing that one lcm(s) / s_i keeps the phase-1 objective a
    # positive multiple of the plain sum, so Bland's choices stay the same.
    tableau = []
    scales = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise LinearProgramError("ragged constraint matrix")
        # reduce: lcm(*...) would leave a tuple of each row length on free lists
        scales.append(reduce(lcm, (v.denominator for v in [*row, rhs[i]])))
        s = -scales[i] if rhs[i] < 0 else scales[i]
        tableau.append([int(v * s) for v in row]
                       + [int(j == i) for j in range(m)] + [int(rhs[i] * s)])
    basis = list(range(n, n + m))
    common = reduce(lcm, scales, 1)
    phase1_cost = [0] * n + [common // s for s in scales]
    _, det = _run_simplex(tableau, basis, phase1_cost, 1)
    if any(row[-1] for row, var in zip(tableau, basis) if var >= n):
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
            if tableau[i][col] < 0:
                # the rhs is 0, so the negated row is the same constraint,
                # and the pivot, the next det, stays positive
                tableau[i] = [-v for v in tableau[i]]
            det = _pivot(tableau, basis, i, col, det)
        i += 1
    tableau = [row[:n] + [row[-1]] for row in tableau]

    # Phase 2 on the original objective, scaled to integers.
    scale = reduce(lcm, (c.denominator for c in cost), 1)
    status, det = _run_simplex(tableau, basis, [int(c * scale) for c in cost],
                               det)
    if status == UNBOUNDED:
        return UNBOUNDED, [], Fraction(0)
    x = [Fraction(0)] * n
    for row, var in zip(tableau, basis):
        x[var] = Fraction(row[-1], det)
    value = sum(c * v for c, v in zip(cost, x))
    return OPTIMAL, x, value


def _run_simplex(tableau, basis, cost, det: int):
    """Bland-rule simplex on an equality tableau whose rows hold the columns
    that cost prices, then the rhs; an empty tableau keeps that width.

    Every entry, the reduced costs included, is det > 0, the last pivot,
    times its rational value.  Returns the status and the det at the end.
    """
    m = len(tableau)
    # Reduced-cost row, the rhs last, priced against the starting basis;
    # each pivot then updates it with the constraint rows.
    obj = [det * c - sum(cost[basis[i]] * tableau[i][j] for i in range(m))
           for j, c in enumerate([*cost, 0])]
    rows = tableau + [obj]
    while True:
        entering = next((j for j in range(len(cost)) if obj[j] < 0), None)
        if entering is None:
            return OPTIMAL, det
        # least rhs / a over a > 0, cross-multiplied; a tie goes to the least
        # basis index
        leaving = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                if leaving is not None:
                    best = tableau[leaving]
                    cross = tableau[i][-1] * best[entering] - best[-1] * a
                if leaving is None or cross < 0 or (
                        cross == 0 and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            return UNBOUNDED, det
        det = _pivot(rows, basis, leaving, entering, det)


def _pivot(rows, basis, row: int, col: int, det: int) -> int:
    """Pivot on rows[row][col] > 0, which stays; returns it, the new det."""
    pivot_row = rows[row]
    for i, other in enumerate(rows):
        if i != row:
            _bareiss_step(other, pivot_row, col, det)
    basis[row] = col
    return pivot_row[col]
