"""Independent cross-check of the exact simplex and of the separation and
interior LPs against scipy.

scipy only confirms the optimum numerically; the exact rational answer is
the authority.  Skipped quietly when scipy is unavailable.
"""

import random
from fractions import Fraction

import pytest

from chowstab import stability
from chowstab.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, \
    solve_standard_lp

from conftest import random_exponent, random_standard_lp

scipy_opt = pytest.importorskip("scipy.optimize")


def _scipy_maxmin(points, c):
    """max t s.t. <r, p - c> >= t, sum r = 0, -1 <= r <= 1, via HiGHS."""
    dim = len(c)
    m = len(points)
    # variables: r_0..r_{dim-1}, t
    cost = [0.0] * dim + [-1.0]
    a_ub = []
    for p in points:
        a_ub.append([-(pi - ci) for pi, ci in zip(p, c)] + [1.0])
    b_ub = [0.0] * m
    a_eq = [[1.0] * dim + [0.0]]
    b_eq = [0.0]
    bounds = [(-1.0, 1.0)] * dim + [(None, None)]
    res = scipy_opt.linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                            bounds=bounds, method="highs")
    assert res.status == 0
    return -res.fun


def test_separation_lp_matches_scipy():
    rng = random.Random(500)
    for _ in range(40):
        dim = rng.randrange(2, 5)
        npts = rng.randrange(1, 8)
        d = rng.randrange(1, 6)
        points = []
        for _ in range(npts):
            cuts = sorted(rng.randrange(d + 1) for _ in range(dim - 1))
            parts, prev = [], 0
            for cut in cuts:
                parts.append(cut - prev)
                prev = cut
            parts.append(d - prev)
            points.append(tuple(parts))
        center = [Fraction(d, dim)] * dim
        shifted = [tuple(a - c for a, c in zip(p, center)) for p in points]
        exact = stability._box_lp(shifted, [0] * dim, True)
        approx = _scipy_maxmin(points, [float(x) for x in center])
        assert abs(float(exact.t_star) - approx) < 1e-7


def _scipy_interior(points, d):
    """max t s.t. sum_a (t + mu_a) a = c, t, mu >= 0; None if infeasible."""
    dim = len(points[0])
    a_eq = [[sum(p[i] for p in points)] + [p[i] for p in points]
            for i in range(dim)]
    b_eq = [d / dim] * dim
    cost = [-1.0] + [0.0] * len(points)
    res = scipy_opt.linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                            method="highs")
    if res.status == 2:
        return None
    assert res.status == 0
    return -res.fun


def test_interior_lp_matches_scipy():
    rng = random.Random(501)
    infeasible = 0
    for _ in range(60):
        dim = rng.randrange(2, 6)
        d = rng.randrange(1, 6)
        points = sorted({random_exponent(rng, dim, d)
                         for _ in range(rng.randrange(1, 11))})
        exact = stability._interior_lp(points, d)
        approx = _scipy_interior(points, d)
        assert (exact is None) == (approx is None), points
        if exact is None:
            infeasible += 1
        else:
            assert abs(float(exact) - approx) < 1e-7
    assert 0 < infeasible < 60


def test_standard_lp_matches_scipy():
    # status and optimum of solve_standard_lp itself on seeded LPs
    rng = random.Random(502)
    scipy_status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
    seen = set()
    for _ in range(200):
        rows, rhs, cost = random_standard_lp(rng)
        status, _, value = solve_standard_lp(rows, rhs, cost)
        res = scipy_opt.linprog([float(c) for c in cost],
                                A_eq=[[float(v) for v in row] for row in rows]
                                or None,
                                b_eq=[float(b) for b in rhs] or None,
                                bounds=(0, None), method="highs")
        assert status == scipy_status[res.status], (rows, rhs, cost)
        if status == OPTIMAL:
            assert abs(float(value) - res.fun) < 1e-7, (rows, rhs, cost)
        seen.add(status)
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}
