"""Weighted threshold bounds, Frobenius-power intervals, verdict rule."""

import itertools
import random
from fractions import Fraction

import pytest

from chowstab import FP, INFINITY, QQ, Poly, PreconditionError, LeeOutcome, \
    blowup_discrepancy, fpt_interval, fpt_nu, lct_bound_optimize, \
    lct_upper_bound, lee_verdict, parse_poly
from chowstab import thresholds
from chowstab.thresholds import WeightAssignment

from conftest import random_affine


CUSP = parse_poly("x0^2 + x1^3", 2, QQ)


# -- weighted upper bounds -------------------------------------------------------

def test_lct_bound_pure_power():
    for a in range(1, 6):
        f = parse_poly(f"x0^{a}", 1, QQ)
        assert lct_upper_bound(f, (1,)) == Fraction(1, a)  # tight for monomials


def test_lct_bound_cusp():
    assert lct_upper_bound(CUSP, (3, 2)) == Fraction(5, 6)
    assert lct_upper_bound(CUSP, (1, 1)) == 1  # weaker but valid


def test_lct_bound_vacuous_off_divisor():
    f = parse_poly("1 + x0", 1, QQ)
    assert lct_upper_bound(f, (1,)) == INFINITY


def test_lct_bound_errors():
    with pytest.raises(PreconditionError):
        lct_upper_bound(Poly.zero(2, QQ), (1, 1))
    with pytest.raises(PreconditionError):
        lct_upper_bound(CUSP, (0, 0))


def test_optimize_cusp():
    best = lct_bound_optimize(CUSP, 6)
    assert best.best_bound == Fraction(5, 6)
    assert tuple(best.best_w) == (3, 2)


def test_optimize_xy_tie_break():
    f = parse_poly("x0*x1", 2, QQ)
    best = lct_bound_optimize(f, 3)
    assert best.best_bound == 1
    assert tuple(best.best_w) == (0, 1)  # lex-smallest among the ties


def test_optimize_smooth():
    f = parse_poly("x0", 1, QQ)
    assert lct_bound_optimize(f, 4).best_bound == 1


def test_optimize_rejects_off_divisor():
    with pytest.raises(PreconditionError):
        lct_bound_optimize(parse_poly("1 + x0", 1, QQ), 3)


def test_optimize_cap_refused_before_any_weight(monkeypatch):
    calls = []
    real = thresholds.min_inner_product

    def counted(f, w):
        calls.append(w)
        return real(f, w)

    monkeypatch.setattr(thresholds, "min_inner_product", counted)
    f = parse_poly("x0^2 + x1^3 + x2^5", 3, QQ)
    with pytest.raises(PreconditionError,
                       match=r"\(max_weight\+1\)\^n = 64481201 exceeds the "
                             r"search limit 10000000"):
        lct_bound_optimize(f, 400)
    assert calls == []
    monkeypatch.setattr(thresholds, "_MAX_WEIGHTS", 63)  # 4^3 = 64 weights
    with pytest.raises(PreconditionError):
        lct_bound_optimize(f, 3)
    assert calls == []
    monkeypatch.setattr(thresholds, "_MAX_WEIGHTS", 64)
    assert lct_bound_optimize(f, 3).best_bound == Fraction(7, 6)
    assert len(calls) > 0


def test_monomial_exhaustive_bound_is_exact():
    # For a monomial the best bound is min_i 1/a_i, hit at a coordinate weight.
    for n in (1, 2, 3):
        for exps in itertools.product(range(5), repeat=n):
            if not any(exps):
                continue
            terms = {tuple(exps): 1}
            f = Poly(n, QQ, terms)
            best = lct_bound_optimize(f, 4)
            assert best.best_bound == Fraction(1, max(exps))


def test_blowup_discrepancy_examples():
    assert blowup_discrepancy(CUSP, (3, 2), Fraction(5, 6)) == -1
    assert blowup_discrepancy(CUSP, (3, 2), 0) == -1 + 5
    assert blowup_discrepancy(CUSP, (3, 2), 1) == -2  # not lc at c = 1


def test_blowup_critical_coefficient_random():
    rng = random.Random(300)
    for _ in range(100):
        f = random_affine(rng, rng.randrange(1, 4), 4, 5, QQ)
        w = tuple(rng.randrange(0, 4) for _ in range(f.nvars))
        if not any(w):
            w = (1,) * f.nvars
        bound = lct_upper_bound(f, w)
        if bound == INFINITY:
            continue
        total = sum(w)
        assert blowup_discrepancy(f, w, bound) == -1


def test_weight_assignment_validation():
    with pytest.raises(PreconditionError):
        WeightAssignment((0, 0))
    with pytest.raises(PreconditionError):
        WeightAssignment((-1, 2))


# -- Frobenius powers -------------------------------------------------------------

def test_fpt_nu_linear():
    for p, e in [(2, 1), (2, 3), (3, 2), (5, 1)]:
        f = parse_poly("x0", 1, FP(p))
        assert fpt_nu(f, e) == p ** e - 1


def test_fpt_nu_square_f3():
    f = parse_poly("x0^2", 1, FP(3))
    assert fpt_nu(f, 2) == 4  # 2N <= 8


def _nu_by_full_expansion(f, e):
    """Independent oracle: expand f^N with no truncation."""
    q = f.domain.p ** e
    nu = 0
    power = Poly.constant(f.nvars, f.domain, 1)
    while True:
        power = power * f
        if not any(all(x < q for x in exp) for exp in power.terms):
            return nu
        nu += 1


def test_fpt_nu_against_expansion_oracle():
    rng = random.Random(301)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        e = rng.choice([1, 2]) if p < 5 else 1
        f = random_affine(rng, 2, 3, 3, FP(p))
        assert fpt_nu(f, e) == _nu_by_full_expansion(f, e)


def test_fpt_nu_preconditions():
    with pytest.raises(PreconditionError):
        fpt_nu(parse_poly("x0", 1, QQ), 1)       # wrong domain
    with pytest.raises(PreconditionError):
        fpt_nu(parse_poly("1 + x0", 1, FP(2)), 1)  # misses the origin
    with pytest.raises(PreconditionError):
        fpt_nu(parse_poly("x0", 1, FP(2)), 20)     # p^e over the limit


def test_fpt_nu_cap_is_a_module_constant(monkeypatch):
    f = parse_poly("x0", 1, FP(2))
    monkeypatch.setattr(thresholds, "_MAX_PRIME_POWER", 8)
    assert fpt_nu(f, 3) == 7
    with pytest.raises(PreconditionError,
                       match=r"p\^e = 16 exceeds the configured limit 8"):
        fpt_nu(f, 4)
    with pytest.raises(PreconditionError, match="limit 8"):
        fpt_interval(f, 4)


def test_fpt_nu_product_cap_is_checked_before_the_product(monkeypatch):
    f = parse_poly("x0^2 + x1^3 + x0*x1^5", 2, FP(2))
    pairs = []
    mul = Poly.__mul__

    def counted(a, b):
        pairs.append(len(a) * len(b))
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    assert fpt_nu(f, 4) == 7
    largest = max(pairs)
    assert largest == 33
    pairs.clear()
    monkeypatch.setattr(thresholds, "_MAX_PRODUCT_TERMS", largest)
    assert fpt_nu(f, 4) == 7
    assert max(pairs) == largest
    pairs.clear()
    monkeypatch.setattr(thresholds, "_MAX_PRODUCT_TERMS", largest - 1)
    with pytest.raises(PreconditionError,
                       match=r"product of 11 by 3 terms exceeds the limit 32"):
        fpt_nu(f, 4)
    assert pairs and max(pairs) < largest


def test_fpt_interval_examples():
    f = parse_poly("x0^2", 1, FP(3))
    interval = fpt_interval(f, 2)
    assert (interval.lower, interval.upper) == (Fraction(4, 9), Fraction(5, 9))
    assert interval.lower <= Fraction(1, 2) <= interval.upper  # true fpt = 1/2

    g = parse_poly("x0", 1, FP(2))
    interval = fpt_interval(g, 3)
    assert (interval.lower, interval.upper) == (Fraction(7, 8), Fraction(1))

    h = parse_poly("x0*x1", 2, FP(2))
    interval = fpt_interval(h, 2)
    assert (interval.lower, interval.upper) == (Fraction(3, 4), Fraction(1))
    assert interval.lower <= 1 <= interval.upper


def test_fpt_intervals_nested_and_monotone():
    rng = random.Random(302)
    for _ in range(25):
        p = rng.choice([2, 3])
        f = random_affine(rng, 2, 3, 3, FP(p))
        nus = [fpt_nu(f, e) for e in (1, 2, 3)] if p == 2 else \
            [fpt_nu(f, e) for e in (1, 2)]
        for e, (n1, n2) in enumerate(zip(nus, nus[1:]), start=1):
            assert n2 >= p * n1
            # intervals [n/p^e, (n+1)/p^e] intersect
            assert Fraction(n2, p ** (e + 1)) <= Fraction(n1 + 1, p ** e)
        interval = fpt_interval(f, len(nus))
        assert interval.upper - interval.lower == Fraction(1, p ** len(nus))


# -- the verdict rule --------------------------------------------------------------

def test_lee_verdict_smooth_quartic_plane():
    v = lee_verdict(2, 4, 1, "lct_lower")
    assert v.outcome is LeeOutcome.STABLE
    assert v.threshold == Fraction(3, 4)
    assert not v.boundary


def test_lee_verdict_multiple_cubic_is_blind():
    # double smooth cubic in P^3: true threshold 1/2 < 4/6, no conclusion
    v = lee_verdict(3, 6, Fraction(1, 2), "lct_lower")
    assert v.outcome is LeeOutcome.INCONCLUSIVE


def test_lee_verdict_boundary():
    v = lee_verdict(2, 3, 1, "lct_lower")
    assert v.outcome is LeeOutcome.SEMISTABLE
    assert v.boundary


def test_lee_verdict_kinds_agree():
    # same certified number, either provenance: identical decision
    for bound in (Fraction(1), Fraction(3, 4), Fraction(1, 2), INFINITY):
        a = lee_verdict(2, 4, bound, "lct_lower")
        b = lee_verdict(2, 4, bound, "fpt_lower")
        assert a.outcome == b.outcome


def test_lee_verdict_errors():
    with pytest.raises(PreconditionError):
        lee_verdict(0, 3, 1, "lct_lower")
    with pytest.raises(PreconditionError):
        lee_verdict(2, 0, 1, "lct_lower")
    with pytest.raises(PreconditionError):
        lee_verdict(2, 3, 1, "upper")


def test_fpt_route_consistency_on_charts():
    # a cubic through every coordinate point: fpt interval at each chart
    # origin; the minimum lower end feeds both verdict kinds identically
    f = parse_poly("x0^2*x1 + x1^2*x2 + x2^2*x0", 3, FP(7))
    lowers = []
    for i in range(3):
        chart = f.dehomogenize(i)
        assert chart.constant_coefficient() == 0
        lowers.append(fpt_interval(chart, 2).lower)
    bound = min(lowers)
    assert lee_verdict(2, 3, bound, "fpt_lower").outcome == \
        lee_verdict(2, 3, bound, "lct_lower").outcome
