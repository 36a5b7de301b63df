"""Acceptance suite: every criterion runs at its stated tolerance (exact,
tolerance zero throughout) and prints one PASS/FAIL line with its runtime."""

import itertools
import math
import random
import time
from fractions import Fraction

from chowstab import FP, QQ, Poly, SearchBudget, Verdict, \
    cyclic_critical_exponent, destab_search, discriminant_binary, lee_verdict, \
    lct_bound_optimize, blowup_discrepancy, fpt_interval, lee_ratio, \
    lift_support, mu_hypersurface, multiple_cycle, parse_poly, \
    quartic_st_generic, reduce_mod_p, singular_locus_enumerate, \
    torus_certificate, LeeOutcome
from chowstab.poly import min_inner_product

from conftest import PRIMES_TO_97, brute_force_mu, random_domain, \
    random_homogeneous, random_normalized_weight, random_weight


class criterion:
    """Times a criterion body and prints the single PASS/FAIL line."""

    def __init__(self, number, limit_s, description):
        self.number = number
        self.limit = limit_s
        self.description = description

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.limit
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {self.number:2d}] {status}  "
              f"{elapsed:6.2f}s / {self.limit}s  {self.description}")
        if exc_type is None and elapsed >= self.limit:
            raise AssertionError(
                f"criterion {self.number}: runtime {elapsed:.2f}s over budget")
        return False


def test_criterion_01_mu_oracle_equivalence():
    with criterion(1, 5, "mu equals brute-force enumeration on 1000 cases"):
        rng = random.Random(20240901)
        for _ in range(1000):
            n = rng.randrange(1, 5)          # ambient dimension <= 4
            nvars = n + 1
            f = random_homogeneous(rng, nvars, rng.randrange(1, 7),
                                   rng.randrange(1, 21), random_domain(rng))
            r = random_weight(rng, nvars, bound=5)
            assert mu_hypersurface(f, r) == brute_force_mu(f, r.entries)


def test_criterion_02_chart_weight_identity():
    with criterion(2, 5, "d*sum w(x_I) - (n+1)*w(f) + (n+1)*mu = 0, 1000 cases"):
        rng = random.Random(20240902)
        for _ in range(1000):
            n = rng.randrange(1, 5)
            nvars = n + 1
            f = random_homogeneous(rng, nvars, rng.randrange(1, 6),
                                   rng.randrange(1, 15), random_domain(rng))
            r = random_normalized_weight(rng, nvars, bound=5)
            d = f.homogeneous_degree
            # independent recomputation, straight from the definitions
            r0 = r.entries[0]
            sum_wxi = sum(ri - r0 for ri in r.entries[1:])
            chart = f.dehomogenize(0)
            weights = [ri - r0 for ri in r.entries[1:]]
            w_f = min(sum(w * a for w, a in zip(weights, exp))
                      for exp in chart.terms)
            mu = brute_force_mu(f, r.entries)
            assert d * sum_wxi - nvars * w_f + nvars * mu == 0
            # the library's sides of the same identity
            ratio = lee_ratio(f, r)
            assert (ratio.w_f, ratio.sum_wxI) == (w_f, sum_wxi)
            assert mu_hypersurface(f, r) == mu


def test_criterion_03_torus_certificates():
    fermat = parse_poly("x0^3 + x1^3 + x2^3", 3, QQ)
    triangle = parse_poly("x0*x1*x2", 3, QQ)
    cusp = parse_poly("x1^2*x2 - x0^3", 3, QQ)
    with criterion(3, 1, "Fermat cubic: stable torus"):
        assert torus_certificate(fermat).verdict is Verdict.STABLE
    with criterion(3, 1, "triangle of lines: strictly semistable torus"):
        cert = torus_certificate(triangle)
        assert cert.verdict is Verdict.STRICTLY_SEMISTABLE
        assert cert.mu_value == 0
    with criterion(3, 1, "cuspidal cubic: unstable with primitive witness"):
        cert = torus_certificate(cusp)
        assert cert.verdict is Verdict.UNSTABLE
        assert cert.mu_value >= 1
        entries = cert.witness_r.entries
        assert all(isinstance(e, int) for e in entries)
        assert math.gcd(*(abs(e) for e in entries)) == 1
        assert mu_hypersurface(cusp, cert.witness_r) == cert.mu_value


def test_criterion_04_quartic_discriminant_reproduction():
    with criterion(4, 10, "27*Res = 16*(4S^3 - T^2); mod 2 D = (T mod 2)^2"):
        res = discriminant_binary(4, "generic")
        s, t, dpoly = quartic_st_generic()
        assert res.scale(27) == dpoly.scale(16)  # frozen oracle scalar 16/27
        t2 = reduce_mod_p(t, 2)
        d2 = reduce_mod_p(dpoly, 2)
        a = [Poly.variable(5, FP(2), i) for i in range(5)]
        trinomial = a[0] * a[3] * a[3] + a[1] * a[2] * a[3] + a[1] * a[1] * a[4]
        assert t2 == trinomial
        assert d2 == trinomial * trinomial


def test_criterion_05_mu_additivity_and_three_lines():
    with criterion(5, 5, "mu(FG) = mu(F)+mu(G), mu(F^m) = m*mu(F), three lines"):
        rng = random.Random(20240905)
        for _ in range(500):
            domain = random_domain(rng)
            f = random_homogeneous(rng, 3, rng.randrange(1, 4), 5, domain)
            g = random_homogeneous(rng, 3, rng.randrange(1, 4), 5, domain)
            r = random_weight(rng, 3)
            assert mu_hypersurface(f * g, r) == \
                mu_hypersurface(f, r) + mu_hypersurface(g, r)
        for _ in range(500):
            domain = random_domain(rng)
            f = random_homogeneous(rng, 3, rng.randrange(1, 4), 5, domain)
            m = rng.randrange(1, 5)
            r = random_weight(rng, 3)
            assert mu_hypersurface(multiple_cycle(f, m), r) == \
                m * mu_hypersurface(f, r)
        triangle = parse_poly("x0*x1*x2", 3, QQ)
        assert torus_certificate(triangle).verdict \
            is Verdict.STRICTLY_SEMISTABLE
        for i in range(3):
            line = parse_poly(f"x{i}", 3, QQ)
            assert torus_certificate(line).verdict is Verdict.UNSTABLE


def test_criterion_06_support_preserving_transfer():
    with criterion(6, 5, "lift preserves support; mu agrees on 100 weights x 100"):
        rng = random.Random(20240906)
        for _ in range(100):
            p = rng.choice(PRIMES_TO_97)
            f = random_homogeneous(rng, rng.randrange(2, 5),
                                   rng.randrange(1, 5),
                                   rng.randrange(1, 10), FP(p))
            lifted = lift_support(f)
            assert lifted.support() == f.support()
            assert reduce_mod_p(lifted, p) == f
            weights = random.Random(rng.randrange(10**6))
            for _ in range(100):
                w = random_weight(weights, f.nvars).entries
                assert min_inner_product(f, w) == \
                    min_inner_product(lifted, w)


def test_criterion_07_threshold_bounds():
    with criterion(7, 10, "cusp 5/6 at (3,2); discrepancy -1; fpt [4/9,5/9]; "
                          "monomial bounds exact"):
        cusp = parse_poly("x0^2 + x1^3", 2, QQ)
        best = lct_bound_optimize(cusp, 6)
        assert best.best_bound == Fraction(5, 6)
        assert tuple(best.best_w) == (3, 2)
        assert blowup_discrepancy(cusp, (3, 2), Fraction(5, 6)) == -1
        interval = fpt_interval(parse_poly("x0^2", 1, FP(3)), 2)
        assert (interval.lower, interval.upper) == \
            (Fraction(4, 9), Fraction(5, 9))
        for n in (1, 2, 3):
            for exps in itertools.product(range(5), repeat=n):
                if not any(exps):
                    continue
                f = Poly(n, QQ, {tuple(exps): 1})
                assert lct_bound_optimize(f, 4).best_bound == \
                    Fraction(1, max(exps))


def test_criterion_08_critical_locus_checks():
    with criterion(8, 5, "quadric critical locus empty; cyclic cubic mod 3 "
                         "nonempty over F9; exponent 9"):
        quadric = parse_poly("x0*x1 + x2*x3", 4, FP(2))
        assert singular_locus_enumerate(quadric, 1) == []
        assert singular_locus_enumerate(quadric, 2) == []
        cyclic = parse_poly("x0^2*x1 + x1^2*x2 + x2^2*x0", 3, FP(3))
        points = singular_locus_enumerate(cyclic, 2)
        assert len(points) >= 1
        assert cyclic_critical_exponent(2, 3) == 9


def test_criterion_09_multiple_cubic_negative_control():
    with criterion(9, 5, "m-fold smooth cubic in P^3: threshold route blind, "
                         "torus stability preserved"):
        rng = random.Random(20240909)
        cubic = parse_poly("x0^3 + x1^3 + x2^3 + x3^3", 4, QQ)
        assert torus_certificate(cubic).verdict is Verdict.STABLE
        for m in (1, 2, 3, 4):
            # the certified threshold of the m-fold cubic is 1/m, which can
            # never clear (n+1)/d = 4/(3m): the verdict rule stays silent
            verdict = lee_verdict(3, 3 * m, Fraction(1, m), "lct_lower")
            assert verdict.outcome is LeeOutcome.INCONCLUSIVE
        for m in (2, 3):
            power = multiple_cycle(cubic, m)
            assert torus_certificate(power).verdict is Verdict.STABLE
            for _ in range(25):
                r = random_weight(rng, 4)
                assert mu_hypersurface(power, r) == \
                    m * mu_hypersurface(cubic, r)


def test_criterion_10_search_consistency_with_smooth_stability():
    budget = SearchBudget(max_candidates=2000, transvection_scalars=(1, -1),
                          depth=2, seed=20240910)
    fermat_q = parse_poly("x0^3 + x1^3 + x2^3", 3, QQ)
    fermat_5 = parse_poly("x0^3 + x1^3 + x2^3", 3, FP(5))
    klein_2 = parse_poly("x0^3*x1 + x1^3*x2 + x2^3*x0", 3, FP(2))
    with criterion(10, 60, "no destabilization found for smooth forms at "
                           "default budget"):
        for f in (fermat_q, fermat_5, klein_2):
            cert = destab_search(f, budget)
            assert cert.verdict is Verdict.UNKNOWN
            assert cert.search_budget_used.candidates_enumerated == \
                1 + 17 + 17 ** 2 + 2000
