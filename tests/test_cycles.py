"""Sums, multiples, and characteristic-zero transfer of Chow forms."""

import random

import pytest

from chowstab import FP, QQ, ZZ, Poly, PreconditionError, Verdict, \
    lift_support, mu_hypersurface, multiple_cycle, parse_poly, reduce_mod_p, \
    sum_cycles, torus_certificate, transfer_check
from chowstab import cycles

from conftest import PRIMES_TO_97, random_domain, random_homogeneous, \
    random_weight


def test_sum_three_lines_is_triangle():
    lines = [parse_poly(f"x{i}", 3, QQ) for i in range(3)]
    triangle = sum_cycles(sum_cycles(lines[0], lines[1]), lines[2])
    assert triangle == parse_poly("x0*x1*x2", 3, QQ)


def test_sum_degree_adds_support_translates():
    f = parse_poly("x0^2 + x1*x2", 3, QQ)
    g = parse_poly("x0*x2^2", 3, QQ)  # single term: Minkowski translation
    s = sum_cycles(f, g)
    assert s.homogeneous_degree == 5
    assert s.support() == {(3, 0, 2), (1, 1, 3)}


def test_sum_rejects_zero_and_mismatch():
    f = parse_poly("x0", 2, QQ)
    with pytest.raises(PreconditionError):
        sum_cycles(f, Poly.zero(2, QQ))
    with pytest.raises(PreconditionError):
        sum_cycles(f, parse_poly("x0", 2, FP(3)))


def test_multiple_cycle_basics():
    f = parse_poly("x0 + x1", 2, QQ)
    assert multiple_cycle(f, 1) == f
    assert multiple_cycle(f, 2) == sum_cycles(f, f)
    with pytest.raises(PreconditionError):
        multiple_cycle(f, 0)


def test_multiple_cycle_frobenius_support_shrinks():
    f = parse_poly("x0 + x1", 2, FP(2))
    sq = multiple_cycle(f, 2)
    assert sq.support() == {(2, 0), (0, 2)}  # cross term vanished


def test_mu_additivity_random():
    rng = random.Random(200)
    for _ in range(200):
        domain = random_domain(rng)
        f = random_homogeneous(rng, 3, rng.randrange(1, 4), 5, domain)
        g = random_homogeneous(rng, 3, rng.randrange(1, 4), 5, domain)
        r = random_weight(rng, 3)
        assert mu_hypersurface(f * g, r) == \
            mu_hypersurface(f, r) + mu_hypersurface(g, r)


def test_mu_homogeneity_random():
    rng = random.Random(201)
    for _ in range(100):
        domain = random_domain(rng)
        f = random_homogeneous(rng, 3, rng.randrange(1, 4), 5, domain)
        m = rng.randrange(1, 5)
        r = random_weight(rng, 3)
        assert mu_hypersurface(multiple_cycle(f, m), r) == \
            m * mu_hypersurface(f, r)


def test_smooth_cubic_double_keeps_mu_ratio():
    rng = random.Random(202)
    f = parse_poly("x0^3+x1^3+x2^3", 3, QQ)
    sq = multiple_cycle(f, 2)
    for _ in range(50):
        r = random_weight(rng, 3)
        assert mu_hypersurface(sq, r) == 2 * mu_hypersurface(f, r)


def test_sum_stability_consequences():
    stable = parse_poly("x0^3+x1^3+x2^3", 3, QQ)
    semistable = parse_poly("x0*x1*x2", 3, QQ)
    assert torus_certificate(sum_cycles(stable, semistable)).verdict \
        is Verdict.STABLE
    assert torus_certificate(sum_cycles(stable, stable)).verdict \
        is Verdict.STABLE
    both = sum_cycles(semistable, semistable)
    assert torus_certificate(both).verdict is not Verdict.UNSTABLE


def test_sum_stability_consequences_random():
    rng = random.Random(203)
    checked = 0
    for _ in range(60):
        f = random_homogeneous(rng, 3, rng.randrange(1, 5), 4, QQ)
        g = random_homogeneous(rng, 3, rng.randrange(1, 5), 4, QQ)
        vf = torus_certificate(f).verdict
        vg = torus_certificate(g).verdict
        if vf is Verdict.UNSTABLE or vg is Verdict.UNSTABLE:
            continue
        checked += 1
        vs = torus_certificate(f * g).verdict
        assert vs is not Verdict.UNSTABLE
        if vf is Verdict.STABLE:
            assert vs is Verdict.STABLE
    assert checked > 0


# -- lifts -----------------------------------------------------------------------

def test_lift_support_examples():
    f = parse_poly("x0^3 + 2*x1^3", 2, FP(3))
    lifted = lift_support(f)
    assert lifted.domain == ZZ
    assert lifted == parse_poly("x0^3 + 2*x1^3", 2, ZZ)
    g = parse_poly("x0*x1 + x2*x3", 4, FP(2))
    assert lift_support(g) == parse_poly("x0*x1 + x2*x3", 4, ZZ)


def test_lift_support_random_regression():
    rng = random.Random(204)
    for _ in range(500):
        p = rng.choice(PRIMES_TO_97)
        f = random_homogeneous(rng, rng.randrange(2, 5), rng.randrange(1, 5),
                               rng.randrange(1, 8), FP(p))
        lifted = lift_support(f)
        assert lifted.support() == f.support()
        assert all(1 <= c <= p - 1 for c in lifted.terms.values())
        assert reduce_mod_p(lifted, p) == f


def test_lift_rejects_wrong_domain_and_zero():
    with pytest.raises(PreconditionError):
        lift_support(parse_poly("x0", 1, QQ))
    with pytest.raises(PreconditionError):
        lift_support(Poly.zero(2, FP(3)))


def test_transfer_check_all_equal():
    f = parse_poly("x0^2*x1 + 2*x1^2*x2 + x2^3", 3, FP(3))
    report = transfer_check(f, samples=100, seed=42)
    assert report.support_preserved
    assert report.all_equal
    assert len(report.mu_pairs) == 100


def test_transfer_check_rejects_empty_sample():
    # with no samples all_equal would be true of nothing at all
    f = parse_poly("x0^2 + x1^2", 2, FP(3))
    for samples in (0, -5):
        with pytest.raises(PreconditionError, match="samples"):
            transfer_check(f, samples=samples, seed=1)
    assert len(transfer_check(f, samples=1, seed=1).mu_pairs) == 1


def test_transfer_check_samples_within_the_weight_bound(monkeypatch):
    f = parse_poly("x0^2*x1 + 2*x1^2*x2 + x2^3", 3, FP(3))
    entries = [r for w in transfer_check(f, samples=100, seed=42)
               .sampled_weights for r in w.entries]
    assert max(map(abs, entries)) == 5
    monkeypatch.setattr(cycles, "_WEIGHT_BOUND", 1)
    report = transfer_check(f, samples=100, seed=42)
    assert report.all_equal
    entries = [r for w in report.sampled_weights for r in w.entries]
    assert max(map(abs, entries)) == 1


def test_transfer_check_power_stays_in_characteristic():
    # squaring happens per characteristic: the mod-2 square keeps transferring
    f = parse_poly("x0 + x1", 2, FP(2))
    sq = multiple_cycle(f, 2)
    report = transfer_check(sq, samples=50, seed=7)
    assert report.all_equal
    assert lift_support(sq).support() == {(2, 0), (0, 2)}


def test_transfer_verdict_agreement_random():
    rng = random.Random(205)
    for _ in range(40):
        p = rng.choice(PRIMES_TO_97)
        f = random_homogeneous(rng, 3, rng.randrange(1, 5), 5, FP(p))
        assert torus_certificate(f).verdict == \
            torus_certificate(lift_support(f)).verdict
