"""The Frobenius ladder against the per-e loop it replaced.

fpt_nu used to raise f to successive powers, truncating at p^e, from
scratch for each e, and fpt_interval called it once per e = 1..e_max and
checked the results for monotonicity and nesting.  That path is kept here
as the oracle, verbatim in behaviour.  On seeded forms over F_2, F_3, F_5
and F_7 the ladder must give the same nu_by_e, lower and upper ends.
"""

import random
from fractions import Fraction

import pytest

from chowstab import FP, Poly, PreconditionError, fpt_interval, parse_poly, \
    thresholds
from chowstab.thresholds import ThresholdInterval, _check_divisor, _truncate

from conftest import random_affine, random_exponent


# -- the old path, verbatim in behaviour --------------------------------------

def oracle_nu(f, e, max_prime_power=2**16):
    _check_divisor(f)
    if f.domain.kind != "FP":
        raise PreconditionError("fpt_nu expects a prime-field polynomial")
    if f.constant_coefficient() != 0:
        raise PreconditionError("divisor must pass through the origin")
    if e < 1:
        raise PreconditionError("e must be positive")
    q = f.domain.p ** e
    if q > max_prime_power:
        raise PreconditionError(
            f"p^e = {q} exceeds the configured limit {max_prime_power}")
    g = _truncate(f, q)
    nu = 0
    while not g.is_zero():
        nu += 1
        g = _truncate(g * f, q)
    return nu


def oracle_interval(f, e_max, max_prime_power=2**16):
    if e_max < 1:
        raise PreconditionError("e_max must be positive")
    p = f.domain.p if f.domain.kind == "FP" else None
    nus = []
    for e in range(1, e_max + 1):
        nus.append((e, oracle_nu(f, e, max_prime_power)))
    for (e1, n1), (e2, n2) in zip(nus, nus[1:]):
        if n2 < p * n1:
            raise PreconditionError("nu sequence lost monotonicity (bug)")
    lowers = [Fraction(n, p ** e) for e, n in nus]
    uppers = [Fraction(n + 1, p ** e) for e, n in nus]
    if max(lowers) > min(uppers):
        raise PreconditionError("threshold intervals failed to intersect (bug)")
    q = p ** e_max
    nu = nus[-1][1]
    return ThresholdInterval(lower=Fraction(nu, q), upper=Fraction(nu + 1, q),
                             kind="fpt_interval",
                             provenance={"p": p, "nu_by_e": tuple(nus),
                                         "e": e_max})


# -- seeded forms -------------------------------------------------------------

# the largest p^e per number of variables: the oracle's truncated powers hold
# up to (p^e)^n terms, so three variables stay small to keep the suite fast
MAX_Q = {1: 2**9, 2: 2**7, 3: 2**5}


def _largest_e(p, n):
    e = 1
    while p ** (e + 1) <= MAX_Q[n]:
        e += 1
    return e


def _monomial(rng, n, p):
    exp = random_exponent(rng, n, rng.randrange(1, 7))
    return Poly(n, FP(p), {exp: rng.randrange(1, p)})


def seeded_forms(seed, count):
    """(kind, f, e_max) triples covering every shape the ladder must treat
    like the per-e loop: generic forms, monomials, p-th powers, forms with a
    repeated factor, terms at or above p^e_max, and one-variable single terms.
    """
    rng = random.Random(seed)
    kinds = ("generic", "monomial", "frobenius", "repeated", "high",
             "single")
    for i in range(count):
        kind = kinds[i % len(kinds)]
        p = rng.choice([2, 3, 5, 7])
        n = 1 if kind == "single" else rng.randrange(1, 4)
        e_max = rng.randrange(1, _largest_e(p, n) + 1)
        domain = FP(p)
        if kind == "generic":
            f = random_affine(rng, n, 4, rng.randrange(1, 5), domain)
        elif kind in ("monomial", "single"):
            f = _monomial(rng, n, p)
        elif kind == "frobenius":
            f = random_affine(rng, n, 2, rng.randrange(1, 4), domain) ** p
        elif kind == "repeated":
            g = random_affine(rng, n, 2, rng.randrange(1, 3), domain)
            h = random_affine(rng, n, 2, rng.randrange(1, 3), domain)
            f = g * g * h
        else:
            q = p ** e_max
            f = random_affine(rng, n, 3, rng.randrange(1, 4), domain)
            exp = list(random_exponent(rng, n, rng.randrange(0, 3)))
            exp[rng.randrange(n)] += q + rng.randrange(0, 3)
            f = f + Poly(n, domain, {tuple(exp): rng.randrange(1, p)})
        yield kind, f, e_max


FORMS = list(seeded_forms(701, 312))


def test_seeded_forms_cover_every_shape():
    assert len(FORMS) >= 300
    assert {f.domain.p for _, f, _ in FORMS} == {2, 3, 5, 7}
    assert {f.nvars for _, f, _ in FORMS} == {1, 2, 3}
    high = [(f, e) for kind, f, e in FORMS if kind == "high"]
    assert all(any(max(x) >= f.domain.p ** e for x in f.terms)
               for f, e in high)
    assert all(f.constant_coefficient() == 0 for _, f, _ in FORMS)


@pytest.mark.parametrize("chunk", range(4))
def test_ladder_matches_per_e_loop(chunk):
    for kind, f, e_max in FORMS[chunk::4]:
        want = oracle_interval(f, e_max)
        got = fpt_interval(f, e_max)
        assert got.provenance == want.provenance, (kind, f, e_max)
        assert (got.lower, got.upper) == (want.lower, want.upper)
        assert got.kind == want.kind


def test_per_level_bracket():
    # nu_(e+1) in [p*nu_e, p*nu_e + p - 1], each nu_e computed on its own
    for kind, f, e_max in FORMS[::3]:
        p = f.domain.p
        nus = [oracle_nu(f, e) for e in range(1, e_max + 1)]
        for a, b in zip(nus, nus[1:]):
            assert p * a <= b <= p * a + p - 1, (kind, f, nus)
        assert thresholds.fpt_nu(f, e_max) == nus[-1]


def test_interval_makes_one_fpt_nu_call(monkeypatch):
    calls = []
    real = thresholds.fpt_nu

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(thresholds, "fpt_nu", counted)
    f = parse_poly("x0^2 + x1^3", 2, FP(3))
    interval = fpt_interval(f, 4)
    assert len(calls) == 1
    assert calls[0][1:] == (4,)
    assert [e for e, _ in interval.provenance["nu_by_e"]] == [1, 2, 3, 4]


def test_interval_cap_refused_before_any_product(monkeypatch):
    # p^e over the limit is refused before the first multiplication, where
    # the per-e loop first computed every level below the limit
    def fail(self, other):
        raise AssertionError("multiplied before checking the cap")

    monkeypatch.setattr(Poly, "__mul__", fail)
    f = parse_poly("x0^2 + x1^3 + x0*x1^5", 2, FP(2))
    with pytest.raises(PreconditionError,
                       match=r"p\^e = 131072 exceeds the configured limit "
                             r"65536"):
        fpt_interval(f, 17)
