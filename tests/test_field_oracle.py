"""Ben-Or's irreducibility test against the Rabin test it replaced.

ExtensionField used to pick its modulus with Rabin's test: x^(p^e) = x mod
m, and gcd(x^(p^(e/l)) - x, m) = 1 for every prime l dividing e, with the
powers taken in a half-built field on the candidate modulus.  That path is
kept here as the oracle, with its own modular multiply and gcd on plain ints,
and it walks every monic candidate in the old order, constant term 0
included.
"""

import random
from itertools import product

import pytest

from chowstab import discriminants
from chowstab.discriminants import ExtensionField, _is_irreducible


# -- the old path, verbatim in behaviour --------------------------------------

def _mul_mod(a, b, modulus, p):
    """a * b mod the monic modulus, on coefficient tuples over F_p."""
    e = len(modulus) - 1
    conv = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    for k in range(2 * e - 2, e - 1, -1):  # t^k = -t^(k-e) * (m - t^e)
        c = conv[k] % p
        if c:
            for i in range(e):
                conv[k - e + i] -= c * modulus[i]
    return tuple(c % p for c in conv[:e])


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _gcd_mod(a, b, p):
    """Euclid's gcd over F_p on coefficient lists of residues, constant
    term first; unnormalised, so only its degree is meaningful."""
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            factor = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - factor * bi) % p
            _trim(a)
        a, b = b, a
    return a


def _pow_mod(a, k, modulus, p):
    result = (1,) + (0,) * (len(modulus) - 2)
    base = a
    while k:
        if k & 1:
            result = _mul_mod(result, base, modulus, p)
        base = _mul_mod(base, base, modulus, p)
        k >>= 1
    return result


def oracle_prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def oracle_irreducible(modulus, p):
    e = len(modulus) - 1
    if e == 1:
        return True
    x = (0, 1) + (0,) * (e - 2)
    if _pow_mod(x, p ** e, modulus, p) != x:
        return False
    for ell in oracle_prime_divisors(e):
        sub = _pow_mod(x, p ** (e // ell), modulus, p)
        diff = _trim([(a - b) % p for a, b in zip(sub, x)])
        if not diff:
            return False
        g = _gcd_mod(modulus, diff, p)
        if len(g) > 1:
            return False
    return True


def oracle_modulus(p, e):
    for coeffs in product(range(p), repeat=e):
        candidate = list(coeffs) + [1]
        if oracle_irreducible(candidate, p):
            return candidate
    raise AssertionError("no irreducible polynomial found")


def _pairs(limit, primes):
    return [(p, e) for p in primes for e in range(1, limit.bit_length())
            if p ** e <= limit]


# -- comparisons ------------------------------------------------------------------

def test_oracle_multiply_is_field_multiply():
    # on every small field: checks the reduction rows of t^(e+k) mod m
    rng = random.Random(11)
    for p, e in _pairs(729, [2, 3, 5, 7]):
        field = ExtensionField(p, e)
        elements = list(field.elements())
        sample = rng.sample(elements, min(len(elements), 12))
        for a in sample:
            for b in sample:
                assert _mul_mod(a, b, field.modulus, p) == field.mul(a, b), \
                    (p, e, a, b)


@pytest.mark.parametrize("p, e", _pairs(729, [2, 3, 5, 7]))
def test_ben_or_matches_rabin_on_every_monic_candidate(p, e):
    for coeffs in product(range(p), repeat=e):
        candidate = list(coeffs) + [1]
        assert _is_irreducible(candidate, p) == \
            oracle_irreducible(candidate, p), candidate


@pytest.mark.parametrize("p, e", _pairs(4096, [2, 3, 5, 7, 11, 13, 31, 61]))
def test_modulus_is_the_oracles_first_irreducible(p, e):
    assert ExtensionField(p, e).modulus == oracle_modulus(p, e)


def test_modulus_search_skips_candidates_divisible_by_t(monkeypatch):
    tested = []
    real = discriminants._is_irreducible

    def counted(modulus, p):
        tested.append(list(modulus))
        return real(modulus, p)

    monkeypatch.setattr(discriminants, "_is_irreducible", counted)
    field = ExtensionField(5, 8)
    assert field.modulus == [1, 0, 0, 0, 0, 1, 1, 0, 1]
    assert tested and all(m[0] != 0 for m in tested)
    assert tested[-1] == field.modulus
    tested.clear()
    assert ExtensionField(5, 1).modulus == [0, 1]  # degree 1: t itself
    assert tested == [[0, 1]]
