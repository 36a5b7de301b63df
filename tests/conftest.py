"""Shared generators and independent oracles for the test suite."""

import random
from fractions import Fraction

from chowstab import FP, QQ, ZZ, Poly, WeightVector

PRIMES_TO_97 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def random_exponent(rng: random.Random, nvars: int, degree: int) -> tuple:
    """A random composition of `degree` into nvars non-negative parts."""
    cuts = sorted(rng.randrange(degree + 1) for _ in range(nvars - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(degree - prev)
    return tuple(parts)


def random_coeff(rng: random.Random, domain):
    if domain.kind == "FP":
        return rng.randrange(1, domain.p)
    if domain.kind == "QQ":
        num = rng.choice([x for x in range(-9, 10) if x != 0])
        den = rng.randrange(1, 7)
        return Fraction(num, den)
    return rng.choice([x for x in range(-9, 10) if x != 0])


def random_homogeneous(rng: random.Random, nvars: int, degree: int,
                       nterms: int, domain) -> Poly:
    """Random nonzero homogeneous polynomial with at most nterms terms."""
    while True:
        terms = {}
        for _ in range(nterms):
            terms[random_exponent(rng, nvars, degree)] = random_coeff(rng, domain)
        poly = Poly(nvars, domain, terms)
        if not poly.is_zero():
            return poly


def random_affine(rng: random.Random, nvars: int, max_degree: int,
                  nterms: int, domain, through_origin: bool = True) -> Poly:
    while True:
        terms = {}
        for _ in range(nterms):
            deg = rng.randrange(1 if through_origin else 0, max_degree + 1)
            terms[random_exponent(rng, nvars, deg)] = random_coeff(rng, domain)
        poly = Poly(nvars, domain, terms)
        if not poly.is_zero():
            return poly


def random_weight(rng: random.Random, length: int, bound: int = 5) -> WeightVector:
    while True:
        head = [rng.randint(-bound, bound) for _ in range(length - 1)]
        tail = -sum(head)
        if abs(tail) <= bound and (tail != 0 or any(head)):
            return WeightVector(tuple(head + [tail]))


def random_normalized_weight(rng: random.Random, length: int,
                             bound: int = 5) -> WeightVector:
    w = random_weight(rng, length, bound)
    return WeightVector(tuple(sorted(w.entries)))


def brute_force_mu(poly: Poly, entries) -> int:
    """Independent oracle: explicit loop over the stored terms."""
    best = None
    for exp in poly.terms:
        value = 0
        for r_i, a_i in zip(entries, exp):
            value += r_i * a_i
        if best is None or value < best:
            best = value
    return best


def random_domain(rng: random.Random):
    roll = rng.randrange(3)
    if roll == 0:
        return QQ
    if roll == 1:
        return ZZ
    return FP(rng.choice(PRIMES_TO_97))


def random_standard_lp(rng: random.Random):
    """(rows, rhs, cost) of a small LP  min cost.x, rows x = rhs, x >= 0.

    Entries are ints and Fractions, rhs may be negative and is 0 in about
    four rows of ten, so vertices are often degenerate; about half the LPs
    carry a slack per row and so are feasible.  Some get a redundant row (a
    multiple of another) or an all-zero row, whose rhs is mostly 0.
    """
    def entry():
        v = rng.randint(-4, 4)
        return Fraction(v, rng.randrange(1, 4)) if rng.random() < 0.3 else v

    m = rng.randrange(0, 6)
    n = rng.randrange(1, 7)
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [entry() if rng.random() < 0.6 else 0 for _ in range(m)]
    if rng.random() < 0.5:
        rows = [row + [int(i == j) for j in range(m)]
                for i, row in enumerate(rows)]
        rhs = [abs(b) for b in rhs]
        n += m
    if m and rng.random() < 0.3:
        k = rng.randrange(m)
        factor = rng.choice([1, -2, Fraction(1, 3)])
        at = rng.randrange(m + 1)
        rows.insert(at, [factor * v for v in rows[k]])
        rhs.insert(at, factor * rhs[k])
    if rng.random() < 0.15:
        at = rng.randrange(len(rows) + 1)
        rows.insert(at, [0] * n)
        rhs.insert(at, 0 if rng.random() < 0.7 else entry())
    return rows, rhs, [entry() for _ in range(n)]
