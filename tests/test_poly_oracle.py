"""Poly arithmetic through the shared term collector against the loops it
replaced.

Addition, multiplication, dehomogenization and parsing each used to carry
their own "add into a dict, drop zero sums" loop; subs summed one Poly per
source term and exact_div built four Polys per quotient term.  Partial
derivatives, scaling, translation, reduction mod p and the images
of apply_matrix dropped zero coefficients themselves, which the
constructor now does.  Those paths are
kept here as oracles: the new code must give the same terms, in the same
order, with coefficients of the same type.
"""

import random
from fractions import Fraction

import pytest

from chowstab import FP, QQ, ZZ, ParseError, Poly, PreconditionError, \
    apply_matrix, parse_poly, reduce_mod_p
from chowstab.poly import _parse_term, _Scanner, matrix_det

from conftest import random_affine, random_coeff, random_exponent

DOMAINS = (ZZ, QQ, FP(2), FP(5))


# -- the old path, verbatim in behaviour ---------------------------------------

def old_add(a, b):
    terms = dict(a.terms)
    for exp, c in b.terms.items():
        s = terms.get(exp)
        s = c if s is None else s + c
        if s == 0:
            terms.pop(exp, None)
        else:
            terms[exp] = s
    return Poly(a.nvars, a.domain, terms)


def old_neg(a):
    return Poly(a.nvars, a.domain, {e: -c for e, c in a.terms.items()})


def old_sub(a, b):
    return old_add(a, old_neg(b))


def old_mul(a, b):
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = c1 * c2
            s = terms.get(e)
            s = c if s is None else s + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
    return Poly(a.nvars, a.domain, terms)


def old_subs(f, images):
    out_nvars = images[0].nvars
    powers = [dict() for _ in range(f.nvars)]

    def power(i, k):
        cached = powers[i].get(k)
        if cached is None:
            if k == 0:
                cached = Poly.constant(out_nvars, f.domain, 1)
            elif k == 1:
                cached = images[i]
            else:
                cached = old_mul(power(i, k // 2), power(i, k - k // 2))
            powers[i][k] = cached
        return cached

    acc = Poly.zero(out_nvars, f.domain)
    for e, c in f.terms.items():
        prod = Poly.constant(out_nvars, f.domain, c)
        for i, k in enumerate(e):
            if k:
                prod = old_mul(prod, power(i, k))
        acc = old_add(acc, prod)
    return acc


def old_apply_matrix(f, rows):
    n = f.nvars
    images = []
    for i in range(n):
        images.append(Poly(n, f.domain,
                           {tuple(1 if j == k else 0 for k in range(n)): rows[i][j]
                            for j in range(n) if rows[i][j] != 0}))
    return old_subs(f, images)


def old_dehomogenize(f, i):
    terms = {}
    for e, c in f.terms.items():
        e2 = e[:i] + e[i + 1:]
        s = terms.get(e2)
        s = c if s is None else s + c
        if s == 0:
            terms.pop(e2, None)
        else:
            terms[e2] = s
    return Poly(f.nvars - 1, f.domain, terms)


def old_exact_div(f, divisor):
    remainder = f
    quotient = {}
    div_lead = max(divisor.terms, key=lambda e: (sum(e), e))
    div_lc = divisor.terms[div_lead]
    while not remainder.is_zero():
        lead = max(remainder.terms, key=lambda e: (sum(e), e))
        diff = tuple(a - b for a, b in zip(lead, div_lead))
        if any(d < 0 for d in diff):
            raise PreconditionError("division is not exact")
        lc = remainder.terms[lead]
        if f.domain.kind == "ZZ":
            q, r = divmod(lc, div_lc)
            if r != 0:
                raise PreconditionError("division is not exact")
        else:
            q = lc / div_lc
        quotient[diff] = q
        remainder = old_sub(remainder, old_mul(
            Poly.monomial(f.nvars, f.domain, diff, q), divisor))
    return Poly(f.nvars, f.domain, quotient)


def old_partial(f, i):
    terms = {}
    for e, c in f.terms.items():
        if e[i] == 0:
            continue
        c2 = c * e[i]
        if c2 == 0:  # exponent divisible by the characteristic
            continue
        e2 = list(e)
        e2[i] -= 1
        terms[tuple(e2)] = c2
    return Poly(f.nvars, f.domain, terms)


def old_scale(f, value):
    c0 = f.domain.coerce(value)
    if c0 == 0:
        return Poly.zero(f.nvars, f.domain)
    return Poly(f.nvars, f.domain, {e: c0 * c for e, c in f.terms.items()})


def old_translate(f, point):
    images = []
    for i, a in enumerate(point):
        im = Poly.variable(f.nvars, f.domain, i)
        a = f.domain.coerce(a)
        if a != 0:
            im = old_add(im, Poly.constant(f.nvars, f.domain, a))
        images.append(im)
    return old_subs(f, images)


def old_reduce_mod_p(f, p):
    target = FP(p)
    return Poly(f.nvars, target, {e: target.coerce(c)
                                  for e, c in f.terms.items()})


def old_parse(text, nvars, domain):
    sc = _Scanner(text)
    terms = {}
    if sc.peek() == "":
        raise ParseError("empty polynomial text", position=1)
    sign = 1
    if sc.peek() == "-":
        sc.take()
        sign = -1
    elif sc.peek() == "+":
        sc.take()
    while True:
        num, den, exps = _parse_term(sc, nvars)
        coeff_pos = sc.pos
        try:
            coeff = domain.from_fraction(sign * num, den)
        except PreconditionError as exc:
            raise ParseError(str(exc), position=coeff_pos) from None
        exp = tuple(exps)
        if exp in terms:
            s = terms[exp] + coeff
            if s == 0:
                del terms[exp]
            else:
                terms[exp] = s
        elif coeff != 0:
            terms[exp] = coeff
        ch = sc.peek()
        if ch == "":
            break
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            raise ParseError(f"unexpected character {ch!r}",
                             position=sc.pos + 1)
        sc.take()
    return Poly(nvars, domain, terms)


# -- comparison --------------------------------------------------------------------

def assert_same(new, old):
    assert (new.nvars, new.domain) == (old.nvars, old.domain)
    assert list(new.terms.items()) == list(old.terms.items())
    assert [type(c) for c in new.terms.values()] == \
        [type(c) for c in old.terms.values()]
    assert new.homogeneous_degree == old.homogeneous_degree


def _random_poly(rng, nvars, domain, nterms=None):
    return random_affine(rng, nvars, rng.randint(1, 3),
                         nterms or rng.randint(1, 5), domain,
                         through_origin=False)


def _cases(count):
    for seed in range(count):
        rng = random.Random(seed)
        domain = DOMAINS[seed % len(DOMAINS)]
        yield rng, domain, rng.randint(1, 3)


def test_add_sub_mul_match_old_path():
    for rng, domain, nvars in _cases(240):
        f = _random_poly(rng, nvars, domain)
        g = _random_poly(rng, nvars, domain)
        assert_same(f + g, old_add(f, g))
        assert_same(f - g, old_sub(f, g))
        assert_same(f * g, old_mul(f, g))
        assert_same(f + (-f), old_add(f, old_neg(f)))
        assert (f + (-f)).is_zero() and (f - f).is_zero()
        # f + g - f leaves g, summed in a different order
        assert_same(f + g - f, old_sub(old_add(f, g), f))
        if domain.kind == "FP":
            acc, old_acc = f, f
            for _ in range(domain.p - 1):
                acc, old_acc = acc + f, old_add(old_acc, f)
                assert_same(acc, old_acc)
            assert acc.is_zero()  # p-fold sum vanishes in characteristic p


def test_subs_matches_old_path():
    for rng, domain, nvars in _cases(160):
        f = _random_poly(rng, nvars, domain)
        out_nvars = rng.randint(1, 3)
        images = [_random_poly(rng, out_nvars, domain, rng.randint(1, 3))
                  for _ in range(nvars)]
        assert_same(f.subs(images), old_subs(f, images))
    for rng, domain, nvars in _cases(120):
        f = _random_poly(rng, nvars, domain)
        rows = [[domain.coerce(rng.choice([-1, 0, 0, 1, 2]))
                 for _ in range(nvars)] for _ in range(nvars)]
        if matrix_det(rows, domain) != 0:
            assert_same(apply_matrix(f, rows), old_apply_matrix(f, rows))
    # (x0 + x1)^p = x0^p + x1^p: the cross terms cancel
    for p in (2, 5):
        f = parse_poly(f"x0^{p} + x1^{p} - x0^{p - 1}*x1", 2, FP(p))
        images = [parse_poly("x0 + x1", 2, FP(p)), parse_poly("x1", 2, FP(p))]
        assert_same(f.subs(images), old_subs(f, images))


def test_dehomogenize_matches_old_path():
    for rng, domain, nvars in _cases(160):
        nvars += 1
        f = _random_poly(rng, nvars, domain, rng.randint(1, 8))
        for i in range(nvars):
            assert_same(f.dehomogenize(i), old_dehomogenize(f, i))
    f = parse_poly("x0*x1 - x1 + x0^2", 2, QQ)  # two terms merge, and cancel
    assert_same(f.dehomogenize(0), old_dehomogenize(f, 0))
    assert f.dehomogenize(0).to_string() == "1"


def test_calculus_shifts_and_reduction_match_old_path():
    for rng, domain, nvars in _cases(160):
        f = _random_poly(rng, nvars, domain, rng.randint(1, 8))
        if domain.kind == "FP":  # exponents divisible by p
            f = f + f.subs([g ** domain.p for g in
                            (Poly.variable(nvars, domain, i)
                             for i in range(nvars))])
        for i in range(nvars):
            assert_same(f.partial(i), old_partial(f, i))
        for value in (0, 1, -3, Fraction(2, 3) if domain.kind != "ZZ" else 7):
            assert_same(f.scale(value), old_scale(f, value))
        point = [rng.choice([0, 1, -2]) for _ in range(nvars)]
        assert_same(f.translate(point), old_translate(f, point))
        if domain.kind != "FP":
            try:
                expected = old_reduce_mod_p(f, 5)
            except PreconditionError:  # a denominator divisible by 5
                with pytest.raises(PreconditionError):
                    reduce_mod_p(f, 5)
            else:
                assert_same(reduce_mod_p(f, 5), expected)


def test_exact_div_matches_old_path():
    for rng, domain, nvars in _cases(200):
        f = _random_poly(rng, nvars, domain)
        g = _random_poly(rng, nvars, domain)
        assert_same((f * g).exact_div(g), old_exact_div(f * g, g))
        assert (f * g).exact_div(g) == f
        h = _random_poly(rng, nvars, domain)
        try:
            expected = old_exact_div(h, g)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError, match=str(exc)):
                h.exact_div(g)
        else:
            assert_same(h.exact_div(g), expected)


def test_exact_div_rejects_non_divisors_like_old_path():
    cases = [("x0^2 + 1", "x0 + 2", QQ),  # remainder lead not divisible
             ("2*x0", "3*x0", ZZ),  # divides over QQ, not over ZZ
             ("x0*x1 + x1^2", "x0^2", ZZ),
             ("x0^3 + x1", "x0 + x1", FP(5))]
    for f_text, g_text, domain in cases:
        f = parse_poly(f_text, 2, domain)
        g = parse_poly(g_text, 2, domain)
        with pytest.raises(PreconditionError, match="division is not exact"):
            old_exact_div(f, g)
        with pytest.raises(PreconditionError, match="division is not exact"):
            f.exact_div(g)


def test_parse_matches_old_path():
    for rng, domain, nvars in _cases(240):
        pieces = []
        for _ in range(rng.randint(1, 8)):
            exp = random_exponent(rng, nvars, rng.randint(0, 3))
            c = random_coeff(rng, domain)
            if rng.random() < 0.2:
                c = 0
            if domain.kind == "FP" and rng.random() < 0.3:
                c = domain.p  # a multiple of p vanishes mod p
            c = Fraction(c)
            body = str(abs(c)) + "".join(
                f"*x{i}^{k}" for i, k in enumerate(exp) if k)
            pieces.append(("-" if c < 0 else "+", body))
            if rng.random() < 0.4:  # the same term again, with either sign
                pieces.append((rng.choice("+-"), pieces[-1][1]))
        text = " ".join(sign + " " + body for sign, body in pieces)
        assert_same(parse_poly(text, nvars, domain),
                    old_parse(text, nvars, domain))
