"""Resultants, quartic invariants, smoothness, and finite-field point counts."""

import random

import pytest

from chowstab import FP, QQ, ZZ, Poly, PreconditionError, \
    cyclic_critical_exponent, discriminant_binary, parse_poly, quartic_st, \
    quartic_st_generic, reduce_mod_p, singular_locus_enumerate, \
    smoothness_binary, sylvester_resultant
from chowstab import discriminants
from chowstab.discriminants import ExtensionField

from conftest import random_coeff


def _random_binary_form(rng, degree, domain, nterms=4):
    while True:
        terms = {}
        for _ in range(nterms):
            k = rng.randrange(degree + 1)
            terms[(k, degree - k)] = random_coeff(rng, domain)
        f = Poly(2, domain, terms)
        if not f.is_zero():
            return f


def _cyclic_form(n, d, domain):
    nv = n + 1
    terms = {}
    for i in range(nv):
        exp = [0] * nv
        exp[i] = d - 1
        exp[(i + 1) % nv] = 1
        terms[tuple(exp)] = 1
    return Poly(nv, domain, terms)


# -- resultants -------------------------------------------------------------------

def test_resultant_coprime_linear():
    p = parse_poly("x0", 2, QQ)
    q = parse_poly("x0 + 1", 2, QQ)
    assert sylvester_resultant(p, q) == 1


def test_resultant_shared_root():
    p = parse_poly("x0 + 1", 2, QQ)
    q = parse_poly("x0^2 + x0", 2, QQ)  # (x+1)*x
    assert sylvester_resultant(p, q) == 0


def test_resultant_generic_quadratic_partials():
    # partials of a0*X0^2 + a1*X0*X1 + a2*X1^2, as the degree-2 generic case
    disc = discriminant_binary(2, "generic")
    a = [Poly.variable(3, ZZ, i) for i in range(3)]
    expected = (a[0] * a[2]).scale(4) - a[1] * a[1]
    assert disc == expected  # scalar against a1^2 - 4*a0*a2 is -1


def test_resultant_multiplicative():
    rng = random.Random(400)
    for _ in range(40):
        domain = QQ if rng.random() < 0.5 else FP(rng.choice([3, 5, 7]))
        p = _random_binary_form(rng, rng.randrange(1, 4), domain)
        q = _random_binary_form(rng, rng.randrange(1, 3), domain)
        r = _random_binary_form(rng, rng.randrange(1, 3), domain)
        lhs = sylvester_resultant(p, q * r)
        rhs = sylvester_resultant(p, q) * sylvester_resultant(p, r)
        assert lhs == rhs


def test_resultant_integer_domain_fraction_free():
    # exercises the exact-division Bareiss path over ZZ
    p = parse_poly("2*x0^2 + 3*x0*x1 + x1^2", 2, ZZ)
    q = parse_poly("x0 + x1", 2, ZZ)
    value = sylvester_resultant(p, q)
    assert isinstance(value, int)
    assert value == 0  # x0 + x1 divides 2x0^2 + 3x0x1 + x1^2
    q2 = parse_poly("x0 - x1", 2, ZZ)
    assert sylvester_resultant(p, q2) != 0


def test_resultant_declared_degree_mismatch():
    p = parse_poly("x0^3", 2, QQ)
    with pytest.raises(PreconditionError):
        sylvester_resultant(p, p, deg_p=2, deg_q=3)


def test_resultant_rejects_zero():
    with pytest.raises(PreconditionError):
        sylvester_resultant(Poly.zero(2, QQ), parse_poly("x0", 2, QQ))


def test_sylvester_size_cap_is_checked_before_the_coefficients(monkeypatch):
    read = []
    coeffs = discriminants._univariate_coeffs

    def counted(f, declared):
        read.append(declared)
        return coeffs(f, declared)

    monkeypatch.setattr(discriminants, "_univariate_coeffs", counted)
    monkeypatch.setattr(discriminants, "_MAX_SYLVESTER_SIZE", 5)
    p, one = parse_poly("x0", 2, QQ), parse_poly("1", 2, QQ)
    with pytest.raises(PreconditionError,
                       match=r"Sylvester matrix size m\+n = 6 exceeds the "
                             r"configured limit 5"):
        sylvester_resultant(p, one, deg_p=6, deg_q=0)
    assert read == []
    assert sylvester_resultant(p, one, deg_p=5, deg_q=0) == 1
    assert read == [5, 0]
    # numeric discriminants reach the cap at size 2(d - 1)
    form = parse_poly("x0^4 + x1^4", 2, QQ)
    with pytest.raises(PreconditionError, match="m\\+n = 6"):
        discriminant_binary(4, "numeric", form)
    monkeypatch.setattr(discriminants, "_MAX_SYLVESTER_SIZE", 6)
    assert discriminant_binary(4, "numeric", form) != 0


# -- discriminants -----------------------------------------------------------------

def test_disc_quartic_golden_scalar():
    # frozen oracle identity: 27 * Res(F_X0, F_X1) == 16 * (4S^3 - T^2)
    res = discriminant_binary(4, "generic")
    _, _, dpoly = quartic_st_generic()
    assert res.scale(27) == dpoly.scale(16)


def test_disc_numeric_smooth_quartic():
    f = parse_poly("x0^4 + x1^4", 2, QQ)
    assert discriminant_binary(4, "numeric", f) == 4096
    assert smoothness_binary(f)


def test_disc_numeric_vanishing_partial():
    f = parse_poly("x0^4 + x1^4", 2, FP(2))  # both partials vanish mod 2
    assert discriminant_binary(4, "numeric", f) == 0


def test_disc_degenerates_when_p_divides_d():
    # every quartic in characteristic 2 has a critical point, so the raw
    # resultant of the partials vanishes identically
    rng = random.Random(401)
    for _ in range(25):
        f = _random_binary_form(rng, 4, FP(2), nterms=5)
        assert discriminant_binary(4, "numeric", f) == 0
    # while the gcd route still separates smooth from singular:
    # x1 * (x0 + x1) * (x0^2 + x0*x1 + x1^2) has four distinct roots
    smooth = parse_poly("x0^3*x1 + x1^4", 2, FP(2))
    assert smoothness_binary(smooth)
    assert discriminant_binary(4, "numeric", smooth) == 0
    assert not smoothness_binary(parse_poly("x0^2*x1^2", 2, FP(2)))


def test_disc_zero_iff_singular_when_p_coprime_to_d():
    rng = random.Random(402)
    for _ in range(60):
        domain = QQ if rng.random() < 0.4 else FP(rng.choice([3, 5, 7]))
        d = rng.choice([2, 3, 4])
        if domain.kind == "FP" and d % domain.p == 0:
            continue
        f = _random_binary_form(rng, d, domain)
        disc = discriminant_binary(d, "numeric", f)
        assert (disc == 0) == (not smoothness_binary(f))


def test_quartic_st_values():
    st = quartic_st([1, 0, 0, 0, 1], ZZ)
    assert (st.S, st.T, st.D) == (12, 0, 6912)
    st = quartic_st([0, 1, 0, 0, 0], ZZ)  # X0^3*X1: triple root
    assert (st.S, st.T, st.D) == (0, 0, 0)


def test_quartic_st_mod2_symbolic():
    s, t, d = quartic_st_generic()
    t2 = reduce_mod_p(t, 2)
    d2 = reduce_mod_p(d, 2)
    a = [Poly.variable(5, FP(2), i) for i in range(5)]
    trinomial = a[0] * a[3] * a[3] + a[1] * a[2] * a[3] + a[1] * a[1] * a[4]
    assert t2 == trinomial
    assert d2 == t2 * t2


def test_quartic_st_commutes_with_reduction():
    rng = random.Random(403)
    for _ in range(60):
        coeffs = [rng.randrange(-20, 21) for _ in range(5)]
        p = rng.choice([2, 3, 5, 7])
        over_z = quartic_st(coeffs, ZZ)
        over_p = quartic_st(coeffs, FP(p))
        for z, fp in zip(over_z, over_p):
            assert fp == z % p


def test_quartic_st_over_prime_field_direct():
    st = quartic_st([1, 0, 0, 0, 1], FP(2))
    assert st.D == st.T * st.T


# -- smoothness --------------------------------------------------------------------

def test_smoothness_examples():
    assert smoothness_binary(parse_poly("x0*x1", 2, QQ))
    assert not smoothness_binary(parse_poly("x0^2*x1", 2, QQ))
    assert not smoothness_binary(parse_poly("x0^4 + x1^4", 2, FP(2)))


def test_smoothness_root_at_infinity():
    assert not smoothness_binary(parse_poly("x1^2", 2, QQ))
    assert smoothness_binary(parse_poly("x0*x1 + x1^2", 2, QQ))


def test_smoothness_squarefree_in_char_p():
    # x^p - c is a p-th power over the prime field closure
    assert not smoothness_binary(parse_poly("x0^3 + 2*x1^3", 2, FP(3)))
    assert smoothness_binary(parse_poly("x0^3 + x0*x1^2", 2, FP(3)))


# -- extension fields and point enumeration --------------------------------------------

def test_extension_field_first_irreducible_is_deterministic():
    f4 = ExtensionField(2, 2)
    assert f4.modulus == [1, 1, 1]  # t^2 + t + 1, first in lex order
    f9 = ExtensionField(3, 2)
    assert f9.modulus == [1, 0, 1]  # t^2 + 1 is irreducible mod 3
    f8 = ExtensionField(2, 3)
    assert f8.modulus == [1, 0, 1, 1]  # t^3 + t^2 + 1 precedes t^3 + t + 1


def test_extension_field_arithmetic():
    f9 = ExtensionField(3, 2)
    elements = list(f9.elements())
    assert len(elements) == 9
    # Frobenius: a^9 = a for every element
    for a in elements:
        assert f9.pow(a, 9) == a
    # the multiplicative group has an element of order 8
    orders = set()
    for a in elements:
        if not any(a):
            continue
        k = 1
        power = a
        while power != f9.one():
            power = f9.mul(power, a)
            k += 1
        orders.add(k)
    assert max(orders) == 8


def test_singular_points_cap_is_checked_before_the_field(monkeypatch):
    built = []
    find = ExtensionField._find_modulus

    def counted(p, e):
        built.append((p, e))
        return find(p, e)

    monkeypatch.setattr(ExtensionField, "_find_modulus",
                        staticmethod(counted))
    monkeypatch.setattr(discriminants, "_MAX_POINTS", 63)  # 2^(2*3) = 64
    f = parse_poly("x0*x1*x2", 3, FP(2))
    with pytest.raises(PreconditionError,
                       match=r"p\^\(e\*\(n\+1\)\) = 64 exceeds the "
                             r"search limit 63"):
        singular_locus_enumerate(f, 2)
    assert built == []
    monkeypatch.setattr(discriminants, "_MAX_POINTS", 64)
    assert len(singular_locus_enumerate(f, 2)) == 3  # the coordinate points
    assert built == [(2, 2)]


def test_singular_points_hyperbolic_quadric_empty():
    f = parse_poly("x0*x1 + x2*x3", 4, FP(2))
    assert singular_locus_enumerate(f, 1) == []
    assert singular_locus_enumerate(f, 2) == []


def test_singular_points_cyclic_cubic_f9():
    f = _cyclic_form(2, 3, FP(3))
    points = singular_locus_enumerate(f, 2)
    assert len(points) >= 1
    ones = [pt for pt in points if str(pt) == "(1 : 1 : 1)"]
    assert ones  # the all-ones point is critical


def test_singular_points_fermat_f5_empty():
    f = parse_poly("x0^3 + x1^3 + x2^3", 3, FP(5))
    assert singular_locus_enumerate(f, 1) == []


def test_singular_points_with_form_flag():
    # x0^2: partials vanish on the x0 = 0 line; the form vanishes there too
    f = parse_poly("x0^2", 3, FP(2))
    without = singular_locus_enumerate(f, 1)
    with_f = singular_locus_enumerate(f, 1, include_form=True)
    assert set(map(str, with_f)) <= set(map(str, without))
    assert all(pt.coords[0] == (0,) for pt in with_f)


def test_singular_points_prime_field_embeds_into_extension():
    f = _cyclic_form(2, 3, FP(3))
    base = singular_locus_enumerate(f, 1)
    ext = singular_locus_enumerate(f, 2)
    # prime-field coordinates embed canonically as constants
    embedded = {tuple((c[0], 0) for c in pt.coords) for pt in base}
    found = {pt.coords for pt in ext}
    assert base and embedded <= found


def test_singular_points_size_guard():
    f = parse_poly("x0^2 + x1^2", 2, FP(97))
    with pytest.raises(PreconditionError):
        singular_locus_enumerate(f, 4)


def test_singular_points_one_variable_never_lists_the_field(monkeypatch):
    def unlisted(self):
        raise AssertionError("the elements of F_q were read")
        yield

    monkeypatch.setattr(ExtensionField, "elements", unlisted)
    f = parse_poly("x0^5", 1, FP(5))  # the partial vanishes identically
    assert list(map(str, singular_locus_enumerate(f, 3))) == ["(1)"]


def test_cyclic_exponent_values():
    assert cyclic_critical_exponent(2, 3) == 9
    assert cyclic_critical_exponent(1, 2) == 0   # the degenerate family
    assert cyclic_critical_exponent(2, 2) == 2
    with pytest.raises(PreconditionError):
        cyclic_critical_exponent(0, 3)


# -- the generic Sylvester entries against the form they are read from ----------

def generic_binary_form(d):
    """sum_k a_k * X0^(d-k) * X1^k over ZZ, variables (a_0..a_d, X0, X1)."""
    terms = {}
    for k in range(d + 1):
        exp = [0] * (d + 3)
        exp[k] = 1
        exp[d + 1] = d - k
        exp[d + 2] = k
        terms[tuple(exp)] = 1
    return Poly(d + 3, ZZ, terms)


def _coefficient_polys(f, d, form_degree):
    """Entry k: the coefficient of X0^k X1^(form_degree - k), in a_0..a_d."""
    out = [dict() for _ in range(form_degree + 1)]
    for exp, c in f.terms.items():
        k = exp[d + 1]
        assert exp[d + 2] == form_degree - k
        out[k][exp[:d + 1]] = c
    return [Poly(d + 1, ZZ, t) for t in out]


def test_generic_sylvester_entries_match_the_partials_of_the_form():
    for d in range(2, 13):
        f = generic_binary_form(d)
        assert discriminants._generic_partials(d) == (
            _coefficient_polys(f.partial(d + 1), d, d - 1),
            _coefficient_polys(f.partial(d + 2), d, d - 1))
