"""Core polynomial algebra: parsing, printing, arithmetic, calculus."""

import random
from fractions import Fraction

import pytest

import chowstab
from chowstab import FP, QQ, ZZ, ParseError, Poly, PreconditionError, \
    PrimeFieldElem, apply_matrix, is_prime, lct_upper_bound, parse_poly, \
    reduce_mod_p
from chowstab.poly import bareiss_det, identity_matrix, mat_mul, \
    matrix_det, min_inner_product

from conftest import random_domain, random_homogeneous


def test_public_names_resolve_once():
    names = chowstab.__all__
    assert all(hasattr(chowstab, name) for name in names)
    assert len(names) == len(set(names))
    removed = {"poly_mul", "partial_derivative", "support",
               "weighted_multiplicity", "euler_residual", "Rational",
               "lp_membership_maxmin"}
    assert not removed & set(names)
    assert not any(hasattr(chowstab, name) for name in removed)


# -- prime field scalars -------------------------------------------------------

def test_primality():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(4) and not is_prime(561)
    assert not is_prime(2047)  # strong pseudoprime base 2


def test_prime_field_arithmetic():
    a = PrimeFieldElem(5, 7)
    b = PrimeFieldElem(4, 7)
    assert a + b == 2
    assert a * b == 6
    assert a - b == 1
    assert (a / b).residue == (5 * pow(4, 5, 7)) % 7
    assert a ** 6 == 1
    with pytest.raises(PreconditionError):
        PrimeFieldElem(1, 6)
    with pytest.raises(PreconditionError):
        a + PrimeFieldElem(1, 11)


def test_fraction_into_prime_field():
    half = FP(7).from_fraction(1, 2)
    assert half * 2 == 1
    with pytest.raises(PreconditionError):
        FP(2).from_fraction(1, 2)


# -- parsing -------------------------------------------------------------------

def test_parse_fermat():
    f = parse_poly("x0^3 + x1^3 + x2^3", 3, QQ)
    assert len(f) == 3
    assert f.homogeneous_degree == 3


def test_parse_mod2_collapse():
    f = parse_poly("2*x0^2*x1 - x2^3", 3, FP(2))
    assert f.to_string() == "x2^3"
    assert f.terms[(0, 0, 1 * 3)] if False else f.terms[(0, 0, 3)] == 1


def test_parse_variable_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_poly("x0 + x3", 3, QQ)
    assert "out of range" in str(err.value)


def test_parse_rational_coefficients():
    f = parse_poly("1/2*x0^2 - 3/4*x1", 2, QQ)
    assert f.terms[(2, 0)] == Fraction(1, 2)
    assert f.terms[(0, 1)] == Fraction(-3, 4)


def test_parse_bad_denominator_mod_p():
    with pytest.raises(ParseError):
        parse_poly("1/2*x0^2", 2, FP(2))


def test_parse_constants_and_signs():
    f = parse_poly("1 + x0^3 + x1^3", 2, QQ)
    assert f.constant_coefficient() == 1
    g = parse_poly("-x0 + 2", 1, ZZ)
    assert g.terms[(1,)] == -1


def test_parse_like_terms_combine():
    f = parse_poly("x0 + x0", 1, QQ)
    assert f.terms[(1,)] == 2
    assert parse_poly("x0 - x0", 1, QQ).is_zero()


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x0 + ^2", 2, QQ)
    assert err.value.position is not None


def test_parse_implicit_star_after_coeff():
    assert parse_poly("2x0", 1, QQ) == parse_poly("2*x0", 1, QQ)


# -- printing ------------------------------------------------------------------

def test_print_graded_lex_golden():
    f = parse_poly("x1^2 + x0*x1 - x0^3 + 1", 2, QQ)
    assert f.to_string() == "-x0^3 + x0*x1 + x1^2 + 1"


def test_print_parse_round_trip_random():
    rng = random.Random(1)
    for _ in range(200):
        domain = random_domain(rng)
        f = random_homogeneous(rng, rng.randrange(2, 5), rng.randrange(1, 6),
                               rng.randrange(1, 8), domain)
        text = f.to_string()
        again = parse_poly(text, f.nvars, domain)
        assert again == f
        assert again.to_string() == text  # idempotent after one normalization


def test_print_zero():
    assert Poly.zero(2, QQ).to_string() == "0"


# -- products ------------------------------------------------------------------

def test_mul_difference_of_squares():
    a = parse_poly("x0 + x1", 2, QQ)
    b = parse_poly("x0 - x1", 2, QQ)
    assert a * b == parse_poly("x0^2 - x1^2", 2, QQ)


def test_mul_frobenius_mod2():
    a = parse_poly("x0 + x1", 2, FP(2))
    assert a * a == parse_poly("x0^2 + x1^2", 2, FP(2))


def test_mul_monomials_degree_adds():
    a = parse_poly("x0", 3, QQ)
    b = parse_poly("x1*x2", 3, QQ)
    prod = a * b
    assert prod == parse_poly("x0*x1*x2", 3, QQ)
    assert prod.homogeneous_degree == 3


def test_mul_domain_mismatch():
    with pytest.raises(PreconditionError):
        parse_poly("x0", 1, QQ) * parse_poly("x0", 1, ZZ)


def test_mul_nonzero_product_and_minkowski():
    rng = random.Random(7)
    for _ in range(100):
        domain = random_domain(rng)
        f = random_homogeneous(rng, 3, rng.randrange(1, 4), 4, domain)
        g = random_homogeneous(rng, 3, rng.randrange(1, 4), 4, domain)
        prod = f * g
        assert not prod.is_zero()
        minkowski = {tuple(a + b for a, b in zip(e1, e2))
                     for e1 in f.terms for e2 in g.terms}
        assert prod.support() <= minkowski


def test_weighted_min_parts_multiply():
    rng = random.Random(8)
    for _ in range(100):
        domain = random_domain(rng)
        f = random_homogeneous(rng, 3, 3, 5, domain)
        g = random_homogeneous(rng, 3, 2, 5, domain)
        w = tuple(rng.randrange(0, 5) for _ in range(3))
        if not any(w):
            w = (1, 1, 1)
        assert min_inner_product(f * g, w) == \
            min_inner_product(f, w) + min_inner_product(g, w)


def test_frobenius_additive_over_fp():
    rng = random.Random(9)
    for p in (2, 3, 5):
        for _ in range(20):
            f = random_homogeneous(rng, 3, 2, 4, FP(p))
            g = random_homogeneous(rng, 3, 2, 4, FP(p))
            assert (f + g) ** p == f ** p + g ** p


# -- calculus ------------------------------------------------------------------

def test_partial_char_p_identity():
    # d/dx of x^(p+1) + x^p is x^p: the p-th power term differentiates to zero
    for p in (2, 3, 5):
        f = parse_poly(f"x0^{p + 1} + x0^{p}", 1, FP(p))
        assert f.partial(0) == parse_poly(f"x0^{p}", 1, FP(p))


def test_partial_kills_divisible_exponent():
    f = parse_poly("x0^4", 1, FP(2))
    assert f.partial(0).is_zero()


def test_partial_power_rule():
    f = parse_poly("x0^2*x1^3", 2, QQ)
    assert f.partial(1) == parse_poly("3*x0^2*x1^2", 2, QQ)


def test_partial_index_out_of_range():
    with pytest.raises(PreconditionError):
        parse_poly("x0", 1, QQ).partial(1)


def euler_residual(f):
    """d*f - sum_i x_i * df/dx_i for a form f of degree d: always zero, in
    every characteristic (both sides may vanish when it divides d)."""
    acc = f.scale(f.homogeneous_degree)
    for i in range(f.nvars):
        acc = acc - f.partial(i) * Poly.variable(f.nvars, f.domain, i)
    return acc


def test_euler_residual_examples():
    assert euler_residual(parse_poly("x0^3 + x1^3", 2, QQ)).is_zero()
    assert euler_residual(parse_poly("x0^2*x1", 2, FP(3))).is_zero()
    assert euler_residual(parse_poly("x0*x1 + x2*x3", 4, FP(2))).is_zero()


def test_euler_residual_random_any_characteristic():
    rng = random.Random(10)
    for _ in range(200):
        domain = random_domain(rng)
        f = random_homogeneous(rng, rng.randrange(2, 5), rng.randrange(1, 7),
                               rng.randrange(1, 10), domain)
        assert euler_residual(f).is_zero()


# -- reduction mod p -------------------------------------------------------------

def test_reduce_mod_p_drops_multiples():
    f = parse_poly("x0^3 - 3*x0*x1*x2", 3, ZZ)
    assert reduce_mod_p(f, 3) == parse_poly("x0^3", 3, FP(3))


def test_reduce_mod_p_bad_denominator():
    with pytest.raises(PreconditionError):
        reduce_mod_p(parse_poly("1/2*x0^2", 1, QQ), 2)


def test_reduce_commutes_with_arithmetic():
    rng = random.Random(11)
    for _ in range(50):
        p = rng.choice([2, 3, 5, 7])
        f = random_homogeneous(rng, 3, 3, 5, ZZ)
        g = random_homogeneous(rng, 3, 3, 5, ZZ)
        assert reduce_mod_p(f + g, p) == reduce_mod_p(f, p) + reduce_mod_p(g, p)
        assert reduce_mod_p(f * g, p) == reduce_mod_p(f, p) * reduce_mod_p(g, p)
        i = rng.randrange(3)
        assert reduce_mod_p(f.partial(i), p) == reduce_mod_p(f, p).partial(i)


def test_reduce_commutes_with_apply_matrix():
    rng = random.Random(12)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        f = random_homogeneous(rng, 3, 3, 5, ZZ)
        m = identity_matrix(3)
        m[0][1] = rng.randrange(-2, 3)
        m[1][2] = rng.randrange(-2, 3)
        assert reduce_mod_p(apply_matrix(f, m), p) == \
            apply_matrix(reduce_mod_p(f, p), m)


# -- linear substitution ----------------------------------------------------------

def test_apply_matrix_identity():
    f = parse_poly("x0^2", 2, QQ)
    assert apply_matrix(f, identity_matrix(2)) == f


def test_apply_matrix_swap_symmetric():
    f = parse_poly("x0*x1", 2, QQ)
    swap = [[0, 1], [1, 0]]
    assert apply_matrix(f, swap) == f


def test_apply_matrix_transvection():
    f = parse_poly("x0^2", 2, QQ)
    m = [[1, 1], [0, 1]]  # x0 -> x0 + x1
    assert apply_matrix(f, m) == parse_poly("x0^2 + 2*x0*x1 + x1^2", 2, QQ)


def test_apply_matrix_singular_rejected():
    with pytest.raises(PreconditionError):
        apply_matrix(parse_poly("x0", 2, QQ), [[1, 1], [1, 1]])


def test_apply_matrix_multiplicative():
    rng = random.Random(13)
    for _ in range(30):
        domain = random_domain(rng)
        f = random_homogeneous(rng, 3, 3, 4, domain)
        m = identity_matrix(3)
        m[0][1] = 1
        n = identity_matrix(3)
        n[2][0] = rng.randrange(1, 3)
        lhs = apply_matrix(apply_matrix(f, m), n)
        rhs = apply_matrix(f, mat_mul(m, n))
        assert lhs == rhs


def test_apply_matrix_preserves_degree():
    f = parse_poly("x0^3 + x1^2*x2", 3, QQ)
    m = [[1, 2, 0], [0, 1, 0], [3, 0, 1]]
    assert apply_matrix(f, m).homogeneous_degree == 3


# -- support and weights -----------------------------------------------------------

def test_support_examples():
    f = parse_poly("x0^3 + x1^3 + x2^3", 3, QQ)
    assert f.support() == {(3, 0, 0), (0, 3, 0), (0, 0, 3)}
    assert Poly.zero(2, QQ).support() == frozenset()
    g = parse_poly("x0 + x1", 2, FP(2))
    assert (g * g).support() == {(2, 0), (0, 2)}


def test_weighted_multiplicity_examples():
    f = parse_poly("x0^2 + x1^3", 2, QQ)
    assert min_inner_product(f, (3, 2)) == 6
    g = parse_poly("1 + x0^3 + x1^3", 2, QQ)
    assert min_inner_product(g, (1, 2)) == 0
    h = parse_poly("x0*x1", 2, QQ)
    assert min_inner_product(h, (0, 1)) == 1


def test_weighted_multiplicity_errors():
    with pytest.raises(PreconditionError):
        min_inner_product(Poly.zero(2, QQ), (1, 1))
    with pytest.raises(PreconditionError):  # weights are checked by the bound
        lct_upper_bound(parse_poly("x0", 2, QQ), (0, 0))


# -- exact division ----------------------------------------------------------------

def test_exact_div_round_trip():
    rng = random.Random(14)
    for _ in range(50):
        domain = random_domain(rng)
        f = random_homogeneous(rng, 3, 2, 4, domain)
        g = random_homogeneous(rng, 3, 3, 4, domain)
        assert (f * g).exact_div(g) == f


def test_exact_div_rejects_non_divisor():
    f = parse_poly("x0^2 + x1", 2, ZZ)
    g = parse_poly("x0 + 1", 2, ZZ)
    with pytest.raises(PreconditionError):
        f.exact_div(g)


# -- determinants ----------------------------------------------------------------

def _gaussian_det(rows, domain):
    """The Gaussian-elimination determinant matrix_det used before it called
    bareiss_det; kept as the oracle for it."""
    n = len(rows)
    if domain.kind == "FP":
        work = [[domain.coerce(v) for v in row] for row in rows]
        field = domain
    else:
        work = [[Fraction(v) if not isinstance(v, Fraction) else v
                 for v in (domain.coerce(x) for x in row)] for row in rows]
        field = QQ
    det = field.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return domain.zero()
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = (field.one() / work[col][col]) if field.kind == "FP" \
            else 1 / work[col][col]
        for r in range(col + 1, n):
            if work[r][col] == 0:
                continue
            factor = work[r][col] * inv
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    if domain.kind == "ZZ":
        return domain.coerce(det)
    return det


def test_matrix_det_matches_gaussian_oracle():
    rng = random.Random(20240611)
    domains = [ZZ, QQ, FP(2), FP(5), FP(7)]
    for trial in range(1500):
        domain = domains[trial % len(domains)]
        n = rng.randint(0, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if domain.kind == "QQ":
            rows = [[Fraction(v, rng.randint(1, 4)) for v in row]
                    for row in rows]
        if n > 1 and trial % 7 == 0:  # a repeated row: singular everywhere
            rows[-1] = list(rows[0])
        got = matrix_det(rows, domain)
        want = _gaussian_det(rows, domain)
        assert got == want and type(got) is type(want), (rows, domain)


def test_bareiss_det_over_integers_and_polynomials():
    assert bareiss_det([[2, 3], [4, 5]], 0, 1) == -2
    assert bareiss_det([[0, 1], [1, 0]], 0, 1) == -1  # needs a swap
    assert bareiss_det([], 0, 1) == 1
    x = [Poly.variable(2, ZZ, i) for i in range(2)]
    zero, one = Poly.zero(2, ZZ), Poly.constant(2, ZZ, 1)
    det = bareiss_det([[x[0], x[1]], [x[1], x[0]]], zero, one)
    assert det == x[0] * x[0] - x[1] * x[1]
    # the division follows the entries' ring: int, Fraction or F_5
    rows = [[2, 3, 1], [4, 5, 7], [1, 8, 3]]
    det = bareiss_det(rows, 0, 1)
    assert det == -70 and type(det) is int
    det = bareiss_det([[Fraction(v) for v in row] for row in rows], 0, 1)
    assert det == -70 and type(det) is Fraction
    f5 = FP(5)
    det = bareiss_det([[f5.coerce(v) for v in row] for row in rows],
                      f5.zero(), f5.one())
    assert det == f5.coerce(-70) and det.residue == 0
