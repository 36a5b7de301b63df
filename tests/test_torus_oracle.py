"""The torus verdict from the interior LP against the formulation it replaced.

torus_certificate used to run the separation LP and then all 2(n+1) cone
LPs on every form, and destab_search ran the separation LP on every new
support.  Those paths are kept here as oracles: the interior LP must give
the same verdicts, and since the witness LPs are unchanged, the same
witnesses, mu, lp_value and search counters.
"""

import random
from fractions import Fraction

import pytest

from chowstab import FP, QQ, Poly, PreconditionError, SearchBudget, \
    StabilityCertificate, Verdict, WeightVector, apply_matrix, \
    destab_search, parse_poly, torus_certificate
from chowstab import stability
from chowstab.poly import integer_rank, min_inner_product
from chowstab.stability import primitive_integer_vector

from conftest import PRIMES_TO_97, random_coeff, random_exponent, \
    random_homogeneous


# -- the old path, verbatim in behaviour ---------------------------------------

def _oracle_unstable_witness(f):
    d = f.homogeneous_degree
    n1 = f.nvars
    c = Fraction(d, n1)
    shifted = [tuple(a - c for a in alpha) for alpha in sorted(f.terms)]
    res = stability._box_lp(shifted, [0] * n1, True)
    if res.t_star <= 0:
        return None, None, res.t_star
    witness = WeightVector(primitive_integer_vector(res.r_star))
    return witness, min_inner_product(f, witness.entries), res.t_star


def oracle_torus_certificate(f):
    """Separation LP, then the cone LPs in (i, sign) order."""
    witness, mu, t_star = _oracle_unstable_witness(f)
    if witness is not None:
        return StabilityCertificate(Verdict.UNSTABLE, witness_r=witness,
                                    mu_value=mu, lp_value=t_star)
    pts = sorted(f.terms)
    n1 = f.nvars
    for i in range(n1):
        for sign in (1, -1):
            objective = [0] * n1
            objective[i] = sign
            res = stability._box_lp(pts, objective, False)
            if res.t_star > 0:
                witness = WeightVector(primitive_integer_vector(res.r_star))
                assert min_inner_product(f, witness.entries) == 0
                return StabilityCertificate(Verdict.STRICTLY_SEMISTABLE,
                                            witness_r=witness, mu_value=0,
                                            lp_value=t_star)
    return StabilityCertificate(Verdict.STABLE, lp_value=t_star)


def oracle_destab_search(f, budget):
    """destab_search with eager levels and a separation LP per support."""
    n1 = f.nvars
    domain = f.domain
    enumerated = tested = lp_calls = 0
    seen_matrices = set()
    settled_supports = set()

    def candidates():
        yield stability.identity_matrix(n1)
        gens = stability._generators(n1, budget, domain)
        level = [stability.identity_matrix(n1)]
        for _ in range(budget.depth):
            level = [stability.mat_mul(left, g) for left in level
                     for g in gens]
            yield from level
        rng = random.Random(budget.seed)
        for _ in range(budget.max_candidates):
            yield stability._random_unimodular(rng, n1, budget)

    for g in candidates():
        enumerated += 1
        key = stability._matrix_key(g, domain)
        if key in seen_matrices:
            continue
        seen_matrices.add(key)
        tested += 1
        transformed = apply_matrix(f, g)
        sup = transformed.support()
        if sup in settled_supports:
            continue
        lp_calls += 1
        witness, mu, t_star = _oracle_unstable_witness(transformed)
        if witness is not None:
            return StabilityCertificate(
                Verdict.UNSTABLE, witness_r=witness, witness_g=key,
                mu_value=mu, lp_value=t_star,
                search_budget_used=stability.SearchCounters(
                    enumerated, tested, lp_calls))
        settled_supports.add(sup)
    return StabilityCertificate(
        Verdict.UNKNOWN,
        search_budget_used=stability.SearchCounters(enumerated, tested,
                                                    lp_calls))


# -- seeded supports ------------------------------------------------------------

def _mirrored_exponents(rng, n1, d, pairs):
    """Exponents in pairs alpha, 2c - alpha around the barycenter c, so c is
    in the relative interior of a polytope that is often not full-rank."""
    top = 2 * d // n1
    out = []
    for _ in range(pairs):
        while True:
            alpha = random_exponent(rng, n1, d)
            if max(alpha) <= top:
                break
        out += [alpha, tuple(top - a for a in alpha)]
    return out


def random_support_form(rng, n1, domain):
    """A form with n+1 = n1 variables, degree at most 5 and at most 10
    terms, drawn from one of three shapes: random exponents, fewer than n1
    exponents (rank deficient, like x0*x1*x2), or mirrored pairs about the
    barycenter."""
    shape = rng.randrange(3)
    if shape == 2:
        d = rng.choice([d for d in range(1, 6) if (2 * d) % n1 == 0])
        exps = _mirrored_exponents(rng, n1, d, rng.randrange(1, 5))
        if d % n1 == 0 and rng.randrange(2):
            exps.append((d // n1,) * n1)
    elif shape == 1:
        d = rng.randrange(1, 6)
        exps = [random_exponent(rng, n1, d)
                for _ in range(rng.randrange(1, n1))]
    else:
        d = rng.randrange(1, 6)
        exps = [random_exponent(rng, n1, d)
                for _ in range(rng.randrange(1, 11))]
    return Poly(n1, domain, {e: random_coeff(rng, domain) for e in exps})


def _cert_tuple(cert):
    return (cert.verdict, cert.witness_r, cert.witness_g, cert.mu_value,
            cert.lp_value, type(cert.lp_value), cert.search_budget_used)


def test_torus_certificate_matches_old_path_on_seeded_supports():
    rng = random.Random(20261018)
    seen = {v: 0 for v in (Verdict.UNSTABLE, Verdict.STRICTLY_SEMISTABLE,
                           Verdict.STABLE)}
    rank_deficient = 0
    for trial in range(300):
        domain = QQ if trial % 2 == 0 else FP(rng.choice(PRIMES_TO_97))
        f = random_support_form(rng, rng.randrange(2, 6), domain)
        got = torus_certificate(f)
        assert _cert_tuple(got) == _cert_tuple(oracle_torus_certificate(f)), f
        seen[got.verdict] += 1
        rank_deficient += integer_rank(sorted(f.terms)) < f.nvars
    assert min(seen.values()) >= 50, seen
    assert rank_deficient >= 50


def test_destab_search_matches_old_path():
    rng = random.Random(77)
    forms = [parse_poly("x0^3+x1^3+x2^3", 3, FP(5)),
             apply_matrix(parse_poly("x1^2*x2 - x0^3", 3, QQ),
                          [[1, 0, 0], [1, 1, 0], [0, 0, 1]]),
             parse_poly("x0*x1*x2", 3, QQ)]
    while len(forms) < 10:
        n1 = rng.randrange(3, 5)
        domain = QQ if rng.randrange(2) else FP(rng.choice([3, 5, 7]))
        if len(forms) % 2:  # dense enough to exhaust the budget
            forms.append(random_homogeneous(rng, n1, 3, n1 + 3, domain))
        else:  # a two-term form in scrambled coordinates
            scramble = stability._random_unimodular(
                rng, n1, SearchBudget(depth=1, seed=0))
            forms.append(apply_matrix(
                random_homogeneous(rng, n1, 3, 2, domain), scramble))
    for k, f in enumerate(forms):
        budget = SearchBudget(max_candidates=15, depth=2 if k < 3 else 1,
                              seed=k)
        got = destab_search(f, budget)
        assert _cert_tuple(got) == _cert_tuple(oracle_destab_search(f, budget))


# -- the interior LP ------------------------------------------------------------

def test_interior_lp_positions():
    verdict = stability._torus_verdict
    assert verdict(parse_poly("x0^3+x1^3+x2^3", 3, QQ)) is Verdict.STABLE
    assert verdict(parse_poly("x0*x1*x2", 3, QQ)) \
        is Verdict.STRICTLY_SEMISTABLE
    # c = (1,1,1) is the midpoint of a segment: t* > 0 but rank 2
    assert verdict(parse_poly("x0^2*x1 + x1*x2^2", 3, QQ)) \
        is Verdict.STRICTLY_SEMISTABLE
    assert verdict(parse_poly("x1^2*x2 - x0^3", 3, QQ)) is Verdict.UNSTABLE


@pytest.mark.parametrize("n1", [1, 2, 3, 4])
@pytest.mark.parametrize("domain", [QQ, FP(5)], ids=["QQ", "F5"])
def test_constant_forms_match_old_path(n1, domain):
    # degree 0: the one exponent is the barycenter itself, and the interior
    # LP, whose rows all vanish, would be unbounded
    f = Poly(n1, domain, {(0,) * n1: domain.coerce(3)})
    got = torus_certificate(f)
    assert _cert_tuple(got) == _cert_tuple(oracle_torus_certificate(f))
    assert got.verdict is (Verdict.STABLE if n1 == 1
                           else Verdict.STRICTLY_SEMISTABLE)
    # one variable has no seeded stage: it draws two distinct coordinates
    budget = SearchBudget(max_candidates=5 if n1 > 1 else 0, depth=1,
                          seed=n1)
    got = destab_search(f, budget)
    assert got.verdict is Verdict.UNKNOWN
    assert _cert_tuple(got) == _cert_tuple(oracle_destab_search(f, budget))


def test_interior_lp_tableau(monkeypatch):
    # n+1 rows, one column for t and one per exponent, all scaled by n+1
    seen = []

    def record(rows, rhs, cost):
        seen.append((rows, rhs, cost))
        return solve(rows, rhs, cost)

    solve = stability.solve_standard_lp
    monkeypatch.setattr(stability, "solve_standard_lp", record)
    stability._torus_verdict(parse_poly("x0^2 + x0*x1", 2, QQ))
    assert seen == [([[6, 2, 4], [2, 2, 0]], [2, 2], [-1, 0, 0])]


def test_stable_verdict_runs_one_lp(monkeypatch):
    calls = []
    solve = stability.solve_standard_lp
    monkeypatch.setattr(stability, "solve_standard_lp",
                        lambda *a: calls.append(len(a[0])) or solve(*a))
    cert = torus_certificate(parse_poly("x0^3+x1^3+x2^3", 3, QQ))
    assert cert.verdict is Verdict.STABLE and cert.lp_value == 0
    assert calls == [3]


def test_impossible_witness_failures_raise(monkeypatch):
    cusp = parse_poly("x1^2*x2 - x0^3", 3, QQ)
    monkeypatch.setattr(stability, "_box_lp",
                        lambda pts, obj, with_t: stability.LpResult(
                            Fraction(0), [0, 0, 0]))
    with pytest.raises(PreconditionError):
        torus_certificate(cusp)
    with pytest.raises(PreconditionError):
        torus_certificate(parse_poly("x0*x1*x2", 3, QQ))


# -- the deterministic search stage is lazy ---------------------------------------

def test_search_levels_are_built_lazily(monkeypatch):
    # unstable only after two transvections: the witness is a level-2
    # candidate, and no level-2 product past it may be built
    hidden = apply_matrix(parse_poly("x0^2*x1 + x2^3", 3, QQ),
                          [[1, -2, 0], [0, 1, 0], [0, 0, 1]])
    budget = SearchBudget(max_candidates=0, depth=2, seed=1)
    gens = len(stability._generators(3, budget, QQ))
    calls = []
    mat_mul = stability.mat_mul
    monkeypatch.setattr(stability, "mat_mul",
                        lambda a, b: calls.append(1) or mat_mul(a, b))
    cert = destab_search(hidden, budget)
    assert cert.verdict is Verdict.UNSTABLE
    enumerated = cert.search_budget_used.candidates_enumerated
    assert 1 + gens < enumerated < 1 + gens + gens * gens
    # one product per enumerated candidate after the identity
    assert len(calls) == enumerated - 1
    assert _cert_tuple(cert) == _cert_tuple(oracle_destab_search(hidden,
                                                                 budget))
