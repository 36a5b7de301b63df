"""Numerical function, chart-weight identity, LP certificates, and the
bounded destabilization search."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from chowstab import FP, QQ, BracketSupport, Poly, PreconditionError, \
    SearchBudget, StabilityCertificate, Verdict, WeightVector, apply_matrix, \
    bracket_from_hypersurface, destab_search, lee_ratio, mu_bracket, \
    mu_hypersurface, parse_poly, stability, torus_certificate
from chowstab.stability import permutation_matrix, primitive_integer_vector

from conftest import brute_force_mu, random_domain, random_homogeneous, \
    random_normalized_weight, random_weight


# -- weight vectors ---------------------------------------------------------------

def test_weight_vector_validation():
    with pytest.raises(PreconditionError):
        WeightVector((1, 1, 1))
    with pytest.raises(PreconditionError):
        WeightVector((0, 0, 0))
    assert WeightVector((-1, 0, 1)).is_r_normalized
    assert not WeightVector((1, 0, -1)).is_r_normalized


def test_primitive_integer_vector():
    assert primitive_integer_vector([Fraction(1), Fraction(-1, 2),
                                     Fraction(-1, 2)]) == (2, -1, -1)
    assert primitive_integer_vector([4, -2, -2]) == (2, -1, -1)
    with pytest.raises(PreconditionError):
        primitive_integer_vector([0, 0])


# -- mu -----------------------------------------------------------------------------

def test_mu_examples():
    fermat = parse_poly("x0^3+x1^3+x2^3", 3, QQ)
    assert mu_hypersurface(fermat, (-1, 0, 1)) == -3
    cone = parse_poly("x0^2*x1", 3, QQ)
    assert mu_hypersurface(cone, (2, -1, -1)) == 3
    cusp = parse_poly("x1^2*x2 - x0^3", 3, QQ)
    assert mu_hypersurface(cusp, (1, 2, -3)) == 1


def test_mu_requires_homogeneous_nonzero():
    with pytest.raises(PreconditionError):
        mu_hypersurface(Poly.zero(3, QQ), (-1, 0, 1))
    with pytest.raises(PreconditionError):
        mu_hypersurface(parse_poly("x0^2 + x1", 2, QQ), (-1, 1))
    with pytest.raises(PreconditionError):
        mu_hypersurface(parse_poly("x0", 2, QQ), (-1, 0, 1))


def test_mu_oracle_equivalence_sample():
    rng = random.Random(100)
    for _ in range(300):
        nvars = rng.randrange(2, 6)
        f = random_homogeneous(rng, nvars, rng.randrange(1, 7),
                               rng.randrange(1, 21), random_domain(rng))
        r = random_weight(rng, nvars)
        assert mu_hypersurface(f, r) == brute_force_mu(f, r.entries)


def test_mu_permutation_equivariance():
    rng = random.Random(101)
    for _ in range(50):
        f = random_homogeneous(rng, 3, 3, 5, QQ)
        perm = list(rng.sample(range(3), 3))
        s = random_weight(rng, 3)
        sigma_f = apply_matrix(f, permutation_matrix(perm))
        # x_i -> x_{perm[i]}, so weighing sigma_f by s weighs f by s o perm
        pulled = WeightVector(tuple(s.entries[perm[i]] for i in range(3)))
        assert mu_hypersurface(sigma_f, s) == mu_hypersurface(f, pulled)


def test_mu_depends_only_on_support():
    f = parse_poly("x0^2*x1 + 5*x1^3", 3, QQ)
    g = parse_poly("7*x0^2*x1 - x1^3", 3, QQ)
    for r in [(-1, 0, 1), (2, -1, -1), (0, 1, -1)]:
        assert mu_hypersurface(f, r) == mu_hypersurface(g, r)


# -- bracket supports ------------------------------------------------------------------

def test_mu_bracket_examples():
    b = BracketSupport.build(3, 1, 2, [((0, 1), (0, 1))])
    assert mu_bracket(b, (-1, -1, 1, 1)) == -4
    b2 = BracketSupport.build(3, 1, 2, [((0, 1), (2, 3)), ((0, 2), (1, 3))])
    assert mu_bracket(b2, (-1, -1, 1, 1)) == 0
    assert mu_bracket(b2, (-3, 1, 1, 1)) == 0  # every tuple sums all coords


def test_bracket_linear_form_agrees_with_mu():
    lin = parse_poly("x1", 3, QQ)
    b = bracket_from_hypersurface(lin)  # the single 1-tuple ({1},)
    assert b.tuples == frozenset({((1,),)})
    assert mu_bracket(b, (-1, 0, 1)) == 0 == mu_hypersurface(lin, (-1, 0, 1))


def test_bracket_cross_check_with_hypersurface_mu():
    rng = random.Random(102)
    for _ in range(30):
        f = random_homogeneous(rng, 3, rng.randrange(1, 4), 4, QQ)
        b = bracket_from_hypersurface(f)
        r = random_weight(rng, 3)
        assert mu_bracket(b, r) == mu_hypersurface(f, r)


def test_bracket_validation():
    with pytest.raises(PreconditionError):
        BracketSupport.build(3, 1, 2, [])
    with pytest.raises(PreconditionError):
        BracketSupport.build(3, 1, 2, [((0,), (0, 1))])  # wrong subset size
    with pytest.raises(PreconditionError):
        BracketSupport.build(3, 1, 2, [((0, 1),)])  # wrong tuple length


# -- chart ratio and the exact identity ---------------------------------------------

def test_lee_ratio_examples():
    fermat = parse_poly("x0^3+x1^3+x2^3", 3, QQ)
    res = lee_ratio(fermat, (-1, 0, 1))
    assert (res.w_f, res.sum_wxI, res.ratio) == (0, 3, Fraction(0))
    assert res.ratio < Fraction(3, 3)

    cone = parse_poly("x0^3", 3, QQ)
    res = lee_ratio(cone, (-2, 1, 1))
    assert (res.w_f, res.sum_wxI, res.ratio) == (0, 6, Fraction(0))

    axis = parse_poly("x2^3", 3, QQ)
    res = lee_ratio(axis, (-1, -1, 2))
    assert (res.w_f, res.sum_wxI, res.ratio) == (9, 3, Fraction(3))
    assert res.ratio >= Fraction(3, 3)  # not stable against this weight


def test_lee_ratio_rejects_unordered_weights():
    f = parse_poly("x0^3", 3, QQ)
    with pytest.raises(PreconditionError):
        lee_ratio(f, (2, -1, -1))


def _identity_sides(f, r) -> tuple:
    """(d*sum w(x_I) - (n+1)*w(f), mu): the identity says lhs == -(n+1)*mu."""
    ratio = lee_ratio(f, r)
    lhs = f.homogeneous_degree * ratio.sum_wxI - f.nvars * ratio.w_f
    return lhs, mu_hypersurface(f, r)


def test_identity_examples():
    fermat = parse_poly("x0^3+x1^3+x2^3", 3, QQ)
    assert _identity_sides(fermat, (-1, 0, 1)) == (9, -3)
    axis = parse_poly("x2^3", 3, QQ)
    assert _identity_sides(axis, (-1, -1, 2)) == (-18, 6)


def test_identity_random_exact():
    rng = random.Random(103)
    for _ in range(300):
        nvars = rng.randrange(2, 6)
        f = random_homogeneous(rng, nvars, rng.randrange(1, 6),
                               rng.randrange(1, 12), random_domain(rng))
        r = random_normalized_weight(rng, nvars)
        lhs, mu = _identity_sides(f, r)
        assert lhs == -nvars * mu


def test_ratio_sign_matches_mu_sign():
    rng = random.Random(104)
    for _ in range(200):
        nvars = rng.randrange(2, 5)
        f = random_homogeneous(rng, nvars, rng.randrange(1, 5), 6, QQ)
        r = random_normalized_weight(rng, nvars)
        d = f.homogeneous_degree
        res = lee_ratio(f, r)
        mu = mu_hypersurface(f, r)
        assert (res.ratio < Fraction(d, nvars)) == (mu < 0)
        assert (res.ratio <= Fraction(d, nvars)) == (mu <= 0)


# -- separation LP -----------------------------------------------------------------

def _separation_lp(points, c):
    """max t s.t. <r, p - c> >= t for all points p, sum r = 0, |r_i| <= 1."""
    shifted = [tuple(a - ci for a, ci in zip(p, c)) for p in points]
    return stability._box_lp(shifted, [0] * len(c), True)


def test_lp_fermat_support_barycenter_interior():
    res = _separation_lp([(3, 0, 0), (0, 3, 0), (0, 0, 3)], (1, 1, 1))
    assert res.t_star == 0


def test_lp_single_point_at_center():
    res = _separation_lp([(1, 1, 1)], (1, 1, 1))
    assert res.t_star == 0


def test_lp_single_point_separation():
    res = _separation_lp([(3, 0, 0)], (1, 1, 1))
    assert res.t_star == 3  # optimum of 3*r_0 over the box with sum r = 0
    assert sum(res.r_star) == 0


def test_lp_tableau_layout(monkeypatch):
    # Bland's rule picks pivots by column and row index, so the witness and
    # lp_value depend on this exact layout: columns u, v, [t], s, p, q; rows
    # the points, the box rows (u_i + p_i, v_i + q_i), then sum u = sum v.
    seen = []

    def record(rows, rhs, cost):
        seen.append(([[Fraction(v) for v in row] for row in rows],
                     [Fraction(v) for v in rhs], [Fraction(v) for v in cost]))
        return solve(rows, rhs, cost)

    solve = stability.solve_standard_lp
    monkeypatch.setattr(stability, "solve_standard_lp", record)
    h = Fraction(1, 2)
    _separation_lp([(1, 0), (0, 1)], (h, h))
    #     u0  u1  v0  v1   t  s0  s1  p0  p1  q0  q1
    assert seen.pop() == ([
        [h, -h, -h, h, -1, -1, 0, 0, 0, 0, 0],
        [-h, h, h, -h, -1, 0, -1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1],
        [1, 1, -1, -1, 0, 0, 0, 0, 0, 0, 0],
    ], [0, 0, 1, 1, 1, 1, 0], [0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0])
    stability._box_lp([(2, 0), (1, 1)], [0, -1], False)
    #     u0  u1  v0  v1  s0  s1  p0  p1  q0  q1
    assert seen.pop() == ([
        [2, 0, -2, 0, -1, 0, 0, 0, 0, 0],
        [1, 1, -1, -1, 0, -1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0, 1],
        [1, 1, -1, -1, 0, 0, 0, 0, 0, 0],
    ], [0, 0, 1, 1, 1, 1, 0], [0, 1, 0, -1, 0, 0, 0, 0, 0, 0])


# -- torus certificates ---------------------------------------------------------------

def test_certificate_fermat_stable():
    cert = torus_certificate(parse_poly("x0^3+x1^3+x2^3", 3, QQ))
    assert cert.verdict is Verdict.STABLE
    assert cert.witness_r is None


def test_certificate_triangle_strictly_semistable():
    cert = torus_certificate(parse_poly("x0*x1*x2", 3, QQ))
    assert cert.verdict is Verdict.STRICTLY_SEMISTABLE
    assert cert.mu_value == 0
    assert mu_hypersurface(parse_poly("x0*x1*x2", 3, QQ), cert.witness_r) == 0


def test_certificate_cusp_unstable():
    cusp = parse_poly("x1^2*x2 - x0^3", 3, QQ)
    cert = torus_certificate(cusp)
    assert cert.verdict is Verdict.UNSTABLE
    assert cert.mu_value >= 1
    assert math.gcd(*(abs(e) for e in cert.witness_r.entries)) == 1
    assert mu_hypersurface(cusp, cert.witness_r) == cert.mu_value


def test_certificate_scaling_invariance():
    f = parse_poly("x1^2*x2 - x0^3", 3, QQ)
    assert torus_certificate(f).verdict == torus_certificate(f.scale(7)).verdict
    g = parse_poly("x0*x1*x2", 3, QQ)
    assert torus_certificate(g).verdict == \
        torus_certificate(g.scale(Fraction(-2, 3))).verdict


def _exhaustive_unstable(f, bound=6):
    n1 = f.nvars
    for entries in itertools.product(range(-bound, bound + 1), repeat=n1 - 1):
        tail = -sum(entries)
        if abs(tail) > bound:
            continue
        r = entries + (tail,)
        if not any(r):
            continue
        if brute_force_mu(f, r) > 0:
            return True
    return False


def test_certificate_sign_coherence_against_enumeration():
    rng = random.Random(105)
    for _ in range(40):
        n1 = rng.randrange(2, 5)
        f = random_homogeneous(rng, n1, rng.randrange(1, 5), 4,
                               random_domain(rng))
        cert = torus_certificate(f)
        assert (cert.verdict is Verdict.UNSTABLE) == _exhaustive_unstable(f)


def test_certificate_invariant_under_permutation():
    rng = random.Random(106)
    for _ in range(20):
        f = random_homogeneous(rng, 3, rng.randrange(1, 5), 4,
                               random_domain(rng))
        perm = list(rng.sample(range(3), 3))
        sigma_f = apply_matrix(f, permutation_matrix(perm))
        assert torus_certificate(f).verdict == torus_certificate(sigma_f).verdict


def test_certificate_power_has_same_verdict():
    f = parse_poly("x0^3+x1^3+x2^3", 3, QQ)
    sq = parse_poly("x0*x1*x2", 3, QQ)
    assert torus_certificate(f * f).verdict is Verdict.STABLE
    assert torus_certificate(sq * sq).verdict is Verdict.STRICTLY_SEMISTABLE


def test_certificate_invariants_enforced():
    with pytest.raises(PreconditionError):
        StabilityCertificate(Verdict.UNSTABLE)  # no witness
    with pytest.raises(PreconditionError):
        StabilityCertificate(Verdict.STABLE, mu_value=1)


# -- destabilization search -------------------------------------------------------------

def test_search_monomial_found_at_identity():
    cert = destab_search(parse_poly("x0^3", 3, QQ),
                         SearchBudget(max_candidates=0, depth=0, seed=1))
    assert cert.verdict is Verdict.UNSTABLE
    assert cert.mu_value > 0
    assert cert.witness_g is not None
    assert cert.search_budget_used.candidates_tested == 1


def test_search_replays_conjugated_instability():
    cusp = parse_poly("x1^2*x2 - x0^3", 3, QQ)
    g0 = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]  # a fixed transvection
    hidden = apply_matrix(cusp, g0)
    cert = destab_search(hidden, SearchBudget(max_candidates=0, depth=2,
                                              seed=1))
    assert cert.verdict is Verdict.UNSTABLE
    transformed = apply_matrix(hidden, cert.witness_g)
    assert mu_hypersurface(transformed, cert.witness_r) == cert.mu_value


def test_search_fermat_unknown():
    cert = destab_search(parse_poly("x0^3+x1^3+x2^3", 3, QQ),
                         SearchBudget(max_candidates=50, depth=2, seed=3))
    assert cert.verdict is Verdict.UNKNOWN
    assert cert.search_budget_used.candidates_enumerated > 50


def test_search_one_variable_random_stage_yields_identity():
    # no permutation or transvection moves a single coordinate; every random
    # candidate is the identity, which the dedup set skips
    cert = destab_search(parse_poly("x0^2", 1, QQ), SearchBudget(seed=1))
    assert cert.verdict is Verdict.UNKNOWN
    used = cert.search_budget_used
    assert (used.candidates_enumerated, used.candidates_tested,
            used.lp_calls) == (1 + 0 + 0 + 2000, 1, 1)


def test_search_seed_reproducible():
    f = parse_poly("x0^3+x1^3+x2^3", 3, FP(5))
    budget = SearchBudget(max_candidates=25, depth=1, seed=11)
    a = destab_search(f, budget)
    b = destab_search(f, budget)
    assert a.search_budget_used == b.search_budget_used


def test_search_budget_validation():
    with pytest.raises(PreconditionError):
        SearchBudget(seed=None)
    with pytest.raises(PreconditionError):
        SearchBudget(max_candidates=-1, seed=1)
    with pytest.raises(PreconditionError):
        SearchBudget(transvection_scalars=(), seed=1)
