"""Numerical stability function for hypersurface Chow forms, exact torus
certificates, and a bounded search for destabilizing coordinate changes.

Conventions: a diagonal one-parameter subgroup is an integer weight vector
r with sum 0; the numerical function mu is the *minimum* weight over the
support, so mu > 0 witnesses instability and mu < 0 for every weight (and
every coordinate change) means stable.  Torus certificates quantify over
all diagonal weights at once via exact linear programming (the
Hilbert-Mumford criterion for the diagonal torus): one interior LP of n+1
rows places the degree barycenter outside, on the boundary of, or inside
the Newton polytope, which is the unstable / strictly semistable / stable
verdict.  Only the first two carry a witness weight, and only they run
the larger box-normalised LPs that find it: separation of the barycenter
from the polytope, and a nonzero weight in the non-negativity cone.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import PreconditionError
from .fields import Domain
from .poly import Poly, apply_matrix, identity_matrix, integer_rank, mat_mul, \
    min_inner_product
from .simplex import INFEASIBLE, OPTIMAL, solve_standard_lp


@dataclass(frozen=True, slots=True)
class WeightVector:
    """Integer weights (r_0, ..., r_n), summing to zero, not all zero."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries or sum(entries) != 0:
            raise PreconditionError("weights must be a nonempty zero-sum vector")
        if not any(entries):
            raise PreconditionError("weight vector must be nonzero")

    @classmethod
    def coerce(cls, r) -> "WeightVector":
        return r if isinstance(r, WeightVector) else cls(tuple(r))

    @property
    def is_r_normalized(self) -> bool:
        return all(a <= b for a, b in zip(self.entries, self.entries[1:]))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class BracketSupport:
    """Support of a Chow form of an r-dimensional degree-d cycle in P^n.

    Each element is a multiset of d subsets of {0,...,n}, every subset of
    size n-r; a subset records which rows enter a Pluecker minor.  Stored
    canonically: each subset as a sorted tuple, each multiset as a sorted
    tuple of subsets, the whole support as a frozenset.
    """

    n: int
    r: int
    d: int
    tuples: frozenset

    @classmethod
    def build(cls, n: int, r: int, d: int, tuples) -> "BracketSupport":
        if not (0 <= r < n):
            raise PreconditionError("need 0 <= r < n")
        if d < 1:
            raise PreconditionError("degree must be at least 1")
        canon = set()
        for tup in tuples:
            subsets = []
            for subset in tup:
                s = tuple(sorted(set(subset)))
                if len(s) != n - r:
                    raise PreconditionError(
                        f"subset {subset} must have exactly {n - r} elements")
                if any(not (0 <= i <= n) for i in s):
                    raise PreconditionError(f"subset {subset} not within 0..{n}")
                subsets.append(s)
            if len(subsets) != d:
                raise PreconditionError(f"tuple {tup} must contain {d} subsets")
            canon.add(tuple(sorted(subsets)))
        if not canon:
            raise PreconditionError("empty bracket support")
        return cls(n, r, d, frozenset(canon))


class Verdict(str, Enum):
    UNSTABLE = "unstable_witness"
    STRICTLY_SEMISTABLE = "strictly_semistable_torus"
    STABLE = "stable_torus"
    UNKNOWN = "unknown_after_search"


@dataclass(frozen=True, slots=True)
class SearchCounters:
    candidates_enumerated: int = 0
    candidates_tested: int = 0
    lp_calls: int = 0

    def as_dict(self) -> dict:
        return {"candidates_enumerated": self.candidates_enumerated,
                "candidates_tested": self.candidates_tested,
                "lp_calls": self.lp_calls}


@dataclass(frozen=True, slots=True)
class StabilityCertificate:
    verdict: Verdict
    witness_r: Optional[WeightVector] = None
    witness_g: Optional[tuple] = None
    mu_value: Optional[int] = None
    lp_value: Optional[Fraction] = None
    search_budget_used: Optional[SearchCounters] = None

    def __post_init__(self):
        if self.verdict is Verdict.UNSTABLE:
            if self.witness_r is None or self.mu_value is None \
                    or self.mu_value <= 0:
                raise PreconditionError(
                    "unstable certificates need a witness with positive mu")
        elif self.verdict is Verdict.STRICTLY_SEMISTABLE:
            if self.witness_r is None or self.mu_value != 0:
                raise PreconditionError(
                    "strictly semistable certificates need a mu = 0 witness")
        elif self.verdict is Verdict.STABLE:
            if self.witness_r is not None or self.witness_g is not None \
                    or self.mu_value is not None:
                raise PreconditionError("stable certificates carry no witness")


class LpResult(NamedTuple):
    t_star: Fraction
    r_star: list


class LeeRatio(NamedTuple):
    w_f: int
    sum_wxI: int
    ratio: Fraction


# -- numerical functions ------------------------------------------------------


def _require_nonzero_homogeneous(f: Poly) -> int:
    if f.is_zero():
        raise PreconditionError("zero polynomial")
    d = f.homogeneous_degree
    if d is None:
        raise PreconditionError("polynomial is not homogeneous")
    return d


def mu_hypersurface(f: Poly, r) -> int:
    """Minimum of <r, alpha> over the support of a homogeneous form.

    For a hypersurface the form is its own Chow form, so this is the
    numerical function of the diagonal weight r; it depends only on the
    support.
    """
    _require_nonzero_homogeneous(f)
    rv = WeightVector.coerce(r)
    if len(rv) != f.nvars:
        raise PreconditionError("weight length must be the number of variables")
    return min_inner_product(f, rv.entries)


def mu_bracket(s: BracketSupport, r) -> int:
    """Minimum total weight over the bracket monomials of a general support."""
    rv = WeightVector.coerce(r)
    if len(rv) != s.n + 1:
        raise PreconditionError(f"weight length must be {s.n + 1}")
    w = rv.entries
    return min(sum(w[i] for subset in tup for i in subset) for tup in s.tuples)


def bracket_from_hypersurface(f: Poly) -> BracketSupport:
    """The bracket support of a hypersurface form (cycle dimension n-1)."""
    d = _require_nonzero_homogeneous(f)
    n = f.nvars - 1
    tuples = []
    for exp in f.terms:
        singletons = []
        for i, k in enumerate(exp):
            singletons.extend([(i,)] * k)
        tuples.append(tuple(singletons))
    return BracketSupport.build(n, n - 1, d, tuples)


def _chart_weights(r: WeightVector) -> list:
    return [ri - r.entries[0] for ri in r.entries[1:]]


def lee_ratio(f: Poly, r) -> LeeRatio:
    """Chart-weight ratio of the dehomogenization against an ordered weight.

    Requires r_0 <= ... <= r_n; the dehomogenized local equation at x_0 gets
    variable weights r_i - r_0, and the ratio w(f)/sum w(x_i) compares with
    d/(n+1): strictly below iff mu < 0.
    """
    d = _require_nonzero_homogeneous(f)
    rv = WeightVector.coerce(r)
    if len(rv) != f.nvars:
        raise PreconditionError("weight length must be the number of variables")
    if not rv.is_r_normalized:
        raise PreconditionError("weights must be sorted ascending for the chart")
    local = f.dehomogenize(0)
    w_f = min_inner_product(local, _chart_weights(rv))
    sum_wxi = -f.nvars * rv.entries[0]
    return LeeRatio(w_f, sum_wxi, Fraction(w_f, sum_wxi))


# -- exact linear programming certificates -------------------------------------


def _box_lp(points, objective, with_t: bool) -> LpResult:
    """max <objective, r> [+ t]  s.t.  <r, a> [- t] >= 0 for each point a,
    sum r = 0, |r_i| <= 1.

    Standard form, columns in order: r = u - v, then t when with_t, one
    surplus per point, then the box slacks p, q (u + p = 1, v + q = 1).
    Rows in order: the points, the box rows (u_i, then v_i, for each i),
    then sum u - sum v = 0.  Returns the optimum (t, or the objective value
    without t) and r.  Always optimal: r = 0 (t = 0) is feasible, the box
    bounds the rest.
    """
    dim = len(objective)
    m = len(points)
    idx_t = 2 * dim
    idx_s = idx_t + int(with_t)
    idx_p = idx_s + m
    idx_q = idx_p + dim
    nvars = idx_q + dim
    rows = []
    for k, alpha in enumerate(points):
        row = [0] * nvars
        for i in range(dim):
            row[i] = alpha[i]
            row[dim + i] = -alpha[i]
        if with_t:
            row[idx_t] = -1
        row[idx_s + k] = -1
        rows.append(row)
    for i in range(dim):
        for col, slack in ((i, idx_p + i), (dim + i, idx_q + i)):
            row = [0] * nvars
            row[col] = 1
            row[slack] = 1
            rows.append(row)
    rows.append([1] * dim + [-1] * dim + [0] * (nvars - 2 * dim))
    rhs = [0] * m + [1] * (2 * dim) + [0]
    cost = [0] * nvars
    for i in range(dim):
        cost[i] = -objective[i]
        cost[dim + i] = objective[i]
    if with_t:
        cost[idx_t] = -1
    status, x, value = solve_standard_lp(rows, rhs, cost)
    if status != OPTIMAL:
        what = "separation" if with_t else "cone"
        raise PreconditionError(f"{what} LP reported {status}")
    r_star = [x[i] - x[dim + i] for i in range(dim)]
    return LpResult(x[idx_t] if with_t else -value, r_star)


def primitive_integer_vector(vec) -> tuple:
    """Clear denominators and divide by the gcd; preserves direction."""
    fracs = [Fraction(v) for v in vec]
    if all(v == 0 for v in fracs):
        raise PreconditionError("zero vector has no primitive form")
    scale = math.lcm(*(v.denominator for v in fracs))
    ints = [int(v * scale) for v in fracs]
    g = math.gcd(*(abs(i) for i in ints))
    return tuple(i // g for i in ints)


def _interior_lp(points, d: int) -> Optional[Fraction]:
    """max t  s.t.  sum_alpha (t + mu_alpha) * alpha = c, t >= 0, mu >= 0,
    where c = (d/(n+1), ...) is the degree barycenter of points of degree d.

    n+1 rows, scaled by n+1 so every entry is an int; columns t, then one
    mu per point.  For d > 0, sum (t + mu_alpha) = 1 follows from the rows,
    so the LP is bounded; d = 0 is left to the caller.  Returns t*, or None
    when infeasible, i.e. when c is outside the convex hull.
    """
    n1 = len(points[0])
    rows = [[n1 * sum(alpha[i] for alpha in points)]
            + [n1 * alpha[i] for alpha in points] for i in range(n1)]
    status, x, _ = solve_standard_lp(rows, [d] * n1, [-1] + [0] * len(points))
    if status == INFEASIBLE:
        return None
    if status != OPTIMAL:  # impossible for d > 0: t <= 1/len(points)
        raise PreconditionError(f"interior LP reported {status}")
    return x[0]


def _torus_verdict(f: Poly) -> Verdict:
    """The torus verdict from where the degree barycenter c lies against the
    Newton polytope of f: outside it UNSTABLE, on its boundary
    STRICTLY_SEMISTABLE, in its interior STABLE.

    t* > 0 in the interior LP puts positive weight on every exponent, so c
    is in the relative interior, which is the interior when the exponents
    span, rank{alpha} = n+1.
    """
    d = f.homogeneous_degree
    if d == 0:
        # a constant: its one exponent is c, a point, which has an interior
        # only in one variable; the interior LP would be unbounded
        return Verdict.STABLE if f.nvars == 1 else Verdict.STRICTLY_SEMISTABLE
    pts = sorted(f.terms)
    t_star = _interior_lp(pts, d)
    if t_star is None:
        return Verdict.UNSTABLE
    if t_star > 0 and integer_rank(pts) == f.nvars:
        return Verdict.STABLE
    return Verdict.STRICTLY_SEMISTABLE


def _lp_witness(f: Poly, res: LpResult) -> tuple:
    """The LP's r as a primitive integer weight, and its mu on f."""
    witness = WeightVector(primitive_integer_vector(res.r_star))
    return witness, min_inner_product(f, witness.entries)


def _unstable_certificate(f: Poly) -> StabilityCertificate:
    """The UNSTABLE certificate of a form _torus_verdict placed outside: the
    separation LP on the exponents shifted by the barycenter c = d/(n+1)."""
    c = Fraction(f.homogeneous_degree, f.nvars)
    shifted = [tuple(a - c for a in alpha) for alpha in sorted(f.terms)]
    res = _box_lp(shifted, [0] * f.nvars, True)
    if res.t_star <= 0:  # impossible: the interior LP was infeasible
        raise PreconditionError("separation LP found no witness outside")
    witness, mu = _lp_witness(f, res)
    if mu <= 0:  # impossible: the LP value scales to mu
        raise PreconditionError("separation witness failed verification")
    return StabilityCertificate(Verdict.UNSTABLE, witness_r=witness,
                                mu_value=mu, lp_value=res.t_star)


def _semistable_witness(f: Poly) -> WeightVector:
    """A nonzero weight with mu = 0, for a barycenter on the boundary."""
    pts = sorted(f.terms)
    n1 = f.nvars
    for i in range(n1):
        for sign in (1, -1):
            objective = [0] * n1
            objective[i] = sign
            res = _box_lp(pts, objective, False)
            if res.t_star > 0:
                witness, mu = _lp_witness(f, res)
                if mu != 0:
                    raise PreconditionError(
                        "semistable witness failed verification")
                return witness
    # impossible: a boundary barycenter has a supporting weight
    raise PreconditionError("cone LPs found no weight on the boundary")


def torus_certificate(f: Poly) -> StabilityCertificate:
    """Exact stability verdict over all diagonal weights in these coordinates.

    Unstable iff the degree barycenter lies outside the Newton polytope,
    strictly semistable iff it lies on its boundary, stable iff inside.
    Witnesses are primitive integer vectors: one separating the barycenter
    when unstable, a nonzero mu = 0 weight when strictly semistable.
    """
    _require_nonzero_homogeneous(f)
    verdict = _torus_verdict(f)
    if verdict is Verdict.UNSTABLE:
        return _unstable_certificate(f)
    if verdict is Verdict.STRICTLY_SEMISTABLE:
        return StabilityCertificate(verdict, witness_r=_semistable_witness(f),
                                    mu_value=0, lp_value=Fraction(0))
    return StabilityCertificate(verdict, lp_value=Fraction(0))


# -- bounded destabilization search ---------------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for the coordinate-change search.

    max_candidates counts the seeded pseudo-random stage; the deterministic
    stage (identity, permutations, transvections, and their products up to
    `depth` factors) always runs first.  A seed is mandatory so searches are
    reproducible.
    """

    max_candidates: int = 2000
    transvection_scalars: tuple = (1, -1)
    depth: int = 2
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "transvection_scalars",
                           tuple(self.transvection_scalars))
        if self.max_candidates < 0 or self.depth < 0 \
                or not self.transvection_scalars:
            raise PreconditionError("empty search budget")
        if self.seed is None:
            raise PreconditionError("search budget requires a seed")


def permutation_matrix(perm: Sequence[int]) -> list:
    n = len(perm)
    return [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def transvection_matrix(n: int, i: int, j: int, scalar) -> list:
    m = identity_matrix(n)
    m[i][j] = scalar
    return m


def _matrix_key(rows, domain: Domain) -> tuple:
    def key(v):
        c = domain.coerce(v)
        return c.residue if domain.kind == "FP" else c
    return tuple(tuple(key(v) for v in row) for row in rows)


def _generators(n1: int, budget: SearchBudget, domain: Domain) -> list:
    gens = []
    for perm in itertools.permutations(range(n1)):
        if perm != tuple(range(n1)):
            gens.append(permutation_matrix(perm))
    for i in range(n1):
        for j in range(n1):
            if i == j:
                continue
            for s in budget.transvection_scalars:
                if domain.coerce(s) != 0:
                    gens.append(transvection_matrix(n1, i, j, s))
    return gens


def _random_unimodular(rng: random.Random, n1: int, budget: SearchBudget) -> list:
    m = identity_matrix(n1)
    if n1 < 2:  # no permutation or transvection moves a single coordinate
        return m
    for _ in range(budget.depth + 2):
        if rng.random() < 0.25:
            i, j = rng.sample(range(n1), 2)
            perm = list(range(n1))
            perm[i], perm[j] = perm[j], perm[i]
            step = permutation_matrix(perm)
        else:
            i, j = rng.sample(range(n1), 2)
            s = rng.choice(budget.transvection_scalars)
            step = transvection_matrix(n1, i, j, s)
        m = mat_mul(m, step)
    return m


def destab_search(f: Poly, budget: SearchBudget) -> StabilityCertificate:
    """Search coordinate changes for a diagonal destabilizing weight.

    Candidates run in a deterministic order; the first unstable torus
    certificate wins.  UnknownAfterSearch is a semi-decision: it is NOT a
    stability proof, only the report that the budget found no witness.
    """
    _require_nonzero_homogeneous(f)
    n1 = f.nvars
    domain = f.domain
    enumerated = tested = lp_calls = 0
    seen_matrices = set()
    settled_supports = set()

    def candidates():
        yield identity_matrix(n1)
        gens = _generators(n1, budget, domain)
        # each product is yielded as soon as it is made; a level is kept
        # only while the next one still needs it as left factors
        level = [identity_matrix(n1)]
        for k in range(1, budget.depth + 1):
            nxt = []
            for left in level:
                for g in gens:
                    product = mat_mul(left, g)
                    if k < budget.depth:
                        nxt.append(product)
                    yield product
            level = nxt
        rng = random.Random(budget.seed)
        for _ in range(budget.max_candidates):
            yield _random_unimodular(rng, n1, budget)

    for g in candidates():
        enumerated += 1
        key = _matrix_key(g, domain)
        if key in seen_matrices:
            continue
        seen_matrices.add(key)
        tested += 1
        transformed = apply_matrix(f, key)
        sup = transformed.support()
        if sup in settled_supports:
            continue
        lp_calls += 1
        if _torus_verdict(transformed) is Verdict.UNSTABLE:
            counters = SearchCounters(enumerated, tested, lp_calls)
            return replace(_unstable_certificate(transformed), witness_g=key,
                           search_budget_used=counters)
        settled_supports.add(sup)
    counters = SearchCounters(enumerated, tested, lp_calls)
    return StabilityCertificate(Verdict.UNKNOWN, search_budget_used=counters)
