"""Threshold bounds for divisor singularities at the origin.

Weighted multiplicities give exact *upper* bounds for the log canonical
threshold: assigning weights w to the affine variables, the origin blow-up
yields lct_0 <= sum(w) / w(f).  The Frobenius side computes F-pure-threshold
intervals from nu_e, the largest N with f^N outside m^[p^e] = (x_i^{p^e}).
One Frobenius ladder climbs e = 1..e_max (f^(p*N) is f^N with every exponent
times p) at no more than p truncated products per level, and the earlier
levels are read off as nu_e = nu_(e+1) // p (Mustata-Takagi-Watanabe 2005;
Blickle-Mustata-Smith 2008).  The final verdict rule compares a
caller-certified *lower* bound for the global threshold against (n+1)/d;
upper bounds alone can never certify stability, which is why the optimizer
is diagnostic only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import NamedTuple, Union

from .errors import PreconditionError
from .poly import Poly, min_inner_product

INFINITY = math.inf

Bound = Union[Fraction, float]

# lct_bound_optimize refuses a search over more candidate weights than this.
_MAX_WEIGHTS = 10**7

# fpt_nu refuses a Frobenius power p^e above this.
_MAX_PRIME_POWER = 2**16

# fpt_nu refuses a product g * f with more term pairs than this, checked
# before the product is formed.
_MAX_PRODUCT_TERMS = 2**18


@dataclass(frozen=True)
class WeightAssignment:
    """Non-negative integer weights for the affine variables, not all zero."""

    w: tuple

    def __post_init__(self):
        w = tuple(int(x) for x in self.w)
        object.__setattr__(self, "w", w)
        if not w or any(x < 0 for x in w):
            raise PreconditionError("weights must be non-negative integers")
        if not any(w):
            raise PreconditionError("at least one weight must be positive")

    @classmethod
    def coerce(cls, w) -> "WeightAssignment":
        return w if isinstance(w, WeightAssignment) else cls(tuple(w))

    def total(self) -> int:
        return sum(self.w)

    def __len__(self):
        return len(self.w)

    def __iter__(self):
        return iter(self.w)


@dataclass(frozen=True)
class ThresholdInterval:
    lower: Fraction
    upper: Bound
    kind: str  # "fpt_interval", the only kind fpt_interval produces
    provenance: dict

    def __post_init__(self):
        if self.lower > self.upper:
            raise PreconditionError("empty threshold interval")


class LeeOutcome(str, Enum):
    STABLE = "stable"
    SEMISTABLE = "semistable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LeeVerdict:
    outcome: LeeOutcome
    threshold: Fraction  # (n+1)/d
    bound: Bound
    bound_kind: str
    boundary: bool


class OptimizeResult(NamedTuple):
    best_bound: Bound
    best_w: WeightAssignment


def _check_divisor(f: Poly):
    if f.is_zero():
        raise PreconditionError("zero polynomial does not define a divisor")


def lct_upper_bound(f: Poly, w) -> Bound:
    """sum(w) / w(f): an upper bound for the threshold at the origin.

    When w(f) = 0 (the divisor misses the origin, or the weight ignores it)
    the bound is vacuous and +inf is returned.
    """
    _check_divisor(f)
    wa = WeightAssignment.coerce(w)
    if len(wa) != f.nvars:
        raise PreconditionError("one weight per variable required")
    wf = min_inner_product(f, wa.w)
    if wf == 0:
        return INFINITY
    return Fraction(wa.total(), wf)


def lct_bound_optimize(f: Poly, max_weight: int) -> OptimizeResult:
    """Minimize the weighted bound over primitive weights in [0, max_weight]^n.

    Only primitive (gcd 1) vectors matter because the bound is scale
    invariant; ties keep the lexicographically smallest weight.  The
    (max_weight+1)^n candidates are checked against _MAX_WEIGHTS before
    any is tried.
    """
    _check_divisor(f)
    if f.constant_coefficient() != 0:
        raise PreconditionError("origin is not on the divisor; bound is vacuous")
    if max_weight < 1:
        raise PreconditionError("max_weight must be at least 1")
    if (max_weight + 1) ** f.nvars > _MAX_WEIGHTS:
        raise PreconditionError(
            f"(max_weight+1)^n = {(max_weight + 1) ** f.nvars} exceeds the "
            f"search limit {_MAX_WEIGHTS}")
    best: Bound = INFINITY
    best_w = None
    for w in product(range(max_weight + 1), repeat=f.nvars):
        if not any(w) or math.gcd(*w) != 1:
            continue
        wf = min_inner_product(f, w)
        if wf == 0:
            continue
        bound = Fraction(sum(w), wf)
        if bound < best:
            best = bound
            best_w = w
    if best_w is None:  # unreachable: (1,...,1) always gives a finite bound
        raise PreconditionError("no finite bound found")
    return OptimizeResult(best, WeightAssignment(best_w))


def blowup_discrepancy(f: Poly, w, c) -> Fraction:
    """Discrepancy of the origin blow-up against the weighted pair:
    -1 + sum(w) - c * w(f).  At c = sum(w)/w(f) this is exactly -1."""
    _check_divisor(f)
    wa = WeightAssignment.coerce(w)
    if len(wa) != f.nvars:
        raise PreconditionError("one weight per variable required")
    c = Fraction(c)
    if c < 0:
        raise PreconditionError("coefficient must be non-negative")
    return Fraction(-1) + wa.total() - c * min_inner_product(f, wa.w)


# -- Frobenius-power membership -------------------------------------------------


def _truncate(f: Poly, q: int) -> Poly:
    return Poly(f.nvars, f.domain,
                {e: c for e, c in f.terms.items() if all(x < q for x in e)})


def fpt_nu(f: Poly, e: int) -> int:
    """Largest N with f^N outside (x_1^{p^e}, ..., x_n^{p^e}).

    Climbs a Frobenius ladder: g = f^nu mod m^[p^k] becomes g^[p] (every
    exponent times p, since c^p = c over F_p), which is f^(p*nu) mod
    m^[p^(k+1)], and is then multiplied by f, truncating, while the product
    is nonzero.  nu_(k+1) lies in [p*nu_k, p*nu_k + p - 1], so each level
    costs at most p products.  Truncation is sound because a discarded
    monomial can never re-enter.  A product of more than _MAX_PRODUCT_TERMS
    term pairs is refused before it is formed.
    """
    _check_divisor(f)
    if f.domain.kind != "FP":
        raise PreconditionError("fpt_nu expects a prime-field polynomial")
    if f.constant_coefficient() != 0:
        raise PreconditionError("divisor must pass through the origin")
    if e < 1:
        raise PreconditionError("e must be positive")
    p = f.domain.p
    if p ** e > _MAX_PRIME_POWER:
        raise PreconditionError(
            f"p^e = {p ** e} exceeds the configured limit {_MAX_PRIME_POWER}")
    g = Poly.constant(f.nvars, f.domain, 1)
    nu = 0
    for k in range(1, e + 1):
        q = p ** k
        g = Poly(f.nvars, f.domain,
                 {tuple(x * p for x in exp): c for exp, c in g.terms.items()})
        nu *= p
        while True:
            if len(g) * len(f) > _MAX_PRODUCT_TERMS:
                raise PreconditionError(
                    f"product of {len(g)} by {len(f)} terms exceeds the "
                    f"limit {_MAX_PRODUCT_TERMS} at p^{k} = {q}")
            h = _truncate(g * f, q)
            if h.is_zero():
                break
            g = h
            nu += 1
    return nu


def fpt_interval(f: Poly, e_max: int) -> ThresholdInterval:
    """Certified interval [nu/p^e, (nu+1)/p^e] at e = e_max.

    One ladder up to e_max gives nu = nu_(e_max); the earlier levels are
    nu_e = nu // p^(e_max - e), exact because nu_(e+1) lies in
    [p*nu_e, p*nu_e + p - 1].  Provenance records every (e, nu_e) pair, so
    the lower ends are non-decreasing and all intervals are nested.
    """
    if e_max < 1:
        raise PreconditionError("e_max must be positive")
    nu = fpt_nu(f, e_max)
    p = f.domain.p
    q = p ** e_max
    nus = tuple((e, nu // p ** (e_max - e)) for e in range(1, e_max + 1))
    return ThresholdInterval(lower=Fraction(nu, q), upper=Fraction(nu + 1, q),
                             kind="fpt_interval",
                             provenance={"p": p, "nu_by_e": nus,
                                         "e": e_max})


def lee_verdict(n: int, d: int, bound, bound_kind: str) -> LeeVerdict:
    """Stability verdict from a certified lower bound on the global threshold.

    Stable when bound > (n+1)/d, semistable at equality, otherwise
    inconclusive; the rule is one-directional and never reports instability.
    The caller is responsible for the bound being a *global* lower bound
    (e.g. 1 for a smooth hypersurface, or an everywhere-valid fpt interval
    lower end); F-purity implies log canonicity, so fpt lower bounds qualify.
    """
    if n <= 0 or d <= 0:
        raise PreconditionError("need positive dimension and degree")
    if bound_kind not in ("lct_lower", "fpt_lower"):
        raise PreconditionError(f"unknown bound kind {bound_kind!r}")
    if bound != INFINITY:
        bound = Fraction(bound)
        if bound < 0:
            raise PreconditionError("thresholds are non-negative")
    threshold = Fraction(n + 1, d)
    if bound > threshold:
        outcome = LeeOutcome.STABLE
    elif bound == threshold:
        outcome = LeeOutcome.SEMISTABLE
    else:
        outcome = LeeOutcome.INCONCLUSIVE
    return LeeVerdict(outcome=outcome, threshold=threshold, bound=bound,
                      bound_kind=bound_kind,
                      boundary=(bound == threshold))
