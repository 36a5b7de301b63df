"""Cycle-level operations on Chow forms: sums are products of forms,
multiples are powers, and characteristic-zero transfer goes through
support-preserving integer lifts (the numerical function only sees the
support, so a lift with identical support has identical weights).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import PreconditionError
from .fields import ZZ
from .poly import Poly, min_inner_product, reduce_mod_p
from .stability import WeightVector

# transfer_check samples weight entries from [-_WEIGHT_BOUND, _WEIGHT_BOUND].
_WEIGHT_BOUND = 5


@dataclass(frozen=True)
class LiftReport:
    support_preserved: bool
    sampled_weights: tuple
    mu_pairs: tuple
    all_equal: bool

    def __post_init__(self):
        if not self.support_preserved:
            raise PreconditionError("lift failed to preserve the support")
        if self.all_equal != all(a == b for a, b in self.mu_pairs):
            raise PreconditionError("inconsistent transfer report")


def sum_cycles(f: Poly, g: Poly) -> Poly:
    """Chow form of a sum of cycles: the product of the two forms."""
    if f.is_zero() or g.is_zero():
        raise PreconditionError("zero polynomial is not a Chow form")
    if f.homogeneous_degree is None or g.homogeneous_degree is None:
        raise PreconditionError("Chow forms must be homogeneous")
    return f * g


def multiple_cycle(f: Poly, m: int) -> Poly:
    """Chow form of the m-fold multiple: the m-th power (binary powering).

    Over F_p powers can shrink the support (Frobenius), so multiples are
    always taken in the polynomial's own characteristic, never via a lift.
    """
    if f.is_zero():
        raise PreconditionError("zero polynomial is not a Chow form")
    if m < 1:
        raise PreconditionError("multiplicity must be at least 1")
    return f ** m


def lift_support(f: Poly) -> Poly:
    """Lift an F_p polynomial to ZZ using representatives in [1, p-1].

    Representatives are never zero, so the support is preserved exactly and
    reduce_mod_p(lift_support(f), p) == f.
    """
    if f.domain.kind != "FP":
        raise PreconditionError("lift_support expects a prime-field polynomial")
    if f.is_zero():
        raise PreconditionError("zero polynomial has no support to preserve")
    return Poly(f.nvars, ZZ, {e: c.residue for e, c in f.terms.items()})


def random_weight_vector(rng: random.Random, length: int) -> WeightVector:
    """A uniform-ish nonzero zero-sum integer vector with entries in
    [-_WEIGHT_BOUND, _WEIGHT_BOUND]."""
    while True:
        head = [rng.randint(-_WEIGHT_BOUND, _WEIGHT_BOUND)
                for _ in range(length - 1)]
        tail = -sum(head)
        if abs(tail) <= _WEIGHT_BOUND and (tail != 0 or any(head)):
            return WeightVector(tuple(head + [tail]))


def transfer_check(f: Poly, samples: int, seed: int) -> LiftReport:
    """Compare weight minima of f and its integer lift on sampled weights.

    The minima agree whenever the supports agree, so all_equal is always
    true; a false value would mean the lift (or the weight code) is broken.
    At least one sample is required, so all_equal is never vacuous.
    """
    if samples < 1:
        raise PreconditionError("samples must be at least 1")
    lifted = lift_support(f)
    if lifted.support() != f.support():
        raise PreconditionError("lift changed the support")
    if reduce_mod_p(lifted, f.domain.p) != f:
        raise PreconditionError("lift does not reduce back to the input")
    rng = random.Random(seed)
    weights = []
    pairs = []
    for _ in range(samples):
        w = random_weight_vector(rng, f.nvars)
        weights.append(w)
        pairs.append((min_inner_product(f, w.entries),
                      min_inner_product(lifted, w.entries)))
    return LiftReport(support_preserved=True,
                      sampled_weights=tuple(weights),
                      mu_pairs=tuple(pairs),
                      all_equal=all(a == b for a, b in pairs))
