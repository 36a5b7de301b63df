"""Cycle-level operations on Chow forms: sums are products of forms,
multiples are powers, and a prime-field form lifts to an integer form with
the identical support (the numerical function only sees the support, so the
lift has the same weight minima).
"""

from __future__ import annotations

from .errors import PreconditionError
from .fields import ZZ
from .poly import Poly


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
