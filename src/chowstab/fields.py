"""Coefficient domains: arbitrary-precision integers and rationals, and
prime fields F_p with p < 2^31.

A ``Domain`` tag travels with every polynomial and dispatches coefficient
arithmetic.  Integers are plain ``int``, rationals are ``fractions.Fraction``
(already normalized with positive denominator), and prime-field elements are
``PrimeFieldElem`` instances, so polynomial code can use ordinary operators
throughout.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, PreconditionError

_MR_BASES = (2, 7, 61)  # deterministic Miller-Rabin witnesses below 2^31


def is_prime(n: int) -> bool:
    """Deterministic primality check, valid for 0 <= n < 2**31."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13):
        if n == small:
            return True
        if n % small == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeFieldElem:
    """An element of F_p, stored as the residue in [0, p).

    Arithmetic with plain ints reduces them mod p first.  Division and
    inversion use Fermat's little theorem.
    """

    __slots__ = ("residue", "p")

    def __init__(self, residue: int, p: int, _checked: bool = False):
        if not _checked:
            if not (2 <= p < 2**31) or not is_prime(p):
                raise PreconditionError(f"modulus {p} is not a prime below 2^31")
        self.residue = residue % p
        self.p = p

    def _lift(self, other) -> "PrimeFieldElem":
        if isinstance(other, PrimeFieldElem):
            if other.p != self.p:
                raise PreconditionError(
                    f"prime field mismatch: F_{self.p} vs F_{other.p}")
            return other
        if isinstance(other, int):
            return PrimeFieldElem(other, self.p, _checked=True)
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise PreconditionError(
                    f"denominator {other.denominator} divisible by {self.p}")
            inv = pow(other.denominator % self.p, self.p - 2, self.p)
            return PrimeFieldElem(other.numerator * inv, self.p, _checked=True)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElem(self.residue + other.residue, self.p, _checked=True)

    __radd__ = __add__

    def __neg__(self):
        return PrimeFieldElem(-self.residue, self.p, _checked=True)

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElem(self.residue - other.residue, self.p, _checked=True)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElem(self.residue * other.residue, self.p, _checked=True)

    __rmul__ = __mul__

    def inverse(self) -> "PrimeFieldElem":
        if self.residue == 0:
            raise ZeroDivisionError(f"inverting 0 in F_{self.p}")
        return PrimeFieldElem(pow(self.residue, self.p - 2, self.p), self.p,
                              _checked=True)

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return PrimeFieldElem(pow(self.residue, k, self.p), self.p, _checked=True)

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElem):
            return self.p == other.p and self.residue == other.residue
        if isinstance(other, int):
            return self.residue == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.residue, self.p))

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"{self.residue}"


class Domain:
    """Coefficient-domain tag: ZZ, QQ, or FP(p)."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("ZZ", "QQ", "FP"):
            raise ValueError(f"unknown domain kind {kind!r}")
        if kind == "FP":
            if p is None or not (2 <= p < 2**31) or not is_prime(p):
                raise PreconditionError(f"modulus {p} is not a prime below 2^31")
        elif p is not None:
            raise ValueError("p only applies to FP domains")
        self.kind = kind
        self.p = p

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def coerce(self, value):
        """Map an int, Fraction, or same-domain element into this domain."""
        if self.kind == "ZZ":
            if isinstance(value, int):
                return value
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise PreconditionError(f"{value} is not an integer")
                return value.numerator
        elif self.kind == "QQ":
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
        else:
            if isinstance(value, PrimeFieldElem):
                if value.p != self.p:
                    raise PreconditionError(
                        f"prime field mismatch: F_{self.p} vs F_{value.p}")
                return value
            if isinstance(value, (int, Fraction)):
                return PrimeFieldElem(0, self.p, _checked=True)._lift(value)
        raise PreconditionError(
            f"cannot coerce {value!r} into {self}")

    def from_fraction(self, num: int, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return self.coerce(Fraction(num, den))

    def __eq__(self, other):
        return (isinstance(other, Domain) and self.kind == other.kind
                and self.p == other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"F_{self.p}" if self.kind == "FP" else self.kind


ZZ = Domain("ZZ")
QQ = Domain("QQ")


def FP(p: int) -> Domain:
    return Domain("FP", p)


def domain_from_tag(tag: str) -> Domain:
    """Parse a field tag: 'q', 'z', or 'fp:P'."""
    t = tag.strip().lower()
    if t == "q":
        return QQ
    if t == "z":
        return ZZ
    if t.startswith("fp:"):
        body = t[3:]
        if not body.isdigit():
            raise ParseError(f"bad prime in field tag {tag!r}")
        return FP(int(body))
    raise ParseError(f"unknown field tag {tag!r} (expected q, z, or fp:P)")


def domain_tag(domain: Domain) -> str:
    if domain.kind == "QQ":
        return "q"
    if domain.kind == "ZZ":
        return "z"
    return f"fp:{domain.p}"
