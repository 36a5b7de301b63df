"""Binary-form resultants and discriminants, the quartic S/T/D identities,
exact smoothness tests, and singular-point enumeration over finite fields.

The discriminant of a form is the raw Sylvester resultant of its two
partials; no classical rescaling is applied, so comparisons against other
normalizations must state their scalar.  Smoothness of binary forms is an
exact decision (squarefreeness via characteristic-aware gcd).  Point
enumeration over F_{p^e} is a SEMI-DECISION: an empty list does not prove
emptiness over the algebraic closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .errors import PreconditionError
from .fields import FP, QQ, ZZ, Domain, is_prime
from .poly import Poly, bareiss_det

# singular_locus_enumerate refuses a search over more coordinate vectors than
# this, checked before the modulus search and the field are built.
_MAX_POINTS = 10**7
# sylvester_resultant refuses a Sylvester matrix with more rows than this
# (m + n from the declared degrees), checked before any coefficient list.
_MAX_SYLVESTER_SIZE = 100

# -- Sylvester resultants -----------------------------------------------------


def _univariate_coeffs(f: Poly, declared: int) -> list:
    """Coefficient list of f(x, 1), index = power of x, padded to declared."""
    coeffs = [f.domain.zero() for _ in range(declared + 1)]
    for (e0, _e1), c in f.terms.items():
        if e0 > declared:
            raise PreconditionError(
                f"declared degree {declared} below actual x0-degree {e0}")
        coeffs[e0] = coeffs[e0] + c
    return coeffs


def sylvester_matrix(p_coeffs, q_coeffs, m: int, n: int, zero) -> list:
    """(m+n) x (m+n) Sylvester matrix from ascending coefficient lists."""
    size = m + n
    rows = []
    for i in range(n):
        row = [zero] * size
        for k in range(m + 1):
            row[i + k] = p_coeffs[m - k]
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for k in range(n + 1):
            row[i + k] = q_coeffs[n - k]
        rows.append(row)
    return rows


def sylvester_resultant(p: Poly, q: Poly, deg_p: int | None = None,
                        deg_q: int | None = None):
    """Resultant of two binary forms via the Sylvester determinant.

    Inputs are polynomials in two variables, read as their dehomogenizations
    at x1 = 1; declared degrees default to the homogeneous degree (or the
    x0-degree for already-affine input) and control the matrix size, so
    vanishing leading coefficients mean a root at infinity.  Zero iff the
    forms share a projective root over the algebraic closure.  A matrix
    size m + n over _MAX_SYLVESTER_SIZE is refused before any work.
    """
    for f in (p, q):
        if f.is_zero():
            raise PreconditionError("resultant of the zero polynomial")
        if f.nvars != 2:
            raise PreconditionError("binary forms have exactly two variables")
    if p.domain != q.domain:
        raise PreconditionError(f"domain mismatch: {p.domain} vs {q.domain}")
    m = deg_p if deg_p is not None else _default_degree(p)
    n = deg_q if deg_q is not None else _default_degree(q)
    if m + n > _MAX_SYLVESTER_SIZE:
        raise PreconditionError(
            f"Sylvester matrix size m+n = {m + n} exceeds the configured "
            f"limit {_MAX_SYLVESTER_SIZE}")
    pc = _univariate_coeffs(p, m)
    qc = _univariate_coeffs(q, n)
    domain = p.domain
    rows = sylvester_matrix(pc, qc, m, n, domain.zero())
    return bareiss_det(rows, domain.zero(), domain.one())


def _default_degree(f: Poly) -> int:
    d = f.homogeneous_degree
    if d is not None:
        return d
    return max(e0 for (e0, _e1) in f.terms)


# -- discriminants -------------------------------------------------------------


def _generic_partials(d: int) -> tuple:
    """Coefficient lists of the two partials of f = sum_k a_k X0^(d-k) X1^k,
    polynomials in a_0..a_d over ZZ: entry j is the X0^j coefficient of
    df/dX0 (first list) and of df/dX1 (second list)."""
    a = [Poly.variable(d + 1, ZZ, k) for k in range(d + 1)]
    return ([a[d - 1 - j].scale(j + 1) for j in range(d)],
            [a[d - j].scale(d - j) for j in range(d)])


def discriminant_binary(d: int, mode: str = "generic", form: Poly | None = None):
    """Resultant of the two partials of a degree-d binary form.

    Generic mode (2 <= d <= 6) returns a polynomial in the coefficients
    a_0..a_d over ZZ; numeric mode evaluates the same resultant for a given
    form.  The output is the raw resultant, unscaled.
    """
    if d < 2:
        raise PreconditionError("degree must be at least 2")
    if mode == "generic":
        if d > 6:
            raise PreconditionError("generic discriminants limited to d <= 6")
        pc, qc = _generic_partials(d)
        zero = Poly.zero(d + 1, ZZ)
        one = Poly.constant(d + 1, ZZ, 1)
        rows = sylvester_matrix(pc, qc, d - 1, d - 1, zero)
        return bareiss_det(rows, zero, one)
    if mode == "numeric":
        if form is None or form.nvars != 2:
            raise PreconditionError("numeric mode needs a binary form")
        if form.homogeneous_degree != d:
            raise PreconditionError(f"form is not homogeneous of degree {d}")
        px = form.partial(0)
        py = form.partial(1)
        if px.is_zero() or py.is_zero():
            return form.domain.zero()  # a vanishing partial has every root
        return sylvester_resultant(px, py, d - 1, d - 1)
    raise PreconditionError(f"unknown mode {mode!r}")


class QuarticST(NamedTuple):
    S: object
    T: object
    D: object


def _st(a: list, const) -> QuarticST:
    """S, T and D = 4*S^3 - T^2 from the five coefficients a_0..a_4, where
    const(k) is the integer k in the coefficients' ring."""
    s = const(12) * a[0] * a[4] - const(3) * a[1] * a[3] + a[2] * a[2]
    t = (const(72) * a[0] * a[2] * a[4] - const(27) * a[0] * a[3] * a[3]
         + const(9) * a[1] * a[2] * a[3] - const(27) * a[1] * a[1] * a[4]
         - const(2) * a[2] * a[2] * a[2])
    return QuarticST(s, t, const(4) * s * s * s - t * t)


def quartic_st(coeffs, domain: Domain) -> QuarticST:
    """The degree-2 and degree-3 invariants of a binary quartic and
    D = 4*S^3 - T^2, computed in the given domain."""
    if len(coeffs) != 5:
        raise PreconditionError("a binary quartic has five coefficients")
    return _st([domain.coerce(c) for c in coeffs], domain.coerce)


def quartic_st_generic():
    """Symbolic S, T, D over ZZ in the coefficient variables a_0..a_4."""
    return tuple(_st([Poly.variable(5, ZZ, i) for i in range(5)],
                     lambda k: Poly.constant(5, ZZ, k)))


# -- univariate gcd and smoothness ----------------------------------------------


def _uni_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _uni_derivative(c: list) -> list:
    return _uni_trim([c[k] * k for k in range(1, len(c))])


def _uni_mod(a: list, b: list) -> list:
    """Remainder of a by b != 0 in the entries' field; coerce ints first."""
    a = list(a)
    lead_inv = 1 / b[-1]
    while len(a) >= len(b):
        factor = a[-1] * lead_inv
        shift = len(a) - len(b)
        if factor != 0:
            for i in range(len(b)):
                a[shift + i] = a[shift + i] - factor * b[i]
        a.pop()
        _uni_trim(a)
        if not a:
            break
    return a


def _uni_gcd(a: list, b: list) -> list:
    """Unnormalised gcd over the entries' field, as _uni_mod reads it."""
    a, b = _uni_trim(list(a)), _uni_trim(list(b))
    while b:
        a, b = b, _uni_mod(a, b)
    return a


def smoothness_binary(f: Poly) -> bool:
    """True iff the form together with both partials has no common projective
    zero over the algebraic closure; equivalently, squarefree for d >= 1.

    Decided exactly: the dehomogenization must be squarefree
    (characteristic-aware gcd with its derivative) and the root at infinity
    must be simple.
    """
    if f.is_zero():
        raise PreconditionError("smoothness of the zero form")
    if f.nvars != 2:
        raise PreconditionError("binary forms have exactly two variables")
    d = f.homogeneous_degree
    if d is None:
        raise PreconditionError("input is not a binary form")
    if d == 0:
        return True
    work = Poly(2, QQ, f.terms) if f.domain.kind == "ZZ" else f
    coeffs = _uni_trim(_univariate_coeffs(work, d))
    if d - (len(coeffs) - 1) >= 2:
        return False  # root at infinity with multiplicity >= 2
    if len(coeffs) == 1:
        return True
    g = _uni_gcd(coeffs, _uni_derivative(coeffs))
    return len(g) <= 1


# -- finite extension fields and point enumeration -------------------------------


def _is_irreducible(modulus: list, p: int) -> bool:
    """Irreducibility of a monic polynomial m of degree e over F_p (Ben-Or):
    m is irreducible iff gcd(t^(p^i) - t, m) = 1 for i = 1..e//2.

    Each t^(p^i) mod m is the previous one with every exponent times p,
    since h(t)^p = h(t^p) over F_p, reduced by _uni_mod; no field product.
    """
    fp = FP(p)
    zero, one = fp.zero(), fp.one()
    m = [fp.coerce(c) for c in modulus]
    power = [zero, one]  # t
    for _ in range((len(m) - 1) // 2):
        spread = [zero] * ((len(power) - 1) * p + 1)
        spread[::p] = power
        power = _uni_mod(spread, m)
        diff = power + [zero] * (2 - len(power))
        diff[1] -= one
        if len(_uni_gcd(m, diff)) > 1:
            return False
    return True


class ExtensionField:
    """F_{p^e} as F_p[t] modulo the first irreducible monic polynomial in
    lexicographic coefficient order (constant coefficient first).

    Elements are coefficient tuples of length e; the choice of modulus is a
    deterministic rule so point enumerations are reproducible.  Candidates
    are tested with Ben-Or's test, skipping those divisible by t.
    """

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        if e < 1:
            raise PreconditionError("extension degree must be positive")
        self.p = p
        self.e = e
        self.modulus = self._find_modulus(p, e)
        # reduction table: the vector of t^(e+k) mod the modulus, k = 0..e-2
        fp = FP(p)
        m = [fp.coerce(c) for c in self.modulus]
        self._reduction = []
        for k in range(e - 1):
            rem = _uni_mod([fp.zero()] * (e + k) + [fp.one()], m)
            rem += [fp.zero()] * (e - len(rem))
            self._reduction.append(tuple(c.residue for c in rem))

    @staticmethod
    def _find_modulus(p: int, e: int) -> list:
        # for e > 1 a zero constant coefficient means t divides the candidate
        for coeffs in product(range(e > 1, p), *[range(p)] * (e - 1)):
            candidate = list(coeffs) + [1]
            if _is_irreducible(candidate, p):
                return candidate
        raise PreconditionError("no irreducible polynomial found (bug)")

    def zero(self) -> tuple:
        return (0,) * self.e

    def one(self) -> tuple:
        return (1,) + (0,) * (self.e - 1)

    def from_int(self, value: int) -> tuple:
        return (value % self.p,) + (0,) * (self.e - 1)

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        e, p = self.e, self.p
        conv = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] = (conv[i + j] + ai * bj) % p
        out = conv[:e]
        for k in range(e, 2 * e - 1):
            c = conv[k]
            if c:
                red = self._reduction[k - e]
                out = [(x + c * r) % p for x, r in zip(out, red)]
        return tuple(out)

    def pow(self, a: tuple, k: int) -> tuple:
        result = self.one()
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def elements(self):
        """All field elements in deterministic order (lex on coefficients)."""
        for coeffs in product(range(self.p), repeat=self.e):
            yield coeffs

    @staticmethod
    def format(a: tuple) -> str:
        if not any(a):
            return "0"
        parts = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return " + ".join(parts)


@dataclass(frozen=True)
class ProjPoint:
    """A projective point over F_{p^e}, first nonzero coordinate scaled to 1."""

    coords: tuple
    p: int
    e: int

    def __str__(self):
        return "(" + " : ".join(ExtensionField.format(c)
                                for c in self.coords) + ")"


def singular_locus_enumerate(f: Poly, e: int,
                             include_form: bool = False) -> list:
    """All points of P^n(F_{p^e}) where every partial of f vanishes
    (optionally f as well).

    SEMI-DECISION: an empty result does not prove emptiness over the
    algebraic closure; larger e only ever add points.  More than _MAX_POINTS
    coordinate vectors are refused before the modulus search starts.
    """
    if f.domain.kind != "FP":
        raise PreconditionError("enumeration needs a prime-field polynomial")
    if f.is_zero() or f.homogeneous_degree is None:
        raise PreconditionError("input must be a nonzero homogeneous form")
    p = f.domain.p
    n1 = f.nvars
    if p ** (e * n1) > _MAX_POINTS:
        raise PreconditionError(
            f"p^(e*(n+1)) = {p ** (e * n1)} exceeds the search limit "
            f"{_MAX_POINTS}")
    field = ExtensionField(p, e)
    polys = [f.partial(i) for i in range(n1)]
    if include_form:
        polys.append(f)
    polys = [g for g in polys if not g.is_zero()]  # zero imposes no condition

    def evaluate(g: Poly, point: list) -> tuple:
        acc = field.zero()
        for exp, c in g.terms.items():
            term = field.from_int(c.residue)
            for i, k in enumerate(exp):
                if k:
                    term = field.mul(term, field.pow(point[i], k))
            acc = field.add(acc, term)
        return acc

    points = []
    for lead in range(n1):
        prefix = [field.zero()] * lead + [field.one()]
        tail_len = n1 - lead - 1
        for tail in product(field.elements(), repeat=tail_len):
            point = prefix + list(tail)
            if all(not any(evaluate(g, point)) for g in polys):
                points.append(ProjPoint(tuple(point), p, e))
    return points


def cyclic_critical_exponent(n: int, d: int) -> int:
    """1 - (1-d)^(n+1): the exponent constraining the free coordinate of a
    critical point of the cyclic form X0^(d-1)X1 + ... + Xn^(d-1)X0.

    A zero value marks the degenerate family where the constraint is empty.
    """
    if n < 1 or d < 2:
        raise PreconditionError("need n >= 1 and d >= 2")
    return 1 - (1 - d) ** (n + 1)
