"""Sparse multivariate polynomials with exact coefficients over ZZ, QQ, or F_p.

Terms live in a dict mapping exponent tuples (one entry per variable) to
nonzero coefficients.  Values are immutable after construction: every
operation builds a new polynomial.  Terms are normalised in two places:
``_collect`` alone sums equal exponents and drops vanishing sums, and the
``Poly`` constructor checks exponents, coerces coefficients, drops zeros.
Calculus is characteristic-aware, so a partial derivative silently kills
terms whose exponent vanishes mod p.

The text grammar (whitespace-insensitive):

    poly   := ['-'] term (('+'|'-') term)*
    term   := coeff ['*'] factor ('*' factor)*  |  coeff  |  factor ('*' factor)*
    factor := 'x' INDEX ['^' EXP]
    coeff  := INT ['/' INT]

The printer emits graded-lexicographic order (x0 > x1 > ...) with explicit
'*' and '^', which the parser round-trips.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, neg
from typing import Mapping, Sequence

from .errors import ParseError, PreconditionError
from .fields import FP, Domain

Exponent = tuple  # alias: exponent vectors are plain tuples of ints


def _grlex(e: tuple) -> tuple:
    """Sort key of the graded-lexicographic order (x0 > x1 > ...)."""
    return sum(e), e


def _collect(pairs, terms=None) -> dict:
    """Add (exponent, coefficient) pairs into terms, a new dict by default.

    Repeated exponents are summed and a sum that reaches zero is dropped, so
    the dict never holds a zero coefficient.
    """
    if terms is None:
        terms = {}
    for e, c in pairs:
        s = terms.get(e)
        if s is not None:
            c = s + c
        if c == 0:
            terms.pop(e, None)
        else:
            terms[e] = c
    return terms


def _mul_terms(a: dict, b: dict) -> dict:
    return _collect((tuple(map(add, e1, e2)), c1 * c2)
                    for e1, c1 in a.items() for e2, c2 in b.items())


def _power_terms(known: dict, k: int) -> dict:
    """known[k], the k-th power of the term dict known[1], memoised in known."""
    if k not in known:
        half = _power_terms(known, k // 2)
        known[k] = _mul_terms(half, _power_terms(known, k - k // 2))
    return known[k]


class Poly:
    """A sparse polynomial over a tagged coefficient domain."""

    __slots__ = ("nvars", "domain", "terms", "homogeneous_degree")

    def __init__(self, nvars: int, domain: Domain, terms: Mapping | None = None):
        if nvars < 1:
            raise PreconditionError("nvars must be positive")
        clean: dict = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != nvars:
                    raise PreconditionError(
                        f"exponent {exp} has length {len(exp)}, expected {nvars}")
                if any(e < 0 or not isinstance(e, int) for e in exp):
                    raise PreconditionError(f"bad exponent {exp}")
                c = domain.coerce(coeff)
                if c != 0:
                    clean[exp] = c
        self.nvars = nvars
        self.domain = domain
        self.terms = clean
        degrees = {sum(e) for e in clean}
        self.homogeneous_degree = degrees.pop() if len(degrees) == 1 else None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, domain: Domain) -> "Poly":
        return cls(nvars, domain)

    @classmethod
    def constant(cls, nvars: int, domain: Domain, value) -> "Poly":
        return cls(nvars, domain, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, nvars: int, domain: Domain, exponent, coeff=1) -> "Poly":
        return cls(nvars, domain, {tuple(exponent): coeff})

    @classmethod
    def variable(cls, nvars: int, domain: Domain, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise PreconditionError(f"variable index {i} out of range")
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, domain, {tuple(exp): 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_coefficient(self):
        return self.terms.get((0,) * self.nvars, self.domain.zero())

    def support(self) -> frozenset:
        return frozenset(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.domain == other.domain and self.terms == other.terms)

    def __len__(self):
        return len(self.terms)

    def _check_compatible(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise PreconditionError(
                f"nvars mismatch: {self.nvars} vs {other.nvars}")
        if self.domain != other.domain:
            raise PreconditionError(
                f"domain mismatch: {self.domain} vs {other.domain}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        return Poly(self.nvars, self.domain,
                    _collect(other.terms.items(), dict(self.terms)))

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, self.domain,
                    {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        negated = ((e, -c) for e, c in other.terms.items())
        return Poly(self.nvars, self.domain,
                    _collect(negated, dict(self.terms)))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        return Poly(self.nvars, self.domain,
                    _mul_terms(self.terms, other.terms))

    def __pow__(self, m: int) -> "Poly":
        if m < 0:
            raise PreconditionError("negative power")
        one = {(0,) * self.nvars: 1}
        return Poly(self.nvars, self.domain,
                    _power_terms({0: one, 1: self.terms}, m))

    def scale(self, value) -> "Poly":
        c0 = self.domain.coerce(value)
        return Poly(self.nvars, self.domain,
                    {e: c0 * c for e, c in self.terms.items()})

    # -- calculus ------------------------------------------------------------

    def partial(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise PreconditionError(f"variable index {i} out of range")
        # a term whose exponent the characteristic divides gets coefficient
        # zero here, which the constructor drops
        return Poly(self.nvars, self.domain,
                    {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                     for e, c in self.terms.items() if e[i]})

    # -- substitution ----------------------------------------------------------

    def subs(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute images[i] for variable i.  Images share nvars/domain."""
        if len(images) != self.nvars:
            raise PreconditionError("one image per variable required")
        for im in images:
            if im.nvars != images[0].nvars or im.domain != self.domain:
                raise PreconditionError("substitution images are incompatible")
        out_nvars = images[0].nvars
        # term dicts, not Polys: every product below is collected only once
        powers = [{1: im.terms} for im in images]

        def image_terms():
            origin = (0,) * out_nvars
            for e, c in self.terms.items():
                prod = {origin: c}
                for i, k in enumerate(e):
                    if k:
                        prod = _mul_terms(prod, _power_terms(powers[i], k))
                yield from prod.items()

        return Poly(out_nvars, self.domain, _collect(image_terms()))

    def dehomogenize(self, i: int = 0) -> "Poly":
        """Set x_i = 1 and drop the variable (chart of the projective space)."""
        if self.nvars < 2:
            raise PreconditionError("need at least two variables")
        return Poly(self.nvars - 1, self.domain,
                    _collect((e[:i] + e[i + 1:], c)
                             for e, c in self.terms.items()))

    def translate(self, point: Sequence) -> "Poly":
        """Shift the origin: substitute x_i + point[i] for x_i."""
        if len(point) != self.nvars:
            raise PreconditionError("point length must equal nvars")
        origin = (0,) * self.nvars
        return self.subs([Poly(self.nvars, self.domain,
                               {origin[:i] + (1,) + origin[i + 1:]: 1,
                                origin: a})
                          for i, a in enumerate(point)])

    # -- exact division (used by fraction-free determinants) -------------------

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Quotient self/divisor when the division is exact; error otherwise."""
        self._check_compatible(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        remainder = dict(self.terms)
        quotient: dict = {}
        div_lead = max(divisor.terms, key=_grlex)
        div_lc = divisor.terms[div_lead]
        # leading terms come from a min-heap of negated exponents, pushed as
        # they enter the remainder; an entry whose term has cancelled is stale
        heap = [_grlex(tuple(map(neg, e))) for e in remainder]
        heapify(heap)
        while remainder:
            lead = tuple(map(neg, heappop(heap)[1]))
            if lead not in remainder:
                continue
            diff = tuple(a - b for a, b in zip(lead, div_lead))
            if any(d < 0 for d in diff):
                raise PreconditionError("division is not exact")
            q = _ring_divide(remainder[lead], div_lc)
            quotient[diff] = q
            added = [(tuple(map(add, diff, e)), -q * c)
                     for e, c in divisor.terms.items()]
            for e, _ in added:
                if e not in remainder:
                    heappush(heap, _grlex(tuple(map(neg, e))))
            _collect(added, remainder)
        return Poly(self.nvars, self.domain, quotient)

    # -- printing ---------------------------------------------------------------

    def to_string(self, var: str = "x") -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=_grlex, reverse=True)
        pieces = []
        for e in ordered:
            c = self.terms[e]
            if self.domain.kind == "FP":
                negative, mag = False, str(c.residue)
                is_one = c.residue == 1
            else:
                negative = c < 0
                mag = str(-c if negative else c)
                is_one = abs(c) == 1
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"{var}{i}")
                elif k > 1:
                    factors.append(f"{var}{i}^{k}")
            if not factors:
                body = mag
            elif is_one:
                body = "*".join(factors)
            else:
                body = mag + "*" + "*".join(factors)
            pieces.append((negative, body))
        first_neg, first = pieces[0]
        out = ("-" if first_neg else "") + first
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):
        return f"Poly({self.domain}, {self.to_string()})"


# -- parsing ---------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", position=start + 1)
        return int(self.text[start:self.pos])


def parse_poly(text: str, nvars: int, domain: Domain) -> Poly:
    """Parse polynomial text into a canonical sparse polynomial.

    Raises ParseError with a 1-based column on syntax errors, out-of-range
    variable indices, and (over F_p) denominators divisible by p.
    """
    sc = _Scanner(text)
    pairs = []
    if sc.peek() == "":
        raise ParseError("empty polynomial text", position=1)
    sign = 1
    if sc.peek() == "-":
        sc.take()
        sign = -1
    elif sc.peek() == "+":
        sc.take()
    while True:
        num, den, exps = _parse_term(sc, nvars)
        coeff_pos = sc.pos
        try:
            coeff = domain.from_fraction(sign * num, den)
        except PreconditionError as exc:
            raise ParseError(str(exc), position=coeff_pos) from None
        pairs.append((tuple(exps), coeff))
        ch = sc.peek()
        if ch == "":
            break
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            raise ParseError(f"unexpected character {ch!r}", position=sc.pos + 1)
        sc.take()
    return Poly(nvars, domain, _collect(pairs))


def _parse_term(sc: _Scanner, nvars: int):
    num, den = 1, 1
    ch = sc.peek()
    if ch.isdigit():
        num = sc.read_int()
        if sc.peek() == "/":
            sc.take()
            den = sc.read_int()
            if den == 0:
                raise ParseError("zero denominator", position=sc.pos)
        if sc.peek() == "*":
            sc.take()
            if sc.peek() != "x":
                raise ParseError("expected a variable after '*'",
                                 position=sc.pos + 1)
    elif ch != "x":
        raise ParseError(f"expected a term, found {ch!r}" if ch else
                         "expected a term", position=sc.pos + 1)
    exps = [0] * nvars
    while sc.peek() == "x":
        sc.take()
        idx_pos = sc.pos
        idx = sc.read_int()
        if idx >= nvars:
            raise ParseError(f"variable index {idx} out of range (nvars={nvars})",
                             position=idx_pos + 1)
        power = 1
        if sc.peek() == "^":
            sc.take()
            power = sc.read_int()
        exps[idx] += power
        if sc.peek() == "*":
            sc.take()
            if sc.peek() != "x":
                raise ParseError("expected a variable after '*'",
                                 position=sc.pos + 1)
    return num, den, exps


# -- the named operations ----------------------------------------------------


def reduce_mod_p(f: Poly, p: int) -> Poly:
    """Coefficient-wise reduction of a ZZ/QQ polynomial into F_p."""
    if f.domain.kind == "FP":
        raise PreconditionError("input already has positive characteristic")
    return Poly(f.nvars, FP(p), f.terms)


def apply_matrix(f: Poly, matrix: Sequence[Sequence]) -> Poly:
    """Pull back f along the linear change x_i -> sum_j M[i][j] * x_j.

    The matrix must be invertible over the coefficient domain; chained
    application composes by matrix product:
    apply_matrix(apply_matrix(f, M), N) == apply_matrix(f, M @ N).
    """
    n = f.nvars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise PreconditionError(f"matrix must be {n}x{n}")
    # coerced once here, so matrix_det and the Poly rows below re-coerce
    # domain elements cheaply instead of building each one twice
    rows = [[f.domain.coerce(v) for v in row] for row in matrix]
    if matrix_det(rows, f.domain) == 0:
        raise PreconditionError("matrix is singular")
    units = [tuple(u) for u in identity_matrix(n)]  # exponents of x_0..x_n-1
    return f.subs([Poly(n, f.domain, dict(zip(units, row))) for row in rows])


def min_inner_product(f: Poly, r: Sequence[int]) -> int:
    """min over the support of <r, alpha>; depends only on the support."""
    if f.is_zero():
        raise PreconditionError("zero polynomial has no support")
    return min(sum(ri * ai for ri, ai in zip(r, e)) for e in f.terms)


# -- small exact linear algebra ------------------------------------------------


def _ring_divide(a, b):
    """Exact a / b in the divisor's ring: int by divmod, Poly by exact_div."""
    if isinstance(b, int):
        q, r = divmod(a, b)
        if r != 0:
            raise PreconditionError("division is not exact")
        return q
    if isinstance(b, Poly):
        return a.exact_div(b)
    return a / b


def _bareiss_step(row, pivot_row, col: int, prev, start: int = 0):
    """One fraction-free row update (Bareiss 1968), in place: for j >= start,
    row[j] := (pivot * row[j] - row[col] * pivot_row[j]) / prev, exactly in
    the entries' ring, where pivot is pivot_row[col]; prev None divides by 1.
    """
    pivot, lead = pivot_row[col], row[col]
    for j in range(start, len(row)):
        num = pivot * row[j] - lead * pivot_row[j]
        row[j] = num if prev is None else _ring_divide(num, prev)


def _bareiss_eliminate(rows) -> tuple:
    """Fraction-free forward elimination (Bareiss 1968) of a copy of rows.

    Pivots run down the rows; a column with no nonzero entry at or below the
    current row is skipped.  Returns (rank, sign of the row swaps, last
    pivot); for a square matrix of full rank the last pivot is the
    determinant up to that sign.  Each update divides exactly by the
    previous pivot, except in the first step, where there is none.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    sign = 1
    prev = None
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        if not m[rank][col]:  # ring elements and Poly are falsy iff zero
            swap = next((i for i in range(rank + 1, nrows) if m[i][col]),
                        None)
            if swap is None:
                continue
            m[rank], m[swap] = m[swap], m[rank]
            sign = -sign
        pivot_row = m[rank]
        # entries left of col + 1 are never read again, so they stay
        for row in m[rank + 1:]:
            _bareiss_step(row, pivot_row, col, prev, col + 1)
        prev = pivot_row[col]
        rank += 1
    return rank, sign, prev


def bareiss_det(rows, zero, one):
    """Fraction-free determinant of entries that all share one ring."""
    n = len(rows)
    if n == 0:
        return one
    rank, sign, pivot = _bareiss_eliminate(rows)
    if rank < n:
        return zero
    return pivot if sign == 1 else -pivot


def integer_rank(rows) -> int:
    """Rank of an integer matrix, by the same fraction-free elimination."""
    return _bareiss_eliminate(rows)[0]


def matrix_det(rows: Sequence[Sequence], domain: Domain):
    """Exact determinant over the domain, as an element of the domain."""
    # coerce: division follows the entries, so ints would divide as integers
    work = [[domain.coerce(v) for v in row] for row in rows]
    return bareiss_det(work, domain.zero(), domain.one())


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list:
    n, m, k = len(a), len(b[0]), len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def identity_matrix(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
