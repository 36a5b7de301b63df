"""Reference arithmetic for the benchmark's output checks.

Nothing here imports chowstab: the checks recompute what they can from the
inputs with small, obviously-correct loops, so a wrong answer from the code
under test cannot also fool its own check.  Polynomials are dicts mapping
exponent tuples to coefficients; ``p`` is the characteristic, with 0
meaning the rationals (``Fraction`` coefficients) and a prime meaning
integer residues mod p.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction


def reduce(terms: dict, p: int) -> dict:
    """Drop zero coefficients (after reduction mod p when p > 0)."""
    if p:
        return {e: c % p for e, c in terms.items() if c % p}
    return {e: c for e, c in terms.items() if c}


def mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return reduce(out, p)


def power(f: dict, m: int, p: int) -> dict:
    """f**m by repeated multiplication (m >= 1)."""
    out = f
    for _ in range(m - 1):
        out = mul(out, f, p)
    return out


def substitute_linear(f: dict, matrix, p: int) -> dict:
    """f(M x): replace x_i by sum_j M[i][j] x_j."""
    n = len(matrix)
    images = []
    for row in matrix:
        images.append(reduce({tuple(1 if k == j else 0 for k in range(n)): c
                              for j, c in enumerate(row)}, p))
    out: dict = {}
    for exp, c in f.items():
        prod = {(0,) * n: c}
        for i, k in enumerate(exp):
            for _ in range(k):
                prod = mul(prod, images[i], p)
        for e, v in prod.items():
            out[e] = out.get(e, 0) + v
    return reduce(out, p)


def determinant(matrix, p: int):
    """Exact determinant by Gaussian elimination over Q, reduced mod p."""
    work = [[Fraction(v) for v in row] for row in matrix]
    n = len(work)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, n):
            factor = work[r][col] / work[col][col]
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    if p:
        return det.numerator * pow(det.denominator, -1, p) % p
    return det


def min_weight(support, r) -> int:
    """min over the support of <r, alpha>."""
    return min(sum(ri * ai for ri, ai in zip(r, alpha)) for alpha in support)


def is_primitive_zero_sum(r) -> bool:
    return (len(r) > 0 and sum(r) == 0 and any(r)
            and math.gcd(*(abs(x) for x in r)) == 1)


def evaluate(terms: dict, values, p: int):
    """Value of a polynomial at a point, exactly (mod p when p > 0)."""
    total = 0
    for exp, c in terms.items():
        term = c
        for v, k in zip(values, exp):
            term = term * (pow(v, k, p) if p else Fraction(v) ** k)
        total += term
    return total % p if p else total


def terms_digest(terms: dict) -> str:
    """Order-independent digest of a term dict (coefficients via str)."""
    listing = sorted((list(e), str(c)) for e, c in terms.items())
    return hashlib.sha256(json.dumps(listing).encode()).hexdigest()
