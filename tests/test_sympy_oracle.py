"""Generic discriminants against sympy's resultant (optional oracle).

discriminant_binary(d, "generic") runs a fraction-free Bareiss determinant
over ZZ[a_0..a_d], whose every step is a Poly.exact_div; sympy computes the
same raw resultant of the two partials by its own algorithm.
"""

import pytest

from chowstab.discriminants import discriminant_binary

sympy = pytest.importorskip("sympy")


@pytest.mark.parametrize("d", range(2, 7))
def test_generic_discriminant_matches_sympy_resultant(d):
    a = sympy.symbols(f"a0:{d + 1}")
    x0, x1 = sympy.symbols("X0 X1")
    form = sum(a[k] * x0 ** (d - k) * x1 ** k for k in range(d + 1))
    expected = sympy.resultant(sympy.diff(form, x0).subs(x1, 1),
                               sympy.diff(form, x1).subs(x1, 1), x0)
    ours = discriminant_binary(d, "generic")
    assert sympy.Poly.from_dict(dict(ours.terms), *a) == \
        sympy.Poly(expected, *a)
