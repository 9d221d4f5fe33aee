from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from fusionkit.cyclotomic import Cyclo, cyclotomic_polynomial
from fusionkit.elements import InvalidInputError


def as_tuple(poly):
    return tuple(int(c) for c in poly)


def test_small_cyclotomic_polynomials():
    assert as_tuple(cyclotomic_polynomial(1)) == (-1, 1)
    assert as_tuple(cyclotomic_polynomial(2)) == (1, 1)
    assert as_tuple(cyclotomic_polynomial(3)) == (1, 1, 1)
    assert as_tuple(cyclotomic_polynomial(4)) == (1, 0, 1)
    assert as_tuple(cyclotomic_polynomial(6)) == (1, -1, 1)
    assert as_tuple(cyclotomic_polynomial(12)) == (1, 0, -1, 0, 1)


def test_root_of_unity_relations():
    z3 = Cyclo.zeta(3)
    assert z3 * z3 * z3 == 1
    # 1 + z + z^2 = 0
    assert (Cyclo.from_rational(1) + z3 + z3 * z3).is_zero()
    z4 = Cyclo.zeta(4)
    assert z4 * z4 == Cyclo.from_rational(-1)


def test_equality_across_orders():
    half = Cyclo.from_rational(Fraction(1, 2))
    assert half == Cyclo(4, {0: Fraction(1, 2)})
    assert Cyclo.zeta(2) == Cyclo.from_rational(-1)
    assert Cyclo.zeta(6, 3) == Cyclo.from_rational(-1)
    assert Cyclo.zeta(6, 2) == Cyclo.zeta(3)


def test_conjugation():
    z5 = Cyclo.zeta(5)
    assert z5.conj() == Cyclo.zeta(5, 4)
    assert (z5 * z5.conj()) == 1
    g = Cyclo.from_pair(Fraction(1, 2), Fraction(3, 7))
    assert g.conj().conj() == g
    assert (g + g.conj()).as_rational() == Fraction(1)


def test_as_integer():
    assert Cyclo.from_rational(5).as_integer() == 5
    assert Cyclo.from_rational(Fraction(1, 2)).as_integer() is None
    assert (Cyclo.zeta(3) + Cyclo.zeta(3, 2)).as_integer() == -1
    assert Cyclo.zeta(3).as_integer() is None


def test_gaussian_pairs():
    i = Cyclo.from_pair(0, 1)
    assert i * i == Cyclo.from_rational(-1)
    assert Cyclo.from_pair(2, 3) == Cyclo.from_rational(2) + i * Cyclo.from_rational(3)


def test_arithmetic_mixed_orders():
    value = Cyclo.zeta(3) * Cyclo.zeta(4)
    assert value == Cyclo.zeta(12, 7)
    assert (value * value.conj()) == 1


def test_bad_order_rejected():
    with pytest.raises(InvalidInputError):
        Cyclo(0, {})
    with pytest.raises(InvalidInputError):
        Cyclo.zeta(3).lift(5)


# --- Cyclo against sympy ----------------------------------------------------------
#
# The oracle reads a value of order n as the polynomial Σ c·x^(e·N/n) at a
# common order N and reduces with sympy's own cyclotomic polynomial Φ_N;
# sympy's exp(2πi·e/n), evaluated to 30 digits, ties x to exp(2πi/N).

@st.composite
def cyclo_values(draw):
    n = draw(st.integers(1, 24))
    coeffs = draw(st.dictionaries(
        st.integers(0, n - 1),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        max_size=4))
    return Cyclo(n, coeffs)


def _sympy_poly(sympy, value, n, sign=1):
    """``value`` as a polynomial in x = exp(2πi/n); sign -1 conjugates."""
    x = sympy.Symbol("x")
    step = n // value.order
    return sympy.Poly(sum((sympy.Rational(c.numerator, c.denominator)
                           * x ** (sign * e * step % n)
                           for e, c in value.coeffs.items()), sympy.Integer(0)),
                      x, domain="QQ")


def _sympy_equal(sympy, p, q, n):
    x = sympy.Symbol("x")
    return (p - q).rem(sympy.Poly(sympy.cyclotomic_poly(n, x), x,
                                  domain="QQ")).is_zero


def _sympy_complex(sympy, value):
    return complex(sympy.N(sum(
        (sympy.Rational(c.numerator, c.denominator)
         * sympy.exp(2 * sympy.pi * sympy.I * sympy.Rational(e, value.order))
         for e, c in value.coeffs.items()), sympy.Integer(0)), 30))


@settings(max_examples=40, deadline=None)
@given(cyclo_values(), cyclo_values(), st.integers(1, 3))
def test_cyclo_arithmetic_agrees_with_sympy(a, b, k):
    sympy = pytest.importorskip("sympy")
    n = lcm(a.order, b.order)
    pa, pb = _sympy_poly(sympy, a, n), _sympy_poly(sympy, b, n)
    for got, want in ((a + b, pa + pb), (a * b, pa * pb),
                      (a.conj(), _sympy_poly(sympy, a, n, sign=-1))):
        assert _sympy_equal(sympy, _sympy_poly(sympy, got, n), want, n)
    assert (a == b) == _sympy_equal(sympy, pa, pb, n)
    # the same value written at k times its order
    assert Cyclo(a.order * k, {e * k: c for e, c in a.coeffs.items()}) == a
    za, zb = _sympy_complex(sympy, a), _sympy_complex(sympy, b)
    assert abs(_sympy_complex(sympy, a * b) - za * zb) < 1e-12
    assert abs(_sympy_complex(sympy, a.conj()) - za.conjugate()) < 1e-12


# Reduction against sympy at the orders the test above does not reach: 105,
# the least n whose Φ_n has a coefficient of absolute value 2, and 1 and 2,
# where Φ_n has degree 1; exponents run past n and below 0, and coefficients
# are ints and Fractions.  The oracle reduces Σ c·x^e mod sympy's Φ_n, with
# x^e for e < 0 taken as sympy's inverse of x^|e| mod Φ_n.

def test_phi_105_has_a_coefficient_two():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    want = sympy.Poly(sympy.cyclotomic_poly(105, x), x).all_coeffs()[::-1]
    assert as_tuple(cyclotomic_polynomial(105)) == tuple(want)
    assert min(want) == -2


@st.composite
def raw_terms(draw):
    n = draw(st.sampled_from([1, 2, 105]) | st.integers(1, 40))
    coeffs = draw(st.dictionaries(
        st.integers(-3 * n, 3 * n),
        st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5,
                                          max_denominator=4),
        max_size=6))
    return n, coeffs


@settings(max_examples=60, deadline=None)
@given(raw_terms())
@example((105, {-1: 1, 48: 3, 105: Fraction(1, 2), 200: -2, -211: Fraction(-3, 4)}))
@example((1, {-3: 2, 0: Fraction(1, 3), 5: -1}))
@example((2, {-1: Fraction(5, 2), 3: 1, 4: -4}))
def test_reduction_agrees_with_sympy(terms):
    sympy = pytest.importorskip("sympy")
    n, coeffs = terms
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")
    want = sympy.Poly(0, x, domain="QQ")
    for e, c in coeffs.items():
        power = (sympy.Poly(x ** e, x, domain="QQ") if e >= 0 else
                 sympy.Poly(sympy.invert(x ** -e, phi.as_expr(), x), x,
                            domain="QQ"))
        want += power * sympy.Rational(c.numerator, c.denominator)
    want = want.rem(phi)
    got = Cyclo(n, coeffs).coeffs
    assert all(type(c) is Fraction for c in got.values())
    assert got == {e: Fraction(int(c.p), int(c.q))
                   for (e,), c in want.terms() if c}
