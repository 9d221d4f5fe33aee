"""Exact arithmetic in cyclotomic fields Q(ζ_n).

Character values of finite groups live in cyclotomic fields, and fusion
coefficients computed from them must come out as exact non-negative
integers; any rounding would hide bad input.  Values are kept as rational
polynomials in ζ_n, canonicalized modulo the n-th cyclotomic polynomial so
that equality of values is equality of forms.

Reduction works in integers.  Φ_n is monic and integral, so for
d = deg Φ_n ≤ e < n the row x^e mod Φ_n follows from x^(e−1) mod Φ_n by a
shift and the subtraction of t·(Φ_n − x^d), t the coefficient shifted out:
every row is an integer vector of length d.  Reduction mod Φ_n is linear,
so Σ c_e·x^e reduces to Σ c_e·(x^(e mod n) mod Φ_n), the canonical
remainder that long division gives (Φ_n divides x^n − 1).  Each order keeps
a fill-on-read memo of the rows read; long division only builds Φ_n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .elements import InvalidInputError

Poly = Tuple[int, ...]  # coefficients, low degree first, no trailing zeros
Terms = Union[Mapping[int, Fraction], Iterable[Tuple[int, Fraction]]]


def _poly_divmod(p: Poly, q: Poly) -> Tuple[Poly, Poly]:
    """Quotient and remainder of p by the monic q, in integers."""
    rem, quot = list(p), [0] * max(0, len(p) - len(q) + 1)
    while len(rem) >= len(q):
        shift = len(rem) - len(q)
        quot[shift] = factor = rem[-1]
        for i, b in enumerate(q):
            rem[shift + i] -= factor * b
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(quot), tuple(rem)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Poly:
    """Coefficients of Φ_n, computed by exact division of x^n - 1."""
    if n < 1:
        raise InvalidInputError("cyclotomic order must be positive")
    num: Poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_polynomial(d))
            assert not rem, "x^n - 1 must divide exactly"
    return num


# order n → {e: x^e mod Φ_n} for the exponents d ≤ e < n read so far
_ROWS: Dict[int, Dict[int, Tuple[int, ...]]] = {}


def _row(n: int, e: int) -> Tuple[int, ...]:
    """x^e mod Φ_n as d = deg Φ_n integer coefficients, for d ≤ e < n."""
    rows = _ROWS.get(n) or _ROWS.setdefault(n, {})
    row = rows.get(e)
    if row is None:
        tail = cyclotomic_polynomial(n)[:-1]  # Φ_n − x^d
        k = e - 1
        while k >= len(tail) and k not in rows:
            k -= 1
        # below d no row is stored: start from x^(d−1) itself
        row = rows.get(k, (0,) * (len(tail) - 1) + (1,))
        for _ in range(e - k):
            top = row[-1]
            row = tuple(r - top * t for r, t in zip((0,) + row[:-1], tail))
        row = rows.setdefault(e, row)
    return row


class Cyclo:
    """A value in Q(ζ_order), stored in canonical reduced form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Terms):
        """Σ c·ζ^exp over ``coeffs``: a mapping, or (exp, c) pairs."""
        if order < 1:
            raise InvalidInputError("cyclotomic order must be positive")
        d = len(cyclotomic_polynomial(order)) - 1
        acc = [0] * d
        for exp, c in (coeffs.items() if hasattr(coeffs, "items") else coeffs):
            if not isinstance(c, (int, Fraction)):
                c = Fraction(c)
            e = exp % order
            if e < d:
                acc[e] += c
            else:
                for i, r in enumerate(_row(order, e)):
                    acc[i] += c * r
        self.order = order
        self.coeffs: Dict[int, Fraction] = {
            i: c if type(c) is Fraction else Fraction(c)
            for i, c in enumerate(acc) if c}

    @classmethod
    def from_rational(cls, value) -> "Cyclo":
        return cls(1, {0: Fraction(value)})

    @classmethod
    def from_pair(cls, re, im) -> "Cyclo":
        """Gaussian rational re + im·i, with i = ζ_4."""
        return cls(4, {0: Fraction(re), 1: Fraction(im)})

    @classmethod
    def zeta(cls, n: int, power: int = 1) -> "Cyclo":
        return cls(n, {power: Fraction(1)})

    def lift(self, order: int) -> "Cyclo":
        if order == self.order:
            return self
        if order % self.order != 0:
            raise InvalidInputError(
                f"cannot lift order {self.order} into order {order}")
        step = order // self.order
        return Cyclo(order, {e * step: c for e, c in self.coeffs.items()})

    def _pair(self, other: "Cyclo") -> Tuple["Cyclo", "Cyclo"]:
        n = lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    def __add__(self, other: "Cyclo") -> "Cyclo":
        a, b = self._pair(other)
        return Cyclo(a.order, [*a.coeffs.items(), *b.coeffs.items()])

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        a, b = self._pair(other)
        return Cyclo(a.order, [(e1 + e2, c1 * c2) for e1, c1 in a.coeffs.items()
                               for e2, c2 in b.coeffs.items()])

    def conj(self) -> "Cyclo":
        return Cyclo(self.order, {-e: c for e, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def as_rational(self) -> Optional[Fraction]:
        if self.coeffs.keys() <= {0}:
            return self.coeffs.get(0, Fraction(0))
        return None

    def as_integer(self) -> Optional[int]:
        q = self.as_rational()
        if q is not None and q.denominator == 1:
            return q.numerator
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        q = self.as_rational()
        if q is not None:
            return hash(q)
        # equal irrational values can live at different orders; a constant
        # hash keeps the contract without computing conductors
        return 0x5CE11E

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Cyclo(0)"
        terms = " + ".join(
            (f"{c}" if e == 0 else f"{c}·ζ{self.order}^{e}")
            for e, c in sorted(self.coeffs.items()))
        return f"Cyclo({terms})"
