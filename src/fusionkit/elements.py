"""Sparse exact integer linear combinations over string-labeled bases."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Optional, Tuple, Union

I64_MAX = 2**63 - 1
I64_MIN = -(2**63)


class UnknownBasisError(ValueError):
    """A label was used against a basis it does not belong to."""


class InvalidInputError(ValueError):
    """Structurally invalid data: broken tables, bad coefficients, empty bases."""


class CertificateDepthError(ValueError):
    """A computation was asked to run past the depth its certificate covers."""


def check_coeff(c: int) -> int:
    """Reject non-integers and anything outside the signed 64-bit range.

    Overflow is a hard error, never silent wraparound.
    """
    if not isinstance(c, int) or isinstance(c, bool):
        raise InvalidInputError(f"coefficient {c!r} is not an integer")
    if c > I64_MAX or c < I64_MIN:
        raise OverflowError(f"coefficient {c} exceeds the signed 64-bit range")
    return c


TermsLike = Union[Mapping[str, int], Iterable[Tuple[str, int]]]


class Element:
    """Finitely supported Z-linear combination of basis labels.

    Zero coefficients are never stored, so two elements are equal iff their
    term dictionaries are equal.  All arithmetic is exact; every coefficient
    an operation returns is overflow-checked against the signed 64-bit range.
    Sums are accumulated in exact Python ints and only the final
    coefficients are checked, so nothing wraps; an intermediate sum of mixed
    signs may leave the range without raising when the final value fits.
    Instances are immutable after construction and safe to share.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: TermsLike = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict = {}
        for label, c in items:
            check_coeff(c)
            if not isinstance(label, str):
                raise InvalidInputError(f"basis label {label!r} is not a string")
            acc = data.get(label, 0) + c
            check_coeff(acc)
            if acc:
                data[label] = acc
            else:
                data.pop(label, None)
        self._terms = data

    @classmethod
    def from_sums(cls, sums: Mapping[str, int]) -> "Element":
        """Trusted constructor from accumulated coefficients.

        For sums computed inside the library from existing elements: labels
        are not re-checked.  Zeros are dropped and each final coefficient is
        range-checked with the same error as :func:`check_coeff`.
        """
        terms = {}
        for label, c in sums.items():
            if c:
                if c > I64_MAX or c < I64_MIN:
                    raise OverflowError(
                        f"coefficient {c} exceeds the signed 64-bit range")
                terms[label] = c
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def basis(cls, label: str, coeff: int = 1) -> "Element":
        check_coeff(coeff)
        if not isinstance(label, str):
            raise InvalidInputError(f"basis label {label!r} is not a string")
        out = cls.__new__(cls)
        out._terms = {label: coeff} if coeff else {}
        return out

    def coeff(self, label: str) -> int:
        return self._terms.get(label, 0)

    @property
    def support(self) -> Tuple[str, ...]:
        return tuple(sorted(self._terms))

    def items(self) -> Iterator[Tuple[str, int]]:
        """Iterate (label, coefficient) pairs in label order."""
        for label in sorted(self._terms):
            yield label, self._terms[label]

    def is_zero(self) -> bool:
        return not self._terms

    def single_label(self) -> Optional[str]:
        """The label of a single basis element (coefficient 1), else None."""
        if len(self._terms) == 1:
            (label, c), = self._terms.items()
            if c == 1:
                return label
        return None

    def map_basis(self, fn: Callable[[str], str]) -> "Element":
        """Relabel the support through ``fn``, merging any collisions."""
        sums: dict = {}
        for label, c in self._terms.items():
            target = fn(label)
            if not isinstance(target, str):
                raise InvalidInputError(f"basis label {target!r} is not a string")
            sums[target] = sums.get(target, 0) + c
        return Element.from_sums(sums)

    def __add__(self, other: "Element") -> "Element":
        sums = dict(self._terms)
        for label, c in other._terms.items():
            sums[label] = sums.get(label, 0) + c
        return Element.from_sums(sums)

    def __neg__(self) -> "Element":
        return Element.from_sums({label: -c for label, c in self._terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __rmul__(self, k: int) -> "Element":
        check_coeff(k)
        return Element.from_sums({label: k * c for label, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def format(self) -> str:
        """Render as a direct sum, e.g. ``x0 ⊕ 2·x2``."""
        if not self._terms:
            return "0"
        parts = []
        for label, c in self.items():
            if c == 1:
                parts.append(label)
            elif c == -1:
                parts.append(f"-{label}")
            else:
                parts.append(f"{c}·{label}")
        return " ⊕ ".join(parts)

    def __repr__(self) -> str:
        return f"Element({self.format()})"


def bilinear(rule: Callable[[str, str], Element], a: Element,
             b: Element) -> Element:
    """Σ cₐ·c_b·rule(x, y) over the terms cₐ·x of ``a`` and c_b·y of ``b``.

    The one accumulation loop behind products and actions: terms are summed
    into a single dict and become one Element at the end.  Pairs are visited
    in label order, so when ``rule`` raises, the first failing pair is the
    one named.
    """
    sums: dict = {}
    get = sums.get
    a_terms, b_terms = a._terms, b._terms
    # most operands are single labels, which need no sort
    b_labels = sorted(b_terms) if len(b_terms) > 1 else b_terms
    for x in (sorted(a_terms) if len(a_terms) > 1 else a_terms):
        ca = a_terms[x]
        for y in b_labels:
            k = ca * b_terms[y]
            for z, c in rule(x, y)._terms.items():
                sums[z] = get(z, 0) + k * c
    return Element.from_sums(sums)


def checked_sums(sums: Mapping) -> dict:
    """``sums`` without its zeros, each coefficient range-checked as
    :meth:`Element.from_sums` does; the keys may be labels or ids."""
    return Element.from_sums(sums)._terms


def require_nonnegative(e: Element, context: str = "", *args: str) -> Element:
    """Fusion and action data must have non-negative structure constants.
    ``context`` is a format string, filled with ``args`` only on a failure."""
    if min(e._terms.values(), default=0) < 0:
        label, c = next((label, c) for label, c in e.items() if c < 0)
        where = f" in {context.format(*args)}" if context else ""
        raise InvalidInputError(f"negative coefficient {c}·{label}{where}")
    return e
