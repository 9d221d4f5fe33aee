import pytest
from hypothesis import given, strategies as st

from fusionkit import Element, InvalidInputError
from fusionkit.elements import I64_MAX, check_coeff, require_nonnegative

labels = st.sampled_from(["a", "b", "c", "d"])
elements = st.dictionaries(labels, st.integers(-50, 50), max_size=4).map(Element)


def test_zero_coefficients_never_stored():
    e = Element({"a": 1, "b": 0})
    assert e.support == ("a",)
    assert (e - e).is_zero()


def test_basic_arithmetic():
    e = Element({"a": 2, "b": 1})
    f = Element({"b": -1, "c": 3})
    assert e + f == Element({"a": 2, "c": 3})
    assert 2 * e == Element({"a": 4, "b": 2})
    assert -e == Element({"a": -2, "b": -1})
    assert e.coeff("b") == 1 and e.coeff("z") == 0


def test_format():
    assert Element({"x0": 1, "x2": 1}).format() == "x0 ⊕ x2"
    assert Element({"x1": 2}).format() == "2·x1"
    assert Element().format() == "0"


def test_overflow_is_hard_error():
    with pytest.raises(OverflowError):
        Element({"a": I64_MAX + 1})
    big = Element({"a": I64_MAX})
    with pytest.raises(OverflowError):
        big + Element({"a": 1})
    with pytest.raises(OverflowError):
        2 * big


def test_coefficients_must_be_integers():
    with pytest.raises(InvalidInputError):
        Element({"a": 1.5})
    with pytest.raises(InvalidInputError):
        check_coeff(True)


def test_map_basis_merges_collisions():
    e = Element({"a": 1, "b": 2})
    assert e.map_basis(lambda _: "z") == Element({"z": 3})


def test_nonnegative_guard():
    require_nonnegative(Element({"a": 1}))
    with pytest.raises(InvalidInputError):
        require_nonnegative(Element({"a": -1}))


def test_single_basis_detection():
    assert Element({"a": 1}).single_label() == "a"
    assert Element({"a": 2}).single_label() is None
    assert Element({"a": 1, "b": 1}).single_label() is None


@given(elements, elements)
def test_addition_commutes(e, f):
    assert e + f == f + e


@given(elements, elements, elements)
def test_addition_associates(e, f, g):
    assert (e + f) + g == e + (f + g)


@given(elements)
def test_negation_is_involutive(e):
    assert -(-e) == e
    assert (e + (-e)).is_zero()


def test_dunders_and_negative_format():
    e = Element({"x0": 1, "x2": 2})
    assert hash(e) == hash(Element({"x2": 2, "x0": 1}))
    assert {e: 1}[Element({"x2": 2, "x0": 1})] == 1
    assert repr(e) == "Element(x0 ⊕ 2·x2)"
    assert Element({"a": -1, "b": -2}).format() == "-a ⊕ -2·b"
    assert bool(e) and not Element()
    assert e.__eq__("x0") is NotImplemented and e != "x0"
