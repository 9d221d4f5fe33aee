"""The accumulate-once kernel: bilinear products and actions, the trusted
constructor, and the 64-bit range check on final coefficients."""

import pytest
from hypothesis import given, settings, strategies as st

from fusionkit import (
    BasedModule,
    Element,
    InvalidInputError,
    act,
    check_module_axioms,
    check_ring_axioms,
    cyclic_group,
    direct_product,
    explicit_ring,
    group_ring,
    standard_module,
    su2_ring,
    symmetric_group_3,
    tensor,
)
from fusionkit.elements import I64_MAX, I64_MIN
from oracles import (
    bilinear_oracle,
    cg_tensor_oracle,
    cyclic_exponent,
    cyclic_label,
    cyclic_mul_oracle,
    s3_mul_oracle,
    word_permutation,
)

KERNEL_SETTINGS = settings(max_examples=60, deadline=None)
coeffs = st.integers(0, 10**6)


def combos(labels):
    return st.dictionaries(st.sampled_from(labels), coeffs, max_size=5)


def plain(e):
    return dict(e.items())


# --- the trusted constructor ------------------------------------------------

def test_from_sums_drops_zeros_and_checks_final_values():
    assert Element.from_sums({"a": 0, "b": 3}) == Element({"b": 3})
    assert Element.from_sums({}).is_zero()
    assert Element.from_sums({"a": I64_MAX, "b": I64_MIN}).coeff("b") == I64_MIN
    with pytest.raises(OverflowError,
                       match=f"coefficient {I64_MAX + 1} exceeds the signed 64-bit range"):
        Element.from_sums({"a": I64_MAX + 1})
    with pytest.raises(OverflowError):
        Element.from_sums({"a": I64_MIN - 1})


def test_basis_validates_its_arguments():
    assert Element.basis("a", 0).is_zero()
    assert Element.basis("a", 2) == Element({"a": 2})
    with pytest.raises(InvalidInputError, match="not a string"):
        Element.basis(3)
    with pytest.raises(InvalidInputError, match="not an integer"):
        Element.basis("a", 1.5)
    with pytest.raises(OverflowError):
        Element.basis("a", I64_MAX + 1)


# --- products and actions against independent oracles ----------------------

def cyclic_module(n, d):
    """Z/n acting on Z/d (d | n) by translation, on labels c0 .. c{d-1}."""
    ring = group_ring(cyclic_group(n))
    table = {(g, f"c{j}"): Element.basis(f"c{(j + cyclic_exponent(g)) % d}")
             for g in ring.basis if g != ring.unit for j in range(d)}
    return BasedModule(ring=ring, basis=[f"c{j}" for j in range(d)],
                       action=table, name=f"Z/{n} on Z/{d}")


def s3_points_module():
    ring = group_ring(symmetric_group_3())
    table = {(g, f"p{i}"): Element.basis(f"p{word_permutation(g)[i]}")
             for g in ring.basis if g != ring.unit for i in range(3)}
    return BasedModule(ring=ring, basis=["p0", "p1", "p2"], action=table,
                       name="S3 on 3 points")


def test_oracle_modules_are_based_modules():
    assert check_module_axioms(cyclic_module(6, 3), 2).is_holds
    assert check_module_axioms(s3_points_module(), 2).is_holds


@KERNEL_SETTINGS
@given(st.integers(1, 9), st.data())
def test_tensor_matches_oracle_cyclic(n, data):
    ring = group_ring(cyclic_group(n))
    labels = [cyclic_label(k) for k in range(n)]
    a, b = data.draw(combos(labels)), data.draw(combos(labels))
    got = tensor(ring, Element(a), Element(b))
    assert plain(got) == bilinear_oracle(cyclic_mul_oracle(n), a, b)


@KERNEL_SETTINGS
@given(st.data())
def test_tensor_matches_oracle_s3(data):
    ring = group_ring(symmetric_group_3())
    a, b = data.draw(combos(ring.basis)), data.draw(combos(ring.basis))
    got = tensor(ring, Element(a), Element(b))
    assert plain(got) == bilinear_oracle(s3_mul_oracle(ring.basis), a, b)


def cg_rule(x, y):
    return {f"x{k}": c for k, c in
            cg_tensor_oracle(int(x[1:]), int(y[1:])).items()}


@KERNEL_SETTINGS
@given(st.data())
def test_tensor_matches_oracle_su2(data):
    labels = [f"x{k}" for k in range(7)]
    a, b = data.draw(combos(labels)), data.draw(combos(labels))
    got = tensor(su2_ring(), Element(a), Element(b))
    assert plain(got) == bilinear_oracle(cg_rule, a, b)


@KERNEL_SETTINGS
@given(st.sampled_from([(1, 1), (4, 2), (6, 3), (6, 6)]), st.data())
def test_act_matches_oracle_cyclic(n_d, data):
    n, d = n_d
    m = cyclic_module(n, d)
    a = data.draw(combos(list(m.ring.basis)))
    v = data.draw(combos(list(m.basis)))

    def rule(g, j):
        return {f"c{(int(j[1:]) + cyclic_exponent(g)) % d}": 1}

    assert plain(act(m, Element(a), Element(v))) == bilinear_oracle(rule, a, v)


@KERNEL_SETTINGS
@given(st.data())
def test_act_matches_oracle_s3(data):
    m = s3_points_module()
    a = data.draw(combos(list(m.ring.basis)))
    v = data.draw(combos(list(m.basis)))

    def rule(g, p):
        return {f"p{word_permutation(g)[int(p[1:])]}": 1}

    assert plain(act(m, Element(a), Element(v))) == bilinear_oracle(rule, a, v)


@KERNEL_SETTINGS
@given(st.data())
def test_act_matches_oracle_su2(data):
    m = standard_module(su2_ring())
    labels = [f"x{k}" for k in range(7)]
    a, v = data.draw(combos(labels)), data.draw(combos(labels))
    assert plain(act(m, Element(a), Element(v))) == bilinear_oracle(cg_rule, a, v)


# --- the signed 64-bit range on final coefficients -------------------------

def test_tensor_overflow_boundary(z2):
    both = Element({"e": 1, "g": 1})
    at_max = tensor(z2, Element({"e": I64_MAX - 1, "g": 1}), both)
    assert at_max == Element({"e": I64_MAX, "g": I64_MAX})
    with pytest.raises(OverflowError, match="signed 64-bit range"):
        tensor(z2, Element({"e": I64_MAX, "g": 1}), both)


def test_act_overflow_boundary(z2):
    m = standard_module(z2)
    both = Element({"e": 1, "g": 1})
    at_max = act(m, Element({"e": I64_MAX - 1, "g": 1}), both)
    assert at_max == Element({"e": I64_MAX, "g": I64_MAX})
    with pytest.raises(OverflowError, match="signed 64-bit range"):
        act(m, Element({"e": I64_MAX, "g": 1}), both)


def scaling_ring(name, k):
    # x ⊗ x = k·x: not a based ring, only a source of large structure constants
    return explicit_ring(name=name, basis=["e", "x"], unit="e",
                         conj={"e": "e", "x": "x"}, dim={"e": 1, "x": 1},
                         fusion={("x", "x"): Element({"x": k})})


def test_direct_product_overflow_boundary():
    assert I64_MAX % 7 == 0
    fine = direct_product(scaling_ring("A", 7), scaling_ring("B", I64_MAX // 7))
    assert fine.ring.product("(x,x)", "(x,x)") == Element({"(x,x)": I64_MAX})
    over = direct_product(scaling_ring("A", 2**31), scaling_ring("B", 2**32))
    with pytest.raises(OverflowError, match="signed 64-bit range"):
        over.ring.product("(x,x)", "(x,x)")


# --- first witnesses are unchanged ------------------------------------------

def test_nonassociative_ring_first_witness():
    ring = explicit_ring(
        name="nonassoc", basis=["e", "x", "y"], unit="e",
        conj={"e": "e", "x": "x", "y": "y"}, dim={"e": 1, "x": 2, "y": 1},
        fusion={("x", "x"): Element({"e": 1, "y": 1}),
                ("x", "y"): Element({"x": 1}), ("y", "x"): Element({"x": 1}),
                ("y", "y"): Element({"e": 1, "y": 1})})
    verdict = check_ring_axioms(ring, 4)
    assert verdict.is_fails
    assert verdict.data == ("x", "x", "y")
    assert verdict.witness == ("associativity fails at (x, x, y): "
                               "(x⊗x)⊗y = e ⊕ 2·y ≠ x⊗(x⊗y) = e ⊕ y")
