import itertools
import json
import re
import sys
import threading
from fractions import Fraction
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fusionkit import (
    BasedRing,
    Element,
    InvalidInputError,
    UnknownBasisError,
    check_dimension,
    check_ring_axioms,
    conjugate,
    cyclic_group,
    direct_product,
    explicit_ring,
    free_product,
    generating_labels,
    group_ring,
    inversion_action,
    rep_ring,
    s3_character_table,
    semidirect_product,
    su2_ring,
    symmetric_group_3,
    tensor,
)
from fusionkit import modules, rings
from fusionkit.cli import cli_dispatch
from fusionkit.modules import (BasedModule, check_module_axioms,
                               connected_components, standard_module)
from fusionkit.rings import first_nonassociative
from fusionkit.serialize import (canonical_json, load, load_session,
                                 loaded_verdict)
from oracles import (
    bilinear_oracle,
    cg_tensor_oracle,
    cyclic_exponent,
    cyclic_label,
    cyclic_mul_oracle,
    dihedral_mul,
    dihedral_words,
    first_nonassociative_triple,
)


def test_group_ring_axioms_hold(z2, z3, z4, s3):
    for ring in (z2, z3, z4, s3):
        assert check_ring_axioms(ring, 4).is_holds
        assert check_dimension(ring, 4).is_holds


def test_z2_product_and_conj(z2, z3):
    assert z2.product("g", "g") == Element.basis("e")
    assert z3.conj("a") == "a2"
    assert z3.conj(z3.unit) == z3.unit


def test_tensor_bilinear(z4):
    a = Element({"a": 1, "a2": 2})
    b = Element({"a3": 1})
    assert tensor(z4, a, b) == Element({"e": 1, "a": 2})
    assert tensor(z4, a, Element()).is_zero()


def test_conjugate_involutive(s3):
    e = Element({"r": 2, "t": 1})
    assert conjugate(s3, conjugate(s3, e)) == e


def test_unknown_label_rejected(z2):
    with pytest.raises(UnknownBasisError):
        z2.product("g", "nope")
    with pytest.raises(UnknownBasisError):
        tensor(z2, Element.basis("zzz"), Element.basis("g"))


Z3_TABLES = dict(basis=["e", "a", "b"], unit="e",
                 conj={"e": "e", "a": "b", "b": "a"},
                 dim={"e": 1, "a": 1, "b": 1},
                 fusion={("a", "a"): Element.basis("b"),
                         ("a", "b"): Element.basis("e"),
                         ("b", "a"): Element.basis("e"),
                         ("b", "b"): Element.basis("a")})


@pytest.mark.parametrize("change, message", [
    ({"fusion": {k: v for k, v in Z3_TABLES["fusion"].items() if k != ("b", "a")}},
     "fusion entry for (b, a) is missing"),
    ({"fusion": {**Z3_TABLES["fusion"], ("b", "b"): Element({"zz": 1})}},
     "fusion entry (b, b) names unknown labels ['zz']"),
    ({"fusion": {**Z3_TABLES["fusion"], ("a", "zz"): Element.basis("a")}},
     "fusion entry (a, zz) names unknown labels ['zz']"),
    ({"conj": {"e": "e", "a": "b", "b": "zz"}}, "conj('b') = 'zz'"),
    ({"dim": {"e": 1, "a": 1}}, "dim table must map exactly the basis labels"),
], ids=["missing-pair", "off-basis-value", "off-basis-pair", "conj-target",
        "dim-domain"])
def test_explicit_ring_rejects_incomplete_tables_when_built(change, message):
    # at construction, before any product is asked for
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        explicit_ring(name="z3", **{**Z3_TABLES, **change})


@pytest.mark.parametrize("make", [
    lambda: explicit_ring(name="z3", **Z3_TABLES),
    lambda: group_ring(cyclic_group(3)),
    lambda: rep_ring(s3_character_table()),
], ids=["explicit", "group", "rep"])
def test_finite_rings_reject_unknown_labels_alike(make):
    ring = make()
    known = ring.basis[-1]
    message = re.escape(f"unknown basis label 'zz' in ring {ring.name}")
    for call in (lambda: ring.product(known, "zz"), lambda: ring.product("zz", known),
                 lambda: ring.conj("zz"), lambda: ring.dim("zz"),
                 lambda: standard_module(ring).action("zz", known)):
        with pytest.raises(UnknownBasisError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize("check", [check_ring_axioms, check_dimension])
def test_ring_checks_register_no_unknown_label(check):
    # conj sends a outside the basis: each check raises where a loop over
    # labels raises, and the finite ring's registry keeps only its basis
    conj = {"e": "e", "a": "zz", "b": "a"}
    ring = BasedRing(name="R", unit="e", basis=["e", "a", "b"], conj=conj.__getitem__,
                     dim=lambda x: 1, product=lambda x, y: Element.basis(y))
    with pytest.raises(UnknownBasisError, match=r"^unknown basis label 'zz' in ring R$"):
        check(ring)
    assert ring._ids.labels == ["e", "a", "b"]


def test_explicit_ring_takes_coefficient_dicts():
    fusion = {k: dict(v.items()) for k, v in Z3_TABLES["fusion"].items()}
    ring = explicit_ring(name="z3", **{**Z3_TABLES, "fusion": {
        **fusion, ("a", "b"): {"e": 1, "a": 0}}})
    assert ring.product("a", "b") == Element.basis("e")
    assert check_ring_axioms(ring).is_holds
    with pytest.raises(InvalidInputError, match="^coefficient True is not an integer$"):
        explicit_ring(name="z3", **{**Z3_TABLES, "fusion": {**fusion, ("a", "a"): {"b": True}}})


def _rep_a4(dim_x):
    """Rep(A4) as the near-group ring of Z/3 with multiplicity 2:
    a ⊗ x = x and x ⊗ x = 1 ⊕ a ⊕ a2 ⊕ 2·x, so d(x) = 3."""
    group = {(p, q): Element.basis(["1", "a", "a2"][(i + k) % 3])
             for i, p in enumerate(["1", "a", "a2"])
             for k, q in enumerate(["1", "a", "a2"])}
    fusion = {**group, ("x", "x"): Element({"1": 1, "a": 1, "a2": 1, "x": 2}),
              **{pair: Element.basis("x")
                 for g in ("a", "a2") for pair in ((g, "x"), ("x", g))}}
    return explicit_ring(name="RepA4", basis=["1", "a", "a2", "x"], unit="1",
                         conj={"1": "1", "a": "a2", "a2": "a", "x": "x"},
                         dim={"1": 1, "a": 1, "a2": 1, "x": dim_x},
                         fusion={k: v for k, v in fusion.items() if "1" not in k})


@pytest.mark.parametrize("dim_x, witness", [
    (3, None),
    (4, "d(x)·d(x) = 16 but Σ N·d = 11"),  # every dimension an int
    (Fraction(5, 2), "d(x)·d(x) = 25/4 but Σ N·d = 8"),  # d(x) a Fraction
])
def test_dimension_with_multiplicity_two(dim_x, witness):
    ring = _rep_a4(dim_x)
    assert check_ring_axioms(ring).is_holds
    verdict = check_dimension(ring)
    if witness is None:
        assert verdict.is_holds
    else:
        assert verdict.data == ("x", "x")
        assert verdict.witness == f"dimension not multiplicative at (x, x): {witness}"


def _z3_by_inversion():
    g2, z3 = cyclic_group(2, generator="g"), group_ring(cyclic_group(3))
    return semidirect_product(g2, z3, inversion_action(g2, z3)).ring


@pytest.mark.parametrize("build", [
    lambda: explicit_ring(name="t", basis=["e", "g"], unit="e",
                          conj={"e": "e", "g": "g"},
                          dim={"e": Fraction(1), "g": Fraction(4, 4)},
                          fusion={("g", "g"): Element.basis("e")}),
    lambda: group_ring(symmetric_group_3()),
    lambda: rep_ring(s3_character_table()),
    su2_ring,
    lambda: direct_product(group_ring(cyclic_group(2)), su2_ring()).ring,
    _z3_by_inversion,
    lambda: free_product(group_ring(cyclic_group(2, generator="g")),
                         group_ring(cyclic_group(3))).ring,
], ids=["explicit", "group", "rep", "SU2", "direct", "semidirect", "free"])
def test_integral_dimensions_are_ints(build):
    ring = build()
    labels = ring.basis_up_to_depth(3)
    assert len(labels) > 1
    assert all(type(ring.dim(x)) is int for x in labels)


def test_a_fractional_dimension_is_a_fraction():
    ring = _rep_a4(Fraction(5, 2))
    assert type(ring.dim("x")) is Fraction and ring.dim("x") == Fraction(5, 2)
    assert type(ring.dim("a")) is int


def test_verdict_data_goes_to_json_as_built():
    verdict = rings.Verdict.fails("w", data=(("a", "b"), {"j": ["x", ("y", 2)]}))
    assert verdict.to_doc()["data"] is verdict.data
    assert canonical_json(verdict.to_doc()) == (
        '{"data":[["a","b"],{"j":["x",["y",2]]}],"status":"fails","witness":"w"}')


def test_based_axiom_violation_witnessed():
    # the unit coefficient of conj(g) x g is forced to 1 in a based ring
    ring = explicit_ring(
        name="broken", basis=["e", "g"], unit="e",
        conj={"e": "e", "g": "g"}, dim={"e": 1, "g": 1},
        fusion={("g", "g"): Element({"e": 2})})
    verdict = check_ring_axioms(ring, 4)
    assert verdict.is_fails
    assert verdict.data == ("g", "g")
    assert "expected 1" in verdict.witness


def test_dimension_violation_witnessed():
    ring = explicit_ring(
        name="bad-dim", basis=["e", "g"], unit="e",
        conj={"e": "e", "g": "g"}, dim={"e": 1, "g": 2},
        fusion={("g", "g"): Element({"e": 1})})
    assert check_ring_axioms(ring, 4).is_holds
    verdict = check_dimension(ring, 4)
    assert verdict.is_fails
    assert verdict.data == ("g", "g")


def test_basis_window_finite_ring(z2):
    assert z2.basis_up_to_depth(0) == ["e", "g"]
    assert z2.basis_up_to_depth(7) == ["e", "g"]


def test_basis_window_free_product():
    fp = free_product(group_ring(cyclic_group(2, generator="g")),
                      group_ring(cyclic_group(2, generator="h")))
    assert fp.ring.basis_up_to_depth(2) == ["ε", "g", "h", "gh", "hg"]


def test_basis_window_cg_ring(su2):
    assert su2.basis_up_to_depth(0) == ["x0"]
    assert su2.basis_up_to_depth(2) == ["x0", "x1", "x2"]


def test_cg_products_match_character_polynomials(su2):
    for m in range(5):
        for n in range(5):
            got = su2.product(f"x{m}", f"x{n}")
            want = Element({f"x{k}": c for k, c in cg_tensor_oracle(m, n).items()})
            assert got == want, (m, n)


def test_cg_axioms_and_dimension(su2):
    assert check_ring_axioms(su2, 4).is_holds
    verdict = check_dimension(su2, 6)
    assert verdict.is_holds and verdict.bound == 6


def test_free_product_matches_dihedral_words():
    fp = free_product(group_ring(cyclic_group(2, generator="g")),
                      group_ring(cyclic_group(2, generator="h")))
    ring = fp.ring
    words = [w or "ε" for w in dihedral_words(4)]
    ring.basis_up_to_depth(4)
    for u in words:
        for v in words:
            reduced = dihedral_mul(u.replace("ε", ""), v.replace("ε", ""))
            expected = Element.basis(reduced or "ε")
            assert ring.product(u, v) == expected, (u, v)


def test_free_product_axioms_within_depth():
    fp = free_product(group_ring(cyclic_group(2, generator="g")),
                      group_ring(cyclic_group(2, generator="h")))
    verdict = check_ring_axioms(fp.ring, 4)
    assert verdict.is_holds and verdict.bound == 4


def test_frobenius_reciprocity_on_builtins(z4, s3, su2):
    # N^c_{a,b} = N^b_{conj(a), c} follows from the based axioms plus
    # associativity; checked, not assumed, on every built-in within depth 4
    for ring in (z4, s3, su2):
        window = ring.basis_up_to_depth(4)
        for a, b, c in itertools.product(window, repeat=3):
            lhs = ring.product(a, b).coeff(c)
            rhs = ring.product(ring.conj(a), c).coeff(b)
            assert lhs == rhs, (ring.name, a, b, c)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8))
def test_cyclic_group_rings_always_pass(n):
    ring = group_ring(cyclic_group(n))
    assert check_ring_axioms(ring, 4).is_holds
    assert check_dimension(ring, 4).is_holds


# --- associativity from generating labels ---------------------------------------

def _plain_tables(ring):
    """(basis, unit, conj, mul) of a finite ring as plain dicts."""
    basis = list(ring.basis)
    return (basis, ring.unit, {a: ring.conj(a) for a in basis},
            {(a, b): dict(ring.product(a, b).items()) for a in basis for b in basis})


def _explicit(basis, unit, conj, mul):
    return explicit_ring(name="t", basis=basis, unit=unit, conj=conj,
                         dim={x: 1 for x in basis},
                         fusion={k: Element(v) for k, v in mul.items()
                                 if unit not in k})


def _self_dual(basis, products):
    """Commutative, self-dual tables from {(a, b): value} on non-unit pairs."""
    mul = {(a, b): {b: 1} if a == "1" else {a: 1} if b == "1" else None
           for a in basis for b in basis}
    for (a, b), value in products.items():
        mul[(a, b)] = mul[(b, a)] = value
    return basis, "1", {x: x for x in basis}, mul


# Rep(D4) with std first: std ⊗ std = 1 ⊕ a ⊕ b ⊕ c reaches every label, but
# the span of the powers of std has dimension 3 of 5
REP_D4 = _self_dual(["1", "std", "a", "b", "c"], {
    ("std", "std"): {"1": 1, "a": 1, "b": 1, "c": 1},
    **{(x, "std"): {"std": 1} for x in "abc"},
    **{(x, x): {"1": 1} for x in "abc"},
    ("a", "b"): {"c": 1}, ("a", "c"): {"b": 1}, ("b", "c"): {"a": 1}})

# Rep(S3) with std (t) before sgn (s): t ⊗ t = 1 ⊕ s ⊕ t closes s
REP_S3 = _self_dual(["1", "t", "s"], {
    ("t", "t"): {"1": 1, "s": 1, "t": 1}, ("s", "t"): {"t": 1},
    ("s", "s"): {"1": 1}})

KNOWN_ASSOCIATIVE = [
    _plain_tables(group_ring(cyclic_group(3))),
    _plain_tables(group_ring(symmetric_group_3())),
    _plain_tables(rep_ring(s3_character_table())),
    REP_D4,
    REP_S3,
]


@st.composite
def based_tables(draw):
    """A known associative ring, or random self-dual commutative tables;
    a self-dual commutative ring may have pairs redrawn at random; the basis
    comes in a random order.  Unit
    coefficients and conjugation obey the based axioms, so associativity
    is the only axiom that can fail."""
    if draw(st.booleans()):
        basis, unit, conj, mul = draw(st.sampled_from(KNOWN_ASSOCIATIVE))
    else:
        labels = ["1"] + [f"x{i}" for i in range(draw(st.integers(1, 3)))]
        basis, unit, conj, mul = _self_dual(labels, {
            pair: {} for pair in itertools.combinations_with_replacement(labels[1:], 2)})
    mul = dict(mul)
    self_dual = all(conj[x] == x for x in basis) and all(
        mul[(a, b)] == mul[(b, a)] for a in basis for b in basis)
    for a, b in itertools.combinations_with_replacement(basis, 2):
        redraw = mul[(a, b)] == {} or (self_dual and unit not in (a, b)
                                        and draw(st.integers(0, 9)) == 0)
        if redraw:
            value = {c: draw(st.integers(0, 2)) for c in basis if c != unit}
            value[unit] = int(a == b)
            mul[(a, b)] = mul[(b, a)] = {c: n for c, n in value.items() if n}
    return draw(st.permutations(basis)), unit, conj, mul


@settings(max_examples=200, deadline=None)
@given(based_tables())
def test_associativity_verdict_and_witness_match_the_oracle(tables):
    basis, unit, conj, mul = tables
    verdict = check_ring_axioms(_explicit(basis, unit, conj, mul))
    first = first_nonassociative_triple(basis, mul)
    assert verdict.is_holds == (first is None), verdict
    if first is not None:
        assert verdict.data == first
        assert verdict.witness.startswith(
            f"associativity fails at ({first[0]}, {first[1]}, {first[2]}): ")


@pytest.mark.parametrize("make, expected", [
    (lambda: group_ring(cyclic_group(48)), ["a"]),
    (lambda: group_ring(symmetric_group_3()), ["r", "t"]),
    (lambda: rep_ring(s3_character_table()), ["sgn", "std"]),
    (lambda: _explicit(*REP_S3), ["t"]),
    (lambda: _explicit(*REP_D4), ["std", "a", "b"]),
], ids=["Z48", "S3", "RepS3", "RepS3-std-first", "RepD4-std-first"])
def test_generating_labels_close_linearly(make, expected):
    ring = make()
    assert generating_labels(ring) == expected
    assert check_ring_axioms(ring).is_holds


def test_mutation_off_the_generators_is_caught():
    # Rep(S3) generated by t, redrawn at t ⊗ t and s ⊗ t: every failing
    # triple has s, which is not a generating label of Rep(S3), in the middle
    basis, unit, conj, mul = REP_S3
    assert generating_labels(_explicit(*REP_S3)) == ["t"]
    mul = dict(mul)
    mul[("t", "t")] = {"1": 1}
    mul[("s", "t")] = mul[("t", "s")] = {"s": 1}

    def rule(x, y):
        return mul[(x, y)]
    failing = [(a, b, c) for a, b, c in itertools.product(basis, repeat=3)
               if bilinear_oracle(rule, mul[(a, b)], {c: 1})
               != bilinear_oracle(rule, {a: 1}, mul[(b, c)])]
    assert failing and all(b == "s" for _, b, _ in failing)
    verdict = check_ring_axioms(_explicit(basis, unit, conj, mul))
    assert verdict.is_fails
    assert verdict.data == first_nonassociative_triple(basis, mul) == ("t", "s", "s")


# --- single-label rows in the associativity sweep ------------------------------

def _third_point(a, b):
    """The third point of the line through two points pij of the affine
    plane over Z/3: the points of a line sum to zero."""
    (i, j), (k, m) = (map(int, a[1:]), map(int, b[1:]))
    return f"p{(-i - k) % 3}{(-j - m) % 3}"


_POINTS = [f"p{i}{j}" for i in range(3) for j in range(3)]

# the loop ring of the order-10 Steiner loop of the affine plane STS(9):
# x ⊗ x = 1 and x ⊗ y the third point of their line; commutative and
# self-dual, so associativity is the only axiom it can fail
STEINER_LOOP = _self_dual(["1", *_POINTS], {
    (a, b): {"1": 1} if a == b else {_third_point(a, b): 1}
    for a, b in itertools.combinations_with_replacement(_POINTS, 2)})


def test_steiner_loop_ring_fails_only_associativity():
    verdict = check_ring_axioms(_explicit(*STEINER_LOOP))
    assert verdict.data == ("p00", "p01", "p10")
    assert verdict.witness == ("associativity fails at (p00, p01, p10): "
                               "(p00⊗p01)⊗p10 = p21 ≠ p00⊗(p01⊗p10) = p11")


@st.composite
def steiner_tables(draw):
    """The Steiner loop ring with some non-unit rows redrawn as one label
    with coefficient 2 or as two labels, in a random basis order; redrawn
    rows keep the tables commutative, self-dual and based."""
    basis, unit, conj, mul = STEINER_LOOP
    mul = dict(mul)
    for a, b in itertools.combinations_with_replacement(_POINTS, 2):
        kind = draw(st.integers(0, 9))
        if kind < 8:
            continue
        x, y = draw(st.lists(st.sampled_from(_POINTS), min_size=2, max_size=2,
                             unique=True))
        value = {x: 2} if kind == 8 else {x: 1, y: 1}
        if a == b:
            value[unit] = 1
        mul[(a, b)] = mul[(b, a)] = value
    return draw(st.permutations(basis)), unit, conj, mul


@settings(max_examples=100, deadline=None)
@given(steiner_tables())
def test_single_label_rows_match_the_oracle(tables):
    basis, unit, conj, mul = tables
    verdict = check_ring_axioms(_explicit(basis, unit, conj, mul))
    first = first_nonassociative_triple(basis, mul)
    assert verdict.is_holds == (first is None), verdict
    if first is not None:
        a, b, c = first

        def rule(x, y):
            return mul[(x, y)]
        flat = Element(bilinear_oracle(rule, mul[(a, b)], {c: 1})).format()
        nested = Element(bilinear_oracle(rule, {a: 1}, mul[(b, c)])).format()
        assert verdict.data == first
        assert verdict.witness == (f"associativity fails at ({a}, {b}, {c}): "
                                   f"({a}⊗{b})⊗{c} = {flat} ≠ "
                                   f"{a}⊗({b}⊗{c}) = {nested}")


def test_sweep_raises_at_the_first_product_it_asks_for():
    # the triple (a, ga, ga) is the first to ask for aga ⊗ ga, on its
    # (α⊗β)⊗j side, and for a ⊗ gaga, on its α⊗(β⊗j) side; (α⊗β)⊗j comes
    # first, so its failure is the one raised
    inner = modular_group_ring()
    missing = {("aga", "ga"), ("a", "gaga")}

    def product(x, y):
        if (x, y) in missing:
            raise InvalidInputError(f"no product at ({x}, {y})")
        return inner.product(x, y)

    ring = BasedRing(name="Z2*Z3 with two products missing", unit=inner.unit,
                     conj=inner.conj, product=product, dim=inner.dim,
                     generators=inner.generators)
    with pytest.raises(InvalidInputError, match=r"^no product at \(aga, ga\)$"):
        check_ring_axioms(ring, 2)


def test_sweep_asks_each_row_once(monkeypatch):
    # each product is computed once, the first time the sweep asks for it:
    # α⊗β, then (α⊗β)⊗j, then β⊗j during the first α only, then α⊗(β⊗j)
    inner = group_ring(cyclic_group(4))
    basis = inner.basis
    calls = []

    def product(x, y):
        calls.append((x, y))
        return inner.product(x, y)

    ring = BasedRing(name="Z4 counted", unit=inner.unit, conj=inner.conj,
                     dim=inner.dim, product=product, basis=basis)
    assert first_nonassociative(ring, ring, basis, basis, basis) is None
    mul = cyclic_mul_oracle(4)
    expected = []
    for a, b in itertools.product(basis, repeat=2):
        (ab,) = mul(a, b)
        expected.append((a, b))
        for j in basis:
            (bj,) = mul(b, j)
            expected += [(ab, j), (b, j), (a, bj)] if a == basis[0] else [(ab, j), (a, bj)]
    assert calls == list(dict.fromkeys(expected))

    # a module over Z/4 on points m0..m3, α ⊗ mk = m(k + exponent of α):
    # every reader below shares the module's rows, so each non-unit (α, j) is
    # asked once, when the symmetry pass first asks it, and the unit never
    points = ["m0", "m1", "m2", "m3"]

    def image(alpha, j):
        return f"m{(cyclic_exponent(alpha) + int(j[1:])) % 4}"

    calls.clear()

    def action(alpha, j):
        calls.append((alpha, j))
        return Element.basis(image(alpha, j))

    m = BasedModule(ring=ring, basis=points, action=action, name="counted")
    assert check_module_axioms(m).is_holds  # symmetry pass, generator proof
    with monkeypatch.context() as patch:  # the ordered sweep decides alone
        patch.setattr(modules, "_associative_by_generators", lambda m: False)
        assert check_module_axioms(m).is_holds
    assert connected_components(m) == [points]
    for alpha, j in itertools.product(basis, points):
        assert m.action(alpha, j) == Element.basis(image(alpha, j))
    # per α, the symmetry pass asks α ⊗ m0, then conj(α) ⊗ m0, then α ⊗ j'
    # for the later j', then conj(α) ⊗ j for the later j
    expected = []
    for alpha in basis:
        calpha = cyclic_label(-cyclic_exponent(alpha) % 4)
        expected += [(alpha, points[0]), (calpha, points[0])]
        expected += [(alpha, jp) for jp in points[1:]]
        expected += [(calpha, j) for j in points[1:]]
    assert calls == [pair for pair in dict.fromkeys(expected) if pair[0] != "e"]
    assert sorted(calls) == sorted(itertools.product(basis[1:], points))


def test_action_names_a_negative_coefficient(z2):
    # the label API and the ordered sweep fill a row through the same check
    m = BasedModule(ring=z2, basis=["m0", "m1"], name="negative",
                    action=lambda alpha, j: Element({"m0": 2, "m1": -1}))
    message = r"^negative coefficient -1·m1 in g ⊗ m0$"
    with pytest.raises(InvalidInputError, match=message):
        m.action("g", "m0")
    with pytest.raises(InvalidInputError, match=message):
        first_nonassociative(m, z2, ["g"], ["e"], ["m0"])


def test_equal_single_label_products_are_one_object():
    # every value below comes from its own Element in the fusion table
    ring = _explicit(*STEINER_LOOP)
    shared = ring.product("p00", "p01")
    assert shared == Element.basis("p02")
    assert (ring.product("p01", "p00") == ring.product("p02", "1")
            == ring.product("1", "p02") == shared)
    basis, unit, conj, mul = STEINER_LOOP
    mul = dict(mul)
    mul[("p00", "p01")] = mul[("p01", "p00")] = {"p02": 2}
    mul[("p00", "p10")] = mul[("p10", "p00")] = {"p20": 1, "p21": 1}
    ring = _explicit(basis, unit, conj, mul)
    for a, b in (("p00", "p01"), ("p00", "p10")):
        assert ring.product(a, b) == ring.product(b, a)
    assert ring.product("p00", "p01") == 2 * ring.product("p02", "1")


def test_product_names_a_negative_coefficient(z2):
    ring = BasedRing(name="negative", unit="e", conj=z2.conj, dim=z2.dim,
                     product=lambda a, b: Element({"e": 2, "g": -1}), basis=z2.basis)
    with pytest.raises(InvalidInputError,
                       match=r"^negative coefficient -1·g in g ⊗ g$"):
        ring.product("g", "g")


def test_conj_rejects_an_unknown_label_on_every_call(z4):
    message = re.escape(f"unknown basis label 'zz' in ring {z4.name}")
    for _ in range(3):
        with pytest.raises(UnknownBasisError, match=f"^{message}$"):
            z4.conj("zz")
    assert z4.conj("a") == "a3" and z4.conj("a3") == "a"


def test_conj_memo_keeps_no_value_for_a_label_that_raised():
    inner = modular_group_ring()
    inner.basis_up_to_depth(2)  # registers the label ga
    calls = []

    def conj(label):
        calls.append(label)
        if len(calls) == 1:
            raise InvalidInputError(f"no conjugate for {label} yet")
        return inner.conj(label)

    ring = BasedRing(name="Z2*Z3, conj failing once", unit=inner.unit,
                     conj=conj, product=inner.product, dim=inner.dim,
                     generators=inner.generators)
    with pytest.raises(InvalidInputError, match="no conjugate for ga yet"):
        ring.conj("ga")
    assert ring.conj("ga") == ring.conj("ga") == "a2g"
    assert calls == ["ga", "ga"]
    for _ in range(2):  # a free product rejects a word it never met, each time
        with pytest.raises(UnknownBasisError, match="unknown basis label 'gag'"):
            inner.conj("gag")


def test_pair_pass_rejects_a_conjugate_that_is_not_a_label():
    # Z on x-2 … x2 and beyond, lazily: conj(x_n) = x_-n on the window at
    # depth 1, but no label past it; x-1 ⊗ x-1 = x-2 is the first product
    # term outside the window that the pair pass conjugates
    def label(n):
        return f"x{n}"

    ring = BasedRing(name="Z", unit="x0", dim=lambda a: 1,
                     conj=lambda a: label(-int(a[1:])) if abs(int(a[1:])) < 2 else 2,
                     product=lambda a, b: Element.basis(label(int(a[1:]) + int(b[1:]))),
                     generators=["x1", "x-1"])
    assert ring.basis_up_to_depth(1) == ["x0", "x-1", "x1"]
    with pytest.raises(InvalidInputError, match="^basis label 2 is not a string$"):
        check_ring_axioms(ring, 1)


def test_dim_rejects_an_unknown_label_on_every_call(z4):
    message = re.escape(f"unknown basis label 'zz' in ring {z4.name}")
    for _ in range(3):
        with pytest.raises(UnknownBasisError, match=f"^{message}$"):
            z4.dim("zz")
    assert z4.dim("a") == 1


def test_dim_memo_keeps_no_value_for_a_label_that_raised():
    inner = modular_group_ring()
    inner.basis_up_to_depth(2)  # registers the label ga
    calls = []

    def dim(label):
        calls.append(label)
        if len(calls) == 1:
            raise InvalidInputError(f"no dimension for {label} yet")
        return inner.dim(label)

    ring = BasedRing(name="Z2*Z3, dimension failing once", unit=inner.unit,
                     conj=inner.conj, product=inner.product, dim=dim,
                     generators=inner.generators)
    with pytest.raises(InvalidInputError, match="no dimension for ga yet"):
        ring.dim("ga")
    assert ring.dim("ga") == ring.dim("ga") == 1
    assert calls == ["ga", "ga"]


def test_concurrent_product_reads_are_safe():
    # values are immutable and cache fills idempotent, so concurrent
    # readers racing on a cold cache must agree with the serial answers
    from concurrent.futures import ThreadPoolExecutor
    from fusionkit import su2_ring

    serial = su2_ring()
    expected = {(m, n): serial.product(f"x{m}", f"x{n}")
                for m in range(8) for n in range(8)}
    shared = su2_ring()
    jobs = [(m, n) for m in range(8) for n in range(8)] * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(
            lambda mn: (mn, shared.product(f"x{mn[0]}", f"x{mn[1]}")), jobs))
    for (m, n), value in results:
        assert value == expected[(m, n)]


def modular_group_ring():
    """Z2 ∗ Z3, whose window grows as 1, 3, 4, 6, 8, 12, 16, 24, ..."""
    return free_product(group_ring(cyclic_group(2, generator="g")),
                        group_ring(cyclic_group(3))).ring


def _in_threads(task, count=8):
    """``task(i)`` for i < count, in threads started together and switched
    as often as the interpreter allows; the results in order of i."""
    start = threading.Barrier(count)
    results = {}

    def run(i):
        start.wait(timeout=30)
        results[i] = task(i)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == count
    return [results[i] for i in range(count)]


def test_concurrent_window_extension_matches_serial():
    depth = 7
    serial = modular_group_ring()
    expected = serial.basis_up_to_depth(depth)
    shared = modular_group_ring()
    results = _in_threads(lambda _: shared.basis_up_to_depth(depth))
    assert all(window == expected for window in results)
    assert [len(level) for level in shared._levels] == [1, 3, 4, 6, 8, 12, 16, 24]
    assert shared.basis_up_to_depth(depth) == expected


def _walk(ring, depth, turn=0):
    """Every w ⊗ g, conj(w) and dim(w) for w within ``depth`` of the unit
    and g a generator, found level by level without the window; ``turn``
    rotates the generator order."""
    k = turn % len(ring.generators)
    gens = ring.generators[k:] + ring.generators[:k]
    products, conjs, dims = {}, {}, {}
    seen, frontier = {ring.unit}, [ring.unit]
    for _ in range(depth):
        fresh = []
        for w in frontier:
            conjs[w] = ring.conj(w)
            dims[w] = ring.dim(w)
            for g in gens:
                products[(w, g)] = value = ring.product(w, g)
                for label, _ in value.items():
                    if label not in seen:
                        seen.add(label)
                        fresh.append(label)
        frontier = fresh
    return products, conjs, dims


@pytest.mark.parametrize("build, depth", [
    (modular_group_ring, 7),
    (lambda: direct_product(su2_ring(),
                            group_ring(cyclic_group(2, generator="g"))).ring, 8),
], ids=["Z2*Z3", "SU2xZ2"])
def test_concurrent_products_match_serial(build, depth):
    # each product registers the labels it meets; threads racing on a fresh
    # ring must register the same ones as a serial run
    serial = build()
    expected = _walk(serial, depth)
    shared = build()
    results = _in_threads(lambda i: _walk(shared, depth, turn=i))
    assert all(result == expected for result in results)
    assert shared.basis_up_to_depth(depth) == serial.basis_up_to_depth(depth)


@pytest.mark.parametrize("build", [modular_group_ring, su2_ring],
                         ids=["Z2*Z3", "SU2"])
def test_concurrent_axiom_checks_match_serial(build):
    # threads sweeping one cold ring meet its labels in the serial order, so
    # the ids they register are the serial run's
    depth = 6
    serial = build()
    expected = check_ring_axioms(serial, depth)
    shared = build()
    results = _in_threads(lambda _: check_ring_axioms(shared, depth))
    assert expected.is_holds and all(v == expected for v in results)
    assert shared.basis_up_to_depth(depth) == serial.basis_up_to_depth(depth)
    assert shared._ids.labels == serial._ids.labels
    assert shared._ids.ids == serial._ids.ids


def test_a_finite_ring_is_proved_associative_once(tmp_path, monkeypatch, capsys):
    # validate proves the ring, and a module check on the same ring reuses it
    proofs = Counter()
    original = rings._generator_proof

    def counted(ring):
        proofs[ring.name] += 1
        return original(ring)

    monkeypatch.setattr(rings, "_generator_proof", counted)
    labels = ["e", "a", "a2", "a3"]
    (tmp_path / "z4.json").write_text(json.dumps({
        "kind": "explicit_ring", "name": "Z4", "basis": labels, "unit": "e",
        "conj": {x: labels[-i % 4] for i, x in enumerate(labels)},
        "dim": dict.fromkeys(labels, 1),
        "fusion": [[x, y, {labels[(i + k) % 4]: 1}]
                   for i, x in enumerate(labels[1:], 1)
                   for k, y in enumerate(labels[1:], 1)]}))
    (tmp_path / "std.json").write_text(
        json.dumps({"kind": "module", "standard_of": "z4.json"}))
    assert cli_dispatch(["validate", str(tmp_path / "std.json")]) == 0
    capsys.readouterr()
    assert proofs == {"Z4": 1}
    with load_session():
        ring = load(str(tmp_path / "z4.json"))
        assert loaded_verdict(ring).is_holds
        assert check_module_axioms(standard_module(ring)).is_holds
        assert check_ring_axioms(ring).is_holds
    assert proofs == {"Z4": 2}  # one more ring object, proved once


def test_a_group_ring_is_proved_once(tmp_path, monkeypatch, capsys):
    # building the group proves its ring, and load validation reuses the proof
    (tmp_path / "z4.json").write_text(json.dumps({
        "kind": "construct", "construct": "group_ring",
        "group": cyclic_group(4).to_doc()}))
    proofs = Counter()
    original = rings._generator_proof

    def counted(ring):
        proofs[ring.name] += 1
        return original(ring)

    monkeypatch.setattr(rings, "_generator_proof", counted)
    assert cli_dispatch(["validate", str(tmp_path / "z4.json")]) == 0
    capsys.readouterr()
    assert proofs == {"Z[4-elt group]": 1}


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["Z2*Z3", "D_inf", "SU2"]),
       st.lists(st.integers(0, 6), min_size=1, max_size=5))
def test_window_is_prefix_closed_and_duplicate_free(name, depths):
    def build():
        if name == "Z2*Z3":
            return modular_group_ring()
        if name == "SU2":
            return su2_ring()
        return free_product(group_ring(cyclic_group(2, generator="g")),
                            group_ring(cyclic_group(2, generator="h"))).ring

    ring = build()
    for d in depths:  # extend the window in an arbitrary order first
        ring.basis_up_to_depth(d)
    for d in range(7):
        window = ring.basis_up_to_depth(d)
        assert len(set(window)) == len(window)
        assert ring.basis_up_to_depth(d + 1)[: len(window)] == window
        assert window == build().basis_up_to_depth(d)


def test_combine_claims_the_smallest_bound():
    # holds within depth 6 and within depth 4 is checked only to depth 4
    from fusionkit.rings import Verdict
    assert Verdict.combine(Verdict.holds(bound=4), Verdict.holds(bound=6)).bound == 4
    assert Verdict.combine(Verdict.holds(bound=6), Verdict.holds(bound=4)).bound == 4
    assert Verdict.combine(Verdict.holds(), Verdict.holds(bound=6)).bound == 6
    assert Verdict.combine(Verdict.holds(), Verdict.holds()).bound is None


def test_reprs_name_the_object(z2, su2, rank1_z2, z2_in_z4):
    from fusionkit import so3_subring, standard_module
    assert repr(cyclic_group(3)) == "FiniteGroupPresentation(order 3)"
    assert repr(z2) == "BasedRing(Z[2-elt group], finite rank 2)"
    assert repr(su2) == "BasedRing(SU2, lazy)"
    assert repr(rank1_z2) == "BasedModule(rank1, rank 1 over Z[2-elt group])"
    assert repr(standard_module(su2)) == "BasedModule(standard(SU2), lazy over SU2)"
    assert repr(z2_in_z4) == "SubringEmbedding(Z[2-elt group] ↪ Z[4-elt group])"
    assert repr(so3_subring()) == "SubringEmbedding(SO3 ↪ SU2)"
