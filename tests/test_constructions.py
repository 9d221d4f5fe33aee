import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fusionkit import (
    CharacterTable,
    Element,
    FiniteGroupPresentation,
    InvalidInputError,
    RingAutomorphismAction,
    check_dimension,
    check_ring_axioms,
    cyclic_character_table,
    cyclic_group,
    direct_product,
    free_product,
    group_ring,
    inversion_action,
    rep_ring,
    s3_character_table,
    semidirect_product,
    so3_subring,
    su2_ring,
    symmetric_group_3,
    trivial_character_table,
    verify_subring,
)
from fusionkit.cyclotomic import Cyclo, cyclotomic_polynomial
from oracles import (cg_tensor_oracle, cyclic_label, cyclic_table,
                     float_rep_ring_oracle, free_word_product, root_of_unity,
                     s3_fusion_oracle, semidirect_oracle)
from test_rings import _in_threads


# --- groups ---------------------------------------------------------------

def test_cyclic_group_labels():
    g = cyclic_group(4)
    assert g.elements == ("e", "a", "a2", "a3")
    assert g.inv("a") == "a3"


def test_group_axioms_rejected_with_witness():
    # drop associativity by redirecting one product
    g = cyclic_group(3)
    mult = dict(g.mult)
    mult[("a", "a")] = "a"
    with pytest.raises(InvalidInputError):
        FiniteGroupPresentation(g.elements, mult)
    with pytest.raises(InvalidInputError):
        FiniteGroupPresentation(["x", "y"], {("x", "x"): "x", ("x", "y"): "y",
                                             ("y", "x"): "y", ("y", "y"): "y"})
    # an entry beyond the table would stay in mult, to_doc and mul
    with pytest.raises(InvalidInputError, match=r"entry \(z, z\)"):
        FiniteGroupPresentation(["e"], {("e", "e"): "e", ("z", "z"): "q"})


@st.composite
def broken_group_tables(draw):
    """Z/4, the Klein group or S3 with a few products off the identity row
    and column redrawn, so the table stays closed with the same identity."""
    group = draw(st.sampled_from([
        cyclic_group(4),
        FiniteGroupPresentation(["1", "x", "y", "z"], {
            (a, b): "1xyz"["1xyz".index(a) ^ "1xyz".index(b)]
            for a in "1xyz" for b in "1xyz"}),
        symmetric_group_3()]))
    mult = dict(group.mult)
    others = [g for g in group.elements if g != group.identity]
    for _ in range(draw(st.integers(1, 2))):
        pair = (draw(st.sampled_from(others)), draw(st.sampled_from(others)))
        mult[pair] = draw(st.sampled_from(group.elements))
    return group.elements, mult


@settings(max_examples=150, deadline=None)
@given(broken_group_tables())
def test_group_associativity_witness_is_the_first_failing_triple(tables):
    # Light's test over the generating elements decides; the message still
    # names the first failing triple of the ordered loop
    elements, mult = tables
    first = next(((a, b, c) for a, b, c in itertools.product(elements, repeat=3)
                  if mult[(mult[(a, b)], c)] != mult[(a, mult[(b, c)])]), None)
    try:
        FiniteGroupPresentation(elements, mult)
    except InvalidInputError as err:
        message = str(err)
    else:
        message = None
    if first is None:
        assert message is None or not message.startswith("table not associative")
    else:
        assert message == "table not associative at ({}, {}, {})".format(*first)


def test_symmetric_group_3():
    s3 = symmetric_group_3()
    assert len(s3.elements) == 6
    assert s3.identity == "e"
    assert s3.mul("t", "t") == "e"
    assert s3.mul("r", "rr") == "e"


def test_group_ring_is_a_fusion_ring(s3):
    assert check_ring_axioms(s3, 4).is_holds
    assert check_dimension(s3, 4).is_holds
    assert all(s3.dim(b) == 1 for b in s3.basis)


# --- character tables and representation rings ------------------------------

def test_s3_rep_ring_products():
    ring = rep_ring(s3_character_table())
    got = ring.product("std", "std")
    assert got == Element({"triv": 1, "sgn": 1, "std": 1})
    for a in ring.basis:
        for b in ring.basis:
            assert dict(ring.product(a, b).items()) == s3_fusion_oracle(a, b)
    assert check_ring_axioms(ring, 4).is_holds
    assert check_dimension(ring, 4).is_holds
    assert ring.dim("std") == 2


def test_cyclic_rep_ring_matches_group_ring():
    # abelian duality: characters of Z/3 multiply like Z/3 itself
    ring = rep_ring(cyclic_character_table(3))
    relabel = {f"chi{j}": j for j in range(3)}
    for a in ring.basis:
        for b in ring.basis:
            value = ring.product(a, b)
            got = relabel[value.single_label()]
            assert got == (relabel[a] + relabel[b]) % 3
    assert relabel[ring.conj("chi1")] == 2


@pytest.mark.parametrize("n", range(1, 15))
def test_cyclic_rep_ring_is_cyclic(n):
    # χ_j ⊗ χ_k = χ_{j+k mod n}, conj χ_j = χ_{-j}, every degree 1
    ring = rep_ring(cyclic_character_table(n))
    assert ring.basis == tuple(f"chi{j}" for j in range(n))
    for j in range(n):
        assert ring.conj(f"chi{j}") == f"chi{-j % n}"
        assert ring.dim(f"chi{j}") == 1
        for k in range(n):
            assert ring.product(f"chi{j}", f"chi{k}") == \
                Element.basis(f"chi{(j + k) % n}")


def _zeta_product(i, j):
    """ζ_2^i·ζ_3^j, written at the least order that holds it."""
    if j % 3 == 0:
        return Cyclo.zeta(2, i)
    if i % 2 == 0:
        return Cyclo.zeta(3, j)
    return Cyclo.zeta(2, i) * Cyclo.zeta(3, j)


def test_mixed_order_rep_ring_matches_direct_product():
    # Z/2 × Z/3 from values of orders 2, 3 and 6 in one table
    pairs = [(s, t) for s in range(2) for t in range(3)]
    table = CharacterTable(
        classes=[(f"c{i}{j}", 1) for i, j in pairs],
        irreps=[(f"chi{s}{t}", [_zeta_product(s * i, t * j) for i, j in pairs])
                for s, t in pairs])
    assert {table.values[key].order for key in table.values} == {2, 3, 6}
    ring = rep_ring(table)
    product = direct_product(rep_ring(cyclic_character_table(2)),
                             rep_ring(cyclic_character_table(3))).ring
    label = dict(zip(ring.basis, product.basis))
    assert len(label) == len(product.basis) == 6
    assert label[ring.unit] == product.unit
    for a in ring.basis:
        assert label[ring.conj(a)] == product.conj(label[a])
        assert ring.dim(a) == product.dim(label[a])
        for b in ring.basis:
            assert ring.product(a, b).map_basis(label.get) == \
                product.product(label[a], label[b])


def test_corrupted_character_table_message():
    # one value of Z/6's table moved to another root of unity
    t = cyclic_character_table(6)
    rows = [(a, [t.values[(a, c)] for c in t.classes]) for a in t.irreps]
    rows[2][1][3] = Cyclo.zeta(6, 1)
    with pytest.raises(InvalidInputError) as info:
        CharacterTable([(c, 1) for c in t.classes], rows)
    assert str(info.value) == "row orthogonality fails for (chi0, chi2)"


def test_non_integral_fusion_coefficient_message():
    # orthogonal rows with integer degrees, but x ⊗ x = triv + (3/2)·x
    q = Cyclo.from_rational
    table = CharacterTable(classes=[("e", 1), ("c", 4)],
                           irreps=[("triv", [q(1), q(1)]),
                                   ("x", [q(2), q(Fraction(-1, 2))])])
    with pytest.raises(InvalidInputError) as info:
        rep_ring(table)
    assert str(info.value) == (
        "fusion coefficient of x in x ⊗ x is not a non-negative integer; "
        "character table inconsistent")


# A4 (values in Q(ζ3)) and D5 (values ζ5^k + ζ5^−k): a value is an integer or
# {e: c} for Σ c·ζ_n^e, read exactly as a Cyclo and in floating point by the
# oracle
_A4 = (3, [("e", 1), ("v", 3), ("c", 4), ("c2", 4)],
       [("triv", [1, 1, 1, 1]), ("x1", [1, 1, {1: 1}, {2: 1}]),
        ("x2", [1, 1, {2: 1}, {1: 1}]), ("x3", [3, -1, 0, 0])])
_D5 = (5, [("e", 1), ("r", 2), ("r2", 2), ("s", 5)],
       [("triv", [1, 1, 1, 1]), ("sgn", [1, 1, 1, -1]),
        ("psi1", [2, {1: 1, 4: 1}, {2: 1, 3: 1}, 0]),
        ("psi2", [2, {2: 1, 3: 1}, {1: 1, 4: 1}, 0])])


def _exact_rows(n, irreps):
    return [(a, [Cyclo(n, v) if isinstance(v, dict) else Cyclo.from_rational(v)
                 for v in row]) for a, row in irreps]


@pytest.mark.parametrize("n, classes, irreps", [_A4, _D5], ids=["A4", "D5"])
def test_irrational_rep_rings_match_float_oracle(n, classes, irreps):
    ring = rep_ring(CharacterTable(classes, _exact_rows(n, irreps)))
    fusion, conj = float_rep_ring_oracle(
        [size for _, size in classes],
        {a: [sum(c * root_of_unity(n, e) for e, c in v.items())
             if isinstance(v, dict) else complex(v) for v in row]
         for a, row in irreps})
    assert len(fusion) == len(ring.basis) ** 2
    for (a, b), terms in fusion.items():
        assert dict(ring.product(a, b).items()) == terms
    assert {a: ring.conj(a) for a in ring.basis} == conj
    assert check_ring_axioms(ring, 4).is_holds
    assert check_dimension(ring, 4).is_holds


def test_corrupted_d5_table_message():
    # psi2 takes psi1's values at r and r²: its sums against triv and sgn
    # still vanish, so the first pair that fails is (psi1, psi2)
    rows = _exact_rows(5, _D5[2])
    values = rows[3][1]
    values[1], values[2] = values[2], values[1]
    with pytest.raises(InvalidInputError) as info:
        CharacterTable(_D5[1], rows)
    assert str(info.value) == "row orthogonality fails for (psi1, psi2)"


def test_row_norm_checked_on_the_diagonal():
    # std doubled stays orthogonal to triv and sgn; only its own norm fails
    q = Cyclo.from_rational
    with pytest.raises(InvalidInputError) as info:
        CharacterTable(classes=[("e", 1), ("transposition", 3), ("3-cycle", 2)],
                       irreps=[("triv", [q(1), q(1), q(1)]),
                               ("sgn", [q(1), q(-1), q(1)]),
                               ("std", [q(4), q(0), q(-2)])])
    assert str(info.value) == "row orthogonality fails for (std, std)"


def test_concurrent_rep_ring_and_fresh_order_match_serial():
    # the per-order reduction memo of an order that no other test uses is
    # filled by 8 threads at once; each value is checked against long
    # division by Φ_n, which the memo does not use
    order = 143
    phi = [int(c) for c in cyclotomic_polynomial(order)]

    def divided(coeffs):
        rem = [0] * order
        for e, c in coeffs.items():
            rem[e % order] += c
        for top in range(order - 1, len(phi) - 2, -1):
            lead = rem[top]
            for i, p in enumerate(phi):
                rem[top - len(phi) + 1 + i] -= lead * p
        return {i: c for i, c in enumerate(rem) if c}

    def products(ring):
        return {(a, b): ring.product(a, b) for a in ring.basis for b in ring.basis}

    def task(i):
        values = [Cyclo(order, {e: 1, e + i + 1: -2, -e: i})
                  for e in range(order - 1, 0, -7)]
        return products(rep_ring(cyclic_character_table(12))), values

    serial = products(rep_ring(cyclic_character_table(12)))
    for i, (got, values) in enumerate(_in_threads(task)):
        assert got == serial
        assert [v.coeffs for v in values] == [
            divided({e: 1, e + i + 1: -2, -e: i})
            for e in range(order - 1, 0, -7)]


def test_trivial_character_table():
    ring = rep_ring(trivial_character_table())
    assert ring.basis == ("triv",)
    assert check_ring_axioms(ring, 4).is_holds


def test_inconsistent_character_table_rejected():
    q = Cyclo.from_rational
    with pytest.raises(InvalidInputError):
        CharacterTable(classes=[("e", 1), ("c", 3)],
                       irreps=[("triv", [q(1), q(1)]),
                               ("other", [q(1), q(1)])])


def test_character_table_must_be_square():
    q = Cyclo.from_rational
    with pytest.raises(InvalidInputError):
        CharacterTable(classes=[("e", 1)],
                       irreps=[("triv", [q(1)]), ("dup", [q(1)])])


# --- Clebsch-Gordan ring ----------------------------------------------------

def test_cg_examples(su2):
    assert su2.product("x1", "x2") == Element({"x1": 1, "x3": 1})
    assert su2.product("x0", "x7") == Element.basis("x7")
    value = su2.product("x3", "x3")
    assert value == Element({"x0": 1, "x2": 1, "x4": 1, "x6": 1})
    assert sum(su2.dim(lbl) * c for lbl, c in value.items()) == 16


def test_so3_subring_embedding(su2):
    emb = so3_subring(su2)
    assert verify_subring(emb, 6).is_holds
    assert emb.sub.basis_up_to_depth(2) == ["x0", "x2", "x4"]


# --- direct products ---------------------------------------------------------

def test_direct_product_componentwise(z2):
    ring = rep_ring(s3_character_table())
    product = direct_product(ring, z2)
    got = product.ring.product("(std,g)", "(std,g)")
    assert got == Element({"(triv,e)": 1, "(sgn,e)": 1, "(std,e)": 1})
    assert product.ring.unit == "(triv,e)"
    assert check_ring_axioms(product.ring, 4).is_holds
    assert check_dimension(product.ring, 4).is_holds
    assert product.ring.dim("(std,g)") == 2


def test_direct_product_of_group_rings_is_product_group(z2, z3):
    product = direct_product(z2, z3)
    # oracle: the direct product group built by hand
    pairs = [(a, b) for a in ("e", "g") for b in ("e", "a", "a2")]
    mult = {}
    z2g, z3g = cyclic_group(2, generator="g"), cyclic_group(3)
    for (a1, b1) in pairs:
        for (a2, b2) in pairs:
            mult[(f"({a1},{b1})", f"({a2},{b2})")] = \
                f"({z2g.mul(a1, a2)},{z3g.mul(b1, b2)})"
    for la in mult:
        value = product.ring.product(la[0], la[1])
        assert value == Element.basis(mult[la])


def test_direct_product_embeddings(z2):
    ring = rep_ring(s3_character_table())
    product = direct_product(ring, z2)
    assert verify_subring(product.left, 4).is_holds
    assert verify_subring(product.right, 4).is_holds
    assert product.left.embed("std") == "(std,e)"
    assert product.right.embed("g") == "(triv,g)"


# --- free products -----------------------------------------------------------

def test_free_product_rule_a():
    fp = free_product(group_ring(cyclic_group(2, generator="g")),
                      group_ring(cyclic_group(2, generator="h")))
    fp.ring.basis_up_to_depth(2)
    assert fp.ring.product("g", "h") == Element.basis("gh")


def test_free_product_rule_b_with_cg_letters(su2):
    fp = free_product(su2, group_ring(cyclic_group(2, generator="g")))
    fp.ring.basis_up_to_depth(2)
    assert fp.ring.product("x1", "x1") == Element({"x2": 1, "ε": 1})
    fp.ring.basis_up_to_depth(3)
    # boundary contraction inside longer words
    assert fp.ring.product("gx1", "x1g") == \
        Element({"gx2g": 1, "ε": 1})


def test_free_product_conj_reverses():
    fp = free_product(group_ring(cyclic_group(3)),
                      group_ring(cyclic_group(2, generator="h")))
    fp.ring.basis_up_to_depth(3)
    assert fp.ring.conj("ah") == "ha2"
    assert fp.ring.conj(fp.ring.conj("aha")) == "aha"


def test_free_product_embeddings_verify():
    fp = free_product(group_ring(cyclic_group(2, generator="g")),
                      group_ring(cyclic_group(3)))
    assert verify_subring(fp.left, 4).is_holds
    assert verify_subring(fp.right, 4).is_holds


def test_free_product_matches_modular_word_group(z2, z3):
    # second word oracle: order-2 against order-3 letters, so rule b merges
    # letters into non-trivial letters (a.a = a2) as well as cancelling
    from oracles import modular_mul, modular_words
    fp = free_product(z2, z3)
    window = fp.ring.basis_up_to_depth(3)
    words = modular_words(3)
    assert sorted(window) == sorted("".join(w) or "ε" for w in words)
    for u in words:
        for v in words:
            label_u = "".join(u) or "ε"
            label_v = "".join(v) or "ε"
            expected = "".join(modular_mul(u, v)) or "ε"
            got = fp.ring.product(label_u, label_v)
            assert got == Element.basis(expected), (u, v)


def test_free_product_registers_the_words_its_products_reach(z2, z3):
    # gaga ⊗ a2 cancels a against a2 and leaves gag, a word of no window yet
    ring = free_product(z2, z3).ring
    assert ring.basis_up_to_depth(2) == ["ε", "a", "a2", "g", "a2g", "ag",
                                         "ga", "ga2"]
    assert ring.product("ga", "ga") == Element.basis("gaga")
    assert ring.product("gaga", "a2") == Element.basis("gag")
    assert ring.product("gag", "a") == ring.product("ga", "ga")


def test_free_product_with_higher_rank_letters(z2):
    # rule b with a self-conjugate dimension-two letter: the non-trivial
    # constituents survive and the boundary contraction adds the unit
    ring = rep_ring(s3_character_table())
    fp = free_product(ring, z2)
    fp.ring.basis_up_to_depth(3)
    assert fp.ring.product("std", "std") == \
        Element({"sgn": 1, "std": 1, "ε": 1})
    assert fp.ring.dim("stdgstd") == 4
    assert check_ring_axioms(fp.ring, 3).is_holds


def _su2_rule(x, y):
    return {f"x{k}": c for k, c in cg_tensor_oracle(int(x[1:]), int(y[1:])).items()}


def _z2_rule(x, y):
    return {"e": 1}  # g ⊗ g, the only pair of non-unit letters


# name → (factors, each factor's non-unit letters, oracle rules, units)
FREE_CASES = {
    "SU2*Z2": (lambda: (su2_ring(), group_ring(cyclic_group(2, generator="g"))),
               (["x1", "x2", "x3"], ["g"]), (_su2_rule, _z2_rule), ("x0", "e")),
    "RepS3*Z2": (lambda: (rep_ring(s3_character_table()),
                          group_ring(cyclic_group(2, generator="g"))),
                 (["sgn", "std"], ["g"]), (s3_fusion_oracle, _z2_rule),
                 ("triv", "e")),
}


@st.composite
def free_words(draw):
    """A case of FREE_CASES and two alternating words u, v; when ``cancel``
    is set, v is conj(u), so u ⊗ v reaches the empty word."""
    name = draw(st.sampled_from(sorted(FREE_CASES)))
    letters = FREE_CASES[name][1]

    def word():
        side, out = draw(st.integers(0, 1)), []
        for _ in range(draw(st.integers(0, 4))):
            out.append((side, draw(st.sampled_from(letters[side]))))
            side = 1 - side
        return tuple(out)

    u = word()
    cancel = draw(st.booleans())
    # every letter here is self-conjugate, so conj(u) is u reversed
    return name, u, tuple(reversed(u)) if cancel else word(), cancel


def _render(word):
    return "".join(letter for _, letter in word) or "ε"


@settings(max_examples=200, deadline=None)
@given(free_words())
def test_free_word_products_match_the_oracle(case):
    name, u, v, cancel = case
    build, _, rules, units = FREE_CASES[name]
    ring = free_product(*build()).ring
    ring.basis_up_to_depth(3)  # registers the letters x2 and x3 of SU2

    def label(word):  # words meeting in different factors concatenate
        out = ring.unit
        for _, letter in word:
            out = ring.product(out, letter).single_label()
        assert out == _render(word)
        return out

    expected = free_word_product(rules, units, u, v)
    if cancel:
        assert expected[()] == 1
    assert ring.product(label(u), label(v)) == Element(
        {_render(w): c for w, c in expected.items()})


def test_free_product_colliding_labels_rejected():
    with pytest.raises(InvalidInputError):
        fp = free_product(group_ring(cyclic_group(2, generator="g")),
                          group_ring(cyclic_group(2, generator="g")))
        fp.ring.basis_up_to_depth(2)


def cyclic_ring(*labels):
    """Z/n on the given labels, the first being the identity."""
    n = len(labels)
    return group_ring(FiniteGroupPresentation(
        labels, {(labels[i], labels[k]): labels[(i + k) % n]
                 for i in range(n) for k in range(n)}))


@pytest.mark.parametrize("build, label", [
    # the pairs ("a,b", "c") and ("a", "b,c") both render as (a,b,c)
    (lambda: direct_product(cyclic_ring("e", "a", "a,b"),
                            cyclic_ring("1", "c", "b,c")), "(a,b,c)"),
    # the one-letter word "ab" and the two-letter word "a"·"b"
    (lambda: free_product(cyclic_ring("e", "a", "ab"),
                          cyclic_ring("1", "b")).ring.product("a", "b"), "ab"),
], ids=["direct", "free"])
def test_ambiguous_product_labels_rejected(build, label):
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"ambiguous label {label!r} in ")):
        build()


# --- semi-direct products ----------------------------------------------------

def test_semidirect_twisted_product():
    g2 = cyclic_group(2, generator="g")
    z3ring = group_ring(cyclic_group(3))
    sd = semidirect_product(g2, z3ring, inversion_action(g2, z3ring))
    assert sd.ring.product("(g,a)", "(g,e)") == Element.basis("(e,a2)")
    assert sd.ring.unit == "(e,e)"
    assert check_ring_axioms(sd.ring, 4).is_holds
    assert check_dimension(sd.ring, 4).is_holds


def test_semidirect_matches_s3_group_ring():
    # pair correspondence (gamma, r^k) -> t^epsilon . r^k inside S3
    g2 = cyclic_group(2, generator="g")
    z3ring = group_ring(cyclic_group(3))
    sd = semidirect_product(g2, z3ring, inversion_action(g2, z3ring))
    s3 = symmetric_group_3()

    def to_s3(pair_label):
        gamma, x = pair_label[1:-1].split(",")
        word = ("e" if gamma == "e" else "t",
                {"e": "e", "a": "r", "a2": "rr"}[x])
        return s3.mul(word[0], word[1])

    labels = list(sd.ring.basis)
    assert sorted(to_s3(l) for l in labels) == sorted(s3.elements)
    for la in labels:
        for lb in labels:
            value = sd.ring.product(la, lb)
            assert to_s3(value.single_label()) == s3.mul(to_s3(la), to_s3(lb))


@pytest.mark.parametrize("n, inverted", [(3, True), (4, True), (3, False)],
                         ids=["Z3 by inversion", "Z4 by inversion",
                              "Z3 trivially"])
def test_twisted_products_match_the_semidirect_group(n, inverted):
    # Z/n ⋊ Z/2 from plain tables; the trivial action's ring is also the
    # direct product, whose twist is the identity
    g2 = cyclic_group(2, generator="g")
    target = group_ring(cyclic_group(n))
    identity = list(range(n))
    action = [identity, [-x % n for x in identity] if inverted else identity]
    mul, inverse = semidirect_oracle(cyclic_table(2), cyclic_table(n), action)
    names = ["e", "g"], [cyclic_label(k) for k in identity]

    def label(pair):
        return f"({names[0][pair[0]]},{names[1][pair[1]]})"

    perms = {gamma: {names[1][x]: names[1][action[i][x]] for x in identity}
             for i, gamma in enumerate(names[0])}
    rings = [semidirect_product(g2, target, RingAutomorphismAction(g2, perms)).ring]
    if not inverted:
        rings.append(direct_product(g2.ring, target).ring)
    for ring in rings:
        assert sorted(ring.basis) == sorted(map(label, inverse))
        for (p, q), r in mul.items():
            assert ring.product(label(p), label(q)) == Element.basis(label(r))
        for p, q in inverse.items():
            assert ring.conj(label(p)) == label(q)
            assert ring.dim(label(p)) == 1


def test_semidirect_embeddings_verify():
    g2 = cyclic_group(2, generator="g")
    z3ring = group_ring(cyclic_group(3))
    sd = semidirect_product(g2, z3ring, inversion_action(g2, z3ring))
    assert verify_subring(sd.group_embedding, 4).is_holds
    assert verify_subring(sd.target_embedding, 4).is_holds


def test_bad_automorphism_action_rejected():
    g2 = cyclic_group(2, generator="g")
    z3ring = group_ring(cyclic_group(3))
    # swapping unit and a is not a ring automorphism
    perms = {"e": {x: x for x in z3ring.basis},
             "g": {"e": "a", "a": "e", "a2": "a2"}}
    with pytest.raises(InvalidInputError):
        semidirect_product(g2, z3ring, RingAutomorphismAction(g2, perms))


def test_action_keyed_by_a_stray_element_rejected():
    # a permutation for something outside the group is refused, not dropped
    g2 = cyclic_group(2, generator="g")
    z3ring = group_ring(cyclic_group(3))
    perms = dict(inversion_action(g2, z3ring).perms,
                 zz={x: x for x in z3ring.basis})
    with pytest.raises(InvalidInputError,
                       match="^action names zz, not a group element$"):
        semidirect_product(g2, z3ring, RingAutomorphismAction(g2, perms))


def test_divisibility_of_construction_factors(z2, z3):
    # every canonical factor embedding of the built-in constructions admits
    # a certificate
    from fusionkit import find_divisibility_certificate, verify_certificate
    ring = rep_ring(s3_character_table())
    dp = direct_product(ring, z2)
    fp = free_product(z2, z3)
    g2 = cyclic_group(2, generator="g")
    z3ring = group_ring(cyclic_group(3))
    sd = semidirect_product(g2, z3ring, inversion_action(g2, z3ring))
    embeddings = [dp.left, dp.right, sd.group_embedding, sd.target_embedding]
    for emb in embeddings:
        search = find_divisibility_certificate(emb, 4)
        assert search.certificate is not None, emb.name
        assert verify_certificate(search.certificate, 4).is_holds
    for emb in (fp.left, fp.right):
        search = find_divisibility_certificate(emb, 5)
        assert search.certificate is not None, emb.name
        assert verify_certificate(search.certificate, 5).is_holds
