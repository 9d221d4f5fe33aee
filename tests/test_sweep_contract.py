"""The id-row associativity sweep, the ring axioms' pair pass, the
dimension pass and the based-symmetry pass against independent oracles.

``oracles.ordered_triple_scan`` runs the same ordered sweep over plain dict
tables, ``oracles.ordered_pair_scan`` and ``oracles.ordered_dimension_scan``
the plain loops over (a, b), and ``oracles.ordered_symmetry_scan`` the
plain loop over (α, j, j′), with no fusionkit import.  For each case below the check's
first witness, or its first exception, must be the one the scan names, and
both are pinned as text.
"""

import re
from fractions import Fraction

import pytest

from fusionkit import (
    BasedModule,
    BasedRing,
    DivisibilityCertificate,
    Element,
    InvalidInputError,
    check_dimension,
    check_module_axioms,
    check_ring_axioms,
    connected_components,
    cyclic_group,
    explicit_ring,
    free_product,
    generating_labels,
    group_ring,
    identity_embedding,
    induce,
    so3_subring,
    standardize_from_induced,
    su2_ring,
    symmetric_group_3,
)
from fusionkit.modules import check_module_dimension, first_nonintertwining
from fusionkit.subrings import coset_classes
from oracles import (
    LazyTable,
    cg_tensor_oracle,
    first_window_collision,
    modular_mul,
    modular_words,
    ordered_component_scan,
    ordered_dimension_scan,
    ordered_intertwining_scan,
    ordered_module_dimension_scan,
    ordered_pair_scan,
    ordered_symmetry_scan,
    ordered_triple_scan,
)


def _fmt(value):
    """A {label: coeff} dict as ``Element.format`` renders it."""
    return " ⊕ ".join(x if n == 1 else f"{n}·{x}"
                      for x, n in sorted(value.items())) or "0"


def _witness(outcome, kind="associativity"):
    """The witness text of a ("fails", …) outcome of the scan."""
    _, (a, b, c), nested, flat = outcome
    if kind == "associativity":
        return (f"associativity fails at ({a}, {b}, {c}): ({a}⊗{b})⊗{c} = "
                f"{_fmt(flat)} ≠ {a}⊗({b}⊗{c}) = {_fmt(nested)}")
    return (f"action associativity fails at ({a}, {b}, {c}): {a}⊗({b}⊗{c}) = "
            f"{_fmt(nested)} ≠ ({a}⊗{b})⊗{c} = {_fmt(flat)}")


# --- a lazy ring that fails only from depth k on ---------------------------------

def _label(word):
    return "".join(word) or "ε"


def _twisted_modular(k, twist):
    """Z2 ∗ Z3 with every product of a word of length 2k by a word other
    than the unit replaced by ``twist(word)``: a window of depth k − 1 never asks for one, and a
    window of depth k asks for them only on the (α⊗β)⊗j side.  Returns the
    fusionkit ring, its window at depth k and the oracle's table."""
    words = {_label(w): w for w in modular_words(3 * k)}

    def rule(x, y):
        u, v = words[x], words[y]
        w = modular_mul(u, v)
        return twist(w) if len(u) == 2 * k and v else {_label(w): 1}

    def product(x, y):
        value = rule(x, y)
        if value is None:
            raise InvalidInputError(f"no product at ({x}, {y})")
        return Element(value)

    inverse = {"g": "g", "a": "a2", "a2": "a"}
    ring = BasedRing(name="twisted Z2*Z3", unit="ε", dim=lambda x: 1,
                     conj=lambda x: _label(tuple(inverse[t] for t in reversed(words[x]))),
                     product=product, generators=["g", "a", "a2"])
    window = sorted((_label(w) for w in words.values() if len(w) <= k),
                    key=lambda x: (len(words[x]), x))
    return ring, window, LazyTable(rule)


def test_lazy_ring_fails_only_from_depth_k():
    k = 3
    ring, window, table = _twisted_modular(k, lambda w: {_label(w): 2})
    assert check_ring_axioms(ring, k - 1).is_holds
    assert ring.basis_up_to_depth(k) == window
    outcome = ordered_triple_scan(window, window, window, table, table)
    assert outcome[0] == "fails"
    verdict = check_ring_axioms(ring, k)
    assert verdict.data == outcome[1] == ("a2ga", "ga2g", "a")
    assert verdict.witness == _witness(outcome) == (
        "associativity fails at (a2ga, ga2g, a): (a2ga⊗ga2g)⊗a = 2·a2gaga2ga "
        "≠ a2ga⊗(ga2g⊗a) = a2gaga2ga")


def test_lazy_ring_raises_at_the_first_missing_product():
    k = 3
    ring, window, table = _twisted_modular(k, lambda w: None)
    assert check_ring_axioms(ring, k - 1).is_holds
    outcome = ordered_triple_scan(window, window, window, table, table)
    assert outcome == ("missing", ("a2gaga2g", "a"))
    with pytest.raises(InvalidInputError,
                       match=r"^no product at \(a2gaga2g, a\)$"):
        check_ring_axioms(ring, k)


# --- a finite ring that fails off its generating labels --------------------------

# generated by p alone; found by a seeded search of self-dual commutative
# tables on four labels whose first failing triple has a middle label off
# the generating labels, so the witness comes from the full sweep
OFF_GENERATORS = {
    ("p", "p"): {"1": 1, "p": 1, "q": 1}, ("p", "q"): {"p": 1, "r": 1},
    ("p", "r"): {"q": 1, "r": 1}, ("q", "q"): {"1": 1, "q": 1},
    ("q", "r"): {"p": 1}, ("r", "r"): {"1": 1}}


def test_finite_ring_fails_at_a_non_generator_triple():
    basis = ["1", "p", "q", "r"]
    fusion = {**OFF_GENERATORS, **{(b, a): v for (a, b), v in OFF_GENERATORS.items()}}
    mul = {**{(x, y): {y: 1} if x == "1" else {x: 1}
              for x in basis for y in basis if "1" in (x, y)}, **fusion}
    ring = explicit_ring(name="t", basis=basis, unit="1",
                         conj={x: x for x in basis}, dim={x: 1 for x in basis},
                         fusion={k: Element(v) for k, v in fusion.items()})
    assert generating_labels(ring) == ["p"]
    outcome = ordered_triple_scan(basis, basis, basis, mul, mul)
    verdict = check_ring_axioms(ring)
    assert verdict.data == outcome[1] == ("p", "q", "r")
    assert verdict.witness == _witness(outcome) == (
        "associativity fails at (p, q, r): (p⊗q)⊗r = 1 ⊕ q ⊕ r ≠ "
        "p⊗(q⊗r) = 1 ⊕ p ⊕ q")


# --- the pair pass and the dimension pass on explicit rings ----------------------

def _z5(changes):
    """Z/5 on g0…g4 as a plain table, unit pairs included, with ``changes``
    made to it, and its conjugation."""
    g = [f"g{k}" for k in range(5)]
    mul = {(g[i], g[j]): {g[(i + j) % 5]: 1} for i in range(5) for j in range(5)}
    mul.update(changes)
    return g, mul, {g[i]: g[-i % 5] for i in range(5)}


def _table_ring(basis, mul, conj, dim=None):
    return explicit_ring(name="t", basis=basis, unit=basis[0], conj=conj,
                         dim=dim or {x: 1 for x in basis},
                         fusion={k: Element(v) for k, v in mul.items()
                                 if basis[0] not in k})


# name → (changes to Z/5, the first failure the oracle names, its witness)
PAIR_PASS = {
    # g1 ⊗ g4 = 2·g0 is conj(g4) ⊗ g4, the last pair of the pass
    "unit coefficient at the last pair": (
        {("g1", "g4"): {"g0": 2}}, ("unit", ("g4", "g4"), 2, 1),
        "unit coefficient of conj(g4) ⊗ g4 is 2, expected 1"),
    # g1 ⊗ g3 is asked as a ⊗ b at (g1, g3), before any pair asks for it
    # as conj(b) ⊗ conj(a), so the conjugated side has two terms
    "conj not anti-multiplicative": (
        {("g1", "g3"): {"g2": 1, "g4": 1}},
        ("conj", ("g1", "g3"), {"g1": 1, "g3": 1}, {"g1": 1}),
        "conj(g1 ⊗ g3) = g1 ⊕ g3 ≠ conj(g3) ⊗ conj(g1) = g1"),
}


@pytest.mark.parametrize("case", sorted(PAIR_PASS))
def test_pair_pass_matches_the_scan(case):
    changes, first, witness = PAIR_PASS[case]
    basis, mul, conj = _z5(changes)
    outcome = ordered_pair_scan(basis, "g0", conj.get, mul)
    assert outcome == first
    if outcome[0] == "unit":
        (a, b), got, want = outcome[1:]
        text = f"unit coefficient of conj({a}) ⊗ {b} is {got}, expected {want}"
    else:
        (a, b), lhs, rhs = outcome[1:]
        text = f"conj({a} ⊗ {b}) = {_fmt(lhs)} ≠ conj({b}) ⊗ conj({a}) = {_fmt(rhs)}"
    verdict = check_ring_axioms(_table_ring(basis, mul, conj))
    assert verdict.data == outcome[1]
    assert verdict.witness == text == witness


# name → (changes to Z/5, its dimensions, the first failure the oracle names,
# its witness)
DIMENSION_PASS = {
    # d(g1) = d(g4) = 1/2 is conjugation invariant, and multiplicative on
    # every pair until (g1, g1) = g2
    "fractional dimension": (
        {}, {"g1": Fraction(1, 2), "g4": Fraction(1, 2)},
        ("fails", ("g1", "g1"), Fraction(1, 4), 1),
        "dimension not multiplicative at (g1, g1): d(g1)·d(g1) = 1/4 but Σ N·d = 1"),
    "a row of two labels": (
        {("g1", "g3"): {"g2": 1, "g4": 1}}, {},
        ("fails", ("g1", "g3"), 1, 2),
        "dimension not multiplicative at (g1, g3): d(g1)·d(g3) = 1 but Σ N·d = 2"),
}


@pytest.mark.parametrize("case", sorted(DIMENSION_PASS))
def test_dimension_pass_matches_the_scan(case):
    changes, dims, first, witness = DIMENSION_PASS[case]
    basis, mul, conj = _z5(changes)
    dim = {x: dims.get(x, 1) for x in basis}
    outcome = ordered_dimension_scan(basis, dim, mul)
    assert outcome == first
    (a, b), want, total = outcome[1:]
    verdict = check_dimension(_table_ring(basis, mul, conj, dim))
    assert verdict.data == outcome[1]
    assert verdict.witness == (f"dimension not multiplicative at ({a}, {b}): "
                               f"d({a})·d({b}) = {want} but Σ N·d = {total}") == witness


def test_lazy_pair_pass_raises_at_the_first_missing_product():
    # Z2 ∗ Z3 at depth 2, whose one missing product ga2 ⊗ ga is first asked
    # as conj(b) ⊗ conj(a) at (a2g, ag), 54th of the pass's 64 first asks;
    # the window and the unit checks ask for no product of two words of
    # length 2
    words = {_label(w): w for w in modular_words(4)}
    inverse = {"g": "g", "a": "a2", "a2": "a"}

    def conj(x):
        return _label(tuple(inverse[t] for t in reversed(words[x])))

    def rule(x, y):
        if (x, y) == ("ga2", "ga"):
            return None
        return {_label(modular_mul(words[x], words[y])): 1}

    def product(x, y):
        if rule(x, y) is None:
            raise InvalidInputError(f"no product at ({x}, {y})")
        return Element(rule(x, y))

    ring = BasedRing(name="Z2*Z3", unit="ε", dim=lambda x: 1, conj=conj,
                     product=product, generators=["g", "a", "a2"])
    window = ring.basis_up_to_depth(2)
    assert window == ["ε", "a", "a2", "g", "a2g", "ag", "ga", "ga2"]
    outcome = ordered_pair_scan(window, "ε", conj, LazyTable(rule))
    assert outcome == ("missing", ("ga2", "ga"))
    with pytest.raises(InvalidInputError, match=r"^no product at \(ga2, ga\)$"):
        check_ring_axioms(ring, 2)


# --- a failing module -------------------------------------------------------------

def test_failing_module_matches_the_scan():
    # a and a2 both swap j and k: based symmetry holds, but a ⊗ a = a2 acts
    # as a swap where a ⊗ (a ⊗ ·) is the identity
    z3 = group_ring(cyclic_group(3))
    swap = {"j": "k", "k": "j"}
    act = {(alpha, x): ({x: 1} if alpha == "e" else {swap[x]: 1})
           for alpha in z3.basis for x in swap}
    mul = {(x, y): dict(z3.product(x, y).items())
           for x in z3.basis for y in z3.basis}
    module = BasedModule(ring=z3, basis=["j", "k"], name="swap",
                         action={key: Element(v) for key, v in act.items()
                                 if key[0] != "e"})
    outcome = ordered_triple_scan(z3.basis, z3.basis, ["j", "k"], mul, act)
    verdict = check_module_axioms(module)
    assert verdict.data == outcome[1] == ("a", "a", "j")
    assert verdict.witness == _witness(outcome, "action") == (
        "action associativity fails at (a, a, j): a⊗(a⊗j) = j ≠ (a⊗a)⊗j = k")


# --- a free product whose labels first collide at word length 3 ------------------

def test_free_product_labels_first_collide_at_length_three():
    # Z3 on e, x, xyx and Z2 on f, y: every word of length ≤ 2 has its own
    # label, and x·y·x renders as the letter xyx
    z3 = {("e", "e"): "e", ("e", "x"): "x", ("e", "xyx"): "xyx",
          ("x", "x"): "xyx", ("x", "xyx"): "e", ("xyx", "xyx"): "x"}
    z3.update({(b, a): c for (a, b), c in list(z3.items())})
    z2 = {("f", "f"): "f", ("f", "y"): "y", ("y", "f"): "y", ("y", "y"): "f"}

    def ring(name, basis, unit, table):
        inverse = {a: next(b for b in basis if table[(a, b)] == unit) for a in basis}
        return explicit_ring(name=name, basis=basis, unit=unit, conj=inverse,
                             dim={a: 1 for a in basis},
                             fusion={k: Element.basis(v) for k, v in table.items()
                                     if unit not in k})

    def build():
        return free_product(ring("A", ["e", "x", "xyx"], "e", z3),
                            ring("B", ["f", "y"], "f", z2)).ring

    collision = first_window_collision(
        (lambda a, b: {z3[(a, b)]: 1}, lambda a, b: {z2[(a, b)]: 1}),
        ("e", "f"), [(0, "x"), (0, "xyx"), (1, "y")], 3)
    assert collision == ("xyx", ((0, "xyx"),), ((0, "x"), (1, "y"), (0, "x")))
    message = ("ambiguous label 'xyx' in A ∗ B: it stands for both "
               "((0, 'xyx'),) and ((0, 'x'), (1, 'y'), (0, 'x')); relabel a factor")
    assert build().basis_up_to_depth(2) == ["ε", "x", "xyx", "y", "xy", "xyxy",
                                           "yx", "yxyx"]
    for run in (lambda r: r.basis_up_to_depth(3), lambda r: check_ring_axioms(r, 3)):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            run(build())


# --- a lazy ring whose coefficients pass 2^63 at a known triple -----------------

K = 3037000500  # K² is the first square past 2^63


def test_lazy_ring_overflows_at_a_known_triple():
    # x_m ⊗ x_n = x_|m−n| ⊕ c·x_{m+n}, c = K once m + n ≥ 3: the rows stay in
    # range, and the first sum with K² is x1 ⊗ (x1 ⊗ x2), the α⊗(β⊗j) side
    def rule(x, y):
        m, n = int(x[1:]), int(y[1:])
        if 0 in (m, n):
            return {f"x{m + n}": 1}
        return {f"x{abs(m - n)}": 1, f"x{m + n}": K if m + n >= 3 else 1}

    ring = BasedRing(name="K-graded", unit="x0", conj=lambda a: a,
                     dim=lambda a: 1, product=lambda x, y: Element(rule(x, y)),
                     generators=["x1"])
    window = ring.basis_up_to_depth(2)
    assert window == ["x0", "x1", "x2"]
    table = LazyTable(rule)
    outcome = ordered_triple_scan(window, window, window, table, table)
    assert outcome == ("overflow", ("x1", "x1", "x2"), K * K)
    assert K * K > 2**63 - 1 > (K - 1) ** 2
    with pytest.raises(OverflowError, match=f"^coefficient {K * K} exceeds "
                                            r"the signed 64-bit range$"):
        check_ring_axioms(ring, 2)


# --- based symmetry: one ordered pass for finite and lazy modules ----------------

def _symmetry_witness(alpha, j, jp, forward):
    return (f"based symmetry fails at (α={alpha}, j={j}, j'={jp}): {j} ⊂ "
            f"{alpha}⊗{jp} is {forward} but {jp} ⊂ conj({alpha})⊗{j} is "
            f"{not forward}")


def _table_module(ring, basis, act, name):
    """A finite module acting by ``act``; a pair it lacks raises."""
    def action(alpha, j):
        if (alpha, j) not in act:
            raise InvalidInputError(f"no action for ({alpha}, {j})")
        return Element(act[(alpha, j)])

    return BasedModule(ring=ring, basis=basis, action=action, name=name)


def _with_unit(ring, basis, act):
    return {**{(ring.unit, j): {j: 1} for j in basis}, **act}


def test_lazy_module_first_asymmetric_at_a_later_j():
    # x_m ⊗ x_n by Clebsch–Gordan, except x1 ⊗ x2 = x3: the loop first
    # disagrees at j = x1, not at the first window label x0, and x3 lies
    # outside the window
    def rule(x, j):
        m, n = int(x[1:]), int(j[1:])
        if (m, n) == (1, 2):
            return {"x3": 1}
        return {f"x{k}": c for k, c in cg_tensor_oracle(m, n).items()}

    ring = BasedRing(name="CG", unit="x0", conj=lambda a: a, dim=lambda a: 1,
                     product=lambda x, y: Element(rule(x, y)), generators=["x1"])
    module = BasedModule(ring=ring, basis=None, name="twisted",
                         action=lambda x, j: Element(rule(x, j)),
                         window_fn=ring.basis_up_to_depth)
    window = ring.basis_up_to_depth(2)
    assert window == module.basis_up_to_depth(2) == ["x0", "x1", "x2"]
    outcome = ordered_symmetry_scan(window, lambda a: a, window, LazyTable(rule))
    assert outcome == ("fails", ("x1", "x1", "x2"))
    verdict = check_module_axioms(module, 2)
    assert verdict.data == outcome[1]
    assert verdict.witness == _symmetry_witness("x1", "x1", "x2", False)


FAILS_FIRST = {
    # a cycles j → k → l; a2 sends j to l, as its inverse does, but fixes
    # k: the loop fails at (a, k, j), a later j, before it asks for a2 ⊗ l
    "at a later j": ({("a", "j"): {"k": 1}, ("a", "k"): {"l": 1},
                      ("a", "l"): {"j": 1}, ("a2", "j"): {"l": 1},
                      ("a2", "k"): {"k": 1}}, ("a", "k", "j"), True),
    # j ⊂ a ⊗ k but k ⊄ a2 ⊗ j: the loop fails at (a, j, k), on the first
    # j, before it asks for a ⊗ l
    "at the first j": ({("a", "j"): {"k": 1}, ("a", "k"): {"j": 1},
                        ("a2", "j"): {"l": 1}}, ("a", "j", "k"), True),
}


@pytest.mark.parametrize("case", sorted(FAILS_FIRST))
def test_finite_module_fails_before_a_row_that_raises(case):
    act, first, forward = FAILS_FIRST[case]
    z3 = group_ring(cyclic_group(3))
    basis = ["j", "k", "l"]
    conj = {x: z3.conj(x) for x in z3.basis}
    outcome = ordered_symmetry_scan(z3.basis, conj.get, basis,
                                    _with_unit(z3, basis, act))
    assert outcome == ("fails", first)
    verdict = check_module_axioms(_table_module(z3, basis, act, case))
    assert verdict.data == first
    assert verdict.witness == _symmetry_witness(*first, forward)


RAISING = {
    # every non-unit row raises: the first one asked is g ⊗ j
    "every row": ("z2", ["j"], {}, ("g", "j")),
    # a ⊗ j is fine, and a2 ⊗ j = conj(a) ⊗ j is asked right after it,
    # before a ⊗ k, which raises too
    "conj(α) ⊗ j0": ("z3", ["j", "k"], {("a", "j"): {"j": 1}}, ("a2", "j")),
}


@pytest.mark.parametrize("case", sorted(RAISING))
def test_symmetry_raises_at_the_first_row_the_loop_asks_for(case):
    group, basis, act, first = RAISING[case]
    ring = (group_ring(cyclic_group(2, generator="g")) if group == "z2"
            else group_ring(cyclic_group(3)))
    conj = {x: ring.conj(x) for x in ring.basis}
    outcome = ordered_symmetry_scan(ring.basis, conj.get, basis,
                                    _with_unit(ring, basis, act))
    assert outcome == ("missing", first)
    module = _table_module(ring, basis, act, case)
    message = re.escape(f"no action for ({first[0]}, {first[1]})")
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        check_module_axioms(module)


# --- the module readers: dimension, components and intertwining ------------------

def _dims_witness(alpha, j, total, want):
    return (f"module dimension incompatible at ({alpha}, {j}): Σ N·d_J = "
            f"{total} but d({alpha})·d_J({j}) = {want}")


S3 = group_ring(symmetric_group_3())
POINTS = ["p0", "p1", "p2"]
# S3 permuting three points: each non-unit label's images of p0, p1 and p2
POINT_ACT = {(g, f"p{i}"): {f"p{image[i]}": 1}
             for g, image in {"r": (1, 2, 0), "t": (1, 0, 2), "rr": (2, 0, 1),
                              "rt": (2, 1, 0), "tr": (0, 2, 1)}.items()
             for i in range(3)}
# Z3 on j and k, with a ⊗ j = k and a2 ⊗ k = j only: the loop over α, then
# j, first asks for the missing a ⊗ k; the loop over j′, then α, for a2 ⊗ j
PARTIAL_Z3 = {("a", "j"): {"k": 1}, ("a2", "k"): {"j": 1}}


def test_module_dimension_fails_at_the_first_pair_of_the_scan():
    # d_J(p2) = 2 passes for the unit, then fails where r moves p1 to p2
    dims = {"p0": Fraction(1), "p1": Fraction(1), "p2": Fraction(2)}
    outcome = ordered_module_dimension_scan(
        S3.basis, POINTS, {x: 1 for x in S3.basis}, dims,
        _with_unit(S3, POINTS, POINT_ACT))
    assert outcome == ("fails", ("r", "p1"), 2, 1)
    verdict = check_module_dimension(
        BasedModule(ring=S3, basis=POINTS, action=POINT_ACT, name="points"), dims)
    assert verdict.data == outcome[1]
    assert verdict.witness == _dims_witness(*outcome[1], *outcome[2:]) == (
        "module dimension incompatible at (r, p1): Σ N·d_J = 2 but "
        "d(r)·d_J(p1) = 1")


def test_module_dimension_raises_at_the_first_row_the_loop_asks_for():
    z3 = group_ring(cyclic_group(3))
    dims = {"j": Fraction(1), "k": Fraction(1)}
    outcome = ordered_module_dimension_scan(
        z3.basis, ["j", "k"], {x: 1 for x in z3.basis}, dims,
        _with_unit(z3, ["j", "k"], PARTIAL_Z3))
    assert outcome == ("missing", ("a", "k"))
    module = _table_module(z3, ["j", "k"], PARTIAL_Z3, "partial")
    with pytest.raises(InvalidInputError, match=r"^no action for \(a, k\)$"):
        check_module_dimension(module, dims)


def test_components_match_the_scan_on_a_finite_module():
    # Z2 swapping m0 and m2 and fixing m1 and m3: three components, the
    # second and third of one label each
    z2 = group_ring(cyclic_group(2, generator="g"))
    basis = ["m0", "m1", "m2", "m3"]
    act = {("g", "m0"): {"m2": 1}, ("g", "m1"): {"m1": 1},
           ("g", "m2"): {"m0": 1}, ("g", "m3"): {"m3": 1}}
    outcome = ordered_component_scan(z2.basis, basis, _with_unit(z2, basis, act))
    assert outcome == ("components", [["m0", "m2"], ["m1"], ["m3"]])
    module = BasedModule(ring=z2, basis=basis, action=act, name="swap")
    assert connected_components(module) == outcome[1]


def test_components_match_the_scan_on_a_lazy_window():
    # SU2 restricted to its even labels: at depth 3 the window x0 … x3 falls
    # into the even and the odd labels, and x4 … x6 lie outside it
    embedding = so3_subring(su2_ring())
    depth = 3
    alphas = embedding.sub.basis_up_to_depth(depth)
    window = embedding.ambient.basis_up_to_depth(depth)
    assert alphas == ["x0", "x2", "x4", "x6"] and window == ["x0", "x1", "x2", "x3"]
    act = LazyTable(lambda s, j: {f"x{k}": c for k, c in cg_tensor_oracle(
        int(s[1:]), int(j[1:])).items()})
    outcome = ordered_component_scan(alphas, window, act)
    assert outcome == ("components", [["x0", "x2"], ["x1", "x3"]])
    assert coset_classes(embedding, depth) == outcome[1]


def test_components_raise_at_the_first_row_the_loop_asks_for():
    z3 = group_ring(cyclic_group(3))
    outcome = ordered_component_scan(z3.basis, ["j", "k"],
                                     _with_unit(z3, ["j", "k"], PARTIAL_Z3))
    assert outcome == ("missing", ("a2", "j"))
    module = _table_module(z3, ["j", "k"], PARTIAL_Z3, "partial")
    with pytest.raises(InvalidInputError, match=r"^no action for \(a2, j\)$"):
        connected_components(module)


# the three points sent to e, r and rr of S3 acting on itself: the unit and
# r, which cycles the points as it cycles e, r and rr, agree; t does not
POINTS_TO_S3 = {"p0": "e", "p1": "r", "p2": "rr"}


def _points_to_s3_scan():
    ring_act = {(x, y): dict(S3.product(x, y).items())
                for x in S3.basis for y in S3.basis}
    outcome = ordered_intertwining_scan(S3.basis, POINTS, POINTS_TO_S3,
                                        _with_unit(S3, POINTS, POINT_ACT), ring_act)
    assert outcome == ("fails", ("t", "p0"), {"r": 1}, {"t": 1})
    return outcome


def test_first_nonintertwining_matches_the_scan():
    outcome = _points_to_s3_scan()
    module = BasedModule(ring=S3, basis=POINTS, action=POINT_ACT, name="points")
    alpha, x, lhs, rhs = first_nonintertwining(POINTS_TO_S3.__getitem__, module,
                                               S3, S3.basis, POINTS)
    assert ((alpha, x), dict(lhs.items()), dict(rhs.items())) == outcome[1:]


def test_standardize_fails_at_the_first_pair_of_the_scan():
    # the classes of A3 as a certificate of S3 in itself induce the regular
    # module from the three points; the map read from the unit block is
    # POINTS_TO_S3, and the first pair it fails at is the scan's
    outcome = _points_to_s3_scan()
    certificate = DivisibilityCertificate(
        embedding=identity_embedding(S3), classes=("e", "t"), verified_depth=4,
        factorization={"e": ("e", "e"), "r": ("e", "r"), "rr": ("e", "rr"),
                       "t": ("t", "e"), "rt": ("t", "r"), "tr": ("t", "rr")})
    module = BasedModule(ring=S3, basis=POINTS, action=POINT_ACT, name="points")
    verdict = standardize_from_induced(induce(module, certificate))
    (alpha, x), lhs, rhs = outcome[1:]
    assert verdict.data == (alpha, x)
    assert verdict.witness == (
        f"extracted map does not intertwine at ({alpha}, {x}): {_fmt(lhs)} ≠ "
        f"{_fmt(rhs)}") == "extracted map does not intertwine at (t, p0): r ≠ t"


# name → (the left module's rows, the right module's, the first row the
# scan finds missing); the map swaps j and k, and a ⊗ j = j on the left goes
# to k = a ⊗ k on the right
INTERTWINING_RAISES = {
    # at (a, k) the left a ⊗ k and the right a ⊗ f(k) = a ⊗ j are both
    # missing: the left row is asked first
    "left before right": ({("a", "j"): {"j": 1}}, {("a", "k"): {"k": 1}},
                          ("left", ("a", "k"))),
    "right at f(x)": ({("a", "j"): {"j": 1}, ("a", "k"): {"k": 1}},
                      {("a", "k"): {"k": 1}}, ("right", ("a", "j"))),
}


@pytest.mark.parametrize("case", sorted(INTERTWINING_RAISES))
def test_first_nonintertwining_raises_at_the_first_row_the_loop_asks_for(case):
    left, right, first = INTERTWINING_RAISES[case]
    z3 = group_ring(cyclic_group(3))
    basis, f = ["j", "k"], {"j": "k", "k": "j"}
    outcome = ordered_intertwining_scan(z3.basis, basis, f,
                                        _with_unit(z3, basis, left),
                                        _with_unit(z3, basis, right))
    assert outcome == ("missing", *first)
    modules = [_table_module(z3, basis, act, name)
               for act, name in ((left, "left"), (right, "right"))]
    message = re.escape(f"no action for ({first[1][0]}, {first[1][1]})")
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        first_nonintertwining(f.__getitem__, *modules, z3.basis, basis)
