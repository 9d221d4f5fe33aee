"""The id-row associativity sweep against an independent oracle.

``oracles.ordered_triple_scan`` runs the same ordered sweep over plain dict
tables, with no fusionkit import.  For each case below the check's first
witness, or its first exception, must be the one the scan names, and both
are pinned as text.
"""

import re

import pytest

from fusionkit import (
    BasedModule,
    BasedRing,
    Element,
    InvalidInputError,
    check_module_axioms,
    check_ring_axioms,
    cyclic_group,
    explicit_ring,
    free_product,
    generating_labels,
    group_ring,
)
from oracles import (
    LazyTable,
    first_window_collision,
    modular_mul,
    modular_words,
    ordered_triple_scan,
)


def _witness(outcome, kind="associativity"):
    """The witness text of a ("fails", …) outcome of the scan."""
    _, (a, b, c), nested, flat = outcome

    def fmt(value):
        return " ⊕ ".join(x if n == 1 else f"{n}·{x}"
                          for x, n in sorted(value.items())) or "0"
    if kind == "associativity":
        return (f"associativity fails at ({a}, {b}, {c}): ({a}⊗{b})⊗{c} = "
                f"{fmt(flat)} ≠ {a}⊗({b}⊗{c}) = {fmt(nested)}")
    return (f"action associativity fails at ({a}, {b}, {c}): {a}⊗({b}⊗{c}) = "
            f"{fmt(nested)} ≠ ({a}⊗{b})⊗{c} = {fmt(flat)}")


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
