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
    explicit_ring,
    generating_labels,
    group_ring,
    connected_components,
    is_cofinite,
    is_standard,
    is_torsion,
    restrict,
    standard_module,
    symmetric_group_3,
)
from fusionkit.constructions import rep_ring, s3_character_table
from fusionkit import SubringEmbedding
from oracles import cyclic_mul_oracle, first_module_failure, s3_mul_oracle


def test_standard_module_axioms(z2, z4, s3):
    for ring in (z2, z4, s3):
        assert check_module_axioms(standard_module(ring), 4).is_holds


def test_regular_action(std_z2):
    assert std_z2.action("g", "e") == Element.basis("g")
    assert act(std_z2, Element({"g": 1, "e": 1}), Element.basis("g")) == \
        Element({"e": 1, "g": 1})


def test_rank1_module(rank1_z2):
    assert check_module_axioms(rank1_z2, 4).is_holds
    # linearity over the unique rank-1 solution
    assert act(rank1_z2, Element({"g": 1, "e": 1}), Element.basis("j")) == \
        Element({"j": 2})


def test_rank1_over_z3(rank1_z3):
    assert check_module_axioms(rank1_z3, 4).is_holds


def test_rank0_rejected(z2):
    with pytest.raises(InvalidInputError):
        BasedModule(ring=z2, basis=[], action={})


def test_doubling_action_fails_associativity(z2):
    m = BasedModule(ring=z2, basis=["j"],
                    action={("g", "j"): Element({"j": 2})})
    verdict = check_module_axioms(m, 4)
    assert verdict.is_fails
    assert verdict.data == ("g", "g", "j")
    assert "4·j" in verdict.witness


def test_missing_action_entry_rejected(z4):
    with pytest.raises(InvalidInputError):
        BasedModule(ring=z4, basis=["j"],
                    action={("a", "j"): Element.basis("j")})


def test_cofinite_finite_ring(rank1_z2, s3):
    assert is_cofinite(rank1_z2, 4).is_holds
    assert is_cofinite(standard_module(s3), 4).is_holds


def test_cofinite_lazy_ring_unknown(su2):
    verdict = is_cofinite(standard_module(su2), 8)
    assert verdict.is_unknown and verdict.bound == 8


def test_components_of_restricted_z4(z2, z4, std_z4):
    emb = SubringEmbedding(sub=z2, ambient=z4, mapping={"e": "e", "g": "a2"})
    restricted = restrict(std_z4, emb)
    parts = connected_components(restricted, 4)
    assert parts == [["e", "a2"], ["a", "a3"]]


def test_standard_module_connected(s3):
    assert len(connected_components(standard_module(s3), 4)) == 1


def test_direct_sum_two_components(z2):
    m = BasedModule(ring=z2, basis=["j1", "j2"],
                    action={("g", "j1"): Element.basis("j1"),
                            ("g", "j2"): Element.basis("j2")})
    assert len(connected_components(m, 4)) == 2
    verdict = is_torsion(m, 4)
    assert verdict.is_fails and "components" in verdict.witness


def test_rank1_is_torsion(rank1_z2):
    assert is_torsion(rank1_z2, 4).is_holds


def test_standard_detection_identity():
    ring = rep_ring(s3_character_table())
    verdict = is_standard(standard_module(ring), 4)
    assert verdict.is_holds
    assert verdict.data == {b: b for b in ring.basis}


def test_standard_detection_rank_mismatch(rank1_z2):
    verdict = is_standard(rank1_z2, 4)
    assert verdict.is_fails
    assert "rank 1 ≠ rank 2" in verdict.witness


def test_standard_witness_roundtrip(z4):
    # relabeled copy of the regular module must be recognized with a
    # coefficient-exact witness
    relabel = {b: f"m{i}" for i, b in enumerate(z4.basis)}
    table = {}
    for alpha in z4.basis:
        if alpha == z4.unit:
            continue
        for b in z4.basis:
            table[(alpha, relabel[b])] = z4.product(alpha, b).map_basis(
                lambda x: relabel[x])
    m = BasedModule(ring=z4, basis=list(relabel.values()), action=table)
    verdict = is_standard(m, 4)
    assert verdict.is_holds
    mapping = verdict.data
    for alpha in z4.basis:
        for j in m.basis:
            assert m.action(alpha, j).map_basis(lambda x: mapping[x]) == \
                z4.product(alpha, mapping[j])


def test_finite_module_over_lazy_ring_not_standard(su2):
    m = BasedModule(ring=su2, basis=["j"],
                    action=lambda alpha, j: Element.basis("j"))
    verdict = is_standard(m, 4)
    assert verdict.is_fails


def test_based_symmetry_failure_detected(z4):
    # a acts as a shift but conj(a) = a3 does not reverse it
    table = {}
    shift = {"e": "a", "a": "a2", "a2": "a3", "a3": "e"}
    for alpha in ("a", "a2", "a3"):
        for j in z4.basis:
            if alpha == "a":
                table[(alpha, j)] = Element.basis(shift[j])
            else:
                table[(alpha, j)] = Element.basis(j)
    m = BasedModule(ring=z4, basis=list(z4.basis), action=table)
    verdict = check_module_axioms(m, 4)
    assert verdict.is_fails


# --- module axioms against the full sweep ---------------------------------------

def _group_case(group, rule, generators):
    ring = group_ring(group)
    mul = {(a, b): rule(a, b) for a in ring.basis for b in ring.basis}
    conj = {a: next(b for b in ring.basis if mul[(a, b)] == {ring.unit: 1})
            for a in ring.basis}
    return ring, mul, conj, generators


S3_GROUP = symmetric_group_3()
GROUP_CASES = [_group_case(cyclic_group(n), cyclic_mul_oracle(n), ["a"])
               for n in (2, 3, 4)] + [
    _group_case(S3_GROUP, s3_mul_oracle(S3_GROUP.elements), ["r", "t"])]


@st.composite
def group_actions(draw):
    """A finite module over Z/n or S3: random permutations for the
    generators, spread to every element along products (a G-set when the
    permutations obey the group's relations), perhaps with entries
    redrawn as random 0/1 vectors."""
    ring, mul, conj, generators = draw(st.sampled_from(GROUP_CASES))
    basis = [f"j{i}" for i in range(draw(st.integers(1, 3)))]
    images = {ring.unit: tuple(range(len(basis)))}
    for g in generators:
        images[g] = tuple(draw(st.permutations(range(len(basis)))))
    frontier = list(images)
    while frontier:
        x = frontier.pop(0)
        for g in generators:
            (y,) = mul[(x, g)]
            if y not in images:
                images[y] = tuple(images[x][images[g][i]] for i in range(len(basis)))
                frontier.append(y)
    action = {(a, j): {basis[images[a][i]]: 1}
              for a in ring.basis for i, j in enumerate(basis)}
    for _ in range(draw(st.integers(0, 2))):
        alpha = draw(st.sampled_from([a for a in ring.basis if a != ring.unit]))
        j = draw(st.sampled_from(basis))
        action[(alpha, j)] = {k: 1 for k in basis if draw(st.booleans())}
    return ring, mul, conj, basis, action


def _module(ring, basis, action):
    return BasedModule(ring=ring, basis=basis, name="m", action={
        (a, j): Element(v) for (a, j), v in action.items() if a != ring.unit})


def _assert_matches_full_sweep(verdict, expected):
    assert verdict.is_holds == (expected is None), verdict
    if expected is not None:
        axiom, at = expected
        assert verdict.data == at
        prefix = ("based symmetry fails" if axiom == "symmetry"
                  else "action associativity fails")
        assert verdict.witness.startswith(f"{prefix} at ")


@settings(max_examples=150, deadline=None)
@given(group_actions())
def test_module_verdict_and_witness_match_the_full_sweep(case):
    ring, mul, conj, basis, action = case
    _assert_matches_full_sweep(
        check_module_axioms(_module(ring, basis, action)),
        first_module_failure(list(ring.basis), conj, mul, basis, action))


def test_module_over_a_non_associative_ring_gets_the_full_sweep():
    # x generates this ring, and α = x passes α ⊗ (β ⊗ j) = (α ⊗ β) ⊗ j,
    # but the ring is not associative, so that proves nothing about α = y
    basis = ["1", "x", "y"]
    products = {("x", "x"): {"1": 1, "x": 1, "y": 1}, ("x", "y"): {"x": 1},
                ("y", "x"): {"x": 1}, ("y", "y"): {"1": 1, "x": 1}}
    ring = explicit_ring(name="r", basis=basis, unit="1",
                         conj={a: a for a in basis}, dim={a: 1 for a in basis},
                         fusion={k: Element(v) for k, v in products.items()})
    assert generating_labels(ring) == ["x"]
    assert check_ring_axioms(ring).is_fails
    mul = {(a, b): {b: 1} if a == "1" else {a: 1} if b == "1" else products[(a, b)]
           for a in basis for b in basis}
    action = {("x", "j"): {"j": 1, "k": 1}, ("x", "k"): {"j": 1, "k": 1},
              ("y", "j"): {"k": 1}, ("y", "k"): {"j": 1},
              ("1", "j"): {"j": 1}, ("1", "k"): {"k": 1}}
    expected = first_module_failure(basis, {a: a for a in basis}, mul,
                                    ["j", "k"], action)
    assert expected == ("associativity", ("y", "y", "j"))
    _assert_matches_full_sweep(
        check_module_axioms(_module(ring, ["j", "k"], action)), expected)


def test_based_symmetry_over_a_non_involutive_conj():
    # conj(a) = b = conj(b), and a ⊗ j = 0 while b ⊗ j = j: the one-way
    # test "j ⊂ α ⊗ j' ⇒ j' ⊂ conj(α) ⊗ j" passes, the two-way one fails
    basis = ["e", "a", "b"]
    conj = {"e": "e", "a": "b", "b": "b"}
    ring = explicit_ring(name="r", basis=basis, unit="e", conj=conj,
                         dim={x: 1 for x in basis},
                         fusion={(x, y): Element.basis("e")
                                 for x in "ab" for y in "ab"})
    mul = {(x, y): {"e": 1} if "e" not in (x, y) else {x if y == "e" else y: 1}
           for x in basis for y in basis}
    action = {("e", "j"): {"j": 1}, ("a", "j"): {}, ("b", "j"): {"j": 1}}
    expected = first_module_failure(basis, conj, mul, ["j"], action)
    assert expected == ("symmetry", ("a", "j", "j"))
    _assert_matches_full_sweep(
        check_module_axioms(_module(ring, ["j"], action)), expected)
