import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fusionkit import (
    BasedModule,
    Element,
    FiniteGroupPresentation,
    InvalidInputError,
    act,
    check_module_axioms,
    check_ring_axioms,
    cyclic_group,
    explicit_ring,
    find_intertwiner,
    free_product,
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
from fusionkit import SubringEmbedding, rings
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


def test_lazy_module_with_an_action_table_rejected(su2):
    with pytest.raises(InvalidInputError,
                       match="module lazy: a lazy basis needs a callable action"):
        BasedModule(ring=su2, basis=None, name="lazy",
                    action={("x1", "x0"): Element.basis("x1")},
                    window_fn=su2.basis_up_to_depth)


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


def test_a_cold_standard_module_check_fills_each_product_once(monkeypatch):
    # the standard module reads its ring's rows, so only the ring fills a
    # row, each once, and the unit's row is never filled
    ring = free_product(group_ring(cyclic_group(2, generator="g")),
                        group_ring(cyclic_group(3))).ring
    filled = []
    original = rings.Based._fill

    def counted(self, a, x):
        filled.append((self, self._ring_ids.labels[a], self._ids.labels[x]))
        return original(self, a, x)

    monkeypatch.setattr(rings.Based, "_fill", counted)
    assert check_module_axioms(standard_module(ring), 4).is_holds
    pairs = [(a, x) for _, a, x in filled]
    assert all(obj is ring for obj, _, _ in filled)
    assert len(pairs) == len(set(pairs)) == len(ring.stored_pairs())


def test_a_table_module_is_freed_without_the_cyclic_collector(su2):
    # over a lazy ring an action table may leave a pair out; its lookup
    # names the module without holding it
    gc.collect()
    gc.disable()
    try:
        m = BasedModule(ring=su2, basis=["j"], name="partial",
                        action={("x1", "j"): Element.basis("j")})
        assert m.action("x1", "j") == Element.basis("j")
        with pytest.raises(InvalidInputError,
                           match=r"^module partial: action undefined for \(x2, j\)$"):
            m.action("x2", "j")
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        gc.enable()


def test_the_unit_acts_on_a_label_no_row_has_named_yet(su2):
    # a lazy module's unit row is the identity, read for any label
    m = BasedModule(ring=su2, basis=None, name="lazy", action=su2.product,
                    window_fn=su2.basis_up_to_depth)
    assert m.action("x0", "x7") == Element.basis("x7")
    assert m.action("x0", "x7") == m.action("x0", "x7")


# --- the intertwiner witness against the backtracking oracle ---------------------

def _table_ring(table):
    labels = [f"g{i}" for i in range(len(table))]
    return group_ring(FiniteGroupPresentation(labels, {
        (labels[x], labels[y]): labels[table[x][y]]
        for x in range(len(table)) for y in range(len(table))}))


GSET_CASES = [(_table_ring(t), t, oracles.subgroups(t)) for t in
              [oracles.cyclic_table(n) for n in range(2, 7)]
              + [oracles.permutation_table(3), oracles.klein_table()]]
Z2_RING = GSET_CASES[0][0]
REP_S3 = rep_ring(s3_character_table())
# the connected based modules of Rep(S3) at rank ≤ 3 with coefficients ≤ 2,
# as {(label, j): row}; std's rows hold several labels
REP_S3_BLOCKS = [
    {("sgn", 0): {0: 1}, ("std", 0): {0: 2}},
    {("sgn", 0): {1: 1}, ("sgn", 1): {0: 1},
     ("std", 0): {0: 1, 1: 1}, ("std", 1): {0: 1, 1: 1}},
    {("sgn", 0): {0: 1}, ("sgn", 1): {1: 1},
     ("std", 0): {1: 2}, ("std", 1): {0: 1, 1: 1}},
    {("sgn", 0): {0: 1}, ("sgn", 1): {1: 1},
     ("std", 0): {1: 1}, ("std", 1): {0: 2, 1: 1}},
    {("sgn", 0): {2: 1}, ("sgn", 1): {1: 1}, ("sgn", 2): {0: 1},
     ("std", 0): {1: 1}, ("std", 1): {0: 1, 1: 1, 2: 1}, ("std", 2): {1: 1}},
    {("sgn", 0): {0: 1}, ("sgn", 1): {1: 1}, ("sgn", 2): {2: 1},
     ("std", 0): {1: 1, 2: 1}, ("std", 1): {0: 1, 2: 1},
     ("std", 2): {0: 1, 1: 1}},
]
LABEL_POOL = [a + b for a in "pqrs" for b in "uvwxyz"]


def _direct_sum(blocks):
    """Blocks {(α, i): {i': c}} on 0..r-1, side by side on 0..Σr-1."""
    table, offset = {}, 0
    for block in blocks:
        for (alpha, i), row in block.items():
            table[(alpha, offset + i)] = {offset + k: c for k, c in row.items()}
        offset += 1 + max(i for _, i in block)
    return table, offset


def _named(draw, ring, table, rank):
    """The table on ``rank`` labels drawn from the pool, in a drawn order,
    with the unit rows and the zero rows filled in."""
    names = draw(st.permutations(LABEL_POOL))[:rank]
    full = {(alpha, names[i]): {names[k]: c for k, c in
                                table.get((alpha, i), {}).items() if c}
            for alpha in ring.basis for i in range(rank)}
    for j in names:
        full[(ring.unit, j)] = {j: 1}
    return names, full


@st.composite
def gset_pairs(draw):
    """Disjoint unions of coset spaces G/K of rank ≤ 8 over Z/n (n ≤ 6), S3
    and Z2×Z2, against a union of conjugates of the same K (isomorphic) or of other
    subgroups, each on drawn labels."""
    ring, table, subs = draw(st.sampled_from(GSET_CASES))
    n = len(table)
    small = [k for k in subs if n // len(k) <= 6]
    unions = st.lists(st.sampled_from(small), min_size=1, max_size=3).filter(
        lambda pieces: sum(n // len(k) for k in pieces) <= 8)

    def union(pieces):
        blocks = []
        for k in pieces:
            _, perm = oracles.left_cosets(table, k)
            blocks.append({(ring.basis[g], i): {perm[g][i]: 1}
                           for g in range(1, n) for i in range(n // len(k))})
        return _direct_sum(blocks)

    pieces = draw(unions)
    if draw(st.booleans()):
        other = [oracles.conjugate(table, draw(st.integers(0, n - 1)), k)
                 for k in pieces]
    else:
        other = draw(unions)
    return ring, [(_named(draw, ring, *union(pieces)),
                   _named(draw, ring, *union(other)))]


@st.composite
def rep_s3_pairs(draw):
    """Direct sums of Rep(S3) modules of rank ≤ 5, against a reordering of
    the same summands or other summands."""
    blocks = draw(st.lists(st.sampled_from(REP_S3_BLOCKS), min_size=1,
                           max_size=3).filter(lambda b: _direct_sum(b)[1] <= 5))
    if draw(st.booleans()):
        other = draw(st.permutations(blocks))
    else:
        other = draw(st.lists(st.sampled_from(REP_S3_BLOCKS), min_size=1,
                              max_size=3).filter(lambda b: _direct_sum(b)[1] <= 5))
    return REP_S3, [(_named(draw, REP_S3, *_direct_sum(blocks)),
                     _named(draw, REP_S3, *_direct_sum(other)))]


@st.composite
def table_pairs(draw):
    """Arbitrary non-negative tables over Z/2 and Rep(S3) at rank ≤ 5: a
    table against a relabelling of itself, perhaps with one entry redrawn,
    or against another table.  A table is random, a circulant over Z/2
    (g·mᵢ = Σ_d mᵢ₊d), or copies of one random block, whose swaps leave
    several bijections for the search to choose from."""
    ring = draw(st.sampled_from([Z2_RING, REP_S3]))
    rank = draw(st.integers(1, 5))
    alphas = [a for a in ring.basis if a != ring.unit]
    cell = st.integers(0, 2)

    def block(size):
        return {(a, i): {k: draw(cell) for k in range(size)
                         if draw(st.integers(0, 2)) == 0}
                for a in alphas for i in range(size)}

    def table():
        kind = draw(st.sampled_from(["random", "circulant", "copies"]))
        if kind == "circulant" and ring is Z2_RING:
            offsets = draw(st.lists(st.integers(0, rank - 1), max_size=3))
            return {(alphas[0], i): {(i + d) % rank: offsets.count(d)
                                     for d in offsets} for i in range(rank)}
        if kind == "copies" and rank > 1:
            size = draw(st.integers(1, rank // 2))
            copies = _direct_sum([block(size)] * (rank // size))[0]
            return {**block(rank), **copies}
        return block(rank)

    first = table()
    second = draw(st.sampled_from([dict(first), table()]))
    if draw(st.booleans()):
        second[(draw(st.sampled_from(alphas)), draw(st.integers(0, rank - 1)))] = \
            {draw(st.integers(0, rank - 1)): draw(cell)}
    return ring, [(_named(draw, ring, first, rank),
                   _named(draw, ring, second, rank))]


@st.composite
def block_copy_pairs(draw):
    """Over Z/2 at rank ≤ 6: two copies of a rank-2 block beside a block of
    rank ≤ 2, in a drawn order, with entries 0 or one coefficient 1 or 2,
    the blocks symmetric or not; four pairs of relabellings of that sum.
    Equal copies leave several bijections, so the first one found depends
    on the order the search takes the labels in.  A loop with a leaf beside
    a lone loop gives labels equal in every row and column value but their
    own coefficient, and a one-way edge gives labels equal in their rows
    but not in their columns."""
    c = draw(st.integers(1, 2))
    symmetric = draw(st.booleans())

    def block(size):
        cells = {(i, k): draw(st.booleans())
                 for i in range(size) for k in range(size)}
        return {("g1", i): {k: c for k in range(size)
                            if cells[(min(i, k), max(i, k)) if symmetric
                                     else (i, k)]}
                for i in range(size)}

    pair = block(2)
    table, rank = _direct_sum(draw(st.permutations(
        [pair, pair, block(draw(st.integers(1, 2)))])))
    return Z2_RING, [(_named(draw, Z2_RING, table, rank),
                      _named(draw, Z2_RING, table, rank)) for _ in range(4)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(gset_pairs(), rep_s3_pairs(), table_pairs(),
                 block_copy_pairs()))
def test_find_intertwiner_witness_contract(case):
    # the first bijection, or None, is the backtracking oracle's
    ring, pairs = case
    for (basis1, table1), (basis2, table2) in pairs:
        expected = oracles.intertwiner_oracle(list(ring.basis), basis1, table1,
                                              basis2, table2)
        assert find_intertwiner(_module(ring, basis1, table1),
                                _module(ring, basis2, table2)) == expected


# over Z/2, g's rows: a search without the column check misses the first, and
# signatures without the column part or without g's own coefficient order
# the labels differently and find another bijection first
Z2_FIRST_WITNESS_CASES = [
    ({"rw": {}, "ru": {"rw": 1, "ru": 1}, "sx": {}, "qu": {"sx": 1, "qu": 1}},
     {"rv": {}, "rx": {"rv": 1, "rx": 1}, "qu": {}, "pz": {"qu": 1, "pz": 1}}),
    ({"rw": {}, "qy": {}, "ry": {"rw": 1}, "rv": {}, "rx": {}, "sy": {"rv": 1}},
     {"qw": {}, "ry": {}, "qx": {"qw": 1}, "rw": {}, "rz": {}, "qy": {"rw": 1}}),
    ({"su": {"su": 2, "pv": 1}, "pv": {"su": 1}, "ru": {"ru": 2, "sw": 1},
      "sw": {"ru": 1}, "qz": {"qz": 1}},
     {"pw": {"pw": 2, "qz": 1}, "qz": {"pw": 1}, "rz": {"rz": 1},
      "qu": {"qu": 2, "ry": 1}, "ry": {"qu": 1}}),
]


@pytest.mark.parametrize("rows1, rows2", Z2_FIRST_WITNESS_CASES)
def test_find_intertwiner_first_witness_cases(rows1, rows2):
    tables = [{**{("g0", j): {j: 1} for j in rows},
               **{("g1", j): row for j, row in rows.items()}}
              for rows in (rows1, rows2)]
    expected = oracles.intertwiner_oracle(list(Z2_RING.basis), list(rows1),
                                          tables[0], list(rows2), tables[1])
    assert expected is not None
    assert find_intertwiner(_module(Z2_RING, list(rows1), tables[0]),
                            _module(Z2_RING, list(rows2), tables[1])) == expected


def test_equal_signatures_without_intertwiner():
    # g·mᵢ = mᵢ₊₁ ⊕ mᵢ₊₂ against g·mᵢ = mᵢ₊₁ ⊕ mᵢ₋₁, indices mod 4: every
    # row and column holds two ones, but only the second is symmetric
    basis = [f"m{i}" for i in range(4)]
    tables = [{("g0", basis[i]): {basis[i]: 1} for i in range(4)}
              for _ in range(2)]
    for table, offsets in zip(tables, [(1, 2), (1, 3)]):
        for i in range(4):
            table[("g1", basis[i])] = {basis[(i + d) % 4]: 1 for d in offsets}
    window = list(Z2_RING.basis)
    signatures = [Counter(oracles._action_signature(window, basis, t, j)
                          for j in basis) for t in tables]
    assert signatures[0] == signatures[1]
    assert oracles.intertwiner_oracle(window, basis, tables[0],
                                      basis, tables[1]) is None
    assert find_intertwiner(*(_module(Z2_RING, basis, t) for t in tables)) is None


def _cyclic_docs(n, letter, point):
    """The documents of an explicit Z/n on ``letter``0 … and of its regular
    module on ``point``0 …: n − 1 fusion entries and n action entries per
    non-unit label."""
    basis, points = [f"{letter}{k}" for k in range(n)], [f"{point}{k}" for k in range(n)]
    ring_doc = {"kind": "explicit_ring", "basis": basis, "unit": basis[0],
                "conj": {basis[k]: basis[-k % n] for k in range(n)},
                "dim": {x: 1 for x in basis},
                "fusion": [[basis[i], basis[j], {basis[(i + j) % n]: 1}]
                           for i in range(1, n) for j in range(1, n)]}
    module_doc = {"kind": "module", "ring": ring_doc, "basis": points,
                  "action": [[basis[i], points[j], {points[(i + j) % n]: 1}]
                             for i in range(1, n) for j in range(n)]}
    return ring_doc, module_doc


def _count_elements(monkeypatch):
    """A list that grows by one for each Element made until
    ``monkeypatch.undo()``.

    Every Element is made by __init__, from_sums or basis.  Patching
    __new__ instead would count the same, but CPython cannot give the class
    back its inherited __new__ afterwards, and every later Element(...)
    would raise."""
    built = []

    def counted(make):
        def making(*args, **kwargs):
            built.append(args)
            return make(*args, **kwargs)
        return making

    monkeypatch.setattr(Element, "__init__", counted(Element.__init__))
    for name in ("from_sums", "basis"):
        monkeypatch.setattr(Element, name, staticmethod(counted(getattr(Element, name))))
    return built


def test_loading_a_module_document_builds_no_element(monkeypatch):
    # the regular module of an explicit Z/48: 47 · 48 = 2256 action entries,
    # loaded and validated over the ring its session already holds
    from fusionkit.serialize import load_doc, load_session
    ring_doc, module_doc = _cyclic_docs(48, "a", "m")
    with load_session():
        ring = load_doc(ring_doc)
        built = _count_elements(monkeypatch)
        module = load_doc(module_doc)
        monkeypatch.undo()
    assert len(module_doc["action"]) == 2256 and module.ring is ring
    assert len(built) == 0
    assert module.action("a5", "m45") == Element.basis("m2")


def test_module_readers_build_no_element(monkeypatch):
    # the module readers read id rows: on the loaded regular Z/48 module,
    # and on the module induced from the regular module of Z/24 along
    # b_k ↦ a_2k, whose action rows the axiom check fills
    from fusionkit import find_divisibility_certificate, induce
    from fusionkit.modules import check_module_dimension
    from fusionkit.serialize import load_doc, load_session
    ring_doc, module_doc = _cyclic_docs(48, "a", "m")
    sub_doc, source_doc = _cyclic_docs(24, "b", "s")
    embedding_doc = {"kind": "embedding", "sub": sub_doc, "ambient": ring_doc,
                     "map": {f"b{k}": f"a{2 * k}" for k in range(24)}}
    with load_session():
        ring, module, embedding, source = map(
            load_doc, (ring_doc, module_doc, embedding_doc, source_doc))
    certificate = find_divisibility_certificate(embedding).certificate
    target = standard_module(ring)
    built = _count_elements(monkeypatch)
    dimension = check_module_dimension(module, {j: 1 for j in module.basis})
    components = connected_components(module)
    witness = find_intertwiner(module, target)
    induced = induce(source, certificate)
    axioms = check_module_axioms(induced)
    monkeypatch.undo()
    assert len(built) == 0
    assert dimension.is_holds and axioms.is_holds
    assert components == [list(module.basis)]
    assert witness == {f"m{k}": f"a{k}" for k in range(48)}
    assert sum(map(len, induced._rows.values())) == 48 * 48  # every action row


def test_restricting_and_decomposing_builds_no_element_per_row(monkeypatch):
    # a restriction reads its source's rows on the source's label ids: the
    # loaded regular Z/48 module restricted along the identity embedding,
    # checked and split into its one summand, builds no Element
    from fusionkit import identity_embedding, restrict_and_decompose
    from fusionkit.serialize import load_doc, load_session
    ring_doc, module_doc = _cyclic_docs(48, "a", "m")
    with load_session():
        ring, module = load_doc(ring_doc), load_doc(module_doc)
    embedding = identity_embedding(ring)
    built = _count_elements(monkeypatch)
    summands = restrict_and_decompose(module, embedding)
    monkeypatch.undo()
    assert len(built) == 0
    assert [s.basis for s in summands] == [module.basis]
    assert summands[0].action("a5", "m45") == Element.basis("m2")


def _count_checks(monkeypatch):
    """A Counter of the entry and coefficient checks made until
    ``monkeypatch.undo()``: ``serialize._entry``, and ``check_coeff`` and
    ``checked_sums`` wherever a module of fusionkit calls them."""
    from fusionkit import elements, modules, serialize
    made = Counter()

    def counted(name, check):
        def checking(*args, **kwargs):
            made[name] += 1
            return check(*args, **kwargs)
        return checking

    monkeypatch.setattr(serialize, "_entry", counted("_entry", serialize._entry))
    for module in (elements, rings, modules, serialize):
        for name in ("check_coeff", "checked_sums"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    return made


def test_a_loaded_table_entry_is_checked_once(monkeypatch):
    # the explicit Z/48 ring (2209 fusion entries) and its regular module
    # (2256 action entries), loaded and validated: one check per entry, the
    # loader's, and none when the constructors or the row fills read them
    from fusionkit.serialize import load_doc, load_session
    ring_doc, module_doc = _cyclic_docs(48, "a", "m")
    with load_session():
        made = _count_checks(monkeypatch)
        ring = load_doc(ring_doc)
        module = load_doc(module_doc)
        monkeypatch.undo()
    entries = len(ring_doc["fusion"]) + len(module_doc["action"])
    assert entries == 2209 + 2256
    assert sum(made.values()) <= entries
    assert made == {"_entry": entries}
    assert ring.product("a40", "a9") == Element.basis("a1")
    assert module.action("a47", "m1") == Element.basis("m0")
