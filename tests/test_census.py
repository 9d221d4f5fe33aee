import itertools
import math
import time
import tracemalloc
import types

import pytest

import oracles
from fusionkit import (
    BasedModule,
    Element,
    EnumerationBudget,
    FiniteGroupPresentation,
    InvalidInputError,
    check_module_axioms,
    cyclic_group,
    direct_product,
    enumerate_torsion_modules,
    explicit_ring,
    find_divisibility_certificate,
    find_intertwiner,
    group_ring,
    induce,
    is_torsion,
    is_torsion_free_finite,
    rep_ring,
    restrict_and_decompose,
    s3_character_table,
    standard_module,
    su2_ring,
    symmetric_group_3,
)
from fusionkit import census
from fusionkit.census import _assignments


def test_z2_census_exactly_two(z2):
    result = enumerate_torsion_modules(z2, EnumerationBudget(2, 1))
    assert result.complete
    assert len(result.modules) == 2
    ranks = sorted(len(m.basis) for m in result.modules)
    assert ranks == [1, 2]
    rank1 = [m for m in result.modules if len(m.basis) == 1][0]
    assert rank1.action("g", "m0") == Element.basis("m0")
    rank2 = [m for m in result.modules if len(m.basis) == 2][0]
    assert find_intertwiner(rank2, standard_module(z2)) is not None


def test_z3_rank1_census(z3):
    result = enumerate_torsion_modules(z3, EnumerationBudget(1, 1))
    assert len(result.modules) == 1
    m = result.modules[0]
    assert m.action("a", "m0") == Element.basis("m0")


def test_trivial_ring_census():
    ring = group_ring(cyclic_group(1))
    result = enumerate_torsion_modules(ring, EnumerationBudget(3, 2))
    assert len(result.modules) == 1
    assert len(result.modules[0].basis) == 1


def test_census_modules_all_verify(z4):
    result = enumerate_torsion_modules(z4, EnumerationBudget(2, 1))
    for m in result.modules:
        assert check_module_axioms(m, 4).is_holds
        assert is_torsion(m, 4).is_holds


def test_census_deterministic(z2):
    a = enumerate_torsion_modules(z2, EnumerationBudget(2, 1))
    b = enumerate_torsion_modules(z2, EnumerationBudget(2, 1))
    assert [m.basis for m in a.modules] == [m.basis for m in b.modules]
    for ma, mb in zip(a.modules, b.modules):
        for alpha in z2.basis:
            for j in ma.basis:
                assert ma.action(alpha, j) == mb.action(alpha, j)


def test_census_needs_finite_ring():
    with pytest.raises(InvalidInputError):
        enumerate_torsion_modules(su2_ring(), EnumerationBudget(1, 1))


def test_exhausted_wall_clock_flags_incomplete(s3):
    result = enumerate_torsion_modules(
        s3, EnumerationBudget(2, 1, max_seconds=0.0))
    assert not result.complete


def test_general_candidates_are_generated_lazily():
    # Rep(S3)'s std tries (4 + 1)^9 ≈ 2M general tuples at rank 3; held as a
    # list they take over 100 MB before the first deadline check
    tracemalloc.start()
    try:
        result = enumerate_torsion_modules(rep_ring(s3_character_table()),
                                           EnumerationBudget(3, 4, max_seconds=0.2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.complete
    assert peak < 5 * 2**20


def test_the_walk_keeps_no_columns_however_many_candidates_it_tries(
        monkeypatch):
    # a clock that ticks once per deadline check stops the walk after 12,000
    # candidates, whatever the host; kept, the columns built for them took
    # about 3 MB (a one-second wall-clock budget cannot show this: under
    # tracemalloc the walk is slow enough to stay under 2 MB with them kept)
    ticks = itertools.count()
    monkeypatch.setattr(census, "time",
                        types.SimpleNamespace(monotonic=lambda: next(ticks)))
    walk = _assignments(rep_ring(s3_character_table()), ["m0", "m1"], 3000,
                        12_000)
    tracemalloc.start()
    try:
        with pytest.raises(TimeoutError):
            for _ in walk:
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("ring, rank, max_coeff", [
    # Rep(S3)'s std: 301² columns of rank 2, 20 MiB as a list
    (lambda: rep_ring(s3_character_table()), 2, 300),
    # Z/2's g: 9! permutation tuples of rank 9, 42 MiB as a list
    (lambda: group_ring(cyclic_group(2)), 9, 1),
], ids=["rep-s3-columns", "z2-permutations"])
def test_a_past_deadline_stops_the_walk_before_it_builds_candidates(
        ring, rank, max_coeff):
    # the deadline is checked before each candidate is tried, and a column
    # is built only for the candidate that holds it, so a past deadline stops
    # the walk at its first candidate
    ring = ring()
    basis = [f"m{i}" for i in range(rank)]
    tracemalloc.start()
    try:
        walk = _assignments(ring, basis, max_coeff, time.monotonic() - 1)
        with pytest.raises(TimeoutError):
            next(walk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_the_walk_yields_every_based_module_in_candidate_order():
    # columns are built per candidate, yet the candidates come in the order
    # of itertools.product over the complete column list
    ring = rep_ring(s3_character_table())
    basis = ["m0", "m1"]
    alphas = [a for a in ring.basis if a != ring.unit]
    assert all(ring.conj(a) == a for a in alphas)
    # tables are {label: coeff} columns without zeros, as the walk yields them
    columns = [{j: c for j, c in zip(basis, column) if c}
               for column in itertools.product(range(3), repeat=2)]
    permutations = list(itertools.permutations([{j: 1} for j in basis]))
    choices = [permutations
               if ring.product(a, a) == Element.basis(ring.unit)
               else list(itertools.product(columns, repeat=2)) for a in alphas]
    want = []
    for pick in itertools.product(*choices):
        table = {(a, j): column for a, candidate in zip(alphas, pick)
                 for j, column in zip(basis, candidate)}
        module = BasedModule(ring=ring, basis=basis, action=table)
        if check_module_axioms(module).is_holds:
            want.append(table)
    assert want
    assert list(_assignments(ring, basis, 2, math.inf)) == want


def test_budget_validation():
    with pytest.raises(InvalidInputError):
        EnumerationBudget(0, 1)
    with pytest.raises(InvalidInputError):
        EnumerationBudget(1, 0)


def test_modules_isomorphic_identity(rank1_z2):
    witness = find_intertwiner(rank1_z2, rank1_z2)
    assert witness is not None
    assert witness == {"j": "j"}


def test_modules_isomorphic_rank_mismatch(rank1_z2, std_z2):
    assert find_intertwiner(rank1_z2, std_z2) is None


def test_modules_isomorphic_detects_twist(z4, std_z4):
    # swap two labels of the regular module; still isomorphic to it
    swap = {"e": "e", "a": "a3", "a2": "a2", "a3": "a"}
    table = {}
    for alpha in z4.basis:
        if alpha == z4.unit:
            continue
        for j in z4.basis:
            table[(alpha, swap[j])] = z4.product(alpha, j).map_basis(
                lambda x: swap[x])
    twisted = BasedModule(ring=z4, basis=["e", "a3", "a2", "a"], action=table)
    mapping = find_intertwiner(twisted, std_z4)
    assert mapping is not None
    for alpha in z4.basis:
        for j in twisted.basis:
            assert twisted.action(alpha, j).map_basis(lambda x: mapping[x]) \
                == z4.product(alpha, mapping[j])


def test_coset_summands_isomorphic(std_z4, z2_in_z4, z2):
    summands = restrict_and_decompose(std_z4, z2_in_z4, 4)
    witness = find_intertwiner(summands[0], summands[1])
    assert witness is not None


def test_isomorphism_is_equivalence(z2):
    result = enumerate_torsion_modules(z2, EnumerationBudget(2, 1))
    mods = result.modules
    for m in mods:
        assert find_intertwiner(m, m) is not None
    for m1, m2 in itertools.combinations(mods, 2):
        forward = find_intertwiner(m1, m2)
        backward = find_intertwiner(m2, m1)
        assert (forward is None) == (backward is None)


def test_group_rings_are_not_torsion_free():
    for group in (cyclic_group(2, generator="g"), cyclic_group(3),
                  cyclic_group(4), symmetric_group_3()):
        ring = group_ring(group)
        verdict = is_torsion_free_finite(ring, EnumerationBudget(1, 1))
        assert verdict.is_fails
        assert "non-standard" in verdict.witness


def test_trivial_ring_is_torsion_free():
    ring = group_ring(cyclic_group(1))
    verdict = is_torsion_free_finite(ring, EnumerationBudget(1, 1))
    assert verdict.is_holds
    assert "exhaustive" in verdict.witness


def test_non_pointed_budget_stays_unknown():
    from fusionkit import rep_ring, s3_character_table
    ring = rep_ring(s3_character_table())
    verdict = is_torsion_free_finite(ring, EnumerationBudget(1, 1))
    # no rank-1 torsion module exists at this budget, but the documented
    # bound argument covers only pointed rings, so a clean sweep must stay
    # unknown rather than claim Holds
    assert verdict.is_unknown


def test_census_cross_validates_induction(z2, z4, z2_in_z4_cert, rank1_z2):
    # the induced rank-2 module appears in the exhaustive Z/4 census
    ind = induce(rank1_z2, z2_in_z4_cert)
    census = enumerate_torsion_modules(z4, EnumerationBudget(2, 1))
    assert any(find_intertwiner(ind, m) is not None for m in census.modules)


def test_census_cross_validates_induction_s3(z3, s3, z3_in_s3, rank1_z3):
    cert = find_divisibility_certificate(z3_in_s3, 4).certificate
    ind = induce(rank1_z3, cert)
    census = enumerate_torsion_modules(s3, EnumerationBudget(2, 1))
    assert any(find_intertwiner(ind, m) is not None for m in census.modules)


def test_census_cross_validates_restriction(std_z4, z2_in_z4, z2):
    # every summand of the restricted regular module shows up in the
    # subring's census
    census = enumerate_torsion_modules(z2, EnumerationBudget(2, 1))
    for summand in restrict_and_decompose(std_z4, z2_in_z4, 4):
        assert any(find_intertwiner(summand, m) is not None
                   for m in census.modules)


# --- the census against its independent oracles ----------------------------------

def _group_ring_of(table):
    labels = ["e"] + [f"x{i}" for i in range(1, len(table))]
    return group_ring(FiniteGroupPresentation(labels, {
        (labels[i], labels[k]): labels[table[i][k]]
        for i in range(len(table)) for k in range(len(table))}))


def _matrices(module):
    """Action matrices in the module's basis order, by non-unit label."""
    return {alpha: [[module.action(alpha, j).coeff(i) for j in module.basis]
                    for i in module.basis]
            for alpha in module.ring.basis if alpha != module.ring.unit}


def _assert_canonical_and_sorted(modules):
    # each module is emitted as its own least relabelling, in (rank, form)
    # order; comparing re-canonicalised sets cannot see either
    keys = []
    for module in modules:
        matrices = list(_matrices(module).values())
        form = tuple(tuple(cell for row in m for cell in row) for m in matrices)
        assert form == oracles.canonical_form(matrices)
        keys.append((len(module.basis), form))
    assert keys == sorted(keys)


# Z6, Z2xZ3 and S3 at rank 5 have products that land on later labels
# (x1 ⊗ x1 = x2), which the walk can check only after assigning them
@pytest.mark.parametrize("table, max_rank, ranks", [
    (oracles.cyclic_table(4), 4, [1, 2, 4]),
    (oracles.klein_table(), 4, [1, 2, 2, 2, 4]),
    (oracles.permutation_table(3), 3, [1, 2, 3]),
    (oracles.cyclic_table(6), 5, [1, 2, 3]),
    (oracles.product_table(oracles.cyclic_table(2), oracles.cyclic_table(3)),
     5, [1, 2, 3]),
    (oracles.permutation_table(3), 5, [1, 2, 3]),
], ids=["Z4", "Z2xZ2", "S3", "Z6", "Z2xZ3", "S3-rank5"])
def test_group_census_matches_transitive_gsets(table, max_rank, ranks):
    # a connected based module over Z[G] is a transitive G-set G/H, one per
    # conjugacy class of subgroups H, of rank [G:H]
    assert oracles.transitive_gset_ranks(table, max_rank) == ranks
    result = enumerate_torsion_modules(_group_ring_of(table),
                                       EnumerationBudget(max_rank, 1))
    assert result.complete
    assert sorted(len(m.basis) for m in result.modules) == ranks
    assert all(oracles.is_permutation_matrix(m)
               for module in result.modules
               for m in _matrices(module).values())
    _assert_canonical_and_sorted(result.modules)


# Rep(S3) at coeff 2 and Z/2 × Rep(S3) at rank 3 reach multi-term pair sums,
# entries of 2, and invertible labels next to labels that are not
@pytest.mark.parametrize("ring, max_rank, max_coeff, ranks", [
    (group_ring(cyclic_group(2, generator="g")), 2, 1, [1, 2]),
    (group_ring(cyclic_group(3)), 2, 1, [1]),
    (group_ring(symmetric_group_3()), 2, 1, [1, 2]),
    (rep_ring(s3_character_table()), 2, 1, [2]),
    (direct_product(group_ring(cyclic_group(2, generator="g")),
                    rep_ring(s3_character_table())).ring, 2, 1, [2, 2]),
    (rep_ring(s3_character_table()), 3, 2, [1, 2, 2, 2, 3, 3]),
    (direct_product(group_ring(cyclic_group(2, generator="g")),
                    rep_ring(s3_character_table())).ring, 3, 1,
     [2, 2, 3, 3, 3, 3]),
], ids=["Z2", "Z3", "S3", "RepS3", "Z2xRepS3", "RepS3-3-2", "Z2xRepS3-3-1"])
def test_census_matches_unpruned_census(ring, max_rank, max_coeff, ranks):
    # Rep(S3)'s std is not invertible, so it keeps the general candidates
    fusion = {(a, b): dict(ring.product(a, b).items())
              for a in ring.basis for b in ring.basis}
    conj = {a: ring.conj(a) for a in ring.basis}
    want = oracles.census_forms(ring.basis, ring.unit, conj, fusion, max_rank,
                                max_coeff)
    result = enumerate_torsion_modules(ring,
                                       EnumerationBudget(max_rank, max_coeff))
    assert result.complete
    assert [len(m.basis) for m in result.modules] == ranks
    alphas = [a for a in ring.basis if a != ring.unit]
    got = [(len(m.basis), oracles.canonical_form(
                [_matrices(m)[a] for a in alphas])) for m in result.modules]
    assert len(set(got)) == len(got)
    assert set(got) == want
    _assert_canonical_and_sorted(result.modules)


def test_the_walk_range_checks_each_pair_sum():
    # a ⊗ a = 2⁶²·a: at rank 1 and coeff 2 the candidate a ⊗ m0 = 2·m0 makes
    # the pair sum 2⁶²·(a ⊗ m0) = 2⁶³·m0, one past the signed 64-bit range,
    # and the walk raises; unchecked, the two sides would merely differ and
    # the census would return one module
    ring = explicit_ring(name="big", basis=["e", "a"], unit="e",
                         conj={"e": "e", "a": "a"}, dim={"e": 1, "a": 2**62},
                         fusion={("a", "a"): {"a": 2**62}})
    with pytest.raises(OverflowError) as raised:
        enumerate_torsion_modules(ring, EnumerationBudget(1, 2))
    assert str(raised.value) == (
        "coefficient 9223372036854775808 exceeds the signed 64-bit range")


def test_rep_s3_census_at_coefficient_2_reads_symmetry_on_supports():
    # pins the census's reading of based symmetry: two of the rank-2
    # classes, transposes of each other, have a std matrix that is not
    # symmetric (std ⊗ m0 = 2·m1 while std ⊗ m1 = m0 ⊕ m1), so they are
    # symmetric in support only; a reading by multiplicities drops both
    ring = rep_ring(s3_character_table())
    fusion = {(a, b): dict(ring.product(a, b).items())
              for a in ring.basis for b in ring.basis}
    conj = {a: ring.conj(a) for a in ring.basis}
    want = oracles.census_forms(ring.basis, ring.unit, conj, fusion, 2, 2)
    result = enumerate_torsion_modules(ring, EnumerationBudget(2, 2))
    assert result.complete
    assert [len(m.basis) for m in result.modules] == [1, 2, 2, 2]
    alphas = [a for a in ring.basis if a != ring.unit]
    got = {(len(m.basis), oracles.canonical_form(
                [_matrices(m)[a] for a in alphas])) for m in result.modules}
    assert got == want
    std = [_matrices(m)["std"] for m in result.modules]
    assert sum(m != [list(row) for row in zip(*m)] for m in std) == 2
