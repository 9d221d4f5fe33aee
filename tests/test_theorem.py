"""The paper's theorem across layers, on finite groups.

For H ≤ G with a divisibility certificate, the transitive H-set H/K induces
to the G-set G ×_H H/K = G/K, restricts back to Mackey's orbits, and is
standard exactly when K = 1.  Based modules over ℤ[G] are G-sets
(Etingof–Khovanov 1995), so every layer is checked against plain tables
built by ``oracles``.
"""

import itertools

import pytest

import oracles
from fusionkit import (
    BasedModule,
    Element,
    FiniteGroupPresentation,
    SubringEmbedding,
    direct_product,
    find_divisibility_certificate,
    find_intertwiner,
    group_ring,
    induce,
    inversion_action,
    is_standard,
    is_torsion,
    restrict_and_decompose,
    semidirect_product,
    standardize_from_induced,
)


def _presentation(table, prefix):
    labels = [f"{prefix}{i}" for i in range(len(table))]
    return FiniteGroupPresentation(labels, {
        (labels[x], labels[y]): labels[table[x][y]]
        for x in range(len(table)) for y in range(len(table))})


def _group(table, prefix):
    group = _presentation(table, prefix)
    return group_ring(group), list(group.elements)


def _perm_index(degree, perm):
    return list(itertools.permutations(range(degree))).index(tuple(perm))


def _pair(h_table, g_table, image):
    """H ≤ G as group rings, H's element i sent to G's element image[i]."""
    (h, h_labels), (g, g_labels) = _group(h_table, "h"), _group(g_table, "g")
    embedding = SubringEmbedding(sub=h, ambient=g, mapping={
        h_labels[i]: g_labels[image[i]] for i in range(len(h_table))})
    return h_table, h_labels, g_table, g_labels, embedding, image


def _cyclic_in_cyclic(m, n):
    return _pair(oracles.cyclic_table(m), oracles.cyclic_table(n),
                 [i * (n // m) for i in range(m)])


def _cyclic_in_s3(m, generator):
    powers = [(0, 1, 2)]
    while len(powers) < m:
        powers.append(tuple(generator[i] for i in powers[-1]))
    return _pair(oracles.cyclic_table(m), oracles.permutation_table(3),
                 [_perm_index(3, p) for p in powers])


def _s3_in_s4():
    return _pair(oracles.permutation_table(3), oracles.permutation_table(4),
                 [_perm_index(4, p + (3,))
                  for p in itertools.permutations(range(3))])


def _labels_of_pairs(ring, left, right, left_labels, right_labels):
    """G's labels for the pairs numbered x1·|right| + x2, each found as the
    product of its two factor images."""
    n = len(right_labels)
    return [ring.product(left.embed(left_labels[x // n]),
                         right.embed(right_labels[x % n])).single_label()
            for x in range(len(left_labels) * n)]


def _factor_of_z2_z3(side):
    # G = Z/2 × Z/3 numbered as in oracles.product_table
    (z2, z2_labels), (z3, z3_labels) = (_group(oracles.cyclic_table(2), "h"),
                                        _group(oracles.cyclic_table(3), "k"))
    dp = direct_product(z2, z3)
    g_labels = _labels_of_pairs(dp.ring, dp.left, dp.right, z2_labels, z3_labels)
    g_table = oracles.product_table(oracles.cyclic_table(2), oracles.cyclic_table(3))
    if side == "left":
        return oracles.cyclic_table(2), z2_labels, g_table, g_labels, dp.left, [0, 3]
    return oracles.cyclic_table(3), z3_labels, g_table, g_labels, dp.right, [0, 1, 2]


def _factor_of_z2_semidirect_z3(side):
    # Z/2 acting on Z/3 by inversion: (g, x)·(g', x') = (g + g', ±x + x'),
    # the sign − when g' = 1, numbered g·3 + x; G is S3
    gamma = _presentation(oracles.cyclic_table(2), "h")
    z3, z3_labels = _group(oracles.cyclic_table(3), "k")
    sd = semidirect_product(gamma, z3, inversion_action(gamma, z3))
    g_labels = _labels_of_pairs(sd.ring, sd.group_embedding, sd.target_embedding,
                                list(gamma.elements), z3_labels)
    g_table = [[(a // 3 + b // 3) % 2 * 3 + ((-1) ** (b // 3) * (a % 3) + b % 3) % 3
                for b in range(6)] for a in range(6)]
    if side == "group":
        return (oracles.cyclic_table(2), list(gamma.elements), g_table, g_labels,
                sd.group_embedding, [0, 3])
    return (oracles.cyclic_table(3), z3_labels, g_table, g_labels,
            sd.target_embedding, [0, 1, 2])


PAIRS = {
    "z2-in-z4": lambda: _cyclic_in_cyclic(2, 4),
    "z2-in-z6": lambda: _cyclic_in_cyclic(2, 6),
    "z3-in-z6": lambda: _cyclic_in_cyclic(3, 6),
    "z3-in-s3": lambda: _cyclic_in_s3(3, (1, 2, 0)),
    "z2-in-s3": lambda: _cyclic_in_s3(2, (1, 0, 2)),
    "s3-in-s4": _s3_in_s4,
    "z2-left-in-z2xz3": lambda: _factor_of_z2_z3("left"),
    "z3-right-in-z2xz3": lambda: _factor_of_z2_z3("right"),
    "z2-group-in-z2-semidirect-z3": lambda: _factor_of_z2_semidirect_z3("group"),
    "z3-target-in-z2-semidirect-z3": lambda: _factor_of_z2_semidirect_z3("target"),
}


def _coset_space(labels, table, k, prefix):
    """G/K as a basis and a plain table, the unit's row included."""
    cosets, perm = oracles.left_cosets(table, k)
    basis = [f"{prefix}{i}" for i in range(len(cosets))]
    return basis, {(labels[g], basis[i]): {basis[perm[g][i]]: 1}
                   for g in range(len(table)) for i in range(len(cosets))}


def _module(ring, basis, table):
    return BasedModule(ring=ring, basis=basis, action={
        (a, j): Element(row) for (a, j), row in table.items() if a != ring.unit})


@pytest.mark.parametrize("name", list(PAIRS))
def test_induced_transitive_hsets_follow_the_theorem(name):
    h_table, h_labels, g_table, g_labels, embedding, image = PAIRS[name]()
    h, g = embedding.sub, embedding.ambient
    cert = find_divisibility_certificate(embedding, 4).certificate
    assert cert is not None
    for k in oracles.subgroup_classes(h_table):
        source_basis, source_table = _coset_space(h_labels, h_table, k, "c")
        ind = induce(_module(h, source_basis, source_table), cert)
        assert is_torsion(ind).is_holds
        k_in_g = frozenset(image[x] for x in k)
        assert len(ind.basis) == len(g_table) // len(k)
        # Ind(H/K) ≅ G/K, and the oracle re-checks the bijection
        target_basis, target_table = _coset_space(g_labels, g_table, k_in_g, "d")
        mapping = find_intertwiner(ind, _module(g, target_basis, target_table))
        ind_table = {(a, x): dict(ind.action(a, x).items())
                     for a in g.basis for x in ind.basis}
        assert oracles.intertwines(list(g.basis), list(ind.basis), ind_table,
                                   target_basis, target_table, mapping)
        # Res Ind(H/K) splits into H/(H ∩ gKg⁻¹) over the double cosets HgK
        assert sorted(len(s.basis) for s in restrict_and_decompose(ind, embedding)) \
            == oracles.mackey_orbit_sizes(g_table, frozenset(image), k_in_g)
        standard = is_standard(ind)
        if len(k) > 1:
            assert standard.is_fails
            continue
        extracted = standardize_from_induced(ind)
        assert extracted.is_holds
        regular = {(h_labels[x], h_labels[y]): {h_labels[h_table[x][y]]: 1}
                   for x in range(len(h_table)) for y in range(len(h_table))}
        assert oracles.intertwines(list(h.basis), source_basis, source_table,
                                   h_labels, regular, extracted.data)
