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
    is_standard,
    is_torsion,
    restrict_and_decompose,
    standardize_from_induced,
)


def _group(table, prefix):
    labels = [f"{prefix}{i}" for i in range(len(table))]
    ring = group_ring(FiniteGroupPresentation(labels, {
        (labels[x], labels[y]): labels[table[x][y]]
        for x in range(len(table)) for y in range(len(table))}))
    return ring, labels


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


def _left_factor_of_z2_z3():
    # G = Z/2 × Z/3 numbered x1·3 + x2, as in oracles.product_table; each
    # element is found as the product of its two factor images
    (z2, z2_labels), (z3, z3_labels) = (_group(oracles.cyclic_table(2), "h"),
                                        _group(oracles.cyclic_table(3), "k"))
    dp = direct_product(z2, z3)
    g_labels = [dp.ring.product(dp.left.embed(z2_labels[x // 3]),
                                dp.right.embed(z3_labels[x % 3])).single_label()
                for x in range(6)]
    g_table = oracles.product_table(oracles.cyclic_table(2), oracles.cyclic_table(3))
    return oracles.cyclic_table(2), z2_labels, g_table, g_labels, dp.left, [0, 3]


PAIRS = {
    "z2-in-z4": lambda: _cyclic_in_cyclic(2, 4),
    "z2-in-z6": lambda: _cyclic_in_cyclic(2, 6),
    "z3-in-z6": lambda: _cyclic_in_cyclic(3, 6),
    "z3-in-s3": lambda: _cyclic_in_s3(3, (1, 2, 0)),
    "z2-in-s3": lambda: _cyclic_in_s3(2, (1, 0, 2)),
    "s3-in-s4": _s3_in_s4,
    "z2-left-in-z2xz3": _left_factor_of_z2_z3,
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
