import pytest

from fusionkit import (
    BasedModule,
    CertificateDepthError,
    Element,
    InvalidInputError,
    SubringEmbedding,
    check_module_axioms,
    connected_components,
    cyclic_group,
    find_divisibility_certificate,
    find_intertwiner,
    group_ring,
    identity_embedding,
    induce,
    induced_label,
    inversion_action,
    is_standard,
    is_torsion,
    rep_ring,
    restrict,
    restrict_and_decompose,
    s3_character_table,
    semidirect_product,
    so3_subring,
    standard_module,
    standardize_from_induced,
)


def test_induced_rank1_worked_example(rank1_z2, z2_in_z4_cert):
    ind = induce(rank1_z2, z2_in_z4_cert)
    t0, t1 = induced_label("e", "j"), induced_label("a", "j")
    assert ind.basis == (t0, t1)
    assert ind.action("a", t0) == Element.basis(t1)
    assert ind.action("a", t1) == Element.basis(t0)
    assert ind.action("a2", t0) == Element.basis(t0)
    assert check_module_axioms(ind, 4).is_holds
    assert is_torsion(ind, 4).is_holds
    assert is_standard(ind, 4).is_fails


def test_induced_standard_is_regular(std_z2, z2_in_z4_cert, z4):
    ind = induce(std_z2, z2_in_z4_cert)
    assert len(ind.basis) == 4
    witness = find_intertwiner(ind, standard_module(z4))
    assert witness is not None


def test_induced_basis_size(rank1_z3, z3_in_s3):
    cert = find_divisibility_certificate(z3_in_s3, 4).certificate
    ind = induce(rank1_z3, cert)
    assert len(ind.basis) == len(cert.classes) * 1 == 2
    assert check_module_axioms(ind, 4).is_holds
    assert is_torsion(ind, 4).is_holds


def test_identity_certificate_induction(rank1_z2, z2):
    cert = find_divisibility_certificate(identity_embedding(z2), 4).certificate
    ind = induce(rank1_z2, cert)
    assert len(ind.basis) == 1
    assert ind.action("g", ind.basis[0]) == Element.basis(ind.basis[0])


def test_induction_frobenius_transport(std_z2, rank1_z2, z2_in_z4_cert):
    # membership from the coefficient formula must agree with membership
    # derived by locating factors directly in the certificate
    cert = z2_in_z4_cert
    amb = cert.embedding.ambient
    sub = cert.embedding.sub

    def right_factor(i):
        t, s = cert.factorization[amb.conj(i)]
        return t, sub.conj(s)

    for n in (std_z2, rank1_z2):
        ind = induce(n, cert)
        pair_of = {induced_label(t, j): (t, j)
                   for t in cert.classes for j in n.basis}
        for alpha in amb.basis:
            for x in ind.basis:
                t_p, j_p = pair_of[x]
                value = ind.action(alpha, x)
                for y in ind.basis:
                    t, j = pair_of[y]
                    direct = False
                    for i, _ in amb.product(alpha, amb.conj(t_p)).items():
                        ti, si = right_factor(i)
                        if ti == t and n.action(si, j_p).coeff(j) != 0:
                            direct = True
                    assert (value.coeff(y) != 0) == direct


def test_induce_refuses_wrong_ring(rank1_z3, z2_in_z4_cert):
    with pytest.raises(InvalidInputError):
        induce(rank1_z3, z2_in_z4_cert)


def test_induce_refuses_broken_source(z2, z2_in_z4_cert):
    broken = BasedModule(ring=z2, basis=["j"],
                         action={("g", "j"): Element({"j": 2})})
    with pytest.raises(InvalidInputError):
        induce(broken, z2_in_z4_cert)


def test_restrict_standard_z4(std_z4, z2_in_z4):
    restricted = restrict(std_z4, z2_in_z4)
    assert restricted.basis == std_z4.basis
    assert restricted.action("g", "e") == Element.basis("a2")
    assert restricted.action("g", "a") == Element.basis("a3")


def test_restrict_along_identity(rank1_z2, z2):
    restricted = restrict(rank1_z2, identity_embedding(z2))
    assert restricted.basis == rank1_z2.basis
    for alpha in z2.basis:
        for j in rank1_z2.basis:
            assert restricted.action(alpha, j) == rank1_z2.action(alpha, j)


def test_restrict_rs3_to_sign_subring(z2):
    ring = rep_ring(s3_character_table())
    emb = SubringEmbedding(sub=z2, ambient=ring,
                           mapping={"e": "triv", "g": "sgn"})
    restricted = restrict(standard_module(ring), emb)
    assert restricted.action("g", "std") == Element.basis("std")
    assert restricted.action("g", "triv") == Element.basis("sgn")
    parts = connected_components(restricted, 4)
    assert parts == [["triv", "sgn"], ["std"]]


def test_decompose_z4_over_z2(std_z4, z2_in_z4, z2):
    summands = restrict_and_decompose(std_z4, z2_in_z4, 4)
    assert len(summands) == 2
    target = standard_module(z2)
    for summand in summands:
        assert find_intertwiner(summand, target) is not None


def test_decompose_summands_carry_their_documents(std_z4, z2_in_z4, z2):
    for summand in restrict_and_decompose(std_z4, z2_in_z4, 4):
        assert summand.doc == {
            "kind": "module", "ring": z2.doc, "basis": list(summand.basis),
            "action": [["g", j, dict(summand.action("g", j).items())]
                       for j in sorted(summand.basis)]}


def test_decompose_s3_over_z3(s3, z3_in_s3):
    summands = restrict_and_decompose(standard_module(s3), z3_in_s3, 4)
    assert len(summands) == 2
    for summand in summands:
        assert len(summand.basis) == 3
        assert len(connected_components(summand, 4)) == 1


def test_decompose_rank1_identity(rank1_z2, z2):
    summands = restrict_and_decompose(rank1_z2, identity_embedding(z2), 4)
    assert len(summands) == 1
    assert summands[0].basis == rank1_z2.basis


def test_even_subring_restriction_shadow(su2):
    # restricting the regular Clebsch-Gordan module along the even subring
    # splits the window into even and odd parts; together with the absent
    # divisibility certificate this is the combinatorial footprint of the
    # even subring failing to inherit torsion-freeness
    emb = so3_subring(su2)
    restricted = restrict(standard_module(su2), emb, check_depth=3)
    parts = connected_components(restricted, 6)
    assert parts == [["x0", "x2", "x4", "x6"], ["x1", "x3", "x5"]]
    assert is_torsion(restricted, 6).is_unknown


def test_decompose_refuses_lazy_subring(su2):
    emb = so3_subring(su2)
    m = BasedModule(ring=su2, basis=["j"],
                    action=lambda a, j: Element.basis("j"))
    with pytest.raises(InvalidInputError):
        restrict_and_decompose(m, emb, 4)


def test_standardize_regular_case(std_z2, z2_in_z4_cert, z2):
    ind = induce(std_z2, z2_in_z4_cert)
    witness = is_standard(ind, 4)
    assert witness.is_holds
    verdict = standardize_from_induced(ind, 4)
    assert verdict.is_holds
    bijection = verdict.data
    assert sorted(bijection) == ["e", "g"]
    assert sorted(bijection.values()) == ["e", "g"]
    # the extracted map intertwines the source action with the regular one
    for beta in z2.basis:
        for j in std_z2.basis:
            assert std_z2.action(beta, j).map_basis(lambda k: bijection[k]) == \
                z2.product(beta, bijection[j])


def test_standardize_identity_certificate(std_z2, z2):
    cert = find_divisibility_certificate(identity_embedding(z2), 4).certificate
    ind = induce(std_z2, cert)
    witness = is_standard(ind, 4)
    assert witness.is_holds
    verdict = standardize_from_induced(ind, 4)
    assert verdict.is_holds
    assert verdict.data == {"e": "e", "g": "g"}


def test_rank1_induced_not_standard_contrapositive(rank1_z2, z2_in_z4_cert):
    # a non-standard torsion module upstairs forbids torsion-freeness, and
    # the induced rank-2 module over the rank-4 ring witnesses it
    ind = induce(rank1_z2, z2_in_z4_cert)
    verdict = is_standard(ind, 4)
    assert verdict.is_fails
    assert "rank 2 ≠ rank 4" in verdict.witness


def test_semidirect_standard_module_cases():
    g2 = cyclic_group(2, generator="g")
    z3ring = group_ring(cyclic_group(3))
    sd = semidirect_product(g2, z3ring, inversion_action(g2, z3ring))
    for emb in (sd.group_embedding, sd.target_embedding):
        cert = find_divisibility_certificate(emb, 4).certificate
        assert cert is not None
        source = standard_module(emb.sub)
        ind = induce(source, cert)
        assert len(ind.basis) == len(cert.classes) * len(source.basis) == 6
        assert check_module_axioms(ind, 4).is_holds
        assert is_torsion(ind, 4).is_holds
        # inducing the regular module along a divisible embedding gives the
        # regular ambient module
        assert find_intertwiner(ind, standard_module(sd.ring)) is not None
        witness = is_standard(ind, 4)
        assert witness.is_holds
        extraction = standardize_from_induced(ind, 4)
        assert extraction.is_holds
        assert sorted(extraction.data) == sorted(emb.sub.basis)


def test_direct_product_standard_module_cases(z2):
    # inducing the regular module along either factor of a direct product
    # of a representation ring with a group ring gives the regular ambient
    # module
    ring = rep_ring(s3_character_table())
    from fusionkit import direct_product
    dp = direct_product(ring, z2)
    for emb in (dp.left, dp.right):
        cert = find_divisibility_certificate(emb, 4).certificate
        assert cert is not None
        ind = induce(standard_module(emb.sub), cert)
        assert check_module_axioms(ind, 4).is_holds
        assert is_torsion(ind, 4).is_holds
        assert find_intertwiner(ind, standard_module(dp.ring)) is not None


def test_induce_past_certificate_depth_refused():
    import fusionkit as fk
    fp = fk.free_product(group_ring(cyclic_group(2, generator="g")),
                         group_ring(cyclic_group(2, generator="h")))
    cert = find_divisibility_certificate(fp.left, 3).certificate
    assert cert is not None
    n = standard_module(fp.left.sub)
    ind = induce(n, cert)
    deep = fp.ring.basis_up_to_depth(6)[-1]
    with pytest.raises(CertificateDepthError):
        ind.action(deep, ind.basis[-1])
