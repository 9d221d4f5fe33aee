import pytest
from hypothesis import given, settings, strategies as st

from oracles import s3_fusion_oracle, s3_mul_oracle

from fusionkit import (
    BasedModule,
    DivisibilityCertificate,
    Element,
    InvalidInputError,
    check_module_axioms,
    induce,
    is_standard,
    is_torsion,
    SubringEmbedding,
    coset_classes,
    cyclic_group,
    find_divisibility_certificate,
    group_ring,
    identity_embedding,
    rep_ring,
    s3_character_table,
    so3_subring,
    verify_certificate,
    verify_subring,
)


def test_z2_in_z4_holds(z2_in_z4):
    assert verify_subring(z2_in_z4, 4).is_holds


def test_wrong_generator_image_fails(z2, z4):
    bad = SubringEmbedding(sub=z2, ambient=z4, mapping={"e": "e", "g": "a"})
    assert verify_subring(bad, 4).is_fails


def test_closure_violation_witnessed(z2, z4):
    # map both labels onto conj-stable targets so the failure surfaces in
    # the product-closure check: a2 x a2 = e but g x g embeds to a2... use a
    # non-multiplicative map e -> a2
    bad = SubringEmbedding(sub=z2, ambient=z4, mapping={"e": "a2", "g": "e"})
    verdict = verify_subring(bad, 4)
    assert verdict.is_fails


def test_non_injective_map_fails(z2, z4):
    collide = SubringEmbedding(sub=z2, ambient=z4, mapping={"e": "e", "g": "e"})
    verdict = verify_subring(collide, 4)
    assert verdict.is_fails and "injective" in verdict.witness


def test_search_rejects_a_non_embedding(z2, z4):
    collide = SubringEmbedding(sub=z2, ambient=z4, mapping={"e": "e", "g": "e"})
    with pytest.raises(InvalidInputError) as raised:
        find_divisibility_certificate(collide, 4)
    assert str(raised.value) == ("not a fusion subring embedding: map is not "
                                 "injective: e and g both map to e")


def test_even_cg_labels_embed(su2):
    emb = so3_subring(su2)
    verdict = verify_subring(emb, 6)
    assert verdict.is_holds and verdict.bound == 6


def test_coset_classes_z4(z2_in_z4):
    assert coset_classes(z2_in_z4, 4) == [["e", "a2"], ["a", "a3"]]


def test_coset_classes_cg(su2):
    emb = so3_subring(su2)
    classes = coset_classes(emb, 6)
    assert classes == [["x0", "x2", "x4", "x6"], ["x1", "x3", "x5"]]


def test_identity_embedding_single_class(s3):
    emb = identity_embedding(s3)
    assert verify_subring(emb, 4).is_holds
    assert coset_classes(emb, 4) == [list(s3.basis)]


def _classes_by_conjugate_form(window, meets):
    """Partition ``window``, in window order, by x ~ y ⇔ meets(x, y)."""
    classes = []
    for x in window:
        cls = next((c for c in classes if meets(x, c[0])), None)
        if cls is None:
            classes.append([x])
        else:
            cls.append(x)
    return classes


def test_coset_classes_match_conjugate_form_oracle(z3_in_s3, z2):
    # coset_classes relates x and y when y ⊗ conj(x) meets the image; the
    # oracle uses x ⊗ conj(y), from plain tables: permutation words for S3,
    # integer characters for Rep(S3), whose labels are self-conjugate
    labels = list(z3_in_s3.ambient.basis)
    mul = s3_mul_oracle(labels)
    inverse = {x: next(y for y in labels if mul(x, y) == {"e": 1})
               for x in labels}
    image = {"e", "r", "rr"}
    assert coset_classes(z3_in_s3, 4) == _classes_by_conjugate_form(
        labels, lambda x, y: bool(image & set(mul(x, inverse[y]))))
    rep_s3 = rep_ring(s3_character_table())
    sgn = SubringEmbedding(sub=z2, ambient=rep_s3,
                           mapping={"e": "triv", "g": "sgn"})
    expected = _classes_by_conjugate_form(
        ["triv", "sgn", "std"],
        lambda x, y: bool({"triv", "sgn"} & set(s3_fusion_oracle(x, y))))
    assert expected == [["triv", "sgn"], ["std"]]
    assert coset_classes(sgn, 4) == expected


def test_certificate_z2_in_z4(z2_in_z4):
    search = find_divisibility_certificate(z2_in_z4, 4)
    cert = search.certificate
    assert cert is not None
    assert cert.classes == ("e", "a")
    assert cert.factorization["a3"] == ("a", "g")
    assert cert.exhaustive
    assert verify_certificate(cert, 4).is_holds


def test_certificate_deterministic(z2_in_z4):
    a = find_divisibility_certificate(z2_in_z4, 4).certificate
    b = find_divisibility_certificate(z2_in_z4, 4).certificate
    assert a.classes == b.classes and a.factorization == b.factorization


def test_group_inclusions_always_divisible(z3_in_s3, z2_in_z4):
    for emb in (z2_in_z4, z3_in_s3):
        search = find_divisibility_certificate(emb, 4)
        assert search.certificate is not None
        assert verify_certificate(search.certificate, 4).is_holds


def test_group_inclusion_classes_are_cosets(z3_in_s3):
    # for a group-ring inclusion the quotient classes are the cosets of the
    # subgroup's left-multiplication orbits
    assert coset_classes(z3_in_s3, 4) == [["e", "r", "rr"], ["t", "rt", "tr"]]


def test_alternate_representative_also_verifies(z2_in_z4):
    cert = find_divisibility_certificate(z2_in_z4, 4).certificate
    other = DivisibilityCertificate(
        embedding=cert.embedding, classes=("e", "a3"),
        factorization={"e": ("e", "e"), "a2": ("e", "g"),
                       "a3": ("a3", "e"), "a": ("a3", "g")},
        verified_depth=4)
    assert verify_certificate(other, 4).is_holds


def test_tampered_factorization_fails(z2_in_z4):
    cert = find_divisibility_certificate(z2_in_z4, 4).certificate
    swapped = dict(cert.factorization)
    swapped["a"], swapped["a3"] = swapped["a3"], swapped["a"]
    tampered = DivisibilityCertificate(
        embedding=cert.embedding, classes=cert.classes,
        factorization=swapped, verified_depth=4)
    verdict = verify_certificate(tampered, 4)
    assert verdict.is_fails


def test_cg_even_subring_not_divisible_within_depth(su2):
    emb = so3_subring(su2)
    search = find_divisibility_certificate(emb, 8)
    assert search.certificate is None
    assert any("x2 ⊗ x1 = x1 ⊕ x3" in w for w in search.witnesses)


def test_free_factor_representatives():
    fp_result = __import__("fusionkit").free_product(
        group_ring(cyclic_group(2, generator="g")),
        group_ring(cyclic_group(2, generator="h")))
    search = find_divisibility_certificate(fp_result.left, 5)
    cert = search.certificate
    assert cert is not None
    assert cert.classes[:5] == ("ε", "h", "hg", "hgh", "hghg")
    assert verify_certificate(cert, 5).is_holds


def test_identity_certificate(s3):
    emb = identity_embedding(s3)
    cert = find_divisibility_certificate(emb, 4).certificate
    assert cert.classes == (s3.unit,)
    assert all(cert.factorization[i] == (s3.unit, i) for i in s3.basis)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10), st.data())
def test_cyclic_inclusions_divisible_property(n, data):
    # classical inclusions are always divisible, the class count is the
    # index, and inducing the one-dimensional trivial module gives a
    # torsion module of exactly that rank
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    d = data.draw(st.sampled_from(divisors))
    ambient = group_ring(cyclic_group(n))
    sub = group_ring(cyclic_group(d, generator="b"))

    def amb_label(k):
        k %= n
        return "e" if k == 0 else ("a" if k == 1 else f"a{k}")

    mapping = {s: amb_label(i * (n // d)) for i, s in enumerate(sub.basis)}
    emb = SubringEmbedding(sub=sub, ambient=ambient, mapping=mapping)
    assert verify_subring(emb, 4).is_holds
    search = find_divisibility_certificate(emb, 4)
    cert = search.certificate
    assert cert is not None
    assert len(cert.classes) == n // d
    assert verify_certificate(cert, 4).is_holds
    action = {(s, "j"): Element.basis("j") for s in sub.basis if s != "e"}
    rank1 = BasedModule(ring=sub, basis=["j"], action=action)
    induced = induce(rank1, cert)
    assert len(induced.basis) == n // d
    assert check_module_axioms(induced, 4).is_holds
    assert is_torsion(induced, 4).is_holds
    assert is_standard(induced, 4).is_holds == (d == 1)
