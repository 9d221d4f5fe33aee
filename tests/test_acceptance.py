"""Acceptance suite: one criterion per test, exact (tolerance-zero) integer
checks throughout, with the stated runtime budgets enforced.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.
"""

import json
import time

import pytest

from fusionkit import (
    BasedModule,
    Element,
    EnumerationBudget,
    SubringEmbedding,
    check_dimension,
    check_module_axioms,
    check_ring_axioms,
    connected_components,
    cyclic_character_table,
    cyclic_group,
    direct_product,
    enumerate_torsion_modules,
    explicit_ring,
    find_divisibility_certificate,
    find_intertwiner,
    free_product,
    group_ring,
    induce,
    inversion_action,
    is_standard,
    is_torsion,
    is_torsion_free_finite,
    rep_ring,
    restrict_and_decompose,
    s3_character_table,
    semidirect_product,
    so3_subring,
    standard_module,
    standardize_from_induced,
    su2_ring,
    symmetric_group_3,
    trivial_character_table,
    verify_certificate,
)
from fusionkit.cli import cli_dispatch
from fusionkit.serialize import dumps, load, load_doc

from oracles import dihedral_mul, s3_fusion_oracle


def report(number, name, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def make_z2(letter):
    return group_ring(cyclic_group(2, generator=letter))


def make_semidirect():
    g2 = cyclic_group(2, generator="g")
    z3ring = group_ring(cyclic_group(3))
    return semidirect_product(g2, z3ring, inversion_action(g2, z3ring))


def test_criterion_1_construction_oracles():
    started = time.monotonic()
    # free product of two order-two group rings vs dihedral word reduction
    t0 = time.monotonic()
    fp = free_product(make_z2("g"), make_z2("h"))
    window = fp.ring.basis_up_to_depth(2)
    assert len(window) == 5
    pairs = 0
    for u in window:
        for v in window:
            wu = "" if u == "ε" else u
            wv = "" if v == "ε" else v
            expected = Element.basis(dihedral_mul(wu, wv) or "ε")
            assert fp.ring.product(u, v) == expected, (u, v)
            pairs += 1
    assert pairs == 25
    assert time.monotonic() - t0 < 1.0

    # semidirect product vs the symmetric group on three letters
    t0 = time.monotonic()
    sd = make_semidirect()
    s3 = symmetric_group_3()

    def to_s3(pair_label):
        gamma, x = pair_label[1:-1].split(",")
        return s3.mul("e" if gamma == "e" else "t",
                      {"e": "e", "a": "r", "a2": "rr"}[x])

    checked = 0
    for la in sd.ring.basis:
        for lb in sd.ring.basis:
            value = sd.ring.product(la, lb)
            assert to_s3(value.single_label()) == s3.mul(to_s3(la), to_s3(lb))
            checked += 1
    assert checked == 36
    assert time.monotonic() - t0 < 1.0

    # representation ring of S3 from its character table
    t0 = time.monotonic()
    ring = rep_ring(s3_character_table())
    assert ring.product("std", "std") == Element({"triv": 1, "sgn": 1, "std": 1})
    for a in ring.basis:
        for b in ring.basis:
            assert dict(ring.product(a, b).items()) == s3_fusion_oracle(a, b)
    assert time.monotonic() - t0 < 1.0
    report(1, "construction-oracles", started, 3.0)


def test_criterion_2_axiom_suite():
    started = time.monotonic()
    builtins = [
        group_ring(cyclic_group(2, generator="g")),
        group_ring(cyclic_group(3)),
        group_ring(cyclic_group(4)),
        group_ring(symmetric_group_3()),
        rep_ring(s3_character_table()),
        rep_ring(cyclic_character_table(3)),
        rep_ring(trivial_character_table()),
        su2_ring(),
        so3_subring().sub,
        direct_product(rep_ring(s3_character_table()), make_z2("g")).ring,
        free_product(make_z2("g"), make_z2("h")).ring,
        free_product(make_z2("g"), group_ring(cyclic_group(3))).ring,
        make_semidirect().ring,
    ]
    for ring in builtins:
        assert check_ring_axioms(ring, 4).is_holds, ring.name
        assert check_dimension(ring, 4).is_holds, ring.name
    mutated = explicit_ring(
        name="mutated", basis=["e", "g"], unit="e",
        conj={"e": "e", "g": "g"}, dim={"e": 1, "g": 1},
        fusion={("g", "g"): Element({"e": 2})})
    verdict = check_ring_axioms(mutated, 4)
    assert verdict.is_fails
    assert verdict.data == ("g", "g")
    report(2, "based-ring-axiom-suite", started, 5.0)


def test_criterion_3_divisibility():
    started = time.monotonic()
    # both factors of a direct product
    dp = direct_product(rep_ring(s3_character_table()), make_z2("g"))
    for emb in (dp.left, dp.right):
        search = find_divisibility_certificate(emb, 4)
        assert search.certificate is not None, emb.name
        assert verify_certificate(search.certificate, 4).is_holds, emb.name
    # both factors of a free product, at depth 5
    fp = free_product(make_z2("g"), group_ring(cyclic_group(3)))
    for emb in (fp.left, fp.right):
        search = find_divisibility_certificate(emb, 5)
        assert search.certificate is not None, emb.name
        assert verify_certificate(search.certificate, 5).is_holds, emb.name
    # both subrings of the semidirect product
    sd = make_semidirect()
    for emb in (sd.group_embedding, sd.target_embedding):
        search = find_divisibility_certificate(emb, 4)
        assert search.certificate is not None, emb.name
        assert verify_certificate(search.certificate, 4).is_holds, emb.name
    # the even subring of the Clebsch-Gordan ring: no certificate, with the
    # explicit reducibility witness
    search = find_divisibility_certificate(so3_subring(), 8)
    assert search.certificate is None
    assert any("x2 ⊗ x1 = x1 ⊕ x3" in w for w in search.witnesses)
    report(3, "divisibility-certificates", started, 30.0)


def _induction_corpus():
    z2 = make_z2("g")
    z4 = group_ring(cyclic_group(4))
    z3 = group_ring(cyclic_group(3))
    s3 = group_ring(symmetric_group_3())
    emb_z2_z4 = SubringEmbedding(sub=z2, ambient=z4,
                                 mapping={"e": "e", "g": "a2"})
    emb_z3_s3 = SubringEmbedding(sub=z3, ambient=s3,
                                 mapping={"e": "e", "a": "r", "a2": "rr"})
    rank1_z2 = BasedModule(ring=z2, basis=["j"],
                           action={("g", "j"): Element.basis("j")})
    rank1_z3 = BasedModule(ring=z3, basis=["j"],
                           action={("a", "j"): Element.basis("j"),
                                   ("a2", "j"): Element.basis("j")})
    sd = make_semidirect()
    corpus = [
        (rank1_z2, emb_z2_z4),
        (standard_module(z2), emb_z2_z4),
        (rank1_z3, emb_z3_s3),
        (standard_module(sd.group_embedding.sub), sd.group_embedding),
        (standard_module(sd.target_embedding.sub), sd.target_embedding),
    ]
    return corpus


def test_criterion_4_induction():
    started = time.monotonic()
    for n, emb in _induction_corpus():
        cert = find_divisibility_certificate(emb, 4).certificate
        assert cert is not None, emb.name
        induced = induce(n, cert)
        assert len(induced.basis) == len(cert.classes) * len(n.basis)
        assert check_module_axioms(induced, 4).is_holds, emb.name
        assert is_torsion(induced, 4).is_holds, emb.name
    report(4, "induction-along-certificates", started, 10.0)


def test_criterion_5_restriction():
    started = time.monotonic()
    z2 = make_z2("g")
    z4 = group_ring(cyclic_group(4))
    emb = SubringEmbedding(sub=z2, ambient=z4, mapping={"e": "e", "g": "a2"})
    summands = restrict_and_decompose(standard_module(z4), emb, 4)
    assert len(summands) == 2
    target = standard_module(z2)
    for summand in summands:
        assert find_intertwiner(summand, target) is not None
    z3 = group_ring(cyclic_group(3))
    s3 = group_ring(symmetric_group_3())
    emb2 = SubringEmbedding(sub=z3, ambient=s3,
                            mapping={"e": "e", "a": "r", "a2": "rr"})
    summands = restrict_and_decompose(standard_module(s3), emb2, 4)
    assert len(summands) == 2
    for summand in summands:
        assert len(summand.basis) == 3
        assert len(connected_components(summand, 4)) == 1
    report(5, "restriction-decomposition", started, 5.0)


def test_criterion_6_standardization():
    started = time.monotonic()
    z2 = make_z2("g")
    z4 = group_ring(cyclic_group(4))
    emb = SubringEmbedding(sub=z2, ambient=z4, mapping={"e": "e", "g": "a2"})
    cert = find_divisibility_certificate(emb, 4).certificate
    n = standard_module(z2)
    induced = induce(n, cert)
    witness = is_standard(induced, 4)
    assert witness.is_holds and witness.data is not None
    extraction = standardize_from_induced(induced, 4)
    assert extraction.is_holds
    bijection = extraction.data
    assert sorted(bijection) == ["e", "g"]
    for beta in z2.basis:
        for j in n.basis:
            assert n.action(beta, j).map_basis(lambda k: bijection[k]) == \
                z2.product(beta, bijection[j])
    # contrapositive: the rank-1 module induces a non-standard torsion
    # module, consistent with the rank-4 group ring not being torsion-free
    rank1 = BasedModule(ring=z2, basis=["j"],
                        action={("g", "j"): Element.basis("j")})
    induced = induce(rank1, cert)
    verdict = is_standard(induced, 4)
    assert verdict.is_fails
    assert "rank 2 ≠ rank 4" in verdict.witness
    assert is_torsion(induced, 4).is_holds
    report(6, "standardization-mechanism", started, 5.0)


def test_criterion_7_torsion_census():
    started = time.monotonic()
    z2 = make_z2("g")
    census = enumerate_torsion_modules(z2, EnumerationBudget(2, 1))
    assert census.complete
    assert len(census.modules) == 2
    for group in (cyclic_group(2, generator="g"), cyclic_group(3),
                  cyclic_group(4), symmetric_group_3()):
        ring = group_ring(group)
        verdict = is_torsion_free_finite(ring, EnumerationBudget(2, 1))
        assert verdict.is_fails
        assert "non-standard" in verdict.witness
        assert verdict.data is not None  # a concrete witness module
    report(7, "torsion-census", started, 60.0)


def test_criterion_8_determinism_and_roundtrip(tmp_path, capsys, monkeypatch):
    started = time.monotonic()
    docs = {
        "z2.json": {"kind": "construct", "construct": "group_ring",
                    "group": {"elements": ["e", "g"],
                              "mult": [["e", "e", "e"], ["e", "g", "g"],
                                       ["g", "e", "g"], ["g", "g", "e"]]}},
        "z4.json": {"kind": "construct", "construct": "group_ring",
                    "group": {"elements": ["e", "a", "a2", "a3"],
                              "mult": [["e", "e", "e"], ["e", "a", "a"],
                                       ["e", "a2", "a2"], ["e", "a3", "a3"],
                                       ["a", "e", "a"], ["a", "a", "a2"],
                                       ["a", "a2", "a3"], ["a", "a3", "e"],
                                       ["a2", "e", "a2"], ["a2", "a", "a3"],
                                       ["a2", "a2", "e"], ["a2", "a3", "a"],
                                       ["a3", "e", "a3"], ["a3", "a", "e"],
                                       ["a3", "a2", "a"], ["a3", "a3", "a2"]]}},
        "su2.json": {"kind": "construct", "construct": "su2"},
        "so3-embed.json": {"kind": "embedding", "canonical": "so3_in_su2"},
        "emb.json": {"kind": "embedding", "sub": "z2.json",
                     "ambient": "z4.json", "map": {"e": "e", "g": "a2"}},
        "rank1.json": {"kind": "module", "ring": "z2.json", "basis": ["j"],
                       "action": [["g", "j", {"j": 1}]]},
        "std-z2.json": {"kind": "module", "standard_of": "z2.json"},
        "std-z4.json": {"kind": "module", "standard_of": "z4.json"},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))

    def p(name):
        return str(tmp_path / name)

    emb = load(p("emb.json"), expect="embedding")
    cert = find_divisibility_certificate(emb, 4).certificate
    (tmp_path / "cert.json").write_text(dumps(cert))

    commands = [
        ["validate", p("z2.json"), "--json"],
        ["validate", p("su2.json"), "--json"],
        ["product", p("su2.json"), "x1", "x1", "--json"],
        ["product", p("z4.json"), "a", "a3", "--json"],
        ["divisible", p("z4.json"), "--sub", p("emb.json"), "--json"],
        ["divisible", p("su2.json"), "--sub", p("so3-embed.json"),
         "--depth", "8", "--json"],
        ["induce", p("rank1.json"), "--cert", p("cert.json"), "--json"],
        ["induce", p("std-z2.json"), "--cert", p("cert.json"), "--json"],
        ["restrict", p("std-z4.json"), "--embed", p("emb.json"),
         "--decompose", "--json"],
        ["torsion", p("rank1.json"), "--json"],
        ["standard", p("rank1.json"), "--json"],
        ["standard", p("std-z4.json"), "--json"],
        ["enumerate", p("z2.json"), "--max-rank", "2", "--max-coeff", "1",
         "--json"],
        ["standardize", p("std-z2.json"), "--cert", p("cert.json"), "--json"],
    ]
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("FUSIONKIT_CACHE", str(cache_dir))
    cold = []
    for argv in commands:
        code = cli_dispatch(argv)
        cold.append((code, capsys.readouterr().out))
    warm = []
    for argv in commands:
        code = cli_dispatch(argv)
        warm.append((code, capsys.readouterr().out))
    assert cold == warm, "cold and warm cache runs must match byte for byte"
    for (code, out), argv in zip(cold, commands):
        assert out.endswith("\n")
        json.loads(out)  # machine output parses

    # save(load(f)) is canonical and stable under another round trip
    for name in docs:
        obj = load(p(name))
        text = dumps(obj)
        again = load_doc(json.loads(text), base_dir=str(tmp_path))
        assert dumps(again) == text, name
    cert_text = dumps(load(p("cert.json"), expect="certificate"))
    assert cert_text == (tmp_path / "cert.json").read_text()
    report(8, "determinism-and-roundtrip", started, 30.0)
