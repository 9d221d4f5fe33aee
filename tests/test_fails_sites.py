"""Every `fails` site of the ring, dimension, subring, certificate, module
and standardization checks and the certificate search's failure
witnesses, each reached by a minimal input; the `unknown` of standardness
over a lazy ring and of a census past its deadline; and the CLI's verdict
on the identity embedding of a lazy ring, whose window links every label
to the unit.

Where no definition document can reach a site (the loader validates what
the site would reject, or builds the unit products itself), the input is
a ring or certificate built in the library.  Each case pins the status,
the exact witness and the data, and each CLI case also the bound.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from fusionkit import (
    BasedModule,
    BasedRing,
    DivisibilityCertificate,
    Element,
    SubringEmbedding,
    check_dimension,
    check_ring_axioms,
    cyclic_group,
    find_divisibility_certificate,
    free_product,
    group_ring,
    identity_embedding,
    induce,
    is_standard,
    rep_ring,
    restrict,
    s3_character_table,
    so3_subring,
    standard_module,
    standardize_from_induced,
    su2_ring,
    symmetric_group_3,
    verify_certificate,
    verify_subring,
)
from fusionkit.cli import cli_dispatch


def table_ring(basis, table=(), conj=None, dim=None):
    """A finite ring on ``basis`` (unit first) read from plain dicts.
    ``table`` maps a pair to its product's terms; a pair it leaves out is
    the unit product, and anything else the label ``?``.  No axiom is
    checked."""
    unit, table = basis[0], dict(table)
    conj = conj or {a: a for a in basis}
    dim = dim or {a: 1 for a in basis}

    def product(a, b):
        default = {b: 1} if a == unit else {a: 1} if b == unit else {"?": 1}
        return Element(table.get((a, b), default))

    return BasedRing(name="table", unit=unit, conj=conj.__getitem__,
                     product=product, dim=dim.__getitem__, basis=basis)


def z2():
    return group_ring(cyclic_group(2, generator="g"))


def z2_in(ambient, image):
    return SubringEmbedding(sub=z2(), ambient=ambient,
                            mapping={"e": ambient.unit, "g": image})


def z2_in_z4():
    return z2_in(group_ring(cyclic_group(4)), "a2")


def certificate(embedding, classes, factorization):
    return DivisibilityCertificate(embedding=embedding, classes=classes,
                                   factorization=factorization,
                                   verified_depth=4)


def with_class(embedding, t):
    """The depth-4 certificate the search finds, with one more class t."""
    found = find_divisibility_certificate(embedding, 4).certificate
    return certificate(embedding, found.classes + (t,), found.factorization)


def verdict(v):
    return v.status, v.witness, v.data


def search(embedding, depth=4):
    """A failed search reads as the CLI reports it: unknown, with every
    witness the search saw."""
    found = find_divisibility_certificate(embedding, depth)
    assert found.certificate is None
    return "unknown", found.witnesses, None


def standardize(embedding, classes, factorization, source=None):
    """Standardize ``source``, by default the regular sub module, induced
    along a certificate that nothing has checked."""
    induced = induce(source or standard_module(embedding.sub),
                     certificate(embedding, classes, factorization))
    return verdict(standardize_from_induced(induced))


def cli(docs, *argv):
    """Run the CLI on definition files written from ``docs``; the files
    are named by their keys, and argv names them the same way.  Reads the
    verdict's status, witness, data and bound."""
    with tempfile.TemporaryDirectory() as workdir:
        for name, doc in docs.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        paths = [os.path.join(workdir, a) if a in docs else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_dispatch(paths + ["--json"])
    doc = json.loads(out.getvalue())["verdict"]
    assert code == {"holds": 0, "fails": 1, "unknown": 2}[doc["status"]]
    return doc["status"], doc.get("witness"), doc.get("data"), doc.get("bound")


REP_S3 = rep_ring(s3_character_table())
Z2_DOC = {"kind": "construct", "construct": "group_ring",
          "group": cyclic_group(2, generator="g").to_doc()}
Z2_H_DOC = {"kind": "construct", "construct": "group_ring",
            "group": cyclic_group(2, generator="h").to_doc()}
FREE_DOC = {"kind": "construct", "construct": "free_product",
            "left": Z2_DOC, "right": Z2_H_DOC}
# the rank-2 Z2 module on which g fixes both labels
FIXED_DOC = {"kind": "module", "ring": Z2_DOC, "basis": ["m0", "m1"],
             "action": [["g", "m0", {"m0": 1}], ["g", "m1", {"m1": 1}]]}
# block-copy ambient for Z2 = {e, g} with classes e and x, where
# g ⊗ y should be x; the table is not associative, so no document loads it
NONASSOCIATIVE = table_ring(["e", "g", "x", "y"], {
    ("g", "g"): {"e": 1}, ("g", "x"): {"y": 1}, ("g", "y"): {"y": 1}})

# a lazy ring on the generators s, a, b with s ⊗ s = 1 and s ⊗ a = s ⊗ b = c:
# the depth-1 window {1, a, b, s} lacks c, so a and b are two classes there,
# and both reach c; the ring breaks Frobenius reciprocity, and no document
# builds a lazy ring from a table
def _split_window_product(x, y):
    if "1" in (x, y):
        return Element.basis(y if x == "1" else x)
    return Element.basis({("s", "s"): "1", ("s", "a"): "c",
                          ("s", "b"): "c"}.get((x, y), "?"))


SPLIT_WINDOW = BasedRing(name="split window", unit="1", conj=str,
                         product=_split_window_product, dim=lambda x: 1,
                         generators=["s", "a", "b"])
S3 = group_ring(symmetric_group_3())
# S3 permuting three points, each label's images of p0, p1 and p2
POINTS = BasedModule(ring=S3, basis=["p0", "p1", "p2"], action={
    (g, f"p{i}"): Element.basis(f"p{image[i]}")
    for g, image in {"r": (1, 2, 0), "t": (1, 0, 2), "rr": (2, 0, 1),
                     "rt": (2, 1, 0), "tr": (0, 2, 1)}.items()
    for i in range(3)})

CASES = {
    "ring: conj(unit) is not the unit": (
        lambda: verdict(check_ring_axioms(table_ring(
            ["e", "g"], {("g", "g"): {"e": 1}}, conj={"e": "g", "g": "e"}))),
        ("fails", "conj(unit) = g ≠ e", None)),
    "ring: conj is not an involution": (
        lambda: verdict(check_ring_axioms(table_ring(
            ["e", "g", "h"], conj={"e": "e", "g": "h", "h": "h"}))),
        ("fails", "conj is not involutive at g: conj(conj(g)) = h", ("g",))),
    "ring: unit not left-neutral": (
        lambda: verdict(check_ring_axioms(table_ring(
            ["e", "g"], {("e", "g"): {"e": 1}}))),
        ("fails", "unit not left-neutral at g: \U0001d7d9 ⊗ g = e", ("g",))),
    "ring: unit not right-neutral": (
        lambda: verdict(check_ring_axioms(table_ring(
            ["e", "g"], {("g", "e"): {"g": 2}}))),
        ("fails", "unit not right-neutral at g: g ⊗ \U0001d7d9 = 2·g", ("g",))),
    # Z/3 with a ⊗ a = a instead of b: the unit coefficients still pass
    "ring: conj is not anti-multiplicative": (
        lambda: verdict(check_ring_axioms(table_ring(
            ["e", "a", "b"], {("a", "a"): {"a": 1}, ("a", "b"): {"e": 1},
                              ("b", "a"): {"e": 1}, ("b", "b"): {"a": 1}},
            conj={"e": "e", "a": "b", "b": "a"}))),
        ("fails", "conj(a ⊗ a) = b ≠ conj(a) ⊗ conj(a) = a", ("a", "a"))),
    "dimension: d(unit) is not 1": (
        lambda: verdict(check_dimension(table_ring(
            ["e", "g"], {("g", "g"): {"e": 1}}, dim={"e": 2, "g": 1}))),
        ("fails", "d(unit) = 2 ≠ 1", None)),
    "dimension: d is not conjugation invariant": (
        lambda: verdict(check_dimension(table_ring(
            ["e", "a", "b"], {("a", "a"): {"b": 1}, ("a", "b"): {"e": 1},
                              ("b", "a"): {"e": 1}, ("b", "b"): {"a": 1}},
            conj={"e": "e", "a": "b", "b": "a"}, dim={"e": 1, "a": 1, "b": 2}))),
        ("fails", "d(conj(a)) = 2 ≠ d(a) = 1", ("a",))),
    # equal rings without documents are told apart only by identity
    "ring: same_as without documents": (
        lambda: table_ring(["e"]).same_as(table_ring(["e"])),
        False),
    "dimension: d is not positive": (
        lambda: verdict(check_dimension(table_ring(
            ["e", "g"], {("g", "g"): {"e": 1}}, dim={"e": 1, "g": -1}))),
        ("fails", "d(g) = -1 is not positive", ("g",))),
    "subring: product closure": (
        lambda: verdict(verify_subring(z2_in(REP_S3, "std"))),
        ("fails", "product closure fails at (g, g): ambient std ⊗ std = "
         "sgn ⊕ std ⊕ triv but the embedded sub product is triv "
         "(first discrepancy at sgn)", ("g", "g"))),
    "certificate: the embedding fails": (
        lambda: verdict(verify_certificate(certificate(
            z2_in(REP_S3, "std"), ("triv",), {}))),
        ("fails", "product closure fails at (g, g): ambient std ⊗ std = "
         "sgn ⊕ std ⊕ triv but the embedded sub product is triv "
         "(first discrepancy at sgn)", ("g", "g"))),
    "certificate: no unit class": (
        lambda: verdict(verify_certificate(certificate(
            z2_in_z4(), ("a",), {"e": ("e", "e")}))),
        ("fails", "no class is represented by the ambient unit e", None)),
    "certificate: unit factorization": (
        lambda: verdict(verify_certificate(certificate(
            z2_in_z4(), ("e", "a"), {"e": ("e", "g")}))),
        ("fails", "factorization of the unit is ('e', 'g'), expected (e, e)",
         None)),
    # a true certificate with its unit class listed again
    "certificate: class listed twice": (
        lambda: verdict(verify_certificate(certificate(
            z2_in_z4(), ("e", "a", "e"), {"e": ("e", "e"), "a2": ("e", "g"),
                                          "a": ("a", "e"), "a3": ("a", "g")}))),
        ("fails", "class e is listed twice", ("e",))),
    # a lazy ring's class beyond the window must carry its entry t ↦ (t, e)
    "certificate: class no product generates": (
        lambda: verdict(verify_certificate(with_class(
            free_product(z2(), group_ring(cyclic_group(2, generator="h"))).left,
            "zzz"))),
        ("fails", "factorization of class zzz is None, expected (zzz, e)",
         ("zzz",))),
    "certificate: s ⊗ t is reducible": (
        lambda: verdict(verify_certificate(certificate(
            so3_subring(su2_ring()), ("x0", "x1"),
            {"x0": ("x0", "x0"), "x2": ("x0", "x2"), "x4": ("x0", "x4"),
             "x1": ("x1", "x0")}), 2)),
        ("fails", "x2 ⊗ x1 = x1 ⊕ x3 is reducible", ("x2", "x1"))),
    "certificate: missing factorization entry": (
        lambda: verdict(verify_certificate(certificate(
            z2_in_z4(), ("e",), {"e": ("e", "e"), "a2": ("e", "g")}))),
        ("fails", "ambient basis label a has no factorization entry within "
         "depth 4", ("a", "a3"))),
    "certificate: unknown class": (
        lambda: verdict(verify_certificate(certificate(
            z2_in_z4(), ("e",), {"e": ("e", "e"), "a2": ("e", "g"),
                                 "a": ("b", "e"), "a3": ("b", "g")}))),
        ("fails", "factorization of a references unknown class b", None)),
    "certificate: factorization not reproduced": (
        lambda: verdict(verify_certificate(certificate(
            z2_in_z4(), ("e",), {"e": ("e", "e"), "a2": ("e", "g"),
                                 "a": ("e", "e"), "a3": ("e", "g")}))),
        ("fails", "factorization of a = (e, e) is not reproduced by "
         "map(e) ⊗ e", ("e", "e", "a"))),
    "certificate: not block regular": (
        lambda: verdict(verify_certificate(certificate(
            z2_in(NONASSOCIATIVE, "g"), ("e", "x"),
            {"e": ("e", "e"), "g": ("e", "g"), "x": ("x", "e"),
             "y": ("x", "g")}))),
        ("fails", "sub action is not block regular at (β=g, t=x, s=g): "
         "map(g) ⊗ y = y ≠ x", ("g", "x", "g"))),
    # a true certificate with an entry for a label Z/4 does not have
    "certificate: factorization key outside the ambient basis": (
        lambda: verdict(verify_certificate(certificate(
            z2_in_z4(), ("e", "a"), {"e": ("e", "e"), "a2": ("e", "g"),
                                     "a": ("a", "e"), "a3": ("a", "g"),
                                     "zz": ("nope", "q")}))),
        ("fails", "factorization key zz is not an ambient basis label",
         ("zz",))),
    # sgn ⊗ std = std: the class of std has no injective representative
    "search: representative not injective": (
        lambda: search(z2_in(REP_S3, "sgn")),
        ("unknown", ("std is not injective: e ⊗ std and g ⊗ std both give "
                     "std",), None)),
    # g ⊗ x = g puts x in the class of e, but map(s) ⊗ e reaches e and g
    # only; x ⊄ g ⊗ g = e breaks Frobenius reciprocity, so no document
    # loads the ring
    "search: factorization does not cover": (
        lambda: search(z2_in(table_ring(["e", "g", "x"], {
            ("g", "g"): {"e": 1}, ("g", "x"): {"g": 1},
            ("x", "g"): {"g": 1}, ("x", "x"): {"e": 1}}), "g")),
        ("unknown", ("factorization does not cover x within depth 4",), None)),
    "search: factorization collision": (
        lambda: search(z2_in(SPLIT_WINDOW, "s"), depth=1),
        ("unknown", ("factorization collision at c: classes a and b overlap",),
         None)),
    # over a lazy ring a module of unbounded rank stays undecided
    "module: standardness over a lazy ring": (
        lambda: verdict(is_standard(restrict(standard_module(su2_ring()),
                                             so3_subring()))),
        ("unknown", None, None)),
    "module: dimension not positive": (
        lambda: cli({"m.json": {"kind": "module", "ring": Z2_DOC,
                                "basis": ["j"], "action": [["g", "j", {"j": 1}]],
                                "dim": {"j": 0}}},
                    "validate", "m.json"),
        ("fails", "module dimension of j is 0, not positive", None, None)),
    "module: not standard": (
        lambda: cli({"m.json": FIXED_DOC}, "standard", "m.json"),
        ("fails", "no basis bijection intertwines the action with the "
         "regular one", None, None)),
    # the class of e represented by a2: the induced module is still regular
    "standardize: no unit class": (
        lambda: standardize(z2_in_z4(), ("a2", "a"), {
            "e": ("a2", "g"), "a2": ("a2", "e"), "a": ("a", "e"),
            "a3": ("a", "g")}),
        ("fails", "certificate has no unit-class representative", None)),
    # with one class, induction never reads the unit's own entry
    "standardize: missing factorization entry": (
        lambda: standardize(identity_embedding(z2()), ("e",),
                            {"g": ("e", "g")}),
        ("fails", "w(1_e⊙e) = e has no factorization entry", ("e", "e"))),
    # the classes of A3 in S3 as a certificate of S3 in itself: the induced
    # module is regular, but the three-point source is not, so the map read
    # from the unit block cannot intertwine
    "standardize: extracted map does not intertwine": (
        lambda: standardize(identity_embedding(S3), ("e", "t"), {
            "e": ("e", "e"), "r": ("e", "r"), "rr": ("e", "rr"),
            "t": ("t", "e"), "rt": ("t", "r"), "tr": ("t", "rr")}, POINTS),
        ("fails", "extracted map does not intertwine at (t, p0): r ≠ t",
         ("t", "p0"))),
    "standardize: extracted map not injective": (
        lambda: standardize(identity_embedding(group_ring(cyclic_group(3))),
                            ("e",), {"e": ("e", "a"), "a": ("e", "a"),
                                     "a2": ("e", "a2")}),
        ("fails", "extracted map is not injective", None)),
    # the identity embedding of Z2 ∗ Z2 at depth 1: g and h are each linked
    # to ε, though h ⊗ g lies outside the window, so the window is one class
    "cli: identity embedding of a lazy ring": (
        lambda: cli({"free.json": FREE_DOC,
                     "id.json": {"kind": "embedding", "canonical": "identity",
                                 "ring": FREE_DOC}},
                    "divisible", "free.json", "--sub", "id.json", "--depth", "1"),
        ("holds", None, None, 1)),
    "cli: census past its deadline": (
        lambda: cli({"z2.json": Z2_DOC}, "enumerate", "z2.json", "--max-rank",
                    "2", "--max-coeff", "1", "--max-seconds", "0"),
        ("unknown", "budget exhausted; census incomplete", None, 2)),
}


@pytest.mark.parametrize("site", sorted(CASES))
def test_fails_site(site):
    run, expected = CASES[site]
    assert run() == expected
