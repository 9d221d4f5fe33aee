"""Every load-error site a definition document can reach, in the loader
and in the constructors behind it, each reached by a minimal document.

Each case runs the CLI on its documents and pins exit 4, an empty stdout
and the exact `error:` line; `{top}` in a message is the document's path.
The input errors that only a library call reaches are pinned by their
exception type and message.
"""

import contextlib
import gc
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
    cyclic_group,
    find_intertwiner,
    group_from_permutations,
    identity_embedding,
    induce,
    inversion_action,
    restrict,
    restrict_and_decompose,
    s3_character_table,
    semidirect_product,
    standard_module,
    su2_ring,
)
from fusionkit import group_ring as ring_of
from fusionkit.census import CensusResult, EnumerationBudget
from fusionkit.cli import cli_dispatch
from fusionkit.cyclotomic import cyclotomic_polynomial
from fusionkit.elements import InvalidInputError, UnknownBasisError
from fusionkit.serialize import LoadError, census_doc, load, object_doc

EXPLICIT_Z2 = {"kind": "explicit_ring", "basis": ["e", "g"], "unit": "e",
               "conj": {"e": "e", "g": "g"}, "dim": {"e": 1, "g": 1},
               "fusion": [["g", "g", {"e": 1}]]}
Z2_GROUP = cyclic_group(2, generator="g").to_doc()


def group_ring(group):
    return {"kind": "construct", "construct": "group_ring", "group": group}


def module(action, **extra):
    """A rank-1 module on the basis ["j"] over the explicit Z2 ring."""
    return dict({"kind": "module", "ring": EXPLICIT_Z2, "basis": ["j"],
                 "action": action}, **extra)


def character_table(classes, irreps):
    return {"kind": "construct", "construct": "rep_ring", "character_table": {
        "classes": [{"label": label, "size": size} for label, size in classes],
        "irreps": [{"label": label, "values": values}
                   for label, values in irreps]}}


TWO_CLASSES = [("1", 1), ("2", 1)]
# ζ24 and ζ24⁵ sum to √3·ζ8, so (1, −½ ± x, −½ ∓ x) with x = √3·ζ8 / 2 are
# orthonormal rows beside the trivial one, and neither is the conjugate of
# a row
ROW_A = {"zeta": 24, "coeffs": {"0": [-1, 2], "1": [1, 2], "5": [1, 2]}}
ROW_B = {"zeta": 24, "coeffs": {"0": [-1, 2], "1": [-1, 2], "5": [-1, 2]}}


def direct_chain(length):
    """``length`` inline direct products, each the previous one times the
    trivial group ring."""
    trivial = group_ring({"elements": ["e"], "mult": [["e", "e", "e"]]})
    doc = trivial
    for _ in range(length):
        doc = {"kind": "construct", "construct": "direct_product",
               "left": doc, "right": trivial}
    return doc


def semidirect(target, action):
    """Z2 = {e, g} acting on ``target`` by the permutations ``action``."""
    return {"kind": "construct", "construct": "semidirect_product",
            "group": Z2_GROUP, "target": target, "action": action}


def identity_on(labels):
    return {x: x for x in labels}


Z3 = group_ring(cyclic_group(3).to_doc())
Z4 = group_ring(cyclic_group(4).to_doc())
Z5 = group_ring(cyclic_group(5).to_doc())
REP_S3 = {"kind": "construct", "construct": "rep_ring",
          "character_table": s3_character_table().to_doc()}
ID3, ID4 = identity_on(["e", "a", "a2"]), identity_on(["e", "a", "a2", "a3"])
SEMI = "semidirect_product: "
TABLE = "rep_ring.character_table: "

# name → (document run as `validate`, or (document, argv), the error
# message); a string document is the file's text
CASES = {
    # --- the loader
    "ring: zero denominator": (
        dict(EXPLICIT_Z2, dim={"e": 1, "g": [1, 0]}),
        "dim[g]: zero denominator"),
    "ring: boolean in a dimension fraction": (
        dict(EXPLICIT_Z2, dim={"e": 1, "g": [True, 2]}),
        "dim[g]: expected integer or [numerator, denominator]"),
    "ring: empty basis": (
        dict(EXPLICIT_Z2, basis=[]),
        "explicit_ring: basis must be a non-empty list of labels"),
    "ring: duplicate fusion entry": (
        dict(EXPLICIT_Z2, fusion=[["g", "g", {"e": 1}], ["g", "g", {"e": 1}]]),
        "explicit_ring: duplicate fusion entry (g, g)"),
    "ring: two-item fusion entry": (
        dict(EXPLICIT_Z2, fusion=[["g", "g"]]),
        "explicit_ring: fusion entries are [a, b, {{label: coeff}}]"),
    "ring: float coefficient": (
        dict(EXPLICIT_Z2, fusion=[["g", "g", {"e": 1.0}]]),
        "fusion[g,g]: expected dict of int"),
    # a JSON boolean is not an integer, though Python reads true as 1
    "ring: boolean coefficient": (
        dict(EXPLICIT_Z2, fusion=[["g", "g", {"e": True}]]),
        "fusion[g,g]: expected dict of int"),
    "ring: coefficient past 64 bits": (
        dict(EXPLICIT_Z2, fusion=[["g", "g", {"e": 2**70}]]),
        f"coefficient {2**70} exceeds the signed 64-bit range"),
    # the loader reads every entry before the constructor checks any label
    "ring: a loader fault after an unknown label": (
        dict(EXPLICIT_Z2, fusion=[["g", "z", {"e": 1}], ["g", "g", {"e": 1}],
                                  ["g", "e"]]),
        "explicit_ring: fusion entries are [a, b, {{label: coeff}}]"),
    # a name is copied into the normalized document, so only a string loads
    "ring: name type": (
        dict(EXPLICIT_Z2, name=5),
        "explicit_ring: name: expected str"),
    "module: name type": (
        module([["g", "j", {"j": 1}]], name=[1, 2]),
        "module: name: expected str"),
    "embedding: name type": (
        {"kind": "embedding", "name": {"kind": "x"}, "sub": EXPLICIT_Z2,
         "ambient": EXPLICIT_Z2, "map": {"e": "e", "g": "g"}},
        "embedding: name: expected str"),
    "character value: zeta order": (
        character_table([("1", 1)], [("triv", [{"zeta": 0, "coeffs": {}}])]),
        "rep_ring.character_table.triv: zeta order must be a positive integer"),
    "character value: exponent": (
        character_table([("1", 1)],
                        [("triv", [{"zeta": 2, "coeffs": {"x": 1}}])]),
        "rep_ring.character_table.triv: exponent 'x' is not an integer"),
    "module: missing fields": (
        {"kind": "module"},
        "module: missing fields ['action', 'basis', 'ring']"),
    "construct: unknown construction": (
        {"kind": "construct", "construct": "e8"},
        "construct: unknown construction 'e8'"),
    "construct: fields": (
        {"kind": "construct", "construct": "su2", "left": EXPLICIT_Z2},
        "construct su2: expected fields [], got ['left']"),
    # induce prints provenance beside the module document, not inside it
    "module: induced with provenance": (
        {"kind": "module", "induced": {}, "provenance": 5},
        "module: unknown fields ['provenance'] rejected"),
    "module: duplicate action entry": (
        module([["g", "j", {"j": 1}], ["g", "j", {"j": 1}]]),
        "module: duplicate action entry (g, j)"),
    "module: unit action": (
        module([["g", "j", {"j": 1}], ["e", "j", {"j": 2}]]),
        "module: action[e,j] contradicts the implied unit action"),
    "module: dim cover": (
        module([["g", "j", {"j": 1}]], dim={"k": 1}),
        "module: dim must cover exactly the module basis"),
    "embedding: canonical form with the wrong ambient": (
        {"kind": "embedding", "canonical": "direct_left", "ambient": {
            "kind": "construct", "construct": "free_product", "left": Z3,
            "right": Z4}},
        "embedding direct_left needs a direct_product construct as its "
        "ambient"),
    "embedding: unknown canonical form": (
        {"kind": "embedding", "canonical": "diagonal"},
        "embedding: unknown canonical form 'diagonal'"),
    "certificate: empty classes": (
        {"kind": "certificate", "classes": [], "factorization": {},
         "verified_depth": 4, "embedding": {
             "kind": "embedding", "canonical": "identity", "ring": EXPLICIT_Z2}},
        "certificate: classes must be a non-empty list of representative "
        "labels"),
    "certificate: verified_depth": (
        {"kind": "certificate", "classes": ["e"], "factorization": {},
         "verified_depth": 0, "embedding": {
             "kind": "embedding", "canonical": "identity", "ring": EXPLICIT_Z2}},
        "certificate: verified_depth must be a positive integer"),
    # json.load and the nested loads recurse once per level
    "nesting: JSON": (
        "[" * 100_000 + "]" * 100_000,
        "cannot read {top}: JSON nests too deeply"),
    "nesting: inline definitions": (
        direct_chain(300),
        "{top}: definition nests too deeply"),
    "census as input": (
        {"kind": "census"},
        "census documents are outputs, not loadable inputs"),
    "wrong kind for the command": (
        (module([["g", "j", {"j": 1}]]), ["product", "top.json", "e", "e"]),
        "expected a ring document, found kind 'module'"),
    # --- constructors: rings and groups
    "ring: duplicate basis labels": (
        dict(EXPLICIT_Z2, basis=["e", "g", "g"]),
        "ring explicit ring: duplicate basis labels"),
    "ring: its name in the message": (
        dict(EXPLICIT_Z2, basis=["e", "g", "g"], name="R"),
        "ring R: duplicate basis labels"),
    # a Clebsch-Gordan ring rejects a label outside it when the embedding
    # is checked
    "embedding: odd label of SO3": (
        {"kind": "embedding", "sub": group_ring(Z2_GROUP),
         "ambient": {"kind": "construct", "construct": "so3"},
         "map": {"e": "x0", "g": "x1"}},
        "odd label 'x1' is not in SO3"),
    "embedding: unknown label of SU2": (
        {"kind": "embedding", "sub": group_ring(Z2_GROUP),
         "ambient": {"kind": "construct", "construct": "su2"},
         "map": {"e": "x0", "g": "y"}},
        "unknown basis label 'y' in SU2"),
    "embedding: its name in the message": (
        {"kind": "embedding", "name": "E", "sub": EXPLICIT_Z2,
         "ambient": EXPLICIT_Z2, "map": {"e": "e"}},
        "embedding E: map keys must be exactly the sub labels; missing "
        "['g'], stray []"),
    "module: its name in the message": (
        module([["g", "j", {"k": 1}]], name="M"),
        "module M: action (g, j) hits unknown label 'k'"),
    # a module table's checks, in order: per entry its labels, the sign of
    # its coefficients, then its targets; missing pairs after every entry
    "module: a missing pair": (
        module([["g", "j", {"k": 1}]], basis=["j", "k"], name="M"),
        "module M: action undefined for (g, k); missing pairs are not zero"),
    "module: a negative coefficient before an unknown target": (
        module([["g", "j", {"j": -1, "z": 1}]], name="M"),
        "negative coefficient -1·j in g ⊗ j of module M"),
    "module: an unknown label before a missing pair": (
        module([["g", "j", {"j": 1}], ["h", "k", {"k": 1}]], basis=["j", "k"],
               name="M"),
        "module M: action entry (h, k) names an unknown label"),
    "group: table not closed": (
        group_ring({"elements": ["e"], "mult": [["e", "e", "z"]]}),
        "group_ring.group: table not closed: (e, e) ↦ 'z'"),
    "group: elements not distinct": (
        group_ring({"elements": ["e", "e"], "mult": [["e", "e", "e"]]}),
        "group_ring.group: group elements must be distinct"),
    "group: empty": (
        group_ring({"elements": [], "mult": []}),
        "group_ring.group: group must be non-empty"),
    # the first entry would be Z/2's a ⊗ a = a, which has no identity
    "group: duplicate mult entry": (
        group_ring({"elements": ["e", "a"],
                    "mult": [["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"],
                             ["a", "a", "a"], ["a", "a", "e"]]}),
        "group_ring.group: duplicate mult entry (a, a)"),
    "group: mult entry outside the elements": (
        group_ring({"elements": ["e"], "mult": [["e", "e", "e"], ["z", "z", "q"]]}),
        "group_ring.group: multiplication table entry (z, z) is not over the "
        "group elements"),
    "group: no identity": (
        group_ring({"elements": ["a", "b"],
                    "mult": [[x, y, "a"] for x in "ab" for y in "ab"]}),
        "group_ring.group: table has no two-sided identity"),
    # --- constructors: character tables
    "character table: no class": (
        character_table([], []),
        TABLE + "character table needs at least one class"),
    "character table: duplicate class labels": (
        character_table([("1", 1), ("1", 1)],
                        [("triv", [1, 1]), ("sgn", [1, -1])]),
        TABLE + "duplicate class labels"),
    "character table: class size": (
        character_table([("1", 1), ("2", 0)],
                        [("triv", [1, 1]), ("sgn", [1, -1])]),
        TABLE + "class sizes must be positive integers"),
    # a JSON boolean is not an integer, though Python reads true as 1
    "character table: class size type": (
        character_table([("1", True)], [("triv", [1])]),
        "rep_ring.character_table.classes size: expected int"),
    "character table: identity class": (
        character_table([("1", 2)], [("triv", [1])]),
        TABLE + "first class must be the identity class, size 1"),
    "character table: duplicate irreducible labels": (
        character_table(TWO_CLASSES, [("triv", [1, 1]), ("triv", [1, -1])]),
        TABLE + "duplicate irreducible labels"),
    "character table: row length": (
        character_table(TWO_CLASSES, [("triv", [1, 1]), ("sgn", [1])]),
        TABLE + "row sgn has 1 values"),
    "character table: degree": (
        character_table([("1", 1)], [("triv", [-1])]),
        TABLE + "degree of triv is not a positive integer"),
    "character table: no trivial character": (
        character_table(TWO_CLASSES, [("a", [1, {"re": 0, "im": 1}]),
                                      ("b", [1, {"re": 0, "im": -1}])]),
        TABLE + "table has no trivial character"),
    "character table: not closed under conjugation": (
        character_table([("1", 1), ("2", 1), ("3", 1)],
                        [("triv", [1, 1, 1]), ("r", [1, ROW_A, ROW_B]),
                         ("s", [1, ROW_B, ROW_A])]),
        TABLE + "table is not closed under conjugation at r"),
    # --- constructors: automorphism actions of semi-direct products
    "action: lazy target": (
        semidirect({"kind": "construct", "construct": "su2"},
                   {"e": {}, "g": {}}),
        SEMI + "automorphism actions need a finite target ring"),
    "action: missing permutation": (
        semidirect(Z3, {"e": ID3}),
        SEMI + "action missing permutation for g"),
    "action: not a permutation": (
        semidirect(Z3, {"e": ID3, "g": {"e": "e", "a": "a", "a2": "a"}}),
        SEMI + "action of g is not a permutation of the basis"),
    "action: identity acts": (
        semidirect(Z3, {"e": {"e": "e", "a": "a2", "a2": "a"}, "g": ID3}),
        SEMI + "identity element acts non-trivially: a ↦ a2"),
    "action: not a homomorphism": (
        semidirect(Z4, {"e": ID4,
                        "g": {"e": "e", "a": "a2", "a2": "a3", "a3": "a"}}),
        SEMI + "action is not a homomorphism at (g, g, a)"),
    "action: conj": (
        semidirect(Z4, {"e": ID4,
                        "g": {"e": "e", "a": "a2", "a2": "a", "a3": "a3"}}),
        SEMI + "action of g does not commute with conj at a"),
    "action: dimension": (
        semidirect(REP_S3, {"e": identity_on(["triv", "sgn", "std"]),
                            "g": {"triv": "triv", "sgn": "std", "std": "sgn"}}),
        SEMI + "action of g changes the dimension of sgn"),
    "action: not a group element": (
        semidirect(Z3, {"e": ID3, "g": {"e": "e", "a": "a2", "a2": "a"},
                        "zz": {"e": "e", "a": "a", "a2": "q"}}),
        SEMI + "action names zz, not a group element"),
    "action: not multiplicative": (
        semidirect(Z5, {"e": identity_on(["e", "a", "a2", "a3", "a4"]),
                        "g": {"e": "e", "a": "a2", "a2": "a",
                              "a3": "a4", "a4": "a3"}}),
        SEMI + "action of g is not multiplicative at (a, a)"),
}


def run(doc, argv):
    """Exit code, stdout, stderr and the path of top.json."""
    with tempfile.TemporaryDirectory() as workdir:
        top = os.path.join(workdir, "top.json")
        with open(top, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_dispatch([top if a == "top.json" else a for a in argv])
    return code, out.getvalue(), err.getvalue(), top


@pytest.mark.parametrize("site", sorted(CASES))
def test_load_error_site(site):
    doc, message = CASES[site]
    doc, argv = doc if isinstance(doc, tuple) else (doc, ["validate", "top.json"])
    code, out, err, top = run(doc, argv)
    assert (code, out, err) == (4, "", f"error: {message.format(top=top)}\n")


def test_nesting_below_the_limit_loads():
    code, out, err, _ = run(direct_chain(200), ["validate", "top.json"])
    assert (code, err) == (0, "")
    assert out.startswith("verdict: holds\n")


def test_library_load_turns_deep_nesting_into_a_load_error(tmp_path):
    top = tmp_path / "top.json"
    top.write_text(json.dumps(direct_chain(300)), encoding="utf-8")
    with pytest.raises(LoadError, match="definition nests too deeply") as info:
        load(str(top))
    assert str(info.value) == f"{top}: definition nests too deeply"
    assert isinstance(info.value.__cause__, RecursionError)


def test_a_deep_chain_of_files_names_the_file_given(tmp_path):
    # each level is its own file, referenced by path from the next one
    doc = group_ring({"elements": ["e"], "mult": [["e", "e", "e"]]})
    for level in range(300):
        (tmp_path / f"level{level}.json").write_text(json.dumps(doc),
                                                     encoding="utf-8")
        doc = {"kind": "construct", "construct": "direct_product",
               "left": f"level{level}.json", "right": f"level{level}.json"}
    top = tmp_path / "top.json"
    top.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    # a collection run at recursion depth may print to stderr from a
    # finalizer, so none runs while the loader recurses
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_dispatch(["validate", str(top)])
    finally:
        if enabled:
            gc.enable()
    assert (code, out.getvalue(), err.getvalue()) == (
        4, "", f"error: {top}: definition nests too deeply\n")


# a Z2 module whose action is not symmetric: g ⊗ m0 = m1 but g ⊗ m1 = m1
Z2_RING = ring_of(cyclic_group(2, generator="g"))
LOPSIDED = BasedModule(ring=Z2_RING, basis=["m0", "m1"], name="lopsided",
                       action={("g", "m0"): Element.basis("m1"),
                               ("g", "m1"): Element.basis("m1")})
Z3_RING = ring_of(cyclic_group(3))
# the trivial ring, built without a document
BARE = BasedRing(name="R", unit="e", conj=str, dim=lambda a: 1,
                 product=lambda a, b: Element.basis("e"), basis=["e"])

# name → (library call, exception type, message)
LIBRARY_CASES = {
    "cyclic group of order 0": (
        lambda: cyclic_group(0),
        InvalidInputError, "cyclic group order must be positive"),
    "permutation generators: not a permutation": (
        lambda: group_from_permutations({"r": (0, 0)}),
        InvalidInputError, "generator r is not a permutation"),
    "permutation generators: none": (
        lambda: group_from_permutations({}),
        InvalidInputError, "no generators given"),
    "group: unknown product": (
        lambda: cyclic_group(2).mul("e", "x"),
        UnknownBasisError, "unknown group elements (e, x)"),
    "group: unknown inverse": (
        lambda: cyclic_group(2).inv("x"),
        UnknownBasisError, "unknown group element 'x'"),
    "inversion action of a 3-element group": (
        lambda: inversion_action(cyclic_group(3), Z3_RING),
        InvalidInputError, "inversion action expects a two-element group"),
    "semidirect product: another group": (
        lambda: semidirect_product(cyclic_group(2, generator="h"), Z3_RING,
                                   inversion_action(cyclic_group(2), Z3_RING)),
        InvalidInputError, "action group does not match the given group"),
    "lazy ring without generators": (
        lambda: BasedRing(name="R", unit="1", conj=str, dim=lambda a: 1,
                          product=lambda a, b: Element.basis("1")),
        InvalidInputError, "ring R: lazy ring needs generators"),
    "lazy ring: its basis": (
        lambda: su2_ring().basis,
        InvalidInputError, "ring SU2 has an infinite basis"),
    "lazy ring: negative depth": (
        lambda: su2_ring().basis_up_to_depth(-1),
        InvalidInputError, "depth must be non-negative"),
    "cyclotomic order 0": (
        lambda: cyclotomic_polynomial(0),
        InvalidInputError, "cyclotomic order must be positive"),
    "element: label not a string": (
        lambda: Element({1: 1}),
        InvalidInputError, "basis label 1 is not a string"),
    "element: relabelled to a non-string": (
        lambda: Element.basis("a").map_basis(lambda label: 1),
        InvalidInputError, "basis label 1 is not a string"),
    "module: duplicate basis labels": (
        lambda: BasedModule(ring=Z2_RING, basis=["j", "j"], action={}),
        InvalidInputError, "module module: duplicate basis labels"),
    "module: infinite basis without a window": (
        lambda: BasedModule(ring=su2_ring(), basis=None, action=str),
        InvalidInputError, "module module: infinite basis needs a window "
        "function"),
    "module: action hits an unknown label": (
        lambda: BasedModule(ring=Z2_RING, basis=["j"],
                            action={("g", "j"): Element.basis("k")}),
        InvalidInputError, "module module: action (g, j) hits unknown label "
        "'k'"),
    "module: a boolean coefficient": (
        lambda: BasedModule(ring=Z2_RING, basis=["j"],
                            action={("g", "j"): {"j": True}}),
        InvalidInputError, "coefficient True is not an integer"),
    "module: a float coefficient": (
        lambda: BasedModule(ring=Z2_RING, basis=["j"],
                            action={("g", "j"): {"j": 1.5}}),
        InvalidInputError, "coefficient 1.5 is not an integer"),
    "module: its basis over a lazy ring": (
        lambda: standard_module(su2_ring()).basis,
        InvalidInputError, "module standard(SU2) has an infinite basis"),
    "module: unknown label": (
        lambda: LOPSIDED.action("g", "zz"),
        UnknownBasisError, "unknown module label 'zz' in module lopsided"),
    "intertwiner: different rings": (
        lambda: find_intertwiner(standard_module(Z2_RING),
                                 standard_module(Z3_RING)),
        InvalidInputError, "modules live over different rings"),
    "intertwiner: lazy modules": (
        lambda: find_intertwiner(standard_module(su2_ring()),
                                 standard_module(su2_ring())),
        InvalidInputError, "intertwiner search needs finite module bases"),
    "induce: lazy source": (
        lambda: induce(standard_module(su2_ring()), DivisibilityCertificate(
            embedding=identity_embedding(su2_ring()), classes=("x0",),
            factorization={}, verified_depth=1)),
        InvalidInputError, "induction needs a finite source basis"),
    "restrict: not a based module": (
        lambda: restrict(LOPSIDED, identity_embedding(Z2_RING)),
        InvalidInputError, "restriction is not a based module: based symmetry "
        "fails at (α=g, j=m0, j'=m1): m0 ⊂ g⊗m1 is False but m1 ⊂ conj(g)⊗m0 "
        "is True"),
    "decompose: lazy module": (
        lambda: restrict_and_decompose(standard_module(su2_ring()),
                                       identity_embedding(su2_ring())),
        InvalidInputError, "decomposition needs a finite module basis"),
    # object documents: nothing to serialize
    "document: certificate over an embedding without one": (
        lambda: object_doc(DivisibilityCertificate(
            embedding=identity_embedding(BARE), classes=("e",),
            factorization={"e": ("e", "e")}, verified_depth=1)),
        LoadError, "certificate's embedding has no serializable form"),
    "document: module without one": (
        lambda: object_doc(LOPSIDED),
        LoadError, "BasedModule has no serializable definition"),
    "document: census of a ring without one": (
        lambda: census_doc(CensusResult(ring=BARE, budget=EnumerationBudget(1, 1),
                                        modules=[], complete=True)),
        LoadError, "census ring has no serializable definition"),
}


@pytest.mark.parametrize("site", sorted(LIBRARY_CASES))
def test_library_input_error(site):
    call, kind, message = LIBRARY_CASES[site]
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (kind, message)


def test_a_module_table_of_dicts_has_the_rows_of_its_element_table():
    # {label: coeff} entries, zeros included, give the rows of Elements
    elements = {("g", "m0"): Element({"m0": 1, "m1": 2}),
                ("g", "m1"): Element.basis("m1")}
    dicts = {("g", "m0"): {"m1": 2, "m0": 1, "m2": 0}, ("g", "m1"): {"m1": 1}}
    modules = [BasedModule(ring=Z2_RING, basis=["m0", "m1", "m2"], action=table)
               for table in ({**elements, ("g", "m2"): Element()},
                             {**dicts, ("g", "m2"): {}})]
    for pair in [("e", "m2"), *elements, ("g", "m2")]:
        assert modules[0].action(*pair) == modules[1].action(*pair)
    assert modules[0]._rows == modules[1]._rows


# --- the first of two faults ---------------------------------------------------
# A document's loader faults (an entry's shape, a duplicate, a coefficient
# that is not an int or leaves the signed 64-bit range, a unit entry that
# contradicts the unit) win over its constructor faults (the conj and dim
# tables, labels, signs, missing pairs), whichever entry comes first.  A
# direct constructor call checks its conj and dim tables first, then its
# entries in order; explicit_ring reports a missing pair before the first
# entry that names an unknown label or holds a negative coefficient, and it
# checks no coefficient of such an entry.  BasedModule raises at the first
# faulty entry, and a missing pair after every entry.

from fusionkit import explicit_ring  # noqa: E402
from fusionkit.serialize import load_doc  # noqa: E402

# Z3 on e, a, b: a ⊗ a = b, a ⊗ b = b ⊗ a = e, b ⊗ b = a
Z3_FUSION = {("a", "a"): {"b": 1}, ("a", "b"): {"e": 1},
             ("b", "a"): {"e": 1}, ("b", "b"): {"a": 1}}
Z3_TABLES = {"basis": ["e", "a", "b"], "unit": "e",
             "conj": {"e": "e", "a": "b", "b": "a"},
             "dim": {"e": 1, "a": 1, "b": 1}}


def z3_doc(*entries, drop=(), **fields):
    """The explicit Z3 document with ``entries`` replacing or joining its
    fusion entries, in that order after the others, and without the pairs
    in ``drop``."""
    given = {(a, b): value for a, b, value in entries}
    fusion = [[a, b, value] for (a, b), value in Z3_FUSION.items()
              if (a, b) not in given and (a, b) not in drop]
    return dict({"kind": "explicit_ring", **Z3_TABLES,
                 "fusion": fusion + [list(entry) for entry in entries]}, **fields)


def z3_ring(*entries, drop=(), **tables):
    """explicit_ring on the Z3 tables, with entries as in ``z3_doc``."""
    fusion = {pair: value for pair, value in Z3_FUSION.items() if pair not in drop}
    for a, b, value in entries:
        fusion.pop((a, b), None)
        fusion[(a, b)] = value
    return explicit_ring(name="R", fusion=fusion, **dict(Z3_TABLES, **tables))


def z2_module(table, basis=("j",)):
    return BasedModule(ring=Z2_RING, basis=list(basis), action=table, name="M")


BIG = 2**64
RANGE = f"coefficient {BIG} exceeds the signed 64-bit range"

# name → (call, exception type, message)
FIRST_ERRORS = {
    # explicit-ring documents
    "ring doc: a later malformed entry after an unknown label": (
        lambda: load_doc(z3_doc(("a", "a", {"z": 1}), ("a", "b", 5))),
        LoadError, "explicit_ring: fusion entries are [a, b, {label: coeff}]"),
    "ring doc: a later boolean coefficient after an unknown label": (
        lambda: load_doc(z3_doc(("a", "z", {"b": 1}), ("b", "b", {"a": True}))),
        LoadError, "fusion[b,b]: expected dict of int"),
    "ring doc: a float coefficient and a missing pair": (
        lambda: load_doc(z3_doc(("a", "b", {"e": 1.0}), drop=[("b", "b")])),
        LoadError, "fusion[a,b]: expected dict of int"),
    "ring doc: a non-int coefficient on an unknown label": (
        lambda: load_doc(z3_doc(("a", "a", {"z": "1"}))),
        LoadError, "fusion[a,a]: expected dict of int"),
    "ring doc: an out-of-range coefficient and a missing pair": (
        lambda: load_doc(z3_doc(("b", "a", {"e": BIG}), drop=[("a", "a")])),
        OverflowError, RANGE),
    "ring doc: a non-int before an out-of-range coefficient": (
        lambda: load_doc(z3_doc(("a", "a", {"b": BIG, "a": 0.5}))),
        LoadError, "fusion[a,a]: expected dict of int"),
    "ring doc: an out-of-range coefficient and a conj mismatch": (
        lambda: load_doc(z3_doc(("b", "b", {"a": -BIG}), conj={"e": "e"})),
        OverflowError, f"coefficient {-BIG} exceeds the signed 64-bit range"),
    "ring doc: an out-of-range unit entry and a duplicate basis label": (
        lambda: load_doc(z3_doc(("e", "a", {"a": BIG}),
                                basis=["e", "a", "b", "a"])),
        OverflowError, RANGE),
    "ring doc: a negative coefficient before an unknown target": (
        lambda: load_doc(z3_doc(("a", "a", {"b": -1}), ("b", "b", {"z": 1}))),
        LoadError, "ring explicit ring: negative coefficient -1·b in fusion "
        "entry (a, a)"),
    "ring doc: an unknown target before a negative coefficient": (
        lambda: load_doc(z3_doc(("a", "a", {"z": 1, "b": 1}),
                                ("b", "b", {"a": 2, "b": -1}))),
        LoadError, "ring explicit ring: fusion entry (a, a) names unknown "
        "labels ['z']"),
    "ring doc: a negative coefficient and a missing pair": (
        lambda: load_doc(z3_doc(("a", "a", {"b": -1}), drop=[("b", "b")])),
        LoadError, "ring explicit ring: fusion entry for (b, b) is missing; "
        "unlisted pairs are undefined, not zero"),
    "ring doc: zeros dropped before the unit check": (
        lambda: load_doc(z3_doc(("a", "e", {"a": 1, "b": 0}),
                                ("e", "b", {"b": 1, "a": 1}))),
        LoadError, "explicit_ring: fusion[e,b] contradicts the implied unit "
        "product"),
    # direct explicit_ring calls
    "explicit_ring: a later float coefficient after an unknown label": (
        lambda: z3_ring(("a", "z", {"b": 1}), ("b", "b", {"a": 1.5})),
        InvalidInputError, "coefficient 1.5 is not an integer"),
    "explicit_ring: no coefficient check on an unknown label": (
        lambda: z3_ring(("a", "a", {"z": 1.5})),
        InvalidInputError, "ring R: fusion entry (a, a) names unknown labels "
        "['z']"),
    "explicit_ring: a boolean coefficient and a missing pair": (
        lambda: z3_ring(("a", "b", {"e": True}), drop=[("b", "b")]),
        InvalidInputError, "coefficient True is not an integer"),
    "explicit_ring: an out-of-range coefficient and a missing pair": (
        lambda: z3_ring(("b", "a", {"e": BIG}), drop=[("a", "a")]),
        OverflowError, RANGE),
    "explicit_ring: an out-of-range coefficient and a conj mismatch": (
        lambda: z3_ring(("b", "b", {"a": BIG}), conj={"e": "e", "a": "b"}),
        InvalidInputError, "ring R: conj table must map exactly the basis "
        "labels; it differs at ['b']"),
    "explicit_ring: a negative coefficient before an unknown target": (
        lambda: z3_ring(("a", "a", Element({"b": -1})), ("b", "b", {"z": 1})),
        InvalidInputError, "ring R: negative coefficient -1·b in fusion entry "
        "(a, a)"),
    "explicit_ring: a negative coefficient and a missing pair": (
        lambda: z3_ring(("a", "a", {"b": -1}), drop=[("b", "a")]),
        InvalidInputError, "ring R: fusion entry for (b, a) is missing; "
        "unlisted pairs are undefined, not zero"),
    # module documents
    "module doc: a later malformed entry after an unknown label": (
        lambda: load_doc(module([["h", "j", {"j": 1}], ["g", "j"]])),
        LoadError, "module: action entries are [alpha, j, {label: coeff}]"),
    "module doc: a later boolean coefficient after an unknown target": (
        lambda: load_doc(module([["g", "j", {"k": 1}], ["e", "j", {"j": True}]])),
        LoadError, "action[e,j]: expected dict of int"),
    "module doc: a float coefficient and a missing pair": (
        lambda: load_doc(module([["g", "j", {"j": 1.0}]], basis=["j", "k"])),
        LoadError, "action[g,j]: expected dict of int"),
    "module doc: an out-of-range coefficient and a missing pair": (
        lambda: load_doc(module([["g", "k", {"j": BIG}]], basis=["j", "k"])),
        OverflowError, RANGE),
    "module doc: an out-of-range coefficient and a dim mismatch": (
        lambda: load_doc(module([["g", "j", {"j": BIG}]], dim={"k": 1})),
        OverflowError, RANGE),
    "module doc: a ring conj mismatch before an out-of-range coefficient": (
        lambda: load_doc(dict(module([["g", "j", {"j": BIG}]]),
                              ring=dict(EXPLICIT_Z2, conj={"e": "e"}))),
        LoadError, "ring explicit ring: conj table must map exactly the basis "
        "labels; it differs at ['g']"),
    "module doc: a negative coefficient before a later unknown target": (
        lambda: load_doc(module([["g", "j", {"k": -1}], ["g", "k", {"z": 1}]],
                                basis=["j", "k"], name="M")),
        LoadError, "negative coefficient -1·k in g ⊗ j of module M"),
    "module doc: an unknown target before a later negative coefficient": (
        lambda: load_doc(module([["g", "j", {"z": 1}], ["g", "k", {"j": -1}]],
                                basis=["j", "k"], name="M")),
        LoadError, "module M: action (g, j) hits unknown label 'z'"),
    "module doc: a duplicate basis label before an unknown target": (
        lambda: load_doc(module([["g", "j", {"z": 1}]], basis=["j", "j"])),
        LoadError, "module unnamed: duplicate basis labels"),
    # direct BasedModule calls
    "BasedModule: an unknown label before a later float coefficient": (
        lambda: z2_module({("h", "j"): {"j": 1}, ("g", "j"): {"j": 1.5}}),
        InvalidInputError, "module M: action entry (h, j) names an unknown "
        "label"),
    "BasedModule: a float coefficient before a later unknown label": (
        lambda: z2_module({("g", "j"): {"j": 1.5}, ("h", "j"): {"j": 1}}),
        InvalidInputError, "coefficient 1.5 is not an integer"),
    "BasedModule: an out-of-range coefficient and a missing pair": (
        lambda: z2_module({("g", "j"): {"k": BIG}}, basis=["j", "k"]),
        OverflowError, RANGE),
    "BasedModule: a negative coefficient before a later unknown target": (
        lambda: z2_module({("g", "j"): Element({"k": -1}),
                           ("g", "k"): {"z": 1}}, basis=["j", "k"]),
        InvalidInputError, "negative coefficient -1·k in g ⊗ j of module M"),
    "BasedModule: a non-int coefficient on an unknown target": (
        lambda: z2_module({("g", "j"): {"z": "1"}}),
        InvalidInputError, "coefficient '1' is not an integer"),
}


@pytest.mark.parametrize("site", sorted(FIRST_ERRORS))
def test_first_of_two_faults(site):
    call, kind, message = FIRST_ERRORS[site]
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (kind, message)


# Rep(S3) on 1, s, r: s ⊗ s = 1, s ⊗ r = r ⊗ s = r, r ⊗ r = 1 ⊕ s ⊕ r
REP_S3 = {"kind": "explicit_ring", "basis": ["1", "s", "r"], "unit": "1",
          "conj": {"1": "1", "s": "s", "r": "r"}, "dim": {"1": 1, "s": 1, "r": 2},
          "fusion": [["s", "s", {"1": 1}], ["s", "r", {"r": 1, "s": 0}],
                     ["r", "s", {"r": 1}], ["r", "r", {"r": 1, "1": 1, "s": 1}]]}


class _Entry(list):
    pass


class _Terms(dict):
    pass


def test_a_loaded_ring_has_the_rows_and_document_of_its_direct_build():
    # entries of several terms, a zero, a list subclass and a dict subclass:
    # the loader's rows and normalized document are those of explicit_ring
    # on the same tables, and of the plain document
    direct = explicit_ring(
        name="explicit ring", basis=REP_S3["basis"], unit="1",
        conj=REP_S3["conj"], dim=REP_S3["dim"],
        fusion={(a, b): Element(terms) for a, b, terms in REP_S3["fusion"]})
    odd = dict(REP_S3, fusion=[_Entry(["s", "s", _Terms({"1": 1})]),
                               *REP_S3["fusion"][1:]])
    rings = [load_doc(doc) for doc in (REP_S3, odd)]
    for ring in (direct, *rings):
        for a in ring.basis:
            for b in ring.basis:
                ring._row(a, b)
    assert rings[0]._rows == rings[1]._rows == direct._rows
    assert rings[0].doc == rings[1].doc
    assert rings[0].doc["fusion"] == [["r", "r", {"1": 1, "r": 1, "s": 1}],
                                      ["r", "s", {"r": 1}], ["s", "r", {"r": 1}],
                                      ["s", "s", {"1": 1}]]
    assert rings[0].product("r", "r") == Element({"1": 1, "s": 1, "r": 1})
