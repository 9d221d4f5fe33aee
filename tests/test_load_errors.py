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
    "ring: empty basis": (
        dict(EXPLICIT_Z2, basis=[]),
        "explicit_ring: basis must be a non-empty list of labels"),
    "ring: duplicate fusion entry": (
        dict(EXPLICIT_Z2, fusion=[["g", "g", {"e": 1}], ["g", "g", {"e": 1}]]),
        "explicit_ring: duplicate fusion entry (g, g)"),
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
