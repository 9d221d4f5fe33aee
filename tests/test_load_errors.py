"""Every load-error site a definition document can reach, in the loader
and in the constructors behind it, each reached by a minimal document.

Each case runs the CLI on its documents and pins exit 4, an empty stdout
and the exact `error:` line; `{top}` in a message is the document's path.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from fusionkit import cyclic_group, s3_character_table
from fusionkit.cli import cli_dispatch
from fusionkit.serialize import LoadError, load

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
    "character value: zeta order": (
        character_table([("1", 1)], [("triv", [{"zeta": 0, "coeffs": {}}])]),
        "rep_ring.character_table.triv: zeta order must be a positive integer"),
    "character value: exponent": (
        character_table([("1", 1)],
                        [("triv", [{"zeta": 2, "coeffs": {"x": 1}}])]),
        "rep_ring.character_table.triv: exponent 'x' is not an integer"),
    "construct: fields": (
        {"kind": "construct", "construct": "su2", "left": EXPLICIT_Z2},
        "construct su2: expected fields [], got ['left']"),
    "module: duplicate action entry": (
        module([["g", "j", {"j": 1}], ["g", "j", {"j": 1}]]),
        "module: duplicate action entry (g, j)"),
    "module: unit action": (
        module([["g", "j", {"j": 1}], ["e", "j", {"j": 2}]]),
        "module: action[e,j] contradicts the implied unit action"),
    "module: dim cover": (
        module([["g", "j", {"j": 1}]], dim={"k": 1}),
        "module: dim must cover exactly the module basis"),
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
    "group: elements not distinct": (
        group_ring({"elements": ["e", "e"], "mult": [["e", "e", "e"]]}),
        "group_ring.group: group elements must be distinct"),
    "group: empty": (
        group_ring({"elements": [], "mult": []}),
        "group_ring.group: group must be non-empty"),
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
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(["validate", str(top)])
    assert (code, out.getvalue(), err.getvalue()) == (
        4, "", f"error: {top}: definition nests too deeply\n")
