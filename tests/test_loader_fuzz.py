"""Mutated definition files never break the CLI's exit-code contract.

Each example takes one valid document, replaces one value anywhere in it
with an int, string, list, object or null, and validates the result in
process.  Exit 1 means a mathematical ``fails`` and must carry its witness;
every malformed input ends in exit 4 with an ``error:`` line; nothing
escapes as an exception.
"""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from fusionkit.cli import cli_dispatch

Z2 = {"kind": "construct", "construct": "group_ring",
      "group": {"elements": ["e", "g"],
                "mult": [["e", "e", "e"], ["e", "g", "g"],
                         ["g", "e", "g"], ["g", "g", "e"]]}}
Z3 = {"kind": "construct", "construct": "group_ring",
      "group": {"elements": ["1", "a", "b"],
                "mult": [["1", "1", "1"], ["1", "a", "a"], ["1", "b", "b"],
                         ["a", "1", "a"], ["a", "a", "b"], ["a", "b", "1"],
                         ["b", "1", "b"], ["b", "a", "1"], ["b", "b", "a"]]}}
EXPLICIT_Z4 = {"kind": "explicit_ring", "basis": ["e", "a", "a2", "a3"],
               "unit": "e", "conj": {"e": "e", "a": "a3", "a2": "a2", "a3": "a"},
               "dim": {"e": 1, "a": 1, "a2": 1, "a3": [2, 2]},
               "fusion": [[x, y, {["e", "a", "a2", "a3"][(i + k) % 4]: 1}]
                          for i, x in enumerate(["e", "a", "a2", "a3"]) if i
                          for k, y in enumerate(["e", "a", "a2", "a3"]) if k]}
EMBEDDING = {"kind": "embedding", "sub": "z2.json", "ambient": "z4.json",
             "map": {"e": "e", "g": "a2"}}
CERTIFICATE = {"kind": "certificate", "embedding": EMBEDDING,
               "classes": ["e", "a"],
               "factorization": {"e": ["e", "e"], "a2": ["e", "g"],
                                 "a": ["a", "e"], "a3": ["a", "g"]},
               "verified_depth": 4, "exhaustive": True}
RANK1 = {"kind": "module", "ring": "z2.json", "basis": ["j"],
         "action": [["g", "j", {"j": 1}]], "dim": {"j": 1}}

FILES = {
    "z2.json": Z2,
    "z4.json": EXPLICIT_Z4,
    "emb.json": EMBEDDING,
    "cert.json": CERTIFICATE,
    "rank1.json": RANK1,
    "induced.json": {"kind": "module", "induced": {
        "source": "rank1.json", "certificate": "cert.json"}},
    "restricted.json": {"kind": "module", "restricted": {
        "source": {"kind": "module", "standard_of": "z4.json"},
        "embedding": "emb.json"}},
    "free-left.json": {"kind": "embedding", "canonical": "free_left",
                       "ambient": {"kind": "construct",
                                   "construct": "free_product",
                                   "left": "z2.json", "right": Z3}},
    "semidirect.json": {"kind": "embedding", "canonical": "semidirect_target",
                        "ambient": {"kind": "construct",
                                    "construct": "semidirect_product",
                                    "group": Z2["group"], "target": Z3,
                                    "action": {"e": {"1": "1", "a": "a", "b": "b"},
                                               "g": {"1": "1", "a": "b", "b": "a"}}}},
    "rep.json": {"kind": "construct", "construct": "rep_ring",
                 "character_table": {
                     "classes": [{"label": "c0", "size": 1},
                                 {"label": "c1", "size": 1}],
                     "irreps": [{"label": "t", "values": [1, 1]},
                                {"label": "s", "values": [1, {"re": -1, "im": 0}]}]}},
}


def _paths(doc, prefix=()):
    """Every position in a JSON document: object values and list items."""
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


SCALARS = st.one_of(st.integers(-3, 70), st.text(max_size=4), st.none())
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, doc in FILES.items():
        (path / name).write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("name", sorted(FILES))
def test_valid_documents_hold(name, workdir):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_dispatch(["validate", str(workdir / name)]) == 0


MUTANTS = itertools.count()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(workdir, data):
    name = data.draw(st.sampled_from(sorted(FILES)), label="file")
    doc = FILES[name]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    mutant = _replaced(doc, path, data.draw(VALUES, label="value"))
    # a fresh file each time: rewriting one in place can wait on a flush
    target = workdir / f"mutant-{next(MUTANTS)}.json"
    target.write_text(json.dumps(mutant))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(["validate", str(target), "--json"])
    assert code in (0, 1, 2, 3, 4)
    if code == 1:
        verdict = json.loads(out.getvalue())["verdict"]
        assert verdict["status"] == "fails" and verdict["witness"]
    if code == 4:
        assert err.getvalue().startswith("error: ")
