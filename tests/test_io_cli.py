import hashlib
import json
import os
import runpy
import sys

import pytest

from fusionkit import (Element, find_divisibility_certificate, induction,
                       modules, serialize)
from fusionkit import cyclic_group, group_ring, su2_ring, symmetric_group_3
from fusionkit.cli import cli_dispatch
from fusionkit.serialize import (
    LoadError,
    ProductCache,
    ValidationFailure,
    census_doc,
    content_hash,
    dumps,
    load,
    load_doc,
)

Z2_DOC = {
    "kind": "construct", "construct": "group_ring",
    "group": {"elements": ["e", "g"],
              "mult": [["e", "e", "e"], ["e", "g", "g"],
                       ["g", "e", "g"], ["g", "g", "e"]]},
}

Z4_DOC = {
    "kind": "construct", "construct": "group_ring",
    "group": {"elements": ["e", "a", "a2", "a3"],
              "mult": [[f"a{i}" if i > 1 else ("a" if i == 1 else "e"),
                        f"a{k}" if k > 1 else ("a" if k == 1 else "e"),
                        (lambda s: f"a{s}" if s > 1 else ("a" if s == 1 else "e"))((i + k) % 4)]
                       for i in range(4) for k in range(4)]},
}

EXPLICIT_Z2 = {
    "kind": "explicit_ring",
    "basis": ["e", "g"],
    "unit": "e",
    "conj": {"e": "e", "g": "g"},
    "dim": {"e": 1, "g": 1},
    "fusion": [["g", "g", {"e": 1}]],
}


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    out = {
        "z2": write("z2.json", Z2_DOC),
        "z4": write("z4.json", Z4_DOC),
        "explicit_z2": write("explicit-z2.json", EXPLICIT_Z2),
        "su2": write("su2.json", {"kind": "construct", "construct": "su2"}),
        "so3_embed": write("so3-embed.json",
                           {"kind": "embedding", "canonical": "so3_in_su2"}),
        "emb": write("z2-in-z4.json",
                     {"kind": "embedding", "sub": "z2.json",
                      "ambient": "z4.json",
                      "map": {"e": "e", "g": "a2"}}),
        "rank1": write("rank1-z2.json",
                       {"kind": "module", "ring": "z2.json", "basis": ["j"],
                        "action": [["g", "j", {"j": 1}]]}),
        "std_z2": write("std-z2.json",
                        {"kind": "module", "standard_of": "z2.json"}),
        "bad_module": write("bad-module.json",
                            {"kind": "module", "ring": "z2.json",
                             "basis": ["j"],
                             "action": [["g", "j", {"j": 2}]]}),
    }
    emb = load(out["emb"], expect="embedding")
    cert = find_divisibility_certificate(emb, 4).certificate
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(dumps(cert), encoding="utf-8")
    out["cert"] = str(cert_path)
    out["dir"] = str(tmp_path)
    return out


# --- schema and round trips ---------------------------------------------------

def test_load_explicit_ring(files):
    ring = load(files["explicit_z2"], expect="ring")
    assert ring.basis == ("e", "g")
    assert ring.product("g", "g") == Element.basis("e")


def test_unknown_fields_rejected(tmp_path):
    doc = dict(EXPLICIT_Z2)
    doc["extra"] = 1
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(LoadError):
        load(str(path))


def test_missing_fusion_pair_rejected(tmp_path):
    doc = {"kind": "explicit_ring", "basis": ["e", "g", "h"], "unit": "e",
           "conj": {"e": "e", "g": "g", "h": "h"},
           "dim": {"e": 1, "g": 1, "h": 1},
           "fusion": [["g", "g", {"e": 1}]]}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(LoadError, match="missing"):
        load(str(path))


def test_unit_product_contradiction_rejected(tmp_path):
    doc = dict(EXPLICIT_Z2)
    doc["fusion"] = [["g", "g", {"e": 1}], ["e", "g", {"e": 1}]]
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(LoadError, match="implied"):
        load(str(path))


def test_unresolved_label_rejected(tmp_path):
    doc = dict(EXPLICIT_Z2)
    doc["fusion"] = [["g", "g", {"zzz": 1}]]
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(LoadError):
        load(str(path))


def test_bad_module_fails_validation_with_witness(files):
    with pytest.raises(ValidationFailure) as info:
        load(files["bad_module"])
    assert "associativity" in info.value.verdict.witness


def test_ring_roundtrip_canonical_bytes(files):
    ring = load(files["z2"], expect="ring")
    text = dumps(ring)
    again = load_doc(json.loads(text), base_dir=files["dir"])
    assert dumps(again) == text


def test_module_roundtrip_canonical_bytes(files):
    module = load(files["rank1"], expect="module")
    text = dumps(module)
    again = load_doc(json.loads(text), base_dir=files["dir"])
    assert dumps(again) == text


def test_certificate_roundtrip(files):
    cert = load(files["cert"], expect="certificate")
    assert cert.classes == ("e", "a")
    assert dumps(cert) == open(files["cert"]).read()


def test_standard_module_doc(files):
    module = load(files["std_z2"], expect="module")
    assert module.basis == ("e", "g")


def test_embedding_refs_resolve_relative(files):
    emb = load(files["emb"], expect="embedding")
    assert emb.embed("g") == "a2"


def test_rep_ring_doc_with_cyclotomic_values(tmp_path):
    doc = {"kind": "construct", "construct": "rep_ring",
           "character_table": {
               "classes": [{"label": "c0", "size": 1},
                           {"label": "c1", "size": 1},
                           {"label": "c2", "size": 1}],
               "irreps": [
                   {"label": "chi0", "values": [1, 1, 1]},
                   {"label": "chi1",
                    "values": [1, {"zeta": 3, "coeffs": {"1": [1, 1]}},
                               {"zeta": 3, "coeffs": {"2": [1, 1]}}]},
                   {"label": "chi2",
                    "values": [1, {"zeta": 3, "coeffs": {"2": [1, 1]}},
                               {"zeta": 3, "coeffs": {"1": [1, 1]}}]}]}}
    path = tmp_path / "z3rep.json"
    path.write_text(json.dumps(doc))
    ring = load(str(path), expect="ring")
    assert ring.product("chi1", "chi2") == Element.basis("chi0")


def test_module_dimension_checked_when_supplied(tmp_path):
    (tmp_path / "z2.json").write_text(json.dumps(Z2_DOC))
    good = {"kind": "module", "ring": "z2.json", "basis": ["j"],
            "action": [["g", "j", {"j": 1}]], "dim": {"j": [3, 2]}}
    path = tmp_path / "good.json"
    path.write_text(json.dumps(good))
    module = load(str(path), expect="module")
    assert module.doc["dim"] == {"j": [3, 2]}
    bad = {"kind": "module", "ring": "z2.json",
           "basis": ["e", "g"],
           "action": [["g", "e", {"g": 1}], ["g", "g", {"e": 1}]],
           "dim": {"e": 1, "g": 2}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationFailure, match="incompatible"):
        load(str(path))


def test_load_free_product_construct_with_path_refs(tmp_path):
    (tmp_path / "z2g.json").write_text(json.dumps(Z2_DOC))
    z2h = {"kind": "construct", "construct": "group_ring",
           "group": {"elements": ["e", "h"],
                     "mult": [["e", "e", "e"], ["e", "h", "h"],
                              ["h", "e", "h"], ["h", "h", "e"]]}}
    doc = {"kind": "construct", "construct": "free_product",
           "left": "z2g.json", "right": z2h}
    path = tmp_path / "fp.json"
    path.write_text(json.dumps(doc))
    ring = load(str(path), expect="ring")
    assert ring.basis_up_to_depth(2) == ["ε", "g", "h", "gh", "hg"]


def test_free_product_conj_matches_reversal(tmp_path):
    (tmp_path / "z2g.json").write_text(json.dumps(Z2_DOC))
    doc = {"kind": "construct", "construct": "free_product",
           "left": "z2g.json",
           "right": {"kind": "construct", "construct": "group_ring",
                     "group": {"elements": ["e", "h"],
                               "mult": [["e", "e", "e"], ["e", "h", "h"],
                                        ["h", "e", "h"], ["h", "h", "e"]]}}}
    path = tmp_path / "fp.json"
    path.write_text(json.dumps(doc))
    ring = load(str(path), expect="ring")
    ring.basis_up_to_depth(3)
    assert ring.conj("ghg") == "ghg"
    assert ring.conj("gh") == "hg"


def test_census_doc_roundtrip_shape(z2):
    from fusionkit import EnumerationBudget, enumerate_torsion_modules
    result = enumerate_torsion_modules(z2, EnumerationBudget(2, 1))
    doc = census_doc(result)
    assert doc["kind"] == "census"
    assert doc["complete"] is True
    assert len(doc["modules"]) == 2
    assert doc["ring_hash"] == content_hash(z2.doc)


def test_content_hash_is_hashlib_s_sha256_with_or_without_the_builtin(monkeypatch):
    # CPython's built-in _sha256 where it exists, hashlib's where it does
    # not; both give hashlib's digest of the canonical ASCII bytes
    doc = {"kind": "module", "name": "Rep(S₃)", "basis": ["ψ", "j"],
           "action": [["ρ", "ψ", {"j": 1}]]}
    data = serialize.canonical_json(doc).encode("ascii")
    assert b"\\u03c8" in data and b"\\u2083" in data
    want = hashlib.sha256(data).hexdigest()
    assert content_hash(doc) == want
    builtin = serialize._sha256()
    monkeypatch.setitem(sys.modules, "_sha256", None)
    fallback = serialize._sha256()
    assert fallback is hashlib.sha256
    assert builtin(data).hexdigest() == fallback(data).hexdigest() == want


# --- product cache -------------------------------------------------------------

def test_cache_roundtrip_and_corrupt_tail(tmp_path, z4):
    # a log is written once and never read back, so a corrupt tail changes
    # neither a value nor the log
    cache = ProductCache(str(tmp_path))
    assert cache.load_into(z4) == 0
    assert cache.flush(z4) == 16
    path = tmp_path / (content_hash(z4.doc) + ".jsonl")
    with open(path, "a") as handle:
        handle.write('{"a": "a", "b":')
    logged = path.read_bytes()
    fresh = group_ring(cyclic_group(4))
    cache2 = ProductCache(str(tmp_path))
    assert cache2.load_into(fresh) == 0
    assert fresh.product("a", "a3") == Element.basis("e")
    assert cache2.flush(fresh) == 0
    assert path.read_bytes() == logged


def test_cache_never_changes_values(tmp_path, z4):
    # nothing in a log is read back into a ring, so a cache cannot change a
    # value or a verdict; flush writes only computed values, each pair once
    cache = ProductCache(str(tmp_path))
    cache.load_into(z4)
    z4.product("a", "a")
    # building the group proved its ring, which computed all 4 × 4 products
    assert cache.flush(z4) == 16
    assert cache.flush(z4) == 0  # written once, never appended to


def test_cold_log_is_every_product_sorted(tmp_path, z4):
    # building the group proved its ring, which computed all 4 × 4 products
    assert ProductCache(str(tmp_path)).flush(z4) == 16
    expected = [f'{{"a":"{a}","b":"{b}","v":{{"{c}":1}}}}\n'
                for a, b, c in sorted(Z4_DOC["group"]["mult"])]
    name = content_hash(z4.doc) + ".jsonl"
    assert os.listdir(tmp_path) == [name]  # no temporary file is left
    assert (tmp_path / name).read_text(encoding="utf-8") == "".join(expected)


def test_cache_skips_rings_without_documents_and_blank_records(tmp_path, z4):
    bare = group_ring(cyclic_group(2))
    bare.doc = None  # no content hash, so no log
    cache = ProductCache(str(tmp_path))
    assert cache.load_into(bare) == 0
    bare.product("a", "a")
    assert cache.flush(bare) == 0
    assert cache.flush(su2_ring()) == 0  # nothing computed, so no log
    assert list(tmp_path.iterdir()) == []
    path = tmp_path / (content_hash(z4.doc) + ".jsonl")
    path.write_text('\n{"a": "a", "b": "a", "v": {"a2": 1}}\n\n', encoding="utf-8")
    assert cache.load_into(z4) == 0
    assert cache.flush(z4) == 0
    assert path.read_text(encoding="utf-8") == (
        '\n{"a": "a", "b": "a", "v": {"a2": 1}}\n\n')


def test_cache_log_is_never_read_back(tmp_path):
    # a poisoned record for a pair the ring has not computed changes nothing
    ring = su2_ring()
    path = tmp_path / (content_hash(ring.doc) + ".jsonl")
    poisoned = (b'{"a":"x5","b":"x5","v":{"x1":1}}\n'
                b'{"a": "x1", "b": "x1", "v": {"x3": 1}}\n')
    path.write_bytes(poisoned)
    cache = ProductCache(str(tmp_path))
    assert cache.load_into(ring) == 0
    assert ring.stored_pairs() == []
    assert ring.product("x5", "x5") == Element(
        {f"x{k}": 1 for k in range(0, 11, 2)})
    assert ring.product("x1", "x1") == Element({"x0": 1, "x2": 1})
    assert cache.flush(ring) == 0  # the log exists already
    assert path.read_bytes() == poisoned


def test_warm_cache_load_leaves_the_ring_as_it_is(tmp_path):
    # the free product's unit word ε is logged with an escape
    from fusionkit import free_product
    def ring():
        return free_product(group_ring(cyclic_group(2, generator="g")),
                            group_ring(cyclic_group(3))).ring
    cold = ring()
    cold.basis_up_to_depth(3)
    cache = ProductCache(str(tmp_path))
    assert cache.load_into(cold) == 0
    logged = cache.flush(cold)
    assert logged == len(cold.stored_pairs()) > 0
    assert any(a == "ε" for a, _ in cold.stored_pairs())
    path = tmp_path / (content_hash(cold.doc) + ".jsonl")
    cold_log = path.read_bytes()
    assert cold_log.count(b"\n") == logged
    warm = ring()
    before = warm.stored_pairs()
    warm_cache = ProductCache(str(tmp_path))
    assert warm_cache.load_into(warm) == 0
    assert warm.stored_pairs() == before
    warm.basis_up_to_depth(4)
    assert warm_cache.flush(warm) == 0
    assert path.read_bytes() == cold_log


X2 = b'{"a":"x2","b":"x2","v":{"x0":1,"x2":1,"x4":1}}\n'
X3 = b'{"a":"x3","b":"x3","v":{"x0":1,"x2":1,"x4":1,"x6":1}}\n'


@pytest.mark.parametrize("log", [
    X2 + b'{"a":"x1","b":"x1","v":{"x0":1,"x2":1}}',  # complete but for its newline
    X2 + b'{"a":"x1","b":"x1","v":{"x0":1,' + X3,  # torn, then appended to
    X2 + b'{"a":"x1","b":"x1","v":{"x0":1,"x2":1}}' + X3,
    X2 + b'{"a":"x1","b":"x1","v":[]}\n' + X3,
    X2 + b'["x1","x1"]\n' + X3,
    X2 + b'{"a":"x1","b":1,"v":{}}\n' + X3,
    X2 + b'{"a":"x\xff","b":"x1","v":{}}\n' + X3,
    X2 + b'{"a": "x0", "b":',
    b'{"a":"x1","b":"x1","v":{"x5":1}}\n',
    b'\n' + X2 + b'\n\n',
], ids=["no-newline", "torn-then-appended", "merged", "list-value",
        "list-record", "int-label", "bad-utf8", "torn", "poisoned",
        "blank-lines"])
def test_cache_existing_log_is_left_as_it_is(files, tmp_path, capsys,
                                             monkeypatch, log):
    # a command that computes more products than a log holds neither reads
    # nor extends it, and prints what it prints without the cache
    argv = ["product", files["su2"], "x3", "x3", "--depth", "4", "--json"]
    name = content_hash({"kind": "construct", "construct": "su2"}) + ".jsonl"
    assert cli_dispatch(argv + ["--no-cache"]) == 0
    uncached = capsys.readouterr().out
    # into an empty directory the command logs more than any log below holds
    monkeypatch.setenv("FUSIONKIT_CACHE", str(tmp_path / "cold"))
    assert cli_dispatch(argv) == 0
    assert capsys.readouterr().out == uncached
    cold_log = (tmp_path / "cold" / name).read_bytes()
    assert X3 in cold_log and cold_log.count(b"\n") > 2
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / name).write_bytes(log)
    monkeypatch.setenv("FUSIONKIT_CACHE", str(cache))
    assert cli_dispatch(argv) == 0
    assert capsys.readouterr().out == uncached
    assert os.listdir(cache) == [name]
    assert (cache / name).read_bytes() == log


# --- CLI -----------------------------------------------------------------------

def test_cli_main_and_the_module_entry_point(files, monkeypatch, capsys):
    from fusionkit import cli
    assert cli.main(["product", files["su2"], "x1", "x1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "x0 ⊕ x2"
    # `python -m fusionkit.cli` runs main on sys.argv and exits with its code
    monkeypatch.setattr("sys.argv", ["fusionkit", "product", files["su2"],
                                     "x1", "zz"])
    # runpy warns that it runs a second copy of the imported module
    with pytest.raises(SystemExit) as info, \
            pytest.warns(RuntimeWarning, match="found in sys.modules"):
        runpy.run_module("fusionkit.cli", run_name="__main__")
    assert info.value.code == 4
    assert "zz" in capsys.readouterr().err


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_product(files, capsys):
    code, out, _ = run_cli(capsys, "product", files["su2"], "x1", "x1")
    assert code == 0
    assert out.splitlines()[0] == "x0 ⊕ x2"


def test_cli_product_unknown_label(files, capsys):
    code, _, err = run_cli(capsys, "product", files["su2"], "x1", "zz")
    assert code == 4
    assert "zz" in err


def test_cli_divisible_found(files, tmp_path, capsys):
    out_path = str(tmp_path / "cert-out.json")
    code, out, _ = run_cli(capsys, "divisible", files["z4"], "--sub",
                           files["emb"], "--out", out_path)
    assert code == 0
    cert = load(out_path, expect="certificate")
    assert cert.classes == ("e", "a")


def test_cli_divisible_absent(files, capsys):
    code, out, _ = run_cli(capsys, "divisible", files["su2"], "--sub",
                           files["so3_embed"], "--depth", "8")
    assert code == 2
    assert "x2 ⊗ x1 = x1 ⊕ x3" in out


def test_cli_divisible_mismatched_ambient(files, capsys):
    code, _, err = run_cli(capsys, "divisible", files["z2"], "--sub",
                           files["emb"])
    assert code == 4


def test_cli_torsion(files, capsys):
    code, out, _ = run_cli(capsys, "torsion", files["rank1"])
    assert code == 0
    assert "verdict: holds" in out


def test_cli_standard_fails_for_rank1(files, capsys):
    code, out, _ = run_cli(capsys, "standard", files["rank1"])
    assert code == 1
    assert "rank 1" in out


def test_cli_induce(files, tmp_path, capsys):
    out_path = str(tmp_path / "induced.json")
    code, out, _ = run_cli(capsys, "induce", files["rank1"], "--cert",
                           files["cert"], "--out", out_path)
    assert code == 0
    induced = load(out_path, expect="module")
    assert len(induced.basis) == 2


def test_cli_restrict_mismatched_rings(files, capsys):
    # restricting a z2 module along z2-in-z4 has mismatched rings
    code, out, _ = run_cli(capsys, "restrict", files["std_z2"], "--embed",
                           files["emb"])
    assert code == 4


def test_cli_restrict_decompose_std_z4(files, tmp_path, capsys):
    std_z4 = tmp_path / "std-z4.json"
    std_z4.write_text(json.dumps({"kind": "module", "standard_of": "z4.json"}))
    code, out, _ = run_cli(capsys, "restrict", str(std_z4), "--embed",
                           files["emb"], "--decompose")
    assert code == 0
    assert "count: 2" in out


def test_cli_restrict_serializes_no_document_without_out(files, tmp_path, capsys,
                                                         monkeypatch):
    # without --out the summands are serialized once, inside the emitted
    # --json document; with it the file holds their canonical JSON
    std_z4 = tmp_path / "std-z4.json"
    std_z4.write_text(json.dumps({"kind": "module", "standard_of": "z4.json"}))
    argv = ["restrict", str(std_z4), "--embed", files["emb"], "--decompose",
            "--json"]
    serialized = []
    real = serialize.canonical_json

    def counted(doc):
        serialized.append(doc)
        return real(doc)

    monkeypatch.setattr(serialize, "canonical_json", counted)
    code, out, _ = run_cli(capsys, *argv)
    # every other call hashes an input document, which has a kind
    emitted = [d for d in serialized if not (isinstance(d, dict) and "kind" in d)]
    assert code == 0 and len(emitted) == 1 and emitted[0]["command"] == "restrict"
    summands = json.loads(out)["result"]["summands"]
    written = tmp_path / "summands.json"
    code, again, _ = run_cli(capsys, *argv, "--out", str(written))
    assert code == 0 and json.loads(again)["result"]["summands"] == summands
    assert written.read_text(encoding="utf-8") == real(summands) + "\n"


def test_cli_standardize(files, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "standardize", files["std_z2"], "--cert",
                           files["cert"])
    assert code == 0
    assert "bijection" in out


def test_cli_standardize_of_a_non_standard_induced_module(files, capsys):
    # the rank-1 Z2 module induces to rank 2 over Z4, which is not standard
    code, out, err = run_cli(capsys, "standardize", files["rank1"], "--cert",
                             files["cert"], "--json")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["verdict"] == {"status": "fails", "witness": "rank 2 ≠ rank 4",
                              "data": [2, 4]}
    assert doc["result"] == {"induced_rank": 2}


def test_cli_enumerate(files, tmp_path, capsys):
    out_path = str(tmp_path / "census.json")
    code, out, _ = run_cli(capsys, "enumerate", files["z2"], "--max-rank", "2",
                           "--max-coeff", "1", "--out", out_path)
    assert code == 0
    assert "count: 2" in out
    doc = json.loads(open(out_path).read())
    assert doc["kind"] == "census"


@pytest.mark.parametrize("seconds", ["nan", "inf", "-1"])
def test_cli_enumerate_rejects_a_bad_wall_clock(seconds, files, capsys):
    # inf would print as Infinity, which is not JSON, and nan never expires
    code, out, err = run_cli(capsys, "enumerate", files["z2"], "--max-rank", "1",
                             "--max-coeff", "1", "--max-seconds", seconds,
                             "--json")
    assert (code, out) == (4, "")
    assert err.startswith("error: budget needs a finite max_seconds")


@pytest.mark.parametrize("argv", [
    ["induce", "rank1-z2.json", "--cert", "cert.json"],
    ["divisible", "z4.json", "--sub", "z2-in-z4.json"],
    ["restrict", "std-z2.json", "--embed", "emb-z2.json"],
    ["enumerate", "z2.json", "--max-rank", "1", "--max-coeff", "1"],
], ids=lambda argv: argv[0])
def test_cli_unwritable_out_is_an_io_error(argv, files, monkeypatch, capsys):
    monkeypatch.chdir(files["dir"])
    with open("emb-z2.json", "w") as handle:
        json.dump({"kind": "embedding", "canonical": "identity",
                   "ring": "z2.json"}, handle)
    target = os.path.join("no", "such", "dir", "x.json")
    code, out, err = run_cli(capsys, *argv, "--out", target, "--json")
    assert (code, out) == (4, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert not os.path.exists("no")


def test_cli_enumerate_z4_up_to_rank_4(files, capsys):
    # the transitive Z/4-sets: Z/4 / H for H = Z/4, Z/2 and 1
    code, out, _ = run_cli(capsys, "enumerate", files["z4"], "--max-rank", "4",
                           "--max-coeff", "1", "--json")
    assert code == 0
    census = json.loads(out)["result"]["census"]
    assert census["complete"]
    assert sorted(len(m["basis"]) for m in census["modules"]) == [1, 2, 4]


def test_cli_enumerate_s3_document_is_pinned(tmp_path, monkeypatch, capsys):
    # the S3 census up to rank 4, byte for byte: the census may change how it
    # searches, never what it emits
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s3.json").write_text(dumps(group_ring(symmetric_group_3())),
                                      encoding="utf-8")
    code, out, _ = run_cli(capsys, "enumerate", "s3.json", "--max-rank", "4",
                           "--max-coeff", "1", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "34e4586892fb20d189683a97e41f033dd8f2d825ed093430ff0529e57195dcd0")


def test_cli_validate_bad_module(files, capsys):
    code, out, _ = run_cli(capsys, "validate", files["bad_module"])
    assert code == 1
    assert "associativity" in out


IDEMPOTENT_RING = {
    "kind": "explicit_ring", "basis": ["e", "a"], "unit": "e",
    "conj": {"e": "e", "a": "a"}, "dim": {"e": 1, "a": 1},
    "fusion": [["a", "a", {"a": 1}]],
}
TRIVIAL_RING = {
    "kind": "explicit_ring", "basis": ["e"], "unit": "e",
    "conj": {"e": "e"}, "dim": {"e": 1}, "fusion": [],
}


@pytest.mark.parametrize("inline", [False, True])
def test_cli_validate_embedding_into_invalid_ring(inline, tmp_path, capsys):
    # a ⊗ a = a breaks the unit axiom; inline and by-path refs both validate
    (tmp_path / "idem.json").write_text(json.dumps(IDEMPOTENT_RING))
    emb = {"kind": "embedding", "sub": TRIVIAL_RING,
           "ambient": IDEMPOTENT_RING if inline else "idem.json",
           "map": {"e": "e"}}
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(emb))
    code, out, _ = run_cli(capsys, "validate", str(path), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"]["status"] == "fails"
    assert doc["verdict"]["witness"] == (
        "unit coefficient of conj(a) ⊗ a is 0, expected 1")
    assert doc["result"] == {"error": "ring failed validation"}


def test_cli_usage_error(capsys):
    code, _, err = run_cli(capsys, "definitely-not-a-command")
    assert code == 3


def test_cli_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/file.json")
    assert code == 4


def test_cli_json_outputs_are_deterministic(files, capsys):
    code1, out1, _ = run_cli(capsys, "torsion", files["rank1"], "--json")
    code2, out2, _ = run_cli(capsys, "torsion", files["rank1"], "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verdict"]["status"] == "holds"
    assert doc["version"] == "0.1.0"
    assert set(doc["inputs"]) == {"module"}


def test_cli_cold_warm_cache_identical(files, tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("FUSIONKIT_CACHE", str(cache_dir))
    commands = [
        ["product", files["su2"], "x1", "x1", "--json"],
        ["divisible", files["su2"], "--sub", files["so3_embed"],
         "--depth", "8", "--json"],
        ["divisible", files["z4"], "--sub", files["emb"], "--json"],
        ["torsion", files["rank1"], "--json"],
        ["standard", files["rank1"], "--json"],
        ["induce", files["rank1"], "--cert", files["cert"], "--json"],
        ["enumerate", files["z2"], "--max-rank", "2", "--max-coeff", "1",
         "--json"],
        ["standardize", files["std_z2"], "--cert", files["cert"], "--json"],
    ]
    cold = []
    for argv in commands:
        code = cli_dispatch(argv)
        cold.append((code, capsys.readouterr().out))
    assert (cache_dir).exists()
    warm = []
    for argv in commands:
        code = cli_dispatch(argv)
        warm.append((code, capsys.readouterr().out))
    assert cold == warm


def test_cli_no_cache_flag(files, tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("FUSIONKIT_CACHE", str(cache_dir))
    code = cli_dispatch(["product", files["z2"], "g", "g", "--no-cache"])
    capsys.readouterr()
    assert code == 0
    assert not cache_dir.exists()


def test_cli_unusable_cache_directory_is_a_load_error(files, tmp_path, capsys,
                                                      monkeypatch):
    # a cache directory below a file cannot be made: exit 4, no traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("FUSIONKIT_CACHE", str(blocker / "cache"))
    code, out, err = run_cli(capsys, "product", files["z2"], "g", "g")
    assert (code, out) == (4, "")
    assert err.startswith(f"error: cannot write product log {blocker / 'cache'}")


# --- one resolver: inline references validate like paths -----------------------

BAD_EMBEDDING = {"kind": "embedding", "sub": "z2.json", "ambient": "z4.json",
                 "map": {"e": "e", "g": "a"}}  # g is self-conjugate, a is not


def _ref_case(tmp_path, name, doc, inline):
    """``doc`` itself when inline, else the name of a file holding it."""
    if inline:
        return doc
    (tmp_path / name).write_text(json.dumps(doc))
    return name


def _validate(capsys, tmp_path, doc):
    path = tmp_path / "top.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", str(path), "--json")
    return code, json.loads(out) if out else None


@pytest.mark.parametrize("inline", [False, True], ids=["path", "inline"])
def test_cli_restricted_over_non_subring_embedding(inline, files, tmp_path, capsys):
    top = {"kind": "module", "restricted": {
        "source": {"kind": "module", "standard_of": "z4.json"},
        "embedding": _ref_case(tmp_path, "bad-emb.json", BAD_EMBEDDING, inline)}}
    code, doc = _validate(capsys, tmp_path, top)
    assert code == 1
    assert doc["result"] == {"error": "embedding failed validation"}
    assert doc["verdict"]["witness"] == (
        "map does not commute with conj at g: map(conj(g)) = a but "
        "conj(map(g)) = a3")


@pytest.mark.parametrize("inline", [False, True], ids=["path", "inline"])
def test_cli_induced_from_non_based_source(inline, files, tmp_path, capsys):
    bad = json.loads(open(files["bad_module"]).read())
    top = {"kind": "module", "induced": {
        "source": _ref_case(tmp_path, "bad-source.json", bad, inline),
        "certificate": "cert.json"}}
    code, doc = _validate(capsys, tmp_path, top)
    assert code == 1
    assert doc["result"] == {"error": "module failed validation"}
    assert "associativity" in doc["verdict"]["witness"]


@pytest.mark.parametrize("inline", [False, True], ids=["path", "inline"])
def test_cli_induced_along_swapped_certificate(inline, files, tmp_path, capsys):
    cert = json.loads(open(files["cert"]).read())
    table = cert["factorization"]
    table["a"], table["a3"] = table["a3"], table["a"]
    top = {"kind": "module", "induced": {
        "source": "rank1-z2.json",
        "certificate": _ref_case(tmp_path, "swapped.json", cert, inline)}}
    code, doc = _validate(capsys, tmp_path, top)
    assert code == 1
    assert doc["result"] == {"error": "certificate failed validation"}
    assert doc["verdict"]["witness"] == (
        "factorization of a is ('a', 'g'), but a arises as map(e) ⊗ a")


@pytest.mark.parametrize("inline", [False, True], ids=["path", "inline"])
def test_cli_map_embedding_missing_a_lazy_sub_label(inline, tmp_path, capsys):
    su2 = {"kind": "construct", "construct": "su2"}
    top = {"kind": "embedding", "sub": _ref_case(tmp_path, "su2.json", su2, inline),
           "ambient": su2, "map": {"x0": "x0", "x1": "x1"}}
    path = tmp_path / "top.json"
    path.write_text(json.dumps(top))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 4
    assert out == ""
    assert err == "error: embedding unnamed: map has no image for sub label 'x2'\n"


STRAY_KEY_EMBEDDING = {"kind": "embedding", "sub": "z2.json",
                       "ambient": "z4.json",
                       "map": {"e": "e", "g": "a2", "zz": "a"}}


@pytest.mark.parametrize("inline", [False, True], ids=["path", "inline"])
def test_cli_map_embedding_with_a_stray_key(inline, files, tmp_path, capsys):
    top = {"kind": "module", "restricted": {
        "source": {"kind": "module", "standard_of": "z4.json"},
        "embedding": _ref_case(tmp_path, "stray.json", STRAY_KEY_EMBEDDING,
                               inline)}}
    path = tmp_path / "top.json"
    path.write_text(json.dumps(top))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 4
    assert out == ""
    assert err == ("error: embedding unnamed: map keys must be exactly the "
                   "sub labels; missing [], stray ['zz']\n")


# --- one validation per definition and command ---------------------------------

def _count_ring_checks(monkeypatch):
    calls = []
    original = serialize.check_ring_axioms

    def counted(ring, depth=4):
        calls.append(len(ring.basis))
        return original(ring, depth)

    monkeypatch.setattr(serialize, "check_ring_axioms", counted)
    return calls


def test_cli_validate_checks_the_ring_once(files, capsys, monkeypatch):
    calls = _count_ring_checks(monkeypatch)
    code, _, _ = run_cli(capsys, "validate", files["z4"])
    assert code == 0
    assert calls == [4]


def test_cli_divisible_checks_a_ring_named_twice_once(files, capsys, monkeypatch):
    # the embedding file names the ambient file by path
    calls = _count_ring_checks(monkeypatch)
    code, _, _ = run_cli(capsys, "divisible", files["z4"], "--sub", files["emb"])
    assert code == 0
    assert sorted(calls) == [2, 4]


def test_cli_restrict_checks_the_restricted_module_once(files, tmp_path,
                                                        capsys, monkeypatch):
    calls = []
    original = modules.check_module_axioms

    def counted(m, depth=4):
        calls.append(m.name)
        return original(m, depth)

    # the restrict handler imports no axiom check: restrict and the loader
    # hold the name
    for namespace in (induction, serialize):
        monkeypatch.setattr(namespace, "check_module_axioms", counted)
    std_z4 = tmp_path / "std-z4.json"
    std_z4.write_text(json.dumps({"kind": "module", "standard_of": "z4.json"}))
    code, out, _ = run_cli(capsys, "restrict", str(std_z4), "--embed",
                           files["emb"], "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == {"status": "holds"}
    # once when std-z4.json loads, once inside restrict
    assert len(calls) == 2 and calls[1].startswith("Res(")


def _holds(value, target):
    """A value equal to ``target`` is somewhere in the JSON value ``value``."""
    if value == target:
        return True
    items = value.values() if isinstance(value, dict) else value
    return isinstance(value, (dict, list)) and any(_holds(v, target)
                                                   for v in items)


def _count_serializations_of(target, monkeypatch):
    calls = []
    original = serialize.canonical_json

    def counted(doc):
        calls.append(_holds(doc, target))
        return original(doc)

    monkeypatch.setattr(serialize, "canonical_json", counted)
    return calls


Z4_LABELS = ["e", "a", "a2", "a3"]
Z4_EXPLICIT = {"kind": "explicit_ring", "basis": Z4_LABELS, "unit": "e",
               "conj": {x: Z4_LABELS[-i % 4] for i, x in enumerate(Z4_LABELS)},
               "dim": dict.fromkeys(Z4_LABELS, 1),
               "fusion": [[x, y, {Z4_LABELS[(i + k) % 4]: 1}]
                          for i, x in enumerate(Z4_LABELS[1:], 1)
                          for k, y in enumerate(Z4_LABELS[1:], 1)]}
# certificate → embedding → ring, every reference inline
INLINE_CERT = {"kind": "certificate", "classes": ["e", "a"],
               "verified_depth": 4,
               "factorization": {"e": ["e", "e"], "a2": ["e", "g"],
                                 "a": ["a", "e"], "a3": ["a", "g"]},
               "embedding": {"kind": "embedding", "sub": EXPLICIT_Z2,
                             "ambient": Z4_EXPLICIT,
                             "map": {"e": "e", "g": "a2"}}}


def test_a_nested_inline_document_is_serialized_once(monkeypatch):
    calls = _count_serializations_of(Z4_EXPLICIT["fusion"], monkeypatch)
    cert = load_doc(INLINE_CERT, expect="certificate")
    assert cert.classes == ("e", "a")
    # its own memo key; the certificate's and the embedding's keys hold
    # the ring's key, not the ring
    assert calls.count(True) == 1


def test_cli_input_hash_is_the_whole_file_s(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(INLINE_CERT))
    calls = _count_serializations_of(Z4_EXPLICIT["fusion"], monkeypatch)
    code, out, _ = run_cli(capsys, "validate", str(path), "--json")
    assert code == 0
    # the input hash and the ring's memo key
    assert calls.count(True) == 2
    whole = json.dumps(INLINE_CERT, sort_keys=True, separators=(",", ":"))
    assert json.loads(out)["inputs"]["file"]["hash"] == hashlib.sha256(
        whole.encode("ascii")).hexdigest()


def test_cli_validate_serializes_a_plain_document_once(tmp_path, capsys,
                                                       monkeypatch):
    # a document with no inline definition: its printed hash is its load key
    n = 12
    labels = ["e"] + [f"a{i}" for i in range(1, n)]
    zn = {"kind": "explicit_ring", "basis": labels, "unit": "e",
          "conj": {x: labels[-i % n] for i, x in enumerate(labels)},
          "dim": dict.fromkeys(labels, 1),
          "fusion": [[x, y, {labels[(i + k) % n]: 1}]
                     for i, x in enumerate(labels[1:], 1)
                     for k, y in enumerate(labels[1:], 1)]}
    path = tmp_path / "zn.json"
    path.write_text(json.dumps(zn))
    calls = _count_serializations_of(zn["fusion"], monkeypatch)
    code, out, _ = run_cli(capsys, "validate", str(path), "--json")
    assert code == 0
    assert calls.count(True) == 1
    whole = json.dumps(zn, sort_keys=True, separators=(",", ":"))
    assert json.loads(out)["inputs"]["file"]["hash"] == hashlib.sha256(
        whole.encode("ascii")).hexdigest()


def test_cli_restrict_of_a_lazy_module_is_bounded(tmp_path, capsys):
    z3 = {"kind": "construct", "construct": "group_ring",
          "group": {"elements": ["e", "a", "b"],
                    "mult": [[x, y, "eab"[(i + k) % 3]]
                             for i, x in enumerate("eab")
                             for k, y in enumerate("eab")]}}
    free = {"kind": "construct", "construct": "free_product",
            "left": Z2_DOC, "right": z3}
    (tmp_path / "std-free.json").write_text(
        json.dumps({"kind": "module", "standard_of": free}))
    (tmp_path / "free-left.json").write_text(
        json.dumps({"kind": "embedding", "canonical": "free_left",
                    "ambient": free}))
    code, out, _ = run_cli(capsys, "restrict", str(tmp_path / "std-free.json"),
                           "--embed", str(tmp_path / "free-left.json"),
                           "--depth", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == {"status": "holds", "bound": 3}
    assert doc["result"]["rank"] is None


def test_load_doc_builds_a_repeated_definition_once(files):
    # z2.json by path in the source module and inline in the certificate
    cert = load(files["cert"], expect="certificate")
    induced = load_doc({"kind": "module", "induced": {
        "source": "rank1-z2.json", "certificate": "cert.json"}},
        base_dir=files["dir"])
    assert induced.source.ring is induced.certificate.embedding.sub
    assert cert.embedding.sub is not induced.certificate.embedding.sub


Z2H_DOC = json.loads(json.dumps(Z2_DOC).replace('"g"', '"h"'))


def _product_construct(canonical, inline, tmp_path):
    z2 = Z2_DOC if inline else "z2.json"
    z2h = _ref_case(tmp_path, "z2h.json", Z2H_DOC, inline)
    z4 = Z4_DOC if inline else "z4.json"
    if canonical == "semidirect_target":
        return {"kind": "construct", "construct": "semidirect_product",
                "group": Z2_DOC["group"], "target": z4,
                "action": {"e": {x: x for x in ("e", "a", "a2", "a3")},
                           "g": {"e": "e", "a": "a3", "a2": "a2", "a3": "a"}}}
    if canonical == "free_left":  # the infinite dihedral group: small windows
        return {"kind": "construct", "construct": "free_product",
                "left": z2, "right": z2h}
    return {"kind": "construct", "construct": "direct_product",
            "left": z2, "right": z4}


@pytest.mark.parametrize("inline", [False, True], ids=["path", "inline"])
@pytest.mark.parametrize("canonical",
                         ["free_left", "direct_right", "semidirect_target"])
def test_canonical_embedding_ambient_is_the_loaded_ring(canonical, inline,
                                                        files, tmp_path):
    # as in `divisible amb.json --sub emb.json --depth 5`: the ring is loaded
    # at the command's depth, the embedding at the default depth
    ambient = _product_construct(canonical, inline, tmp_path)
    (tmp_path / "amb.json").write_text(json.dumps(ambient))
    (tmp_path / "emb.json").write_text(json.dumps(
        {"kind": "embedding", "canonical": canonical, "ambient": ambient}))
    with serialize.load_session():
        ring = load(str(tmp_path / "amb.json"), depth=5)
        emb = load(str(tmp_path / "emb.json"), expect="embedding")
    assert emb.ambient is ring


# --- certificates: lazy product rings and the derived exhaustive flag ----------

Z3_DOC = group_ring(cyclic_group(3)).doc
LAZY_PRODUCTS = {
    "free_left": {"kind": "construct", "construct": "free_product",
                  "left": Z2_DOC, "right": Z3_DOC},
    "direct_right": {"kind": "construct", "construct": "direct_product",
                     "left": {"kind": "construct", "construct": "su2"},
                     "right": Z2_DOC},
}
# SU2 × Z2 along its lazy factor: both the subring and the ambient are lazy
LAZY_PRODUCTS["direct_left"] = LAZY_PRODUCTS["direct_right"]


def _lazy_certificate(canonical, depth, tmp_path, capsys):
    """`divisible` along a canonical embedding into a lazy product ring;
    returns the path of the certificate it writes."""
    ambient = LAZY_PRODUCTS[canonical]
    (tmp_path / "amb.json").write_text(json.dumps(ambient))
    (tmp_path / "emb.json").write_text(json.dumps(
        {"kind": "embedding", "canonical": canonical, "ambient": ambient}))
    cert = str(tmp_path / "cert.json")
    code, _, err = run_cli(capsys, "divisible", str(tmp_path / "amb.json"),
                           "--sub", str(tmp_path / "emb.json"),
                           "--depth", str(depth), "--out", cert)
    assert (code, err) == (0, "")
    return cert


@pytest.mark.parametrize("depth", [3, 4, 6])
@pytest.mark.parametrize("canonical", sorted(LAZY_PRODUCTS))
def test_cli_certificate_over_lazy_product_loads_back(canonical, depth,
                                                      tmp_path, capsys):
    # the product ring decodes only labels it has generated, so the
    # certificate's classes are read after the window is enumerated
    cert = _lazy_certificate(canonical, depth, tmp_path, capsys)
    code, out, err = run_cli(capsys, "validate", cert, "--depth", str(depth),
                             "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == {"status": "holds", "bound": depth}


@pytest.mark.parametrize("canonical", sorted(LAZY_PRODUCTS))
def test_cli_deep_certificate_validates_at_default_depth(canonical, tmp_path,
                                                         capsys):
    # classes beyond the depth-4 window lie beyond the bound
    cert = _lazy_certificate(canonical, 6, tmp_path, capsys)
    code, out, err = run_cli(capsys, "validate", cert, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == {"status": "holds", "bound": 4}


@pytest.mark.parametrize("depth", [2, 4])
def test_cli_certificate_over_lazy_subring_holds_within_depth(depth, tmp_path,
                                                             capsys):
    # β ⊗ s for sub labels at the edge of the sub window reaches sub labels
    # beyond it, whose blocks are not in the window: the block-regularity
    # check skips such sums as lying beyond the bound
    cert = _lazy_certificate("direct_left", depth, tmp_path, capsys)
    assert json.loads(open(cert, encoding="utf-8").read())["classes"] == [
        "(x0,e)", "(x0,g)"]
    code, out, err = run_cli(capsys, "validate", cert, "--depth", str(depth))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"verdict: holds (within depth {depth})"


def test_cli_identity_embedding_of_a_lazy_ring_is_one_class(tmp_path, capsys):
    # every window label x is linked to the unit by map(x) ⊗ ε = x, however
    # far apart two labels lie, so the window is the one class of ε
    (tmp_path / "free.json").write_text(json.dumps(LAZY_PRODUCTS["free_left"]))
    (tmp_path / "id.json").write_text(json.dumps(
        {"kind": "embedding", "canonical": "identity", "ring": "free.json"}))
    code, out, err = run_cli(capsys, "divisible", str(tmp_path / "free.json"),
                             "--sub", str(tmp_path / "id.json"))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "verdict: holds (within depth 4)"
    assert lines[lines.index("classes:") + 1:][:2] == ["  ε", "witnesses: []"]


@pytest.mark.parametrize("value, message", [
    (True, "certificate: exhaustive must be false: it is true exactly when "
           "the sub and ambient rings are both finite"),
    ("yes", "certificate: exhaustive: expected bool"),
], ids=["forged", "not-bool"])
def test_cli_certificate_exhaustive_over_lazy_ring_is_checked(
        value, message, tmp_path, capsys):
    # a forged flag would turn a depth-4 check into an unbounded holds
    cert = _lazy_certificate("free_left", 4, tmp_path, capsys)
    doc = json.loads(open(cert, encoding="utf-8").read())
    assert doc["exhaustive"] is False
    doc["exhaustive"] = value
    (tmp_path / "forged.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(tmp_path / "forged.json"))
    assert (code, out, err) == (4, "", f"error: {message}\n")


def test_certificate_exhaustive_is_derived(files, tmp_path):
    doc = json.loads(open(files["cert"], encoding="utf-8").read())
    assert doc["exhaustive"] is True
    assert load(files["cert"]).exhaustive
    del doc["exhaustive"]
    (tmp_path / "omitted.json").write_text(json.dumps(doc))
    assert load(str(tmp_path / "omitted.json")).exhaustive
    doc["exhaustive"] = False
    (tmp_path / "forged.json").write_text(json.dumps(doc))
    with pytest.raises(LoadError, match="exhaustive must be true: "):
        load(str(tmp_path / "forged.json"))


# --- the loader's exit-code contract -------------------------------------------

MALFORMED = {
    "ring-dim-int": dict(EXPLICIT_Z2, dim=5),
    "module-action-int": {"kind": "module", "ring": "z2.json", "basis": ["j"],
                          "action": 5},
    "group-int": {"kind": "construct", "construct": "group_ring", "group": 5},
    "certificate-factorization-list": {
        "kind": "certificate", "embedding": "z2-in-z4.json",
        "classes": ["e", "a"], "factorization": [], "verified_depth": 4},
    "module-list-labels": {"kind": "module", "ring": "z2.json",
                           "basis": [["j"]], "action": []},
    "embedding-list-values": {"kind": "embedding", "sub": "z2.json",
                              "ambient": "z4.json",
                              "map": {"e": ["e"], "g": ["a2"]}},
    "group-elements-string": {"kind": "construct", "construct": "group_ring",
                              "group": dict(Z2_DOC["group"], elements="eg")},
    "fusion-coefficient-overflow": dict(
        EXPLICIT_Z2, fusion=[["g", "g", {"e": 2**63}]]),
    # unit entries are implied, but their labels are still checked
    "ring-unit-entry-off-basis": dict(
        EXPLICIT_Z2, fusion=[["g", "g", {"e": 1}], ["e", "zz", {"zz": 1}]]),
    "module-unit-entry-off-basis": {
        "kind": "module", "ring": "z2.json", "basis": ["j"],
        "action": [["g", "j", {"j": 1}], ["e", "zz", {"zz": 1}]]},
    "refers-to-itself": {"kind": "construct", "construct": "direct_product",
                         "left": "z2.json", "right": {
                             "kind": "construct", "construct": "free_product",
                             "left": "top.json", "right": "z2.json"}},
}


@pytest.mark.parametrize("doc, message", [
    ({"kind": "module", "ring": "z2.json", "basis": ["j"],
      "action": [["g", "j", {"j": 1}], ["g", "k", {"j": 1}]]},
     "module unnamed: action entry (g, k) names an unknown label"),
    ({"kind": "embedding", "sub": "z2.json", "ambient": "z4.json",
      "map": {"e": "e"}},
     "embedding unnamed: map keys must be exactly the sub labels; "
     "missing ['g'], stray []"),
    (dict(EXPLICIT_Z2, unit="z"), "ring explicit ring: unit 'z' not in basis"),
    (dict(EXPLICIT_Z2, fusion=[["g", "g", {"e": 1, "g": -1}]]),
     "ring explicit ring: negative coefficient -1·g in fusion entry (g, g)"),
    (MALFORMED["refers-to-itself"], "ring definition refers back to itself"),
], ids=["module", "embedding", "ring", "ring-negative-coefficient",
        "refers-to-itself"])
def test_cli_malformed_definition_names_its_object_once(doc, message, files,
                                                       capsys):
    path = os.path.join(files["dir"], "top.json")
    with open(path, "w") as handle:
        json.dump(doc, handle)
    code, out, err = run_cli(capsys, "validate", path)
    assert (code, out, err) == (4, "", f"error: {message}\n")


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_malformed_definition_exits_4(name, files, capsys):
    path = os.path.join(files["dir"], "top.json")
    with open(path, "w") as handle:
        json.dump(MALFORMED[name], handle)
    code, out, err = run_cli(capsys, "validate", path)
    assert code == 4
    assert out == ""
    assert err.startswith("error: ")


# --- characterization: every subcommand's --json stdout and exit code -----------

EXPECTATIONS = os.path.join(os.path.dirname(__file__), "cli_expectations.json")

CHARACTERIZED = [
    ["validate", "z2.json"],
    ["validate", "explicit-z2.json"],
    ["validate", "z2-in-z4.json"],
    ["validate", "cert.json"],
    ["validate", "bad-module.json"],
    ["validate", "dim-good.json"],
    ["validate", "dim-bad.json"],
    ["product", "su2.json", "x1", "x1"],
    ["product", "su2.json", "x1", "zz"],
    ["divisible", "z4.json", "--sub", "z2-in-z4.json"],
    ["divisible", "su2.json", "--sub", "so3-embed.json", "--depth", "8"],
    ["induce", "rank1-z2.json", "--cert", "cert.json"],
    ["restrict", "std-z4.json", "--embed", "z2-in-z4.json"],
    ["restrict", "std-z4.json", "--embed", "z2-in-z4.json", "--decompose"],
    ["restrict", "std-z2.json", "--embed", "z2-in-z4.json"],
    ["torsion", "rank1-z2.json"],
    ["standard", "rank1-z2.json"],
    ["standard", "std-z2.json"],
    ["enumerate", "z2.json", "--max-rank", "2", "--max-coeff", "1"],
    ["enumerate", "z4.json", "--max-rank", "4", "--max-coeff", "1"],
    ["standardize", "std-z2.json", "--cert", "cert.json"],
]


def test_cli_characterization(files, monkeypatch, capsys):
    # pins stability, not correctness: the expectations were recorded from
    # the tool itself, and the oracle tests stay the correctness tests
    monkeypatch.chdir(files["dir"])
    extra = {
        "std-z4.json": {"kind": "module", "standard_of": "z4.json"},
        "dim-good.json": {"kind": "module", "ring": "z2.json", "basis": ["j"],
                          "action": [["g", "j", {"j": 1}]],
                          "dim": {"j": [3, 2]}},
        "dim-bad.json": {"kind": "module", "ring": "z2.json",
                         "basis": ["e", "g"],
                         "action": [["g", "e", {"g": 1}], ["g", "g", {"e": 1}]],
                         "dim": {"e": 1, "g": 2}},
    }
    for name, doc in extra.items():
        with open(name, "w") as handle:
            json.dump(doc, handle)
    got = []
    for argv in CHARACTERIZED:
        code, out, _ = run_cli(capsys, *argv, "--json")
        got.append({"argv": argv, "code": code, "stdout": out})
    with open(EXPECTATIONS, encoding="utf-8") as handle:
        want = json.load(handle)
    assert [entry["argv"] for entry in want] == CHARACTERIZED
    for have, expected in zip(got, want):
        assert have == expected, " ".join(have["argv"])
