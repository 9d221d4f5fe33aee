"""Definition-file schema, canonical JSON, content hashes, write-once product logs.

Definition files are JSON documents with a top-level ``kind``.  The loader
checks what a document alone can get wrong: JSON types, fields, duplicate
entries and unit entries that contradict the implied unit product.  A
fusion or action table is read in one pass, each coefficient range-checked
once, and each entry reaches its constructor as its id row.  The
constructors check the mathematics, a finite ring every label it is given.
Loading then validates the object (ring axioms, module axioms, embedding
closure, certificate invariants) at a configurable depth; a failed
validation raises with the witness.  Within one load session a definition
reached again, by path or inline, is built and validated once.  Tables
must list every non-unit pair: unlisted pairs are undefined, never zero.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from fractions import Fraction
from typing import (TYPE_CHECKING, Any, Callable, Iterator, Optional, Tuple,
                    Union)

from .elements import InvalidInputError, checked_sums
from .modules import (BasedModule, check_module_axioms, check_module_dimension,
                      module_doc, standard_module)
from .rings import (
    DEFAULT_DEPTH,
    BasedRing,
    Verdict,
    _id_row,
    _pairs,
    check_dimension,
    check_ring_axioms,
    explicit_ring,
)

if TYPE_CHECKING:  # the loaders import these where they build them
    from .census import CensusResult
    from .constructions import (CharacterTable, FiniteGroupPresentation,
                                RingWithFactorEmbeddings, SemidirectProductRing)
    from .cyclotomic import Cyclo
    from .subrings import DivisibilityCertificate, SubringEmbedding

TOOL_VERSION = "0.1.0"
# the name a module or map embedding without one gets, as in "module unnamed: …"
UNNAMED = "unnamed"


class LoadError(Exception):
    """Parse, schema or file failure; exit code territory >= 3."""


class ValidationFailure(Exception):
    """The document parsed but its object fails validation."""

    def __init__(self, verdict: Verdict, what: str):
        super().__init__(f"{what}: {verdict.witness}")
        self.verdict = verdict
        self.what = what


def canonical_json(doc: Any) -> str:
    """Sorted keys, no insignificant whitespace, ASCII escapes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def _sha256() -> Callable[[bytes], Any]:
    """CPython's built-in SHA-256: hashlib's maps OpenSSL's libcrypto into
    the process, megabytes of peak RSS, for the same digest.  Python 3.12+
    names the module ``_sha2`` and some builds lack it; there hashlib's is
    used."""
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256


_SHA256 = _sha256()


def content_hash(doc: Any) -> str:
    return _SHA256(canonical_json(doc).encode("ascii")).hexdigest()


def _is(value: Any, kind: type) -> bool:
    """isinstance, except that a JSON boolean is not an integer."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _typed(value: Any, kind: type, what: str, each: Optional[type] = None) -> Any:
    """Schema-boundary type check: ``value`` is a JSON ``kind`` and, with
    ``each``, so is every list item or object value.  Returns ``value``."""
    items = value.values() if isinstance(value, dict) else value
    if not _is(value, kind) or (each is not None
                                and not all(_is(v, each) for v in items)):
        of = f" of {each.__name__}" if each is not None else ""
        raise LoadError(f"{what}: expected {kind.__name__}{of}")
    return value


def _row(value: Any, kinds: Tuple[type, ...], what: str) -> list:
    """A fixed-length list entry, such as a fusion triple, checked item by
    item; ``what`` names the expected form."""
    if not (isinstance(value, list) and len(value) == len(kinds)
            and all(map(isinstance, value, kinds)) and bool not in map(type, value)):
        raise LoadError(what)
    return value


def _build(what: Optional[str], make: Callable[..., Any], *args: Any,
           **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, with an input error raised as a LoadError
    prefixed by ``what``; None where the message names its object itself."""
    try:
        return make(*args, **kwargs)
    except InvalidInputError as exc:
        raise LoadError(str(exc) if what is None else f"{what}: {exc}") from exc


def _require_keys(doc: Any, required: set, optional: set, what: str) -> None:
    keys = set(_typed(doc, dict, what))
    missing = required - keys
    if missing:
        raise LoadError(f"{what}: missing fields {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise LoadError(f"{what}: unknown fields {sorted(unknown)} rejected")


def _as_fraction(value: Any, what: str) -> Fraction:
    if _is(value, int):
        return Fraction(value)
    num, den = _row(value, (int, int),
                    f"{what}: expected integer or [numerator, denominator]")
    if den == 0:
        raise LoadError(f"{what}: zero denominator")
    return Fraction(num, den)


def _fraction_doc(q: Fraction) -> Any:
    return q.numerator if q.denominator == 1 else [q.numerator, q.denominator]


def _entry(value: dict, ids: dict, name: str, x: str, y: str) -> Tuple[dict, Any]:
    """The entry name[x,y], ints only, each range-checked once: the entry
    without zeros, and its ``rings._id_row`` on the basis positions."""
    if len(value) == 1:  # most entries: one label with coefficient 1
        for label, c in value.items():
            if c == 1 and type(c) is int:
                return value, ids.get(label)
    if not all(type(c) is int or _is(c, int) for c in value.values()):
        raise LoadError(f"{name}[{x},{y}]: expected dict of int")
    terms = checked_sums(value)
    return terms, _id_row(terms, ids)


def _table(entries: Any, owner: str, name: str, form: str, basis: list,
           unit: str, both: bool) -> Tuple[dict, list]:
    """A fusion or action table in one pass, each entry checked once: as (x, y)
    → its row on ``basis``, or the entry for the constructor to name its fault;
    and the non-unit entries, without zeros, sorted, for the document.  A unit
    entry (left, or ``both`` sides) must be the implied product."""
    from operator import itemgetter
    ids, table, kept = {label: i for i, label in enumerate(basis)}, {}, []
    for triple in _typed(entries, list, f"{owner}: {name}"):
        if not (type(triple) is list and len(triple) == 3 and type(triple[0]) is str
                and type(triple[1]) is str and type(triple[2]) is dict):
            _row(triple, (str, str, dict), f"{owner}: {name} entries are {form}")
        x, y, value = triple
        if (x, y) in table:
            raise LoadError(f"{owner}: duplicate {name} entry ({x}, {y})")
        terms, row = _entry(value, ids, name, x, y)
        table[(x, y)] = terms if row is None else row
        if x != unit and not (both and y == unit):
            kept.append(triple if terms is value else [x, y, terms])
        elif terms != {y if x == unit else x: 1}:
            raise LoadError(f"{owner}: {name}[{x},{y}] contradicts the "
                            f"implied unit {'product' if both else 'action'}")
    kept.sort(key=itemgetter(1))  # then stably by x: sorted by (x, y)
    kept.sort(key=itemgetter(0))
    return table, kept


def _as_cyclo(doc: Any, what: str) -> Cyclo:
    from .cyclotomic import Cyclo
    if _is(doc, int) or isinstance(doc, list):
        return Cyclo.from_rational(_as_fraction(doc, what))
    if isinstance(doc, dict):
        if set(doc) == {"re", "im"}:
            return Cyclo.from_pair(_as_fraction(doc["re"], what),
                                   _as_fraction(doc["im"], what))
        if set(doc) == {"zeta", "coeffs"}:
            n = doc["zeta"]
            if not _is(n, int) or n < 1:
                raise LoadError(f"{what}: zeta order must be a positive integer")
            coeffs = {}
            for exp, val in _typed(doc["coeffs"], dict, f"{what}: coeffs").items():
                if not exp.removeprefix("-").isdecimal():
                    raise LoadError(f"{what}: exponent {exp!r} is not an integer")
                coeffs[int(exp)] = _as_fraction(val, what)
            return Cyclo(n, coeffs)
    raise LoadError(f"{what}: unrecognized character value {doc!r}")


# ---------------------------------------------------------------------------
# rings

def _load_explicit_ring(doc: dict, base_dir: str) -> BasedRing:
    """JSON shape, coefficients, duplicate and unit entries only:
    ``explicit_ring`` checks the tables against the basis."""
    _require_keys(doc, {"kind", "basis", "unit", "conj", "dim", "fusion"},
                  {"name"}, "explicit_ring")
    basis = _typed(doc["basis"], list, "explicit_ring: basis", str)
    if not basis:
        raise LoadError("explicit_ring: basis must be a non-empty list of labels")
    unit = _typed(doc["unit"], str, "explicit_ring: unit")
    conj = _typed(doc["conj"], dict, "explicit_ring: conj", str)
    dim = {label: _as_fraction(value, f"dim[{label}]") for label, value
           in _typed(doc["dim"], dict, "explicit_ring: dim").items()}
    fusion, kept = _table(doc["fusion"], "explicit_ring", "fusion",
                          "[a, b, {label: coeff}]", basis, unit, True)
    normalized = {"kind": "explicit_ring", "basis": list(basis), "unit": unit,
                  "conj": {a: conj[a] for a in sorted(conj)},
                  "dim": {a: _fraction_doc(dim[a]) for a in sorted(dim)},
                  "fusion": kept}
    if "name" in doc:
        normalized["name"] = _typed(doc["name"], str, "explicit_ring: name")
    return _build(None, explicit_ring,
                  name=doc.get("name", "explicit ring"), basis=basis, unit=unit,
                  conj=conj, dim=dim, fusion=fusion, doc=normalized)


def _load_group(doc: Any, what: str) -> FiniteGroupPresentation:
    from .constructions import FiniteGroupPresentation
    _require_keys(doc, {"elements", "mult"}, set(), what)
    elements = _typed(doc["elements"], list, f"{what}.elements", str)
    mult = {}
    for triple in _typed(doc["mult"], list, f"{what}.mult"):
        a, b, c = _row(triple, (str, str, str), f"{what}: mult entries are "
                       "[a, b, ab]")
        if (a, b) in mult:
            raise LoadError(f"{what}: duplicate mult entry ({a}, {b})")
        mult[(a, b)] = c
    return _build(what, FiniteGroupPresentation, elements, mult)


def _load_character_table(doc: Any, what: str) -> CharacterTable:
    from .constructions import CharacterTable
    _require_keys(doc, {"classes", "irreps"}, set(), what)
    classes = []
    for entry in _typed(doc["classes"], list, f"{what}.classes"):
        _require_keys(entry, {"label", "size"}, set(), f"{what}.classes")
        classes.append((_typed(entry["label"], str, f"{what}.classes label"),
                        _typed(entry["size"], int, f"{what}.classes size")))
    irreps = []
    for entry in _typed(doc["irreps"], list, f"{what}.irreps"):
        _require_keys(entry, {"label", "values"}, set(), f"{what}.irreps")
        label = _typed(entry["label"], str, f"{what}.irreps label")
        values = [_as_cyclo(v, f"{what}.{label}")
                  for v in _typed(entry["values"], list, f"{what}.{label}")]
        irreps.append((label, values))
    return _build(what, CharacterTable, classes, irreps)


_CONSTRUCT_KEYS = {
    "group_ring": {"group"},
    "rep_ring": {"character_table"},
    "su2": set(),
    "so3": set(),
    "direct_product": {"left", "right"},
    "free_product": {"left", "right"},
    "semidirect_product": {"group", "target", "action"},
}


def _construction(doc: Any) -> str:
    """Check a construct document's fields; returns the construction name."""
    _require_keys(doc, {"kind", "construct"},
                  set().union(*_CONSTRUCT_KEYS.values()), "construct")
    ctor = _typed(doc["construct"], str, "construct: construction")
    if ctor not in _CONSTRUCT_KEYS:
        raise LoadError(f"construct: unknown construction {ctor!r}")
    present = set(doc) - {"kind", "construct"}
    if present != _CONSTRUCT_KEYS[ctor]:
        raise LoadError(f"construct {ctor}: expected fields "
                        f"{sorted(_CONSTRUCT_KEYS[ctor])}, got {sorted(present)}")
    return ctor


def _product(doc: dict, base_dir: str, what: str
             ) -> Union[RingWithFactorEmbeddings, SemidirectProductRing]:
    """The direct, free or semi-direct product a construct document
    describes, with its factor embeddings.  Built once per load session for
    each base directory and content, at any depth, so the ring loaded from
    the document and the ambient of its canonical embeddings are one
    object."""
    from .constructions import (RingAutomorphismAction, direct_product,
                                free_product, semidirect_product)
    with load_session() as memo:
        key = (os.path.abspath(base_dir), _doc_key(doc), None)
        if key not in memo:
            if doc["construct"] == "semidirect_product":
                gamma = _load_group(doc["group"], f"{what}.group")
                target = _ref(doc["target"], "ring", base_dir)
                perms = {g: dict(_typed(p, dict, f"{what}: action of {g}", str))
                         for g, p in _typed(doc["action"], dict,
                                            f"{what}: action").items()}
                made = _build(what, semidirect_product, gamma, target,
                              RingAutomorphismAction(gamma, perms))
            else:
                build = (direct_product if doc["construct"] == "direct_product"
                         else free_product)
                made = build(_ref(doc["left"], "ring", base_dir),
                             _ref(doc["right"], "ring", base_dir))
            memo[key] = (made, None)
        return memo[key][0]


def _load_construct_ring(doc: dict, base_dir: str) -> BasedRing:
    from .constructions import group_ring, rep_ring, so3_ring, su2_ring
    ctor = _construction(doc)
    if ctor == "group_ring":
        return group_ring(_load_group(doc["group"], "group_ring.group"))
    if ctor == "rep_ring":
        return _build("rep_ring", rep_ring, _load_character_table(
            doc["character_table"], "rep_ring.character_table"))
    if ctor == "su2":
        return su2_ring()
    if ctor == "so3":
        return so3_ring()
    return _product(doc, base_dir, ctor).ring


# ---------------------------------------------------------------------------
# modules

def _load_module_doc(doc: dict, base_dir: str) -> BasedModule:
    if "standard_of" in doc:
        _require_keys(doc, {"kind", "standard_of"}, set(), "module")
        return standard_module(_ref(doc["standard_of"], "ring", base_dir))
    # induced along a certificate, or restricted along an embedding
    for key, along, make in (("induced", "certificate", "induce"),
                             ("restricted", "embedding", "restrict")):
        if key in doc:
            from . import induction
            _require_keys(doc, {"kind", key}, set(), "module")
            inner = doc[key]
            _require_keys(inner, {"source", along}, set(), f"module.{key}")
            source = _ref(inner["source"], "module", base_dir)
            return getattr(induction, make)(source, _ref(inner[along], along, base_dir))
    _require_keys(doc, {"kind", "ring", "basis", "action"}, {"name", "dim"},
                  "module")
    ring = _ref(doc["ring"], "ring", base_dir)
    basis = _typed(doc["basis"], list, "module: basis", str)
    table, kept = _table(doc["action"], "module", "action",
                         "[alpha, j, {label: coeff}]", basis, ring.unit, False)
    normalized = module_doc(ring, basis, kept)
    if "name" in doc:
        normalized["name"] = _typed(doc["name"], str, "module: name")
    module = _build(None, BasedModule, ring=ring, basis=basis, action=table,
                    name=doc.get("name", UNNAMED), doc=normalized)
    if "dim" in doc:
        dims = {j: _as_fraction(value, f"module dim[{j}]") for j, value
                in _typed(doc["dim"], dict, "module: dim").items()}
        if set(dims) != set(basis):
            raise LoadError("module: dim must cover exactly the module basis")
        verdict = check_module_dimension(module, dims, DEFAULT_DEPTH)
        if verdict.is_fails:
            raise ValidationFailure(verdict, "module dimension failed validation")
        normalized["dim"] = {j: _fraction_doc(dims[j]) for j in sorted(dims)}
    return module


# ---------------------------------------------------------------------------
# embeddings and certificates

# canonical embedding → (the construction its ambient must be, the slot of
# the built construction that holds it)
_CANONICAL_AMBIENT = {
    "direct_left": ("direct_product", 1), "direct_right": ("direct_product", 2),
    "free_left": ("free_product", 1), "free_right": ("free_product", 2),
    "semidirect_group": ("semidirect_product", 1),
    "semidirect_target": ("semidirect_product", 2)}


def _load_embedding_doc(doc: dict, base_dir: str) -> SubringEmbedding:
    from .subrings import SubringEmbedding, identity_embedding
    if "canonical" in doc:
        name = _typed(doc["canonical"], str, "embedding: canonical")
        if name == "so3_in_su2":
            from .constructions import so3_subring
            _require_keys(doc, {"kind", "canonical"}, set(), "embedding")
            return so3_subring()
        if name == "identity":
            _require_keys(doc, {"kind", "canonical", "ring"}, set(), "embedding")
            return identity_embedding(_ref(doc["ring"], "ring", base_dir))
        if name not in _CANONICAL_AMBIENT:
            raise LoadError(f"embedding: unknown canonical form {name!r}")
        _require_keys(doc, {"kind", "canonical", "ambient"}, set(), "embedding")
        ambient_doc, (needed, slot) = doc["ambient"], _CANONICAL_AMBIENT[name]
        if not (isinstance(ambient_doc, dict)
                and ambient_doc.get("kind") == "construct"
                and _construction(ambient_doc) == needed):
            raise LoadError(f"embedding {name} needs a {needed} construct "
                            "as its ambient")
        return _product(ambient_doc, base_dir, f"embedding {name}")[slot]
    _require_keys(doc, {"kind", "sub", "ambient", "map"}, {"name"}, "embedding")
    sub = _ref(doc["sub"], "ring", base_dir)
    ambient = _ref(doc["ambient"], "ring", base_dir)
    mapping = _typed(doc["map"], dict, "embedding: map", str)
    normalized = {"kind": "embedding", "sub": sub.doc, "ambient": ambient.doc,
                  "map": {k: mapping[k] for k in sorted(mapping)}}
    if "name" in doc:
        normalized["name"] = _typed(doc["name"], str, "embedding: name")
    return _build(None, SubringEmbedding, sub=sub, ambient=ambient,
                  mapping=mapping, name=doc.get("name", UNNAMED),
                  doc=normalized)


def _load_certificate_doc(doc: dict, base_dir: str) -> DivisibilityCertificate:
    from .subrings import DivisibilityCertificate
    _require_keys(doc, {"kind", "embedding", "classes", "factorization",
                        "verified_depth"}, {"exhaustive"}, "certificate")
    embedding = _ref(doc["embedding"], "embedding", base_dir)
    classes = _typed(doc["classes"], list, "certificate: classes", str)
    if not classes:
        raise LoadError("certificate: classes must be a non-empty list of "
                        "representative labels")
    factorization = {
        label: tuple(_row(pair, (str, str), "certificate: factorization "
                          "entries are [class, sub]"))
        for label, pair in _typed(doc["factorization"], dict,
                                  "certificate: factorization").items()}
    depth = doc["verified_depth"]
    if not _is(depth, int) or depth < 1:
        raise LoadError("certificate: verified_depth must be a positive integer")
    cert = DivisibilityCertificate(
        embedding=embedding, classes=tuple(classes),
        factorization=factorization, verified_depth=depth)
    # exhaustive is derived: the field is accepted only when it agrees
    if "exhaustive" in doc:
        claimed = _typed(doc["exhaustive"], bool, "certificate: exhaustive")
        if claimed != cert.exhaustive:
            raise LoadError(
                f"certificate: exhaustive must be {canonical_json(cert.exhaustive)}"
                ": it is true exactly when the sub and ambient rings are both "
                "finite")
    return cert


# ---------------------------------------------------------------------------
# top-level load: one resolver, one validation per definition and session

# document kind → (object kind, builder)
_KINDS = {
    "explicit_ring": ("ring", _load_explicit_ring),
    "construct": ("ring", _load_construct_ring),
    "module": ("module", _load_module_doc),
    "embedding": ("embedding", _load_embedding_doc),
    "certificate": ("certificate", _load_certificate_doc),
}

# (memo, keys).  memo: (absolute base directory, document key, depth) →
# (object, verdict), or None while the definition is being built; depth None
# keys the product constructions of ``_product``, with verdict None.
# keys: id(document) → (document, key), see ``_doc_key``
_SESSION: ContextVar[Optional[Tuple[dict, dict]]] = ContextVar(
    "fusionkit_load_session", default=None)


@contextmanager
def load_session() -> Iterator[dict]:
    """One load session: within it, a definition reached again (by path or
    inline, with the same base directory and depth) is the object already
    built and validated.  Joins the active session when there is one;
    ``load_doc`` opens its own otherwise, and the CLI opens one per command.
    A document must not change while its session is open.
    """
    session = _SESSION.get()
    if session is not None:
        yield session[0]
        return
    token = _SESSION.set(({}, {}))
    try:
        yield _SESSION.get()[0]
    finally:
        _SESSION.reset(token)


def loaded_verdict(obj: Any) -> Verdict:
    """The verdict the active load session's validation reached for ``obj``."""
    return next(verdict for known, verdict in _SESSION.get()[0].values()
                if known is obj)


def _doc_key(doc: dict, digest: Optional[str] = None) -> str:
    """The active session's key for a definition document: the sha256 of
    its canonical JSON with each inline definition in it (a dict with a
    ``kind``, at any depth of dicts) replaced by ``{"kind": <its key>}``;
    every dict with a ``kind`` is replaced, so no literal reads as a key.
    Keys are built bottom up and kept with their document, whose id stays
    its own while it is kept, so a definition is serialized once however
    deep it is nested.  ``digest``, the document's own sha256 when the
    caller has it, is the key of a document with no inline definition."""
    keys = _SESSION.get()[1]
    if id(doc) not in keys:
        def shell(value: dict) -> dict:
            return {k: ({"kind": _doc_key(v)} if "kind" in v else shell(v))
                    if isinstance(v, dict) else v for k, v in value.items()}
        keys[id(doc)] = (doc, digest if digest is not None and not _inline(doc)
                         else content_hash(shell(doc)))
    return keys[id(doc)][1]


def _inline(value: dict) -> bool:
    """Whether a dict holds an inline definition, at any depth of dicts."""
    return any(isinstance(v, dict) and ("kind" in v or _inline(v))
               for v in value.values())


def validation_verdict(obj: Any, depth: int = DEFAULT_DEPTH) -> Verdict:
    """The validation check appropriate to the object's type: a ring, a
    module, an embedding or a certificate, the four kinds the loaders build."""
    if isinstance(obj, BasedRing):
        return Verdict.combine(check_ring_axioms(obj, depth),
                               check_dimension(obj, depth))
    if isinstance(obj, BasedModule):
        return check_module_axioms(obj, depth)
    from .subrings import SubringEmbedding, verify_certificate, verify_subring
    if isinstance(obj, SubringEmbedding):
        return verify_subring(obj, depth)
    return verify_certificate(obj, depth)


def _ref(ref: Any, kind: str, base_dir: str) -> Any:
    """Resolve a reference inside a definition: a path relative to
    ``base_dir`` or an inline document, validated at the default depth."""
    if isinstance(ref, str):
        path = os.path.join(base_dir, ref)
        return load_doc(read_doc(path), os.path.dirname(os.path.abspath(path)),
                        expect=kind)
    if isinstance(ref, dict):
        return load_doc(ref, base_dir=base_dir, expect=kind)
    raise LoadError(f"{kind} reference must be a path or inline document, "
                    f"got {type(ref).__name__}")


def load_doc(doc: Any, base_dir: str = ".", depth: int = DEFAULT_DEPTH,
             expect: Optional[str] = None, digest: Optional[str] = None):
    """Build and validate the object a definition document describes.

    The kind is checked before anything is built.  A failed validation
    raises :class:`ValidationFailure` with the witness.  ``digest`` is the
    document's sha256 when the caller has computed it (see ``_doc_key``).
    """
    if not isinstance(doc, dict):
        raise LoadError("definition must be a JSON object")
    kind = doc.get("kind")
    if kind == "census":
        raise LoadError("census documents are outputs, not loadable inputs")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise LoadError(f"unknown document kind {kind!r}")
    actual, build = _KINDS[kind]
    if expect is not None and actual != expect:
        raise LoadError(f"expected a {expect} document, found kind {kind!r}")
    with load_session() as memo:
        key = (os.path.abspath(base_dir), _doc_key(doc, digest), depth)
        if key in memo:
            if memo[key] is None:
                raise LoadError(f"{actual} definition refers back to itself")
            return memo[key][0]
        memo[key] = None  # being built: meeting the key again is a cycle
        try:
            obj = build(doc, base_dir)
            verdict = validation_verdict(obj, depth)
            if verdict.is_fails:
                raise ValidationFailure(verdict, f"{actual} failed validation")
            memo[key] = (obj, verdict)
        finally:
            if memo[key] is None:
                del memo[key]
        return obj


def read_doc(path: str) -> Any:
    """Parse one definition file; unreadable or malformed JSON is a LoadError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:  # unreadable, bad UTF-8, bad JSON
        raise LoadError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise LoadError(f"cannot read {path}: JSON nests too deeply") from exc


def load_parsed(path: str, doc: Any, depth: int = DEFAULT_DEPTH,
                expect: Optional[str] = None, digest: Optional[str] = None):
    """``load_doc`` on ``doc`` read from ``path``; nesting too deep is a LoadError."""
    try:
        return load_doc(doc, base_dir=os.path.dirname(os.path.abspath(path)),
                        depth=depth, expect=expect, digest=digest)
    except RecursionError as exc:
        raise LoadError(f"{path}: definition nests too deeply") from exc


def load(path: str, depth: int = DEFAULT_DEPTH, expect: Optional[str] = None):
    return load_parsed(path, read_doc(path), depth, expect)


def object_doc(obj: Any) -> dict:
    from .subrings import DivisibilityCertificate
    if isinstance(obj, DivisibilityCertificate):
        doc = obj.to_doc()
        if doc.get("embedding") is None:
            raise LoadError("certificate's embedding has no serializable form")
        return doc
    doc = getattr(obj, "doc", None)
    if doc is None:
        raise LoadError(f"{type(obj).__name__} has no serializable definition")
    return doc


def census_doc(result: CensusResult) -> dict:
    ring_doc = result.ring.doc
    if ring_doc is None:
        raise LoadError("census ring has no serializable definition")
    return {
        "kind": "census",
        "ring": ring_doc,
        "ring_hash": content_hash(ring_doc),
        "budget": result.budget.to_doc(),
        "complete": result.complete,
        "modules": [m.doc for m in result.modules],
    }


def dumps(obj: Any) -> str:
    return canonical_json(object_doc(obj)) + "\n"


# ---------------------------------------------------------------------------
# product cache

class ProductCache:
    """Write-once per-ring log of products, keyed by the ring's content hash.
    The first :meth:`flush` of a ring writes every stored product, sorted,
    one canonical JSON line each, to a temporary file that it renames onto
    the log, so a log is whole or absent.  Nothing reads a log back, and a
    log that exists is left as it is."""

    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, ring: BasedRing) -> Optional[str]:
        return (None if ring.doc is None
                else os.path.join(self.directory, content_hash(ring.doc) + ".jsonl"))

    def load_into(self, ring: BasedRing) -> int:
        """No record of a log is read back, so the ring is left as it is."""
        return 0

    def flush(self, ring: BasedRing) -> int:
        """Write ``ring``'s log unless it has one; the records written."""
        path = self._path(ring)
        if path is None or os.path.exists(path):
            return 0
        pairs, labels = sorted(ring.stored_pairs()), ring._ids.labels
        if not pairs:
            return 0
        temporary = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(temporary, "w", encoding="utf-8") as handle:
                for a, b in pairs:
                    record = {"a": a, "b": b, "v": {labels[i]: c for i, c
                                                    in _pairs(ring._row(a, b))}}
                    handle.write(canonical_json(record) + "\n")
            os.replace(temporary, path)
        except OSError as exc:
            with suppress(OSError):
                os.remove(temporary)
            raise LoadError(f"cannot write product log {path}: {exc}") from exc
        return len(pairs)
