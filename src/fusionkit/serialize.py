"""Definition-file schema, canonical JSON, content hashes, product cache.

Definition files are JSON documents with a top-level ``kind``.  Loading
fully validates the object (ring axioms, module axioms, embedding closure,
certificate invariants) at a configurable depth; a failed validation raises
with the witness.  Unknown fields are rejected.  Fusion and action tables
must list every non-unit pair: unlisted pairs are undefined, never zero;
products with the unit are implied by the schema.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from .census import CensusResult
from .constructions import (
    CharacterTable,
    FiniteGroupPresentation,
    RingAutomorphismAction,
    direct_product,
    free_product,
    group_ring,
    rep_ring,
    semidirect_product,
    so3_subring,
    su2_ring,
)
from .cyclotomic import Cyclo
from .elements import Element, InvalidInputError
from .modules import BasedModule, check_module_axioms, standard_module
from .induction import induce, restrict
from .rings import (
    BasedRing,
    Verdict,
    check_dimension,
    check_ring_axioms,
    explicit_ring,
)
from .subrings import (
    DivisibilityCertificate,
    SubringEmbedding,
    identity_embedding,
    verify_certificate,
    verify_subring,
)

TOOL_VERSION = "0.1.0"
DEFAULT_DEPTH = 4


class LoadError(Exception):
    """Parse or schema failure; exit code territory >= 3."""


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


def content_hash(doc: Any) -> str:
    return hashlib.sha256(canonical_json(doc).encode("ascii")).hexdigest()


def _require_keys(doc: dict, required: set, optional: set, what: str) -> None:
    keys = set(doc)
    missing = required - keys
    if missing:
        raise LoadError(f"{what}: missing fields {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise LoadError(f"{what}: unknown fields {sorted(unknown)} rejected")


def _as_fraction(value: Any, what: str) -> Fraction:
    if isinstance(value, bool):
        raise LoadError(f"{what}: booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, int) for v in value)):
        if value[1] == 0:
            raise LoadError(f"{what}: zero denominator")
        return Fraction(value[0], value[1])
    raise LoadError(f"{what}: expected integer or [numerator, denominator]")


def _fraction_doc(q: Fraction) -> Any:
    return q.numerator if q.denominator == 1 else [q.numerator, q.denominator]


def _as_element(doc: Any, what: str) -> Element:
    if not isinstance(doc, dict):
        raise LoadError(f"{what}: expected an object of label → coefficient")
    for label, coeff in doc.items():
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise LoadError(f"{what}: coefficient of {label!r} must be an integer")
    return Element(doc)


def _as_cyclo(doc: Any, what: str) -> Cyclo:
    if isinstance(doc, bool):
        raise LoadError(f"{what}: booleans are not character values")
    if isinstance(doc, int):
        return Cyclo.from_rational(doc)
    if isinstance(doc, list):
        return Cyclo.from_rational(_as_fraction(doc, what))
    if isinstance(doc, dict):
        if set(doc) == {"re", "im"}:
            return Cyclo.from_pair(_as_fraction(doc["re"], what),
                                   _as_fraction(doc["im"], what))
        if set(doc) == {"zeta", "coeffs"}:
            n = doc["zeta"]
            if not isinstance(n, int) or n < 1:
                raise LoadError(f"{what}: zeta order must be a positive integer")
            coeffs = {}
            for exp, val in doc["coeffs"].items():
                coeffs[int(exp)] = _as_fraction(val, what)
            return Cyclo(n, coeffs)
    raise LoadError(f"{what}: unrecognized character value {doc!r}")


# ---------------------------------------------------------------------------
# rings

def _load_explicit_ring(doc: dict) -> BasedRing:
    _require_keys(doc, {"kind", "basis", "unit", "conj", "dim", "fusion"},
                  {"name"}, "explicit_ring")
    basis = doc["basis"]
    if (not isinstance(basis, list) or not basis
            or not all(isinstance(b, str) for b in basis)):
        raise LoadError("explicit_ring: basis must be a non-empty list of labels")
    basis_set = set(basis)
    unit = doc["unit"]
    if unit not in basis_set:
        raise LoadError(f"explicit_ring: unit {unit!r} not in basis")
    conj = doc["conj"]
    if not isinstance(conj, dict) or set(conj) != basis_set:
        raise LoadError("explicit_ring: conj must map every basis label")
    for a, b in conj.items():
        if b not in basis_set:
            raise LoadError(f"explicit_ring: conj({a!r}) = {b!r} is unknown")
    dim = {label: _as_fraction(value, f"dim[{label}]")
           for label, value in doc["dim"].items()}
    if set(dim) != basis_set:
        raise LoadError("explicit_ring: dim must map every basis label")
    fusion: Dict[Tuple[str, str], Element] = {}
    triples = doc["fusion"]
    if not isinstance(triples, list):
        raise LoadError("explicit_ring: fusion must be a list of triples")
    for triple in triples:
        if not (isinstance(triple, list) and len(triple) == 3):
            raise LoadError("explicit_ring: fusion entries are [a, b, {label: coeff}]")
        a, b, value = triple
        if a not in basis_set or b not in basis_set:
            raise LoadError(f"explicit_ring: fusion pair ({a!r}, {b!r}) "
                            "references unknown labels")
        element = _as_element(value, f"fusion[{a},{b}]")
        for label, _ in element.items():
            if label not in basis_set:
                raise LoadError(f"explicit_ring: fusion[{a},{b}] hits unknown "
                                f"label {label!r}")
        if (a, b) in fusion:
            raise LoadError(f"explicit_ring: duplicate fusion entry ({a}, {b})")
        if a == unit or b == unit:
            implied = Element.basis(b if a == unit else a)
            if element != implied:
                raise LoadError(f"explicit_ring: fusion[{a},{b}] contradicts "
                                "the implied unit product")
            continue
        fusion[(a, b)] = element
    for a in basis:
        for b in basis:
            if a != unit and b != unit and (a, b) not in fusion:
                raise LoadError(f"explicit_ring: fusion entry for ({a}, {b}) "
                                "is missing; unlisted pairs are undefined")
    normalized = {
        "kind": "explicit_ring",
        "basis": list(basis),
        "unit": unit,
        "conj": {a: conj[a] for a in sorted(conj)},
        "dim": {a: _fraction_doc(dim[a]) for a in sorted(dim)},
        "fusion": sorted([a, b, dict(v.items())] for (a, b), v in fusion.items()),
    }
    if "name" in doc:
        normalized["name"] = doc["name"]
    return explicit_ring(name=doc.get("name", "explicit ring"), basis=basis,
                         unit=unit, conj=conj, dim=dim, fusion=fusion,
                         doc=normalized)


def _load_group(doc: dict, what: str) -> FiniteGroupPresentation:
    _require_keys(doc, {"elements", "mult"}, set(), what)
    elements = doc["elements"]
    mult = {}
    for triple in doc["mult"]:
        if not (isinstance(triple, list) and len(triple) == 3):
            raise LoadError(f"{what}: mult entries are [a, b, ab]")
        a, b, c = triple
        mult[(a, b)] = c
    try:
        return FiniteGroupPresentation(elements, mult)
    except InvalidInputError as exc:
        raise LoadError(f"{what}: {exc}") from exc


def _load_character_table(doc: dict, what: str) -> CharacterTable:
    _require_keys(doc, {"classes", "irreps"}, set(), what)
    classes = []
    for entry in doc["classes"]:
        _require_keys(entry, {"label", "size"}, set(), f"{what}.classes")
        classes.append((entry["label"], entry["size"]))
    irreps = []
    for entry in doc["irreps"]:
        _require_keys(entry, {"label", "values"}, set(), f"{what}.irreps")
        values = [_as_cyclo(v, f"{what}.{entry['label']}")
                  for v in entry["values"]]
        irreps.append((entry["label"], values))
    try:
        return CharacterTable(classes, irreps)
    except InvalidInputError as exc:
        raise LoadError(f"{what}: {exc}") from exc


_CONSTRUCT_KEYS = {
    "group_ring": {"group"},
    "rep_ring": {"character_table"},
    "su2": set(),
    "so3": set(),
    "direct_product": {"left", "right"},
    "free_product": {"left", "right"},
    "semidirect_product": {"group", "target", "action"},
}


def _load_construct_ring(doc: dict, base_dir: str) -> BasedRing:
    _require_keys(doc, {"kind", "construct"},
                  {"group", "character_table", "left", "right", "target",
                   "action"}, "construct")
    ctor = doc["construct"]
    if ctor not in _CONSTRUCT_KEYS:
        raise LoadError(f"construct: unknown construction {ctor!r}")
    present = set(doc) - {"kind", "construct"}
    if present != _CONSTRUCT_KEYS[ctor]:
        raise LoadError(f"construct {ctor}: expected fields "
                        f"{sorted(_CONSTRUCT_KEYS[ctor])}, got {sorted(present)}")
    if ctor == "group_ring":
        return group_ring(_load_group(doc["group"], "group_ring.group"))
    if ctor == "rep_ring":
        try:
            return rep_ring(_load_character_table(doc["character_table"],
                                                  "rep_ring.character_table"))
        except InvalidInputError as exc:
            raise LoadError(f"rep_ring: {exc}") from exc
    if ctor == "su2":
        return su2_ring()
    if ctor == "so3":
        from .constructions import so3_ring
        return so3_ring()
    if ctor in ("direct_product", "free_product"):
        left = _ring_ref(doc["left"], base_dir)
        right = _ring_ref(doc["right"], base_dir)
        result = (direct_product if ctor == "direct_product"
                  else free_product)(left, right)
        return result.ring
    assert ctor == "semidirect_product"
    gamma = _load_group(doc["group"], "semidirect_product.group")
    target = _ring_ref(doc["target"], base_dir)
    action_doc = doc["action"]
    if not isinstance(action_doc, dict):
        raise LoadError("semidirect_product: action must map group elements "
                        "to basis permutations")
    perms = {g: dict(p) for g, p in action_doc.items()}
    act = RingAutomorphismAction(gamma, perms)
    try:
        return semidirect_product(gamma, target, act).ring
    except InvalidInputError as exc:
        raise LoadError(f"semidirect_product: {exc}") from exc


def _ring_ref(ref: Any, base_dir: str) -> BasedRing:
    if isinstance(ref, str):
        return load(os.path.join(base_dir, ref), expect="ring")
    if isinstance(ref, dict):
        return _validated(_load_ring_doc(ref, base_dir), "ring", DEFAULT_DEPTH)
    raise LoadError(f"ring reference must be a path or inline document, "
                    f"got {type(ref).__name__}")


def _load_ring_doc(doc: dict, base_dir: str) -> BasedRing:
    kind = doc.get("kind")
    if kind == "explicit_ring":
        return _load_explicit_ring(doc)
    if kind == "construct":
        return _load_construct_ring(doc, base_dir)
    raise LoadError(f"expected a ring document, found kind {kind!r}")


# ---------------------------------------------------------------------------
# modules

def _module_ref(ref: Any, base_dir: str) -> BasedModule:
    if isinstance(ref, str):
        return load(os.path.join(base_dir, ref), expect="module")
    if isinstance(ref, dict):
        return _load_module_doc(ref, base_dir)
    raise LoadError("module reference must be a path or inline document")


def _load_module_doc(doc: dict, base_dir: str) -> BasedModule:
    if doc.get("kind") != "module":
        raise LoadError(f"expected a module document, found kind {doc.get('kind')!r}")
    if "standard_of" in doc:
        _require_keys(doc, {"kind", "standard_of"}, set(), "module")
        return standard_module(_ring_ref(doc["standard_of"], base_dir))
    if "induced" in doc:
        _require_keys(doc, {"kind", "induced"}, {"provenance"}, "module")
        inner = doc["induced"]
        _require_keys(inner, {"source", "certificate"}, set(), "module.induced")
        source = _module_ref(inner["source"], base_dir)
        cert = _certificate_ref(inner["certificate"], base_dir)
        return induce(source, cert)
    if "restricted" in doc:
        _require_keys(doc, {"kind", "restricted"}, set(), "module")
        inner = doc["restricted"]
        _require_keys(inner, {"source", "embedding"}, set(), "module.restricted")
        source = _module_ref(inner["source"], base_dir)
        embedding = _embedding_ref(inner["embedding"], base_dir)
        return restrict(source, embedding)
    _require_keys(doc, {"kind", "ring", "basis", "action"}, {"name", "dim"},
                  "module")
    ring = _ring_ref(doc["ring"], base_dir)
    basis = doc["basis"]
    if not isinstance(basis, list) or not basis:
        raise LoadError("module: basis must be a non-empty list of labels")
    basis_set = set(basis)
    table: Dict[Tuple[str, str], Element] = {}
    for triple in doc["action"]:
        if not (isinstance(triple, list) and len(triple) == 3):
            raise LoadError("module: action entries are [alpha, j, {label: coeff}]")
        alpha, j, value = triple
        if j not in basis_set:
            raise LoadError(f"module: action references unknown module label {j!r}")
        if ring.is_finite and alpha not in ring.basis:
            raise LoadError(f"module: action references unknown ring label {alpha!r}")
        if alpha == ring.unit:
            if _as_element(value, "action") != Element.basis(j):
                raise LoadError(f"module: action[{alpha},{j}] contradicts the "
                                "implied unit action")
            continue
        if (alpha, j) in table:
            raise LoadError(f"module: duplicate action entry ({alpha}, {j})")
        table[(alpha, j)] = _as_element(value, f"action[{alpha},{j}]")
    normalized = {
        "kind": "module",
        "ring": ring.doc,
        "basis": list(basis),
        "action": sorted([alpha, j, dict(v.items())]
                         for (alpha, j), v in table.items()),
    }
    if "name" in doc:
        normalized["name"] = doc["name"]
    try:
        module = BasedModule(ring=ring, basis=basis, action=table,
                             name=doc.get("name", "module"), doc=normalized)
    except InvalidInputError as exc:
        raise LoadError(f"module: {exc}") from exc
    if "dim" in doc:
        dims = {j: _as_fraction(value, f"module dim[{j}]")
                for j, value in doc["dim"].items()}
        if set(dims) != basis_set:
            raise LoadError("module: dim must cover exactly the module basis")
        _check_module_dimension(module, dims)
        normalized["dim"] = {j: _fraction_doc(dims[j]) for j in sorted(dims)}
    return module


def _check_module_dimension(module: BasedModule, dims: Dict[str, Fraction]) -> None:
    """A supplied dimension function is checked, never constructed:
    positivity and compatibility d_J(α ⊗ j) = d(α) d_J(j)."""
    for j, value in dims.items():
        if value <= 0:
            raise ValidationFailure(
                Verdict.fails(f"module dimension of {j} is {value}, not positive"),
                "module dimension failed validation")
    ring = module.ring
    for alpha in ring.basis_up_to_depth(DEFAULT_DEPTH):
        d_alpha = ring.dim(alpha)
        for j in module.basis:
            total = sum((c * dims[k] for k, c in module.action(alpha, j).items()),
                        Fraction(0))
            if total != d_alpha * dims[j]:
                raise ValidationFailure(
                    Verdict.fails(
                        f"module dimension incompatible at ({alpha}, {j}): "
                        f"Σ N·d_J = {total} but d({alpha})·d_J({j}) = "
                        f"{d_alpha * dims[j]}", data=(alpha, j)),
                    "module dimension failed validation")


# ---------------------------------------------------------------------------
# embeddings and certificates

_CANONICAL_EMBEDDINGS = {"so3_in_su2", "identity", "direct_left", "direct_right",
                         "free_left", "free_right", "semidirect_group",
                         "semidirect_target"}


def _embedding_ref(ref: Any, base_dir: str) -> SubringEmbedding:
    if isinstance(ref, str):
        return load(os.path.join(base_dir, ref), expect="embedding")
    if isinstance(ref, dict):
        return _load_embedding_doc(ref, base_dir)
    raise LoadError("embedding reference must be a path or inline document")


def _load_embedding_doc(doc: dict, base_dir: str) -> SubringEmbedding:
    if doc.get("kind") != "embedding":
        raise LoadError(f"expected an embedding document, found kind "
                        f"{doc.get('kind')!r}")
    if "canonical" in doc:
        name = doc["canonical"]
        if name not in _CANONICAL_EMBEDDINGS:
            raise LoadError(f"embedding: unknown canonical form {name!r}")
        if name == "so3_in_su2":
            _require_keys(doc, {"kind", "canonical"}, set(), "embedding")
            return so3_subring()
        if name == "identity":
            _require_keys(doc, {"kind", "canonical", "ring"}, set(), "embedding")
            return identity_embedding(_ring_ref(doc["ring"], base_dir))
        _require_keys(doc, {"kind", "canonical", "ambient"}, set(), "embedding")
        ambient_doc = doc["ambient"]
        if not (isinstance(ambient_doc, dict)
                and ambient_doc.get("kind") == "construct"):
            raise LoadError(f"embedding {name}: ambient must be a construct "
                            "document")
        ctor = ambient_doc.get("construct")
        if name in ("direct_left", "direct_right"):
            if ctor != "direct_product":
                raise LoadError(f"embedding {name} needs a direct_product ambient")
            result = direct_product(_ring_ref(ambient_doc["left"], base_dir),
                                    _ring_ref(ambient_doc["right"], base_dir))
            return result.left if name == "direct_left" else result.right
        if name in ("free_left", "free_right"):
            if ctor != "free_product":
                raise LoadError(f"embedding {name} needs a free_product ambient")
            result = free_product(_ring_ref(ambient_doc["left"], base_dir),
                                  _ring_ref(ambient_doc["right"], base_dir))
            return result.left if name == "free_left" else result.right
        if ctor != "semidirect_product":
            raise LoadError(f"embedding {name} needs a semidirect_product ambient")
        gamma = _load_group(ambient_doc["group"], "embedding.group")
        target = _ring_ref(ambient_doc["target"], base_dir)
        act = RingAutomorphismAction(
            gamma, {g: dict(p) for g, p in ambient_doc["action"].items()})
        try:
            result = semidirect_product(gamma, target, act)
        except InvalidInputError as exc:
            raise LoadError(f"embedding {name}: {exc}") from exc
        return (result.group_embedding if name == "semidirect_group"
                else result.target_embedding)
    _require_keys(doc, {"kind", "sub", "ambient", "map"}, {"name"}, "embedding")
    sub = _ring_ref(doc["sub"], base_dir)
    ambient = _ring_ref(doc["ambient"], base_dir)
    mapping = doc["map"]
    if not isinstance(mapping, dict):
        raise LoadError("embedding: map must be an object of sub → ambient labels")
    normalized = {"kind": "embedding", "sub": sub.doc, "ambient": ambient.doc,
                  "map": {k: mapping[k] for k in sorted(mapping)}}
    if "name" in doc:
        normalized["name"] = doc["name"]
    try:
        return SubringEmbedding(sub=sub, ambient=ambient, mapping=mapping,
                                name=doc.get("name", "embedding"),
                                doc=normalized)
    except InvalidInputError as exc:
        raise LoadError(f"embedding: {exc}") from exc


def _certificate_ref(ref: Any, base_dir: str) -> DivisibilityCertificate:
    if isinstance(ref, str):
        return load(os.path.join(base_dir, ref), expect="certificate")
    if isinstance(ref, dict):
        return _load_certificate_doc(ref, base_dir)
    raise LoadError("certificate reference must be a path or inline document")


def _load_certificate_doc(doc: dict, base_dir: str) -> DivisibilityCertificate:
    if doc.get("kind") != "certificate":
        raise LoadError(f"expected a certificate document, found kind "
                        f"{doc.get('kind')!r}")
    _require_keys(doc, {"kind", "embedding", "classes", "factorization",
                        "verified_depth"}, {"exhaustive"}, "certificate")
    embedding = _embedding_ref(doc["embedding"], base_dir)
    classes = doc["classes"]
    if not (isinstance(classes, list) and classes
            and all(isinstance(c, str) for c in classes)):
        raise LoadError("certificate: classes must be a non-empty list of "
                        "representative labels")
    factorization = {}
    for label, pair in doc["factorization"].items():
        if not (isinstance(pair, list) and len(pair) == 2):
            raise LoadError("certificate: factorization entries are [class, sub]")
        factorization[label] = (pair[0], pair[1])
    depth = doc["verified_depth"]
    if not isinstance(depth, int) or depth < 1:
        raise LoadError("certificate: verified_depth must be a positive integer")
    return DivisibilityCertificate(
        embedding=embedding, classes=tuple(classes),
        factorization=factorization, verified_depth=depth,
        exhaustive=bool(doc.get("exhaustive",
                                embedding.sub.is_finite
                                and embedding.ambient.is_finite)))


# ---------------------------------------------------------------------------
# top-level load / save

def validation_verdict(obj: Any, depth: int = DEFAULT_DEPTH) -> Verdict:
    """The validation check appropriate to the object's type."""
    if isinstance(obj, BasedRing):
        return Verdict.combine(check_ring_axioms(obj, depth),
                               check_dimension(obj, depth))
    if isinstance(obj, BasedModule):
        return check_module_axioms(obj, depth)
    if isinstance(obj, SubringEmbedding):
        return verify_subring(obj, depth)
    if isinstance(obj, DivisibilityCertificate):
        return verify_certificate(obj, depth)
    raise LoadError(f"no validation for {type(obj).__name__}")


def load_doc(doc: Any, base_dir: str = ".", depth: int = DEFAULT_DEPTH,
             expect: Optional[str] = None):
    """Build and validate the object a definition document describes."""
    if not isinstance(doc, dict):
        raise LoadError("definition must be a JSON object")
    kind = doc.get("kind")
    if kind in ("explicit_ring", "construct"):
        obj: Any = _load_ring_doc(doc, base_dir)
        actual = "ring"
    elif kind == "module":
        obj = _load_module_doc(doc, base_dir)
        actual = "module"
    elif kind == "embedding":
        obj = _load_embedding_doc(doc, base_dir)
        actual = "embedding"
    elif kind == "certificate":
        obj = _load_certificate_doc(doc, base_dir)
        actual = "certificate"
    elif kind == "census":
        raise LoadError("census documents are outputs, not loadable inputs")
    else:
        raise LoadError(f"unknown document kind {kind!r}")
    if expect is not None and actual != expect:
        raise LoadError(f"expected a {expect} document, loaded a {actual}")
    return _validated(obj, actual, depth)


def _validated(obj: Any, what: str, depth: int) -> Any:
    verdict = validation_verdict(obj, depth)
    if verdict.is_fails:
        raise ValidationFailure(verdict, f"{what} failed validation")
    return obj


def load(path: str, depth: int = DEFAULT_DEPTH, expect: Optional[str] = None):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LoadError(f"cannot parse {path}: {exc}") from exc
    return load_doc(doc, base_dir=os.path.dirname(os.path.abspath(path)),
                    depth=depth, expect=expect)


def object_doc(obj: Any) -> dict:
    if isinstance(obj, DivisibilityCertificate):
        doc = obj.to_doc()
        if doc.get("embedding") is None:
            raise LoadError("certificate's embedding has no serializable form")
        return doc
    doc = getattr(obj, "doc", None)
    if doc is None:
        raise LoadError(f"{type(obj).__name__} has no serializable definition")
    return doc


def explicit_module_doc(m: BasedModule) -> dict:
    """Explicit table form of a finite module over a serializable finite ring."""
    if not (m.is_finite and m.ring.is_finite and m.ring.doc is not None):
        raise LoadError("module has no explicit serializable form")
    action = []
    for alpha in m.ring.basis:
        if alpha == m.ring.unit:
            continue
        for j in m.basis:
            action.append([alpha, j, dict(m.action(alpha, j).items())])
    return {"kind": "module", "ring": m.ring.doc, "basis": list(m.basis),
            "action": sorted(action)}


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
        "modules": [explicit_module_doc(m) for m in result.modules],
    }


def save(obj: Any, path: str) -> None:
    text = canonical_json(object_doc(obj)) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def dumps(obj: Any) -> str:
    return canonical_json(object_doc(obj)) + "\n"


# ---------------------------------------------------------------------------
# product cache

class ProductCache:
    """Append-only per-ring product log keyed by the ring's content hash.

    Records are one JSON object per line; a corrupt tail is truncated on
    load.  The cache is semantically invisible: entries only ever replay
    values the product function would compute.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self._baseline: Dict[int, set] = {}

    def _path(self, ring: BasedRing) -> Optional[str]:
        if ring.doc is None:
            return None
        return os.path.join(self.directory, content_hash(ring.doc) + ".jsonl")

    def load_into(self, ring: BasedRing) -> int:
        path = self._path(ring)
        baseline = set()
        loaded = 0
        if path is not None and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        a, b, value = record["a"], record["b"], record["v"]
                        element = _as_element(value, "cache record")
                    except (json.JSONDecodeError, KeyError, TypeError, LoadError):
                        break  # corrupt tail: ignore the rest
                    key = (a, b)
                    baseline.add(key)
                    if key not in ring._cache:
                        ring._cache[key] = element
                    loaded += 1
        self._baseline[id(ring)] = baseline
        return loaded

    def flush(self, ring: BasedRing) -> int:
        path = self._path(ring)
        if path is None:
            return 0
        baseline = self._baseline.get(id(ring), set())
        fresh = [key for key in ring._cache if key not in baseline]
        if not fresh:
            return 0
        os.makedirs(self.directory, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            for a, b in sorted(fresh):
                record = {"a": a, "b": b,
                          "v": dict(ring._cache[(a, b)].items())}
                handle.write(canonical_json(record) + "\n")
        baseline.update(fresh)
        self._baseline[id(ring)] = baseline
        return len(fresh)
