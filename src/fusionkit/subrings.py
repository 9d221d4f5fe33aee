"""Fusion subring embeddings, coset classes and divisibility certificates.

A subring S ⊂ R is divisible when R decomposes as a direct sum of copies of
S as based S-modules.  The witness form used here: per coset class t a
representative l_t with s ⊗ l_t irreducible for every sub basis label s and
s ↦ s ⊗ l_t injective; the resulting targets factor every ambient basis
label as a unique pair (class, sub label).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from .elements import (Element, EmbeddingDataError, InvalidInputError,
                       UnknownBasisError)
from .rings import BasedRing, Verdict

MapLike = Union[Mapping[str, str], Callable[[str], str]]


class SubringEmbedding:
    """Injection of a fusion subring's basis into an ambient ring's basis."""

    def __init__(self, *, sub: BasedRing, ambient: BasedRing, mapping: MapLike,
                 name: str = "embedding", doc: Optional[dict] = None):
        self.sub = sub
        self.ambient = ambient
        self.name = name
        self.doc = doc
        if callable(mapping):
            self._map_fn = mapping
        else:
            table = dict(mapping)
            if sub.is_finite and table.keys() != set(sub.basis):
                missing = [s for s in sub.basis if s not in table]
                stray = sorted(set(table).difference(sub.basis), key=str)
                raise InvalidInputError(
                    f"embedding {name}: map keys must be exactly the sub "
                    f"labels; missing {missing}, stray {stray}")
            self._map_fn = table.get

    def embed(self, s: str) -> str:
        image = self._map_fn(s)
        if image is None:
            raise UnknownBasisError(
                f"embedding {self.name}: map has no image for sub label {s!r}")
        return image

    def image_window(self, depth: int) -> Dict[str, str]:
        """Mapping ambient label -> sub label over the sub window."""
        out: Dict[str, str] = {}
        for s in self.sub.basis_up_to_depth(depth):
            out[self.embed(s)] = s
        return out

    def __repr__(self) -> str:
        return f"SubringEmbedding({self.sub.name} ↪ {self.ambient.name})"


def verify_subring(e: SubringEmbedding, depth: int = 4) -> Verdict:
    """Check unit/involution compatibility, injectivity, and product closure
    with coefficient equality on the sub window."""
    if depth < 1:
        raise InvalidInputError("depth must be >= 1")
    sub, amb = e.sub, e.ambient
    window = sub.basis_up_to_depth(depth)
    seen: Dict[str, str] = {}
    for s in window:
        i = e.embed(s)
        if i in seen and seen[i] != s:
            return Verdict.fails(
                f"map is not injective: {seen[i]} and {s} both map to {i}",
                data=(seen[i], s, i))
        seen[i] = s
    if e.embed(sub.unit) != amb.unit:
        return Verdict.fails(
            f"map({sub.unit}) = {e.embed(sub.unit)} ≠ ambient unit {amb.unit}")
    for s in window:
        lhs = e.embed(sub.conj(s))
        rhs = amb.conj(e.embed(s))
        if lhs != rhs:
            return Verdict.fails(
                f"map does not commute with conj at {s}: "
                f"map(conj({s})) = {lhs} but conj(map({s})) = {rhs}", data=(s,))
    for a in window:
        for b in window:
            inside = sub.product(a, b).map_basis(e.embed)
            outside = amb.product(e.embed(a), e.embed(b))
            if inside != outside:
                stray = [lbl for lbl, _ in outside.items()
                         if inside.coeff(lbl) != outside.coeff(lbl)]
                return Verdict.fails(
                    f"product closure fails at ({a}, {b}): ambient "
                    f"{e.embed(a)} ⊗ {e.embed(b)} = {outside.format()} but the "
                    f"embedded sub product is {inside.format()} "
                    f"(first discrepancy at {stray[0] if stray else '?'})",
                    data=(a, b))
    bound = None if sub.is_finite else depth
    return Verdict.holds(bound=bound)


def _image_meets(e: SubringEmbedding, value: Element, image: Mapping[str, str]) -> bool:
    return any(lbl in image for lbl, _ in value.items())


def coset_classes(e: SubringEmbedding, depth: int = 4) -> List[List[str]]:
    """Equivalence classes of the ambient basis window under
    x ~ y ⇔ y ⊗ conj(x) meets the embedded image.

    Reflexivity, symmetry and transitivity are verified on the window, not
    assumed; a violation means the embedding data is broken and raises
    :class:`EmbeddingDataError`.
    """
    if depth < 1:
        raise InvalidInputError("depth must be >= 1")
    amb = e.ambient
    window = amb.basis_up_to_depth(depth)
    image = e.image_window(depth)
    n = len(window)
    rel = [[False] * n for _ in range(n)]
    for ix, x in enumerate(window):
        cx = amb.conj(x)
        for iy, y in enumerate(window):
            rel[ix][iy] = _image_meets(e, amb.product(y, cx), image)
    for i in range(n):
        if not rel[i][i]:
            raise EmbeddingDataError(
                f"coset relation not reflexive at {window[i]}")
        for k in range(n):
            if rel[i][k] != rel[k][i]:
                raise EmbeddingDataError(
                    f"coset relation not symmetric at ({window[i]}, {window[k]})")
    for i in range(n):
        for k in range(n):
            if not rel[i][k]:
                continue
            for l in range(n):
                if rel[k][l] and not rel[i][l]:
                    raise EmbeddingDataError(
                        f"coset relation not transitive at "
                        f"({window[i]}, {window[k]}, {window[l]})")
    classes: List[List[str]] = []
    assigned: Dict[int, int] = {}
    for i in range(n):
        if i in assigned:
            continue
        members = [window[k] for k in range(n) if rel[i][k]]
        for k in range(n):
            if rel[i][k]:
                assigned[k] = len(classes)
        classes.append(members)
    return classes


@dataclass(frozen=True)
class DivisibilityCertificate:
    """Coset representatives and the factorization they induce.

    ``classes`` lists one representative per coset class, in class order;
    the representative label doubles as the class identifier, and the class
    of the unit is represented by the unit itself.  ``factorization`` sends
    each ambient basis label i to the unique pair (t, s) with i appearing
    with coefficient 1 in map(s) ⊗ l_t.
    """

    embedding: SubringEmbedding
    classes: Tuple[str, ...]
    factorization: Mapping[str, Tuple[str, str]]
    verified_depth: int

    @property
    def exhaustive(self) -> bool:
        """Both rings are finite, so a check covers every label."""
        return self.embedding.sub.is_finite and self.embedding.ambient.is_finite

    def to_doc(self) -> dict:
        return {
            "kind": "certificate",
            "embedding": self.embedding.doc,
            "classes": list(self.classes),
            "factorization": {i: [t, s]
                              for i, (t, s) in sorted(self.factorization.items())},
            "verified_depth": self.verified_depth,
            "exhaustive": self.exhaustive,
        }


@dataclass
class DivisibilitySearch:
    """Outcome of a certificate search: the certificate when one exists
    within the depth, plus the irreducibility/injectivity failures seen."""

    certificate: Optional[DivisibilityCertificate]
    witnesses: Tuple[str, ...]


def find_divisibility_certificate(e: SubringEmbedding,
                                  depth: int = 4) -> DivisibilitySearch:
    """Scan each coset class, in window order, for a representative l with
    s ⊗ l irreducible and injective over the sub window; assemble the
    factorization on success.

    Deterministic: candidates are tried in (generation depth, label) order,
    so the same inputs always yield the same certificate.
    """
    pre = verify_subring(e, depth)
    if pre.is_fails:
        raise EmbeddingDataError(f"not a fusion subring embedding: {pre.witness}")
    sub, amb = e.sub, e.ambient
    sub_window = sub.basis_up_to_depth(depth)
    window = amb.basis_up_to_depth(depth)
    rank = {lbl: i for i, lbl in enumerate(window)}
    classes = coset_classes(e, depth)
    classes = sorted(classes, key=lambda cls: min(rank[m] for m in cls))
    failures: List[str] = []
    reps: List[str] = []
    factorization: Dict[str, Tuple[str, str]] = {}

    for cls in classes:
        candidates = ([amb.unit] if amb.unit in cls
                      else sorted(cls, key=lambda m: rank[m]))
        for cand in candidates:
            targets: Dict[str, str] = {}
            for s in sub_window:
                value = amb.product(e.embed(s), cand)
                i = value.single_label()
                if i is None:
                    failures.append(
                        f"{e.embed(s)} ⊗ {cand} = {value.format()} is reducible")
                    break
                if i in targets:
                    failures.append(
                        f"{cand} is not injective: {targets[i]} ⊗ {cand} and "
                        f"{s} ⊗ {cand} both give {i}")
                    break
                targets[i] = s
            else:
                break  # cand represents the class
        else:
            return DivisibilitySearch(None, tuple(failures))
        reps.append(cand)
        for i, s in targets.items():
            if i in factorization:
                raise EmbeddingDataError(
                    f"factorization collision at {i}: classes "
                    f"{factorization[i][0]} and {cand} overlap")
            factorization[i] = (cand, s)

    uncovered = [i for i in window if i not in factorization]
    if uncovered:
        failures.append(
            f"factorization does not cover {uncovered[0]} within depth {depth}")
        return DivisibilitySearch(None, tuple(failures))
    cert = DivisibilityCertificate(
        embedding=e, classes=tuple(reps), factorization=dict(factorization),
        verified_depth=depth)
    return DivisibilitySearch(cert, tuple(failures))


def verify_certificate(c: DivisibilityCertificate, depth: int = 4) -> Verdict:
    """Re-derive every certificate invariant independently within depth.

    Checks the embedding, the unit-class representative, irreducibility and
    injectivity of s ⊗ l_t, agreement with the recorded factorization, the
    within-depth bijection onto the ambient basis, and that the left sub
    action on the ambient ring is block diagonal with the regular sub
    coefficients through the factorization.  The ambient window comes first,
    so a product ring knows its labels; a lazy ring's representative outside
    it lies beyond the bound, and a window label factored through one fails.
    """
    if depth < 1:
        raise InvalidInputError("depth must be >= 1")
    e = c.embedding
    sub, amb = e.sub, e.ambient
    pre = verify_subring(e, depth)
    if pre.is_fails:
        return pre
    window = amb.basis_up_to_depth(depth)
    inside = set(window)
    reps = [t for t in c.classes if amb.is_finite or t in inside]
    if amb.unit not in c.classes:
        return Verdict.fails(
            f"no class is represented by the ambient unit {amb.unit}")
    got = c.factorization.get(amb.unit)
    if got != (amb.unit, sub.unit):
        return Verdict.fails(
            f"factorization of the unit is {got}, expected "
            f"({amb.unit}, {sub.unit})")
    sub_window = sub.basis_up_to_depth(depth)
    blocks: Dict[Tuple[str, str], str] = {}
    for t in reps:
        for s in sub_window:
            value = amb.product(e.embed(s), t)
            i = value.single_label()
            if i is None:
                return Verdict.fails(
                    f"{e.embed(s)} ⊗ {t} = {value.format()} is reducible",
                    data=(s, t))
            recorded = c.factorization.get(i)
            if recorded != (t, s):
                return Verdict.fails(
                    f"factorization of {i} is {recorded}, but {i} arises as "
                    f"map({s}) ⊗ {t}", data=(t, s, i))
            blocks[(t, s)] = i
    missing = [i for i in window if i not in c.factorization]
    if missing:
        return Verdict.fails(
            f"ambient basis label {missing[0]} has no factorization entry "
            f"within depth {depth}", data=tuple(missing))
    for i in window:
        t, s = c.factorization[i]
        if t not in c.classes:
            return Verdict.fails(
                f"factorization of {i} references unknown class {t}")
        if blocks.get((t, s)) != i:
            return Verdict.fails(
                f"factorization of {i} = ({t}, {s}) is not reproduced by "
                f"map({s}) ⊗ {t}", data=(t, s, i))
    # block-diagonal regular action through the factorization
    for beta in sub_window:
        for t in reps:
            for s in sub_window:
                i = blocks[(t, s)]
                lhs = amb.product(e.embed(beta), i)
                sums: dict = {}
                complete = True
                for sp, coeff in sub.product(beta, s).items():
                    target = blocks.get((t, sp))
                    if target is None:
                        complete = False
                        break
                    sums[target] = sums.get(target, 0) + coeff
                if not complete:
                    continue  # escapes the verified window; bounded check
                rhs = Element.from_sums(sums)
                if lhs != rhs:
                    return Verdict.fails(
                        f"sub action is not block regular at "
                        f"(β={beta}, t={t}, s={s}): map({beta}) ⊗ {i} = "
                        f"{lhs.format()} ≠ {rhs.format()}", data=(beta, t, s))
    bound = None if c.exhaustive else min(depth, c.verified_depth)
    return Verdict.holds(bound=bound)


def identity_embedding(ring: BasedRing) -> SubringEmbedding:
    """S = R with the identity map."""
    doc = None
    if ring.doc is not None:
        doc = {"kind": "embedding", "canonical": "identity", "ring": ring.doc}
    return SubringEmbedding(sub=ring, ambient=ring, mapping=lambda s: s,
                            name=f"id({ring.name})", doc=doc)
