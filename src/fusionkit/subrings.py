"""Fusion subring embeddings, coset classes and divisibility certificates.

A subring S ⊂ R is divisible when R decomposes as a direct sum of copies of
S as based S-modules.  The witness form used here: per coset class t a
representative l_t with s ⊗ l_t irreducible for every sub basis label s and
s ↦ s ⊗ l_t injective; the resulting targets factor every ambient basis
label as a unique pair (class, sub label).
"""

from __future__ import annotations

from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple,
                    Union)

from .elements import Element, InvalidInputError, UnknownBasisError, relabel
from .modules import BasedModule, connected_components, standard_module
from .rings import (DEFAULT_DEPTH, BasedRing, Verdict, _pairs, checked_window,
                    exhaustive)

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

    def __repr__(self) -> str:
        return f"SubringEmbedding({self.sub.name} ↪ {self.ambient.name})"


def verify_subring(e: SubringEmbedding, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Check unit/involution compatibility, injectivity, and product closure
    with coefficient equality on the sub window; a failure names the first
    differing label of the ambient product, else of the embedded one."""
    sub, amb = e.sub, e.ambient
    window = checked_window(sub, depth)
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
    labels, amb_labels = sub._ids.labels, amb._ids.labels
    for a in window:
        for b in window:
            inside = relabel(_pairs(sub._row(a, b)), lambda i: e.embed(labels[i]))
            row = amb._row(e.embed(a), e.embed(b))
            outside = {amb_labels[i]: c for i, c in _pairs(row)}
            if inside != outside:
                stray = next(x for terms in (outside, inside) for x in sorted(terms)
                             if inside.get(x, 0) != outside.get(x, 0))
                return Verdict.fails(
                    f"product closure fails at ({a}, {b}): ambient {e.embed(a)} ⊗ "
                    f"{e.embed(b)} = {amb._element(row).format()} but the embedded sub "
                    f"product is {Element.from_sums(inside).format()} "
                    f"(first discrepancy at {stray})", data=(a, b))
    return Verdict.holds_within(depth, sub)


def coset_classes(e: SubringEmbedding, depth: int = DEFAULT_DEPTH) -> List[List[str]]:
    """Coset classes of the ambient basis window: the connected components
    of the ambient ring's standard module restricted to ``e.sub``, as
    :func:`~fusionkit.induction.restrict` builds it, unchecked.

    Its edges join x and y when y ⊂ map(s) ⊗ x for a sub label s within
    depth.  By Frobenius reciprocity, which the ring axioms imply, that is
    when s ⊂ y ⊗ conj(x), so the classes close the coset relation x ~ y ⇔
    y ⊗ conj(x) meets the embedded sub window; a link beyond a lazy window
    splits a class there, never contradicts it.  Classes come in order of
    their least window index, members in window order.
    """
    return connected_components(_restriction(standard_module(e.ambient), e), depth)


def _restriction(m: BasedModule, e: SubringEmbedding) -> BasedModule:
    """``m`` over ``e.sub``, on its labels and ids: β ⊗ j is m's row of map(β) ⊗ j."""
    doc = None if m.doc is None or e.doc is None else {
        "kind": "module", "restricted": {"source": m.doc, "embedding": e.doc}}
    return BasedModule(ring=e.sub, basis=m._basis, window_fn=m.basis_up_to_depth,
                       action=lambda beta, j: m._row(e.embed(beta), j),
                       name=f"Res({m.name})", doc=doc, labels=m._ids)


class DivisibilityCertificate(NamedTuple):
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
        return exhaustive(self.embedding.sub, self.embedding.ambient)

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


class DivisibilitySearch(NamedTuple):
    """Outcome of a certificate search: the certificate when one exists
    within the depth, plus the irreducibility/injectivity failures seen."""

    certificate: Optional[DivisibilityCertificate]
    witnesses: Tuple[str, ...]


def find_divisibility_certificate(e: SubringEmbedding,
                                  depth: int = DEFAULT_DEPTH) -> DivisibilitySearch:
    """Scan each coset class, in window order, for a representative l with
    s ⊗ l irreducible and injective over the sub window; assemble the
    factorization on success.

    Deterministic: candidates are tried in (generation depth, label) order,
    so the same inputs always yield the same certificate.  An embedding that
    fails ``verify_subring`` is an input error.  Two classes sharing a
    target is a failure witness: over a finite ambient ring a target lies in
    its representative's class, so only a lazy window that split one true
    class reaches it, and the search stays without a certificate.
    """
    pre = verify_subring(e, depth)
    if pre.is_fails:
        raise InvalidInputError(f"not a fusion subring embedding: {pre.witness}")
    sub, amb = e.sub, e.ambient
    sub_window = checked_window(sub, depth)
    window = checked_window(amb, depth)
    failures: List[str] = []
    reps: List[str] = []
    factorization: Dict[str, Tuple[str, str]] = {}

    for cls in coset_classes(e, depth):
        for cand in [amb.unit] if amb.unit in cls else cls:
            targets: Dict[str, str] = {}
            for s in sub_window:
                row = amb._row(e.embed(s), cand)
                if type(row) is not int:
                    failures.append(f"{e.embed(s)} ⊗ {cand} = "
                                    f"{amb._element(row).format()} is reducible")
                    break
                i = amb._ids.labels[row]
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
                failures.append(f"factorization collision at {i}: classes "
                                f"{factorization[i][0]} and {cand} overlap")
                return DivisibilitySearch(None, tuple(failures))
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


def verify_certificate(c: DivisibilityCertificate,
                       depth: int = DEFAULT_DEPTH) -> Verdict:
    """Re-derive every certificate invariant independently within depth.

    Checks the embedding, the unit-class representative, irreducibility and
    injectivity of s ⊗ l_t, agreement with the recorded factorization, the
    within-depth bijection onto the ambient basis, and that the left sub
    action on the ambient ring is block diagonal with the regular sub
    coefficients through the factorization.  The ambient window comes first,
    so a product ring knows its labels; a lazy ring's representative outside
    it lies beyond the bound, and a window label factored through one fails.
    Such a representative t must still carry the entry t ↦ (t, sub unit),
    as t = map(unit) ⊗ t gives every true one at any depth, so a listed
    class that no product generates fails.  So does a class listed twice.
    """
    e = c.embedding
    sub, amb = e.sub, e.ambient
    pre = verify_subring(e, depth)
    if pre.is_fails:
        return pre
    window = checked_window(amb, depth)
    inside = set(window)
    if amb.unit not in c.classes:
        return Verdict.fails(
            f"no class is represented by the ambient unit {amb.unit}")
    got = c.factorization.get(amb.unit)
    if got != (amb.unit, sub.unit):
        return Verdict.fails(
            f"factorization of the unit is {got}, expected "
            f"({amb.unit}, {sub.unit})")
    reps = []
    for k, t in enumerate(c.classes):
        if t in c.classes[:k]:
            return Verdict.fails(f"class {t} is listed twice", data=(t,))
        got = c.factorization.get(t)
        if exhaustive(amb) or t in inside:
            reps.append(t)
        elif got != (t, sub.unit):
            return Verdict.fails(
                f"factorization of class {t} is {got}, expected "
                f"({t}, {sub.unit})", data=(t,))
    sub_window = checked_window(sub, depth)
    blocks: Dict[Tuple[str, str], str] = {}
    for t in reps:
        for s in sub_window:
            row = amb._row(e.embed(s), t)
            if type(row) is not int:
                return Verdict.fails(f"{e.embed(s)} ⊗ {t} = "
                                     f"{amb._element(row).format()} is reducible",
                                     data=(s, t))
            i = amb._ids.labels[row]
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
    # block-diagonal regular action through the factorization, on distinct targets
    labels, amb_labels = sub._ids.labels, amb._ids.labels
    for beta in sub_window:
        for t in reps:
            for s in sub_window:
                i = blocks[(t, s)]
                lhs = amb._row(e.embed(beta), i)
                sums: dict = {}
                complete = True
                for k, coeff in _pairs(sub._row(beta, s)):
                    target = blocks.get((t, labels[k]))
                    if target is None:
                        complete = False
                        break
                    sums[target] = sums.get(target, 0) + coeff
                if not complete:
                    continue  # escapes the verified window; bounded check
                if sums != {amb_labels[x]: c for x, c in _pairs(lhs)}:
                    return Verdict.fails(
                        f"sub action is not block regular at "
                        f"(β={beta}, t={t}, s={s}): map({beta}) ⊗ {i} = "
                        f"{amb._element(lhs).format()} ≠ "
                        f"{Element.from_sums(sums).format()}", data=(beta, t, s))
    stray = sorted(set(c.factorization) - inside) if exhaustive(amb) else []
    if stray:
        return Verdict.fails(f"factorization key {stray[0]} is not an ambient "
                             "basis label", data=(stray[0],))
    return Verdict.holds_within(min(depth, c.verified_depth), sub, amb)


def identity_embedding(ring: BasedRing) -> SubringEmbedding:
    """S = R with the identity map."""
    doc = None
    if ring.doc is not None:
        doc = {"kind": "embedding", "canonical": "identity", "ring": ring.doc}
    return SubringEmbedding(sub=ring, ambient=ring, mapping=lambda s: s,
                            name=f"id({ring.name})", doc=doc)
