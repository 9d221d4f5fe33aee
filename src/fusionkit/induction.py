"""Induction and restriction of based modules along subring embeddings.

Induction needs a divisibility certificate.  The certificate stores the
left-handed decomposition (every ambient i sits in map(s_i) ⊗ l_{t_i});
the tensor product over the subring moves sub factors across from the
right, so induction uses the conjugated, right-handed reading: with
r_t := conj(l_t), every ambient i appears once in r_t ⊗ map(s), and

    α ⊗ (1_{t'} ⊙ j') = Σ_{i'} N(i' in α ⊗ r_{t'}) · 1_{t_{i'}} ⊙ (s_{i'} ⊗ j')

where (t_{i'}, s_{i'}) is the right-handed factorization of i'.  For
commutative ambient rings the two readings coincide.  Without a
certificate the tensor product need not be based, so the construction is
refused rather than approximated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .elements import CertificateDepthError, InvalidInputError
from .modules import (BasedModule, check_module_axioms, connected_components,
                      first_nonintertwining, is_standard, module_doc)
from .rings import DEFAULT_DEPTH, BasedRing, Verdict, _pairs, checked_window
from .subrings import DivisibilityCertificate, SubringEmbedding, _restriction


def induced_label(t: str, j: str) -> str:
    return f"1_{t}⊙{j}"


class InducedModule(BasedModule):
    """Based module on class representatives × source basis, with provenance."""

    def __init__(self, *, ring: BasedRing, basis, action,
                 source: BasedModule, certificate: DivisibilityCertificate,
                 name: str, doc: Optional[dict] = None):
        super().__init__(ring=ring, basis=basis, action=action, name=name, doc=doc)
        self.source = source
        self.certificate = certificate


def induce(n: BasedModule, c: DivisibilityCertificate, *,
           check_depth: int = DEFAULT_DEPTH) -> InducedModule:
    """Induced module along the certificate; basis size is exactly
    (number of classes) × (source rank).

    The source must pass its module axioms; action requests that would read
    past the certificate's verified depth are refused.  The action reads
    rows and returns ids: 1_t ⊙ j has id (place of t)·rank + (place of j).
    """
    e = c.embedding
    if not n.ring.same_as(e.sub):
        raise InvalidInputError(
            f"module {n.name} lives over {n.ring.name}, not the certificate's "
            f"subring {e.sub.name}")
    if not n.is_finite:
        raise InvalidInputError("induction needs a finite source basis")
    pre = check_module_axioms(n, check_depth)
    if pre.is_fails:
        raise InvalidInputError(f"source module fails its axioms: {pre.witness}")
    amb, sub = e.ambient, e.sub
    basis: List[str] = []
    pairs: Dict[str, Tuple[str, str]] = {}
    for t in c.classes:
        for j in n.basis:
            label = induced_label(t, j)
            basis.append(label)
            pairs[label] = (t, j)
    starts = {t: p * len(n.basis) for p, t in enumerate(c.classes)}
    places = {n._ids.id(j): p for p, j in enumerate(n.basis)}  # source id → place

    def right_factor(i: str) -> Tuple[str, str]:
        # i sits in conj(l_t) ⊗ map(s) exactly when conj(i) sits in
        # map(conj(s)) ⊗ l_t, which is what the certificate records
        located = c.factorization.get(amb.conj(i))
        if located is None:
            raise CertificateDepthError(
                f"{i} lies outside the certificate's verified depth "
                f"{c.verified_depth}")
        t, s = located
        return t, sub.conj(s)

    def action(alpha: str, label: str) -> Dict[int, int]:
        t, j = pairs[label]
        sums: Dict[int, int] = {}
        for i, coeff in _pairs(amb._row(alpha, amb.conj(t))):
            ti, si = right_factor(amb._ids.labels[i])
            for k, coeff2 in _pairs(n._row(si, j)):
                target = starts[ti] + places[k]
                sums[target] = sums.get(target, 0) + coeff * coeff2
        return sums

    doc = None
    if n.doc is not None and e.doc is not None:
        doc = {"kind": "module", "induced": {"source": n.doc,
                                             "certificate": c.to_doc()}}
    return InducedModule(ring=amb, basis=basis, action=action,
                         source=n, certificate=c,
                         name=f"Ind({n.name})", doc=doc)


def restrict(m: BasedModule, e: SubringEmbedding, *,
             check_depth: int = DEFAULT_DEPTH) -> BasedModule:
    """Same basis, action pulled back through the embedding.

    The based axioms survive restriction; they are re-checked at
    ``check_depth`` and a failure is an input error.
    """
    if not m.ring.same_as(e.ambient):
        raise InvalidInputError(
            f"module {m.name} lives over {m.ring.name}, not the embedding's "
            f"ambient ring {e.ambient.name}")
    out = _restriction(m, e)
    verdict = check_module_axioms(out, check_depth)
    if verdict.is_fails:
        raise InvalidInputError(
            f"restriction is not a based module: {verdict.witness}")
    return out


def restrict_and_decompose(m: BasedModule, e: SubringEmbedding,
                           depth: int = DEFAULT_DEPTH) -> List[BasedModule]:
    """Split the restricted module along its connected components, each
    with its explicit module document when the subring has one.

    ``restrict`` has checked the based axioms, which the summands inherit,
    and no summand needs a torsion re-check: over the finite subring a
    component joins j' to every j ⊂ β ⊗ j', so it is closed under the
    action, its own edges keep it connected, and it is co-finite.  Needs a
    finite module basis and a finite subring: on a lazy subring the
    component structure of a window is not a based module, so the
    computation is refused.
    """
    if not m.is_finite:
        raise InvalidInputError("decomposition needs a finite module basis")
    if not e.sub.is_finite:
        raise InvalidInputError(
            "decomposition along a lazily generated subring is refused: "
            "component closure cannot be certified on a window")
    restricted = restrict(m, e, check_depth=depth)
    labels = restricted._ids.labels
    summands: List[BasedModule] = []
    for idx, comp in enumerate(connected_components(restricted, depth)):
        table = {(beta, j): {labels[i]: c for i, c in _pairs(restricted._row(beta, j))}
                 for beta in e.sub.basis if beta != e.sub.unit for j in comp}
        summands.append(BasedModule(
            ring=e.sub, basis=comp, action=table,
            name=f"{restricted.name}[{idx}]",
            doc=None if e.sub.doc is None else module_doc(
                e.sub, comp, [[*pair, terms] for pair, terms in table.items()])))
    return summands


def standardize_from_induced(ind: InducedModule, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Extract the isomorphism n ≅ standard sub module, for the source n of
    ``ind``, from the standardness witness of the induced module.

    Returns ``is_standard(ind, depth)`` unless it holds.  It holds on an
    induced module only over a finite ambient ring, with a bijection w onto
    the ambient basis that ``find_intertwiner`` has re-checked on the whole
    ambient basis, so w needs no second check; the pair x₀ sent to the unit
    already reaches every label, as w(α ⊗ x₀) = α ⊗ unit = α.  The unit-class
    block carries the source module through the embedding: its image under
    w, projected to the sub component of the factorization, is the
    extracted map, checked for injectivity and intertwining.  On success
    the verdict carries it in ``data``.  ``induce`` does not verify its
    certificate, and on one that fails verification the checks are real:
    the classes of A3 offered as a certificate of S3 in itself induce the
    regular module from S3 permuting three points, and no map from those
    points into S3 intertwines.
    """
    standard = is_standard(ind, depth)
    if not standard.is_holds:
        return standard
    n, c = ind.source, ind.certificate
    sub, amb = c.embedding.sub, c.embedding.ambient
    if amb.unit not in c.classes:
        return Verdict.fails("certificate has no unit-class representative")
    bijection: Dict[str, str] = {}
    for j in n.basis:
        y = standard.data[induced_label(amb.unit, j)]
        located = c.factorization.get(y)
        if located is None:
            return Verdict.fails(
                f"w(1_{amb.unit}⊙{j}) = {y} has no factorization entry",
                data=(j, y))
        bijection[j] = located[1]
    if len(set(bijection.values())) != len(bijection):
        return Verdict.fails("extracted map is not injective")
    failure = first_nonintertwining(bijection.__getitem__, n, sub,
                                    checked_window(sub, depth), n.basis)
    if failure is not None:
        beta, j, lhs, rhs = failure
        return Verdict.fails(
            f"extracted map does not intertwine at ({beta}, {j}): "
            f"{lhs.format()} ≠ {rhs.format()}", data=(beta, j))
    return Verdict.holds_within(depth, sub, data=bijection)
