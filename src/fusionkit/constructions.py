"""Factories for the fusion rings in scope and their canonical embeddings.

Group rings, representation rings from character tables, the lazy
Clebsch-Gordan ring with its index-two even subring, componentwise direct
products, alternating-word free products, and semi-direct products, which
are the direct product twisted by a group action.  Every factory attaches a
serializable construction expression so rings can be hashed and reloaded.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple, Union)

from .elements import Element, InvalidInputError, UnknownBasisError, bilinear
from .rings import (BasedRing, Labels, associative_by_generators,
                    first_nonassociative)

if TYPE_CHECKING:
    from .cyclotomic import Cyclo
    from .subrings import SubringEmbedding


# ---------------------------------------------------------------------------
# finite groups

class FiniteGroupPresentation:
    """A finite group as an explicit multiplication table.

    Group axioms are verified at construction: closure, associativity, a
    two-sided identity and inverses.  A violated axiom is reported with the
    offending tuple.  ``ring`` is the group ring, proved associative here.
    """

    def __init__(self, elements: Sequence[str], mult: Mapping[Tuple[str, str], str]):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise InvalidInputError("group elements must be distinct")
        if not self.elements:
            raise InvalidInputError("group must be non-empty")
        self.mult = dict(mult)
        universe = set(self.elements)
        for a in self.elements:
            for b in self.elements:
                c = self.mult.get((a, b))
                if c is None:
                    raise InvalidInputError(
                        f"multiplication table missing entry ({a}, {b})")
                if c not in universe:
                    raise InvalidInputError(
                        f"table not closed: ({a}, {b}) ↦ {c!r}")
        for a, b in self.mult:
            if a not in universe or b not in universe:
                raise InvalidInputError(f"multiplication table entry ({a}, {b}) "
                                        "is not over the group elements")
        identity = None
        for e in self.elements:
            if all(self.mult[(e, a)] == a and self.mult[(a, e)] == a
                   for a in self.elements):
                identity = e
                break
        if identity is None:
            raise InvalidInputError("table has no two-sided identity")
        self.identity = identity
        # the group ring is the proof table, so its generator proof runs
        # once, here; its callables hold the tables, not the group, and conj
        # reads the inverses only once they are found
        self.inverse: Dict[str, str] = {}
        inverse, mult = self.inverse, self.mult
        self.ring = BasedRing(
            name=f"Z[{len(self.elements)}-elt group]", unit=identity,
            conj=inverse.__getitem__,
            product=lambda a, b: Element.basis(mult[(a, b)]),
            dim=lambda a: 1, basis=self.elements,
            doc={"kind": "construct", "construct": "group_ring", "group": self.to_doc()})
        if associative_by_generators(self.ring) is None:
            # Light's test failed; the ordered sweep names the first triple
            els = self.elements
            a, b, c, _, _ = first_nonassociative(self.ring, self.ring, els, els, els)
            raise InvalidInputError(f"table not associative at ({a}, {b}, {c})")
        for a in self.elements:
            for b in self.elements:
                if self.mult[(a, b)] == identity and self.mult[(b, a)] == identity:
                    inverse[a] = b
                    break
            else:
                raise InvalidInputError(f"element {a} has no inverse")

    def mul(self, a: str, b: str) -> str:
        try:
            return self.mult[(a, b)]
        except KeyError:
            raise UnknownBasisError(f"unknown group elements ({a}, {b})") from None

    def inv(self, a: str) -> str:
        try:
            return self.inverse[a]
        except KeyError:
            raise UnknownBasisError(f"unknown group element {a!r}") from None

    def to_doc(self) -> dict:
        return {"elements": list(self.elements),
                "mult": sorted([a, b, c] for (a, b), c in self.mult.items())}

    def __repr__(self) -> str:
        return f"FiniteGroupPresentation(order {len(self.elements)})"


# the label of the identity in the groups built from generators
_IDENTITY = "e"


def cyclic_group(n: int, generator: str = "a") -> FiniteGroupPresentation:
    """Z/n with elements e, a, a2, ..., a{n-1}."""
    if n < 1:
        raise InvalidInputError("cyclic group order must be positive")
    labels = [_IDENTITY] + [generator if k == 1 else f"{generator}{k}"
                           for k in range(1, n)]
    mult = {(labels[i], labels[k]): labels[(i + k) % n]
            for i in range(n) for k in range(n)}
    return FiniteGroupPresentation(labels, mult)


def group_from_permutations(generators: Mapping[str, Sequence[int]]
                            ) -> FiniteGroupPresentation:
    """Close a set of named permutations under composition.

    Elements are labeled by the first word (in breadth-first generator
    order) that reaches them, the identity by e; composition is function
    composition, so the word "rt" acts by t first, then r.
    """
    degree = None
    perms: Dict[str, Tuple[int, ...]] = {}
    for name, values in generators.items():
        p = tuple(values)
        if degree is None:
            degree = len(p)
        if sorted(p) != list(range(degree)):
            raise InvalidInputError(f"generator {name} is not a permutation")
        perms[name] = p
    if degree is None:
        raise InvalidInputError("no generators given")
    ident = tuple(range(degree))

    def compose(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(p[q[i]] for i in range(degree))

    label_of: Dict[Tuple[int, ...], str] = {ident: _IDENTITY}
    order: List[Tuple[int, ...]] = [ident]
    queue = [ident]
    while queue:
        current = queue.pop(0)
        for name, g in perms.items():
            nxt = compose(current, g)
            if nxt not in label_of:
                prefix = "" if current == ident else label_of[current]
                label_of[nxt] = prefix + name
                order.append(nxt)
                queue.append(nxt)
    mult = {(label_of[p], label_of[q]): label_of[compose(p, q)]
            for p in order for q in order}
    return FiniteGroupPresentation([label_of[p] for p in order], mult)


def symmetric_group_3() -> FiniteGroupPresentation:
    """S3 generated by the 3-cycle r and the transposition t."""
    return group_from_permutations({"r": (1, 2, 0), "t": (1, 0, 2)})


def group_ring(g: FiniteGroupPresentation) -> BasedRing:
    """Z[Γ]: fusion is the multiplication table, conj is inversion, d = 1.
    One ring per group, proved associative when the group was built."""
    return g.ring


# ---------------------------------------------------------------------------
# representation rings from character tables

Lifted = Dict[int, Union[int, Fraction]]  # exponent of ζ_n → coefficient


def _lift(value: Cyclo, n: int) -> Lifted:
    """``value`` as a polynomial in ζ_n (n a multiple of its order),
    integral coefficients as ``int``; not reduced mod Φ_n."""
    step = n // value.order
    return {e * step: (c.numerator if c.denominator == 1 else c)
            for e, c in value.coeffs.items()}


def _times(n: int, p: Lifted, q: Lifted, into: Optional[Lifted] = None) -> Lifted:
    """``into`` (a new dict by default) plus p·q mod x^n − 1."""
    out: Lifted = {} if into is None else into
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = (e1 + e2) % n
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _class_sum(n: int, u: Sequence[Lifted], v: Sequence[Lifted]) -> Lifted:
    """Σ_k u_k·v_k over the classes k mod x^n − 1, to be reduced mod Φ_n
    once, as ``Cyclo(n, ·)``."""
    total: Lifted = {}
    for p, q in zip(u, v):
        _times(n, p, q, total)
    return total


class CharacterTable:
    """Exact character table: class sizes and cyclotomic character values.

    Convention: the first class is the identity class (size 1), so the
    degree of an irreducible is its value there.  Row orthogonality is
    verified exactly at construction; a table that fails it is rejected.
    """

    def __init__(self, classes: Sequence[Tuple[str, int]],
                 irreps: Sequence[Tuple[str, Sequence[Cyclo]]]):
        from .cyclotomic import Cyclo
        if not classes:
            raise InvalidInputError("character table needs at least one class")
        self.classes = tuple(label for label, _ in classes)
        self.sizes = tuple(size for _, size in classes)
        if len(set(self.classes)) != len(self.classes):
            raise InvalidInputError("duplicate class labels")
        if any(not isinstance(s, int) or s < 1 for s in self.sizes):
            raise InvalidInputError("class sizes must be positive integers")
        if self.sizes[0] != 1:
            raise InvalidInputError("first class must be the identity class, size 1")
        self.order = sum(self.sizes)
        self.irreps = tuple(label for label, _ in irreps)
        if len(set(self.irreps)) != len(self.irreps):
            raise InvalidInputError("duplicate irreducible labels")
        if len(self.irreps) != len(self.classes):
            raise InvalidInputError(
                f"{len(self.irreps)} irreducibles for {len(self.classes)} "
                "classes; the table must be square")
        self.values: Dict[Tuple[str, str], Cyclo] = {}
        for label, row in irreps:
            row = list(row)
            if len(row) != len(self.classes):
                raise InvalidInputError(f"row {label} has {len(row)} values")
            for cls, value in zip(self.classes, row):
                self.values[(label, cls)] = value
        for label in self.irreps:
            degree = self.values[(label, self.classes[0])].as_integer()
            if degree is None or degree < 1:
                raise InvalidInputError(
                    f"degree of {label} is not a positive integer")
        # every value lifted once to the common order n of the table, and
        # each conjugate row once more with the class sizes folded in
        n = self._n = lcm(*(v.order for v in self.values.values()))
        self._lifted = {a: [_lift(self.values[(a, cls)], n)
                            for cls in self.classes] for a in self.irreps}
        self._sized_conj = {a: [{-e % n: size * c for e, c in v.items()}
                                for size, v in zip(self.sizes, row)]
                            for a, row in self._lifted.items()}
        # the (b, a) sum is the conjugate of the (a, b) sum, so b < a could
        # fail only after (b, a) had failed: those pairs are skipped
        for i, a in enumerate(self.irreps):
            for b in self.irreps[i:]:
                total = Cyclo(n, _class_sum(n, self._lifted[a],
                                            self._sized_conj[b]))
                expected = self.order if a == b else 0
                if total.as_rational() != expected:
                    raise InvalidInputError(
                        f"row orthogonality fails for ({a}, {b})")
        trivial = [a for a in self.irreps
                   if all(self.values[(a, cls)].as_rational() == 1
                          for cls in self.classes)]
        if not trivial:
            raise InvalidInputError("table has no trivial character")
        self.trivial = trivial[0]
        self.conjugate_of: Dict[str, str] = {}
        reduced = {a: [Cyclo(n, v) for v in row]
                   for a, row in self._lifted.items()}
        for a in self.irreps:
            conj_a = [v.conj() for v in reduced[a]]
            matches = [b for b in self.irreps if reduced[b] == conj_a]
            if not matches:
                raise InvalidInputError(
                    f"table is not closed under conjugation at {a}")
            self.conjugate_of[a] = matches[0]

    def degree(self, irrep: str) -> int:
        return self.values[(irrep, self.classes[0])].as_integer()

    def to_doc(self) -> dict:
        def value_doc(v: Cyclo):
            q = v.as_rational()
            if q is not None:
                return q.numerator if q.denominator == 1 else [q.numerator, q.denominator]
            return {"zeta": v.order,
                    "coeffs": {str(e): [c.numerator, c.denominator]
                               for e, c in sorted(v.coeffs.items())}}
        return {
            "classes": [{"label": l, "size": s}
                        for l, s in zip(self.classes, self.sizes)],
            "irreps": [{"label": a,
                        "values": [value_doc(self.values[(a, cls)])
                                   for cls in self.classes]}
                       for a in self.irreps],
        }


def rep_ring(t: CharacterTable) -> BasedRing:
    """Fusion ring of irreducible characters.

    N^c_{a,b} = (1/|G|) Σ |class| χ_a χ_b conj(χ_c), which must come out a
    non-negative integer for every triple; anything else rejects the table
    as inconsistent.
    """
    from .cyclotomic import Cyclo
    n = t._n
    fusion: Dict[Tuple[str, str], Element] = {}
    # (a, b) and (b, a) have equal class sums, so b < a copies (b, a), which
    # was checked first: the first bad triple in loop order is unchanged
    for i, a in enumerate(t.irreps):
        for b in t.irreps[i:]:
            product = [_times(n, p, q) for p, q in zip(t._lifted[a], t._lifted[b])]
            terms = {}
            for c in t.irreps:
                total = Cyclo(n, _class_sum(n, product,
                                            t._sized_conj[c])).as_rational()
                if (total is None or total.denominator != 1
                        or total.numerator < 0 or total.numerator % t.order):
                    raise InvalidInputError(
                        f"fusion coefficient of {c} in {a} ⊗ {b} is not a "
                        "non-negative integer; character table inconsistent")
                if total:
                    terms[c] = total.numerator // t.order
            fusion[(a, b)] = fusion[(b, a)] = Element(terms)
    doc = {"kind": "construct", "construct": "rep_ring",
           "character_table": t.to_doc()}
    return BasedRing(name=f"R(order-{t.order} group)", unit=t.trivial,
                     conj=t.conjugate_of.__getitem__,
                     product=lambda a, b: fusion[(a, b)],
                     dim=t.degree,
                     basis=t.irreps, doc=doc)


def s3_character_table() -> CharacterTable:
    from .cyclotomic import Cyclo
    q = Cyclo.from_rational
    return CharacterTable(
        classes=[("e", 1), ("transposition", 3), ("3-cycle", 2)],
        irreps=[("triv", [q(1), q(1), q(1)]),
                ("sgn", [q(1), q(-1), q(1)]),
                ("std", [q(2), q(0), q(-1)])])


def cyclic_character_table(n: int) -> CharacterTable:
    """All characters of Z/n; values are n-th roots of unity."""
    from .cyclotomic import Cyclo
    classes = [(f"c{k}", 1) for k in range(n)]
    irreps = [(f"chi{j}", [Cyclo.zeta(n, (j * k) % n) for k in range(n)])
              for j in range(n)]
    return CharacterTable(classes, irreps)


def trivial_character_table() -> CharacterTable:
    from .cyclotomic import Cyclo
    return CharacterTable([("e", 1)], [("triv", [Cyclo.from_rational(1)])])


# ---------------------------------------------------------------------------
# the Clebsch-Gordan ring and its even subring

_CG_LABEL = re.compile(r"^x(0|[1-9][0-9]*)$")


def _cg_ring(construct: str, name: str, step: int) -> BasedRing:
    """The lazy ring on the labels x_n with n a multiple of ``step``,
    generated by x_step: x_m ⊗ x_n = x_|m-n| ⊕ ... ⊕ x_{m+n} in steps of
    two, self-conjugate basis, d(x_n) = n + 1."""
    def index(a: str) -> int:
        m = _CG_LABEL.match(a)
        if not m:
            raise UnknownBasisError(f"unknown basis label {a!r} in {name}")
        n = int(m.group(1))
        if n % step:
            raise UnknownBasisError(f"odd label {a!r} is not in {name}")
        return n

    def product(a: str, b: str) -> Element:
        m, n = index(a), index(b)
        return Element({f"x{k}": 1 for k in range(abs(m - n), m + n + 1, 2)})

    def conj(a: str) -> str:
        index(a)
        return a

    def dim(a: str) -> int:
        return index(a) + 1

    return BasedRing(name=name, unit="x0", conj=conj, product=product, dim=dim,
                     generators=(f"x{step}",),
                     doc={"kind": "construct", "construct": construct})


def su2_ring() -> BasedRing:
    """The Clebsch-Gordan ring on x0, x1, x2, ..., generated by x1."""
    return _cg_ring("su2", "SU2", 1)


def so3_ring() -> BasedRing:
    """The even-label subring of the Clebsch-Gordan ring, generated by x2."""
    return _cg_ring("so3", "SO3", 2)


def so3_subring(ambient: Optional[BasedRing] = None) -> SubringEmbedding:
    """Even labels inside the full Clebsch-Gordan ring."""
    from .subrings import SubringEmbedding
    amb = ambient if ambient is not None else su2_ring()
    sub = so3_ring()

    def mapping(s: str) -> str:
        sub.dim(s)  # so3_ring's even-label check
        return s

    return SubringEmbedding(sub=sub, ambient=amb, mapping=mapping,
                            name="SO3 ↪ SU2",
                            doc={"kind": "embedding", "canonical": "so3_in_su2"})


# ---------------------------------------------------------------------------
# products: one letters rule, one embedding builder, one pair builder for
# the direct and semi-direct products; labels register on the ring's id
# registry, ``rings.Labels``

class RingWithFactorEmbeddings(NamedTuple):
    ring: BasedRing
    left: SubringEmbedding
    right: SubringEmbedding


def _letters(ring: BasedRing) -> List[str]:
    """A factor's basis minus the unit when finite, its generators otherwise."""
    if ring.is_finite:
        return [a for a in ring.basis if a != ring.unit]
    return list(ring.generators)


def _factor_embedding(ring: BasedRing, sub: BasedRing,
                      mapping: Callable[[str], str], canonical: str,
                      label: str) -> SubringEmbedding:
    """The canonical embedding ``label ↪ ring`` of a factor ``sub`` into
    the product ``ring``; ``mapping`` sees only labels ``sub.dim`` accepts."""
    from .subrings import SubringEmbedding

    def embed(s: str) -> str:
        sub.dim(s)  # label validation through the factor
        return mapping(s)

    doc = None
    if ring.doc is not None:
        doc = {"kind": "embedding", "canonical": canonical, "ambient": ring.doc}
    return SubringEmbedding(sub=sub, ambient=ring, mapping=embed,
                            name=f"{label} ↪ {ring.name}", doc=doc)


def _two_factor_doc(construct: str, r1: BasedRing, r2: BasedRing
                    ) -> Optional[dict]:
    if r1.doc is None or r2.doc is None:
        return None
    return {"kind": "construct", "construct": construct,
            "left": r1.doc, "right": r2.doc}


def _pair_product(name: str, r1: BasedRing, r2: BasedRing,
                  twist: Callable[[str, str], str], doc: Optional[dict],
                  left: Tuple[str, str], right: Tuple[str, str]
                  ) -> RingWithFactorEmbeddings:
    """Pairs (a, x) of factor labels with the twisted fusion
    (a, x) ⊗ (b, y) = (a ⊗ b) × (τ_b(x) ⊗ y), conj(a, x) =
    (conj a, τ_{conj a}(conj x)) and d(a, x) = d(a)·d(x), where
    ``twist(b, x)`` is τ_b(x); ``left`` and ``right`` are each factor
    embedding's canonical form and label."""
    labels = Labels(name, lambda pair: f"({pair[0]},{pair[1]})")
    make, decode = labels.make, labels.decode

    def product(la: str, lb: str) -> Element:
        a, x = decode(la)
        b, y = decode(lb)
        return bilinear(lambda u, v: Element.basis(make((u, v))),
                        r1.product(a, b), r2.product(twist(b, x), y))

    def conj(la: str) -> str:
        a, x = decode(la)
        c = r1.conj(a)
        return make((c, twist(c, r2.conj(x))))

    def dim(la: str) -> Union[int, Fraction]:
        a, x = decode(la)
        return r1.dim(a) * r2.dim(x)

    unit = make((r1.unit, r2.unit))
    if r1.is_finite and r2.is_finite:
        basis_kw = {"basis": [make((a, b)) for a in r1.basis for b in r2.basis]}
    else:
        basis_kw = {"generators": [make((g, r2.unit)) for g in _letters(r1)]
                    + [make((r1.unit, g)) for g in _letters(r2)]}
    ring = BasedRing(name=name, unit=unit, conj=conj, product=product, dim=dim,
                     doc=doc, labels=labels, **basis_kw)
    return RingWithFactorEmbeddings(
        ring, _factor_embedding(ring, r1, lambda a: make((a, r2.unit)), *left),
        _factor_embedding(ring, r2, lambda x: make((r1.unit, x)), *right))


def direct_product(r1: BasedRing, r2: BasedRing) -> RingWithFactorEmbeddings:
    """Componentwise fusion on pairs, with both factor embeddings: the pair
    product with the identity twist."""
    return _pair_product(f"{r1.name} × {r2.name}", r1, r2, lambda b, x: x,
                         _two_factor_doc("direct_product", r1, r2),
                         ("direct_left", r1.name), ("direct_right", r2.name))


_FREE_UNIT = "ε"


def free_product(r1: BasedRing, r2: BasedRing) -> RingWithFactorEmbeddings:
    """Alternating words over the factors' non-trivial basis labels.

    Words whose inner letters meet in different factors concatenate; equal
    factors contract at the boundary: the letters fuse to every non-trivial
    constituent, and when they are conjugate the unit constituent leaves
    the shortened words to multiply in turn.

    A word is a tuple of letter ids, 2·i + side for the letter with id i in
    its factor, and the key of its label, rendered when the word is first
    registered.  Every letter is registered as its one-letter word before
    it is used, so a letter label that both factors use is rejected as
    ambiguous.
    """
    name = f"{r1.name} ∗ {r2.name}"
    factors = (r1, r2)

    text: dict = {}  # letter id → its factor label

    def letter(side: int, x: str) -> int:
        k = 2 * factors[side]._ids.id(x) + side
        text[k] = x
        return k

    labels = Labels(name, lambda word: "".join(map(text.__getitem__, word)) or _FREE_UNIT,
                    show=lambda word: tuple((k & 1, text[k]) for k in word))
    make, intern, keys = labels.make, labels.intern, labels.keys
    steps: dict = {}  # (x, x′) → (non-unit terms of x ⊗ x′, x′ = conj(x))

    def step(x: int, y: int) -> tuple:
        factor = factors[x & 1]
        steps[(x, y)] = out = (
            tuple(((letter(x & 1, t),), coeff)
                  for t, coeff in factor.product(text[x], text[y]).items()
                  if t != factor.unit), factor.conj(text[x]) == text[y])
        return out

    def id_product(a: int, b: int) -> Any:
        u, v = keys[a], keys[b]
        if not (u and v) or (u[-1] ^ v[0]) & 1:  # no letters to contract
            return intern(u + v)
        i, j, sums = len(u), 0, {}
        # u[:i] and v[j:] are left once each contraction strips a letter
        # from both words, so the loop ends
        while i and j < len(v) and not (u[i - 1] ^ v[j]) & 1:
            terms, cancels = steps.get((u[i - 1], v[j])) or step(u[i - 1], v[j])
            for word, coeff in terms:
                intern(word)
                k = intern(u[:i - 1] + word + v[j + 1:])
                sums[k] = sums.get(k, 0) + coeff
            if not cancels:
                break
            i, j = i - 1, j + 1
        else:
            k = intern(u[:i] + v[j:])
            if not sums:
                return k
            sums[k] = sums.get(k, 0) + 1
        return k if len(sums) == 1 and sums[k] == 1 else sums

    def conj(la: str) -> str:
        flipped = tuple(letter(k & 1, factors[k & 1].conj(text[k]))
                        for k in reversed(labels.decode(la)))
        for k in flipped:
            intern((k,))
        return make(flipped)

    def dim(la: str) -> Union[int, Fraction]:
        out = 1
        for k in labels.decode(la):
            out *= factors[k & 1].dim(text[k])
        return out

    unit = make(())
    generators = [make((letter(side, x),))
                  for side, factor in enumerate(factors)
                  for x in _letters(factor)]
    ring = BasedRing(name=name, unit=unit, conj=conj, product=None,
                     id_product=id_product, dim=dim, generators=generators,
                     labels=labels, doc=_two_factor_doc("free_product", r1, r2))

    def embed_side(side: int) -> Callable[[str], str]:
        unit_of = factors[side].unit
        return lambda s: unit if s == unit_of else make((letter(side, s),))

    return RingWithFactorEmbeddings(
        ring,
        _factor_embedding(ring, r1, embed_side(0), "free_left", r1.name),
        _factor_embedding(ring, r2, embed_side(1), "free_right", r2.name))


# ---------------------------------------------------------------------------
# semi-direct products

class RingAutomorphismAction(NamedTuple):
    """A finite group acting on a finite ring by basis permutations."""

    group: FiniteGroupPresentation
    perms: Mapping[str, Mapping[str, str]]

    def to_doc(self) -> dict:
        return {gamma: dict(sorted(self.perms[gamma].items()))
                for gamma in self.group.elements}


def verify_automorphism_action(act: RingAutomorphismAction,
                               target: BasedRing) -> None:
    """Each permutation must be a fusion-ring automorphism and
    γ ↦ permutation a homomorphism; violations raise with a witness."""
    if not target.is_finite:
        raise InvalidInputError("automorphism actions need a finite target ring")
    g = act.group
    basis = set(target.basis)
    for gamma in g.elements:
        perm = act.perms.get(gamma)
        if perm is None:
            raise InvalidInputError(f"action missing permutation for {gamma}")
        if set(perm) != basis or set(perm.values()) != basis:
            raise InvalidInputError(
                f"action of {gamma} is not a permutation of the basis")
    stray = sorted(set(act.perms) - set(g.elements))
    if stray:
        raise InvalidInputError(f"action names {stray[0]}, not a group element")
    ident = act.perms[g.identity]
    for x in target.basis:
        if ident[x] != x:
            raise InvalidInputError(
                f"identity element acts non-trivially: {x} ↦ {ident[x]}")
    for g1 in g.elements:
        for g2 in g.elements:
            composite = act.perms[g.mul(g1, g2)]
            for x in target.basis:
                if composite[x] != act.perms[g1][act.perms[g2][x]]:
                    raise InvalidInputError(
                        f"action is not a homomorphism at ({g1}, {g2}, {x})")
    for gamma in g.elements:
        perm = act.perms[gamma]
        if perm[target.unit] != target.unit:
            raise InvalidInputError(f"action of {gamma} moves the unit")
        for x in target.basis:
            if perm[target.conj(x)] != target.conj(perm[x]):
                raise InvalidInputError(
                    f"action of {gamma} does not commute with conj at {x}")
            if target.dim(perm[x]) != target.dim(x):
                raise InvalidInputError(
                    f"action of {gamma} changes the dimension of {x}")
        for x in target.basis:
            for y in target.basis:
                expected = target.product(x, y).map_basis(lambda z: perm[z])
                if target.product(perm[x], perm[y]) != expected:
                    raise InvalidInputError(
                        f"action of {gamma} is not multiplicative at ({x}, {y})")


def inversion_action(group: FiniteGroupPresentation,
                     target: BasedRing) -> RingAutomorphismAction:
    """Order-two group acting by the involution of the target ring."""
    if len(group.elements) != 2:
        raise InvalidInputError("inversion action expects a two-element group")
    other = [g for g in group.elements if g != group.identity][0]
    perms = {group.identity: {x: x for x in target.basis},
             other: {x: target.conj(x) for x in target.basis}}
    return RingAutomorphismAction(group, perms)


class SemidirectProductRing(NamedTuple):
    ring: BasedRing
    group_embedding: SubringEmbedding
    target_embedding: SubringEmbedding


def semidirect_product(gamma: FiniteGroupPresentation, target: BasedRing,
                       act: RingAutomorphismAction) -> SemidirectProductRing:
    """Z[Γ] × R twisted by the action: τ_γ is the action of γ⁻¹, so
    (γ, x) ⊗ (γ', x') = (γγ', α_{γ'⁻¹}(x) ⊗ x') and
    conj(γ, x) = (γ⁻¹, α_γ(conj x))."""
    verify_automorphism_action(act, target)
    if act.group is not gamma and act.group.elements != gamma.elements:
        raise InvalidInputError("action group does not match the given group")
    doc = None
    if target.doc is not None:
        doc = {"kind": "construct", "construct": "semidirect_product",
               "group": gamma.to_doc(), "target": target.doc,
               "action": act.to_doc()}
    return SemidirectProductRing(*_pair_product(
        f"{len(gamma.elements)}-group ⋉ {target.name}", group_ring(gamma),
        target, lambda g, x: act.perms[gamma.inv(g)][x], doc,
        ("semidirect_group", "group"), ("semidirect_target", target.name)))
