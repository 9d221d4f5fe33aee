"""Based rings with exact fusion data: products, involution, axiom checks.

A based ring here is a free Z-module on a pointed involutive basis with an
associative product whose structure constants are non-negative integers and
whose unit appears in conj(a) ⊗ b exactly when a = b.  Adding a positive,
multiplicative, conjugation-invariant dimension function makes it a fusion
ring.  Bases are either finite and explicit, or lazy: generated on demand by
closing a generator set under products, depth by depth.

Concurrency: extending a lazy basis window is serialized by a per-ring lock,
so concurrent ``basis_up_to_depth`` calls on one ring see the same levels as
a serial run.  The product, conjugation and dimension memos, and the one
shared Element per single-label product, are fill-on-read dicts; a
duplicate fill computes the same value.  A product ring registers each new
label under its label registry's own lock.
"""

from __future__ import annotations

import itertools
import threading
from fractions import Fraction
from typing import (Any, Callable, Iterable, NamedTuple, Optional, Sequence,
                    Tuple)

from .elements import (
    Element,
    InvalidInputError,
    UnknownBasisError,
    bilinear,
    require_nonnegative,
)

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"
DEFAULT_DEPTH = 4  # of every check and load that is given none


class Verdict(NamedTuple):
    """Three-valued outcome of a bounded check.

    ``holds`` with ``bound=None`` is exhaustive; with ``bound=k`` it means
    every instance checked within depth k passed, and each such instance is
    decided exactly.  ``unknown`` is reserved for properties whose instances
    cannot be decided by bounded search at all (e.g. co-finiteness over an
    infinite basis).  ``fails`` always carries a concrete witness that
    re-evaluation reproduces.
    """

    status: str
    witness: Optional[str] = None
    bound: Optional[int] = None
    data: Any = None

    @classmethod
    def holds(cls, bound: Optional[int] = None, witness: Optional[str] = None,
              data: Any = None) -> "Verdict":
        return cls(HOLDS, witness, bound, data)

    @classmethod
    def holds_within(cls, depth: int, *checked: Any, data: Any = None) -> "Verdict":
        """``holds`` at ``depth`` over ``checked``; bound None when exhaustive."""
        return cls.holds(None if exhaustive(*checked) else depth, data=data)

    @classmethod
    def fails(cls, witness: str, data: Any = None) -> "Verdict":
        return cls(FAILS, witness, None, data)

    @classmethod
    def unknown(cls, bound: int, witness: Optional[str] = None) -> "Verdict":
        return cls(UNKNOWN, witness, bound)

    @property
    def is_holds(self) -> bool:
        return self.status == HOLDS

    @property
    def is_fails(self) -> bool:
        return self.status == FAILS

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN

    def exit_code(self) -> int:
        return {HOLDS: 0, FAILS: 1, UNKNOWN: 2}[self.status]

    @classmethod
    def combine(cls, *verdicts: "Verdict") -> "Verdict":
        """Conjunction with three-valued propagation: any Fails wins, then
        Unknown; Holds keeps the smallest bound of its parts, the depth
        to which every part was checked."""
        for v in verdicts:
            if v.is_fails:
                return v
        unknowns = [v for v in verdicts if v.is_unknown]
        if unknowns:
            return unknowns[0]
        bounds = [v.bound for v in verdicts if v.bound is not None]
        return cls.holds(bound=min(bounds) if bounds else None)

    def to_doc(self) -> dict:
        doc: dict = {"status": self.status}
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.bound is not None:
            doc["bound"] = self.bound
        if self.data is not None:
            doc["data"] = _plain(self.data)
        return doc


def _plain(value: Any) -> Any:
    if isinstance(value, Element):
        return dict(value.items())
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    return value


class BasedRing:
    """Exact based/fusion ring with a finite or lazily generated basis.

    The product, involution and dimension are supplied as callables over
    labels and memoized on first read; nothing is stored for a call that
    raised.  Equal products that are one label with coefficient 1 share one
    Element.  A finite ring rejects a label outside its basis itself, so its
    callables see only basis labels.  For lazy rings
    ``generators`` seeds the depth-by-depth basis enumeration: depth k holds
    every label appearing in a product of at most k generators, ordered by
    (depth of first appearance, label).
    """

    def __init__(self, *, name: str, unit: str,
                 conj: Callable[[str], str],
                 product: Callable[[str, str], Element],
                 dim: Callable[[str], Fraction],
                 basis: Optional[Sequence[str]] = None,
                 generators: Optional[Sequence[str]] = None,
                 doc: Optional[dict] = None):
        self.name = name
        self.unit = unit
        self._conj_fn = conj
        self._product_fn = product
        self._dim_fn = dim
        self.doc = doc
        if basis is not None:
            self._basis: Optional[Tuple[str, ...]] = tuple(basis)
            self._labels: Optional[frozenset] = frozenset(self._basis)
            if len(self._labels) != len(self._basis):
                raise InvalidInputError(f"ring {name}: duplicate basis labels")
            if unit not in self._labels:
                raise InvalidInputError(f"ring {name}: unit {unit!r} not in basis")
            self.generators: Tuple[str, ...] = ()
        else:
            if not generators:
                raise InvalidInputError(f"ring {name}: lazy ring needs generators")
            self._basis = self._labels = None
            self.generators = tuple(generators)
        self._cache: dict = {}
        self._singles: dict = {}  # label → the shared Element 1·label
        self._conjs: dict = {}
        self._dims: dict = {}
        self._levels: list = [[unit]]
        self._level_seen = {unit}
        self._levels_lock = threading.Lock()

    @property
    def is_finite(self) -> bool:
        return self._basis is not None

    @property
    def basis(self) -> Tuple[str, ...]:
        if self._basis is None:
            raise InvalidInputError(f"ring {self.name} has an infinite basis")
        return self._basis

    def _reject_unknown(self, *labels: str) -> None:
        """Raise for the first label outside this finite ring's basis."""
        for label in labels:
            if label not in self._labels:
                raise UnknownBasisError(
                    f"unknown basis label {label!r} in ring {self.name}")

    def conj(self, label: str) -> str:
        c = self._conjs.get(label)
        if c is None:
            if self._labels is not None:
                self._reject_unknown(label)
            self._conjs[label] = c = self._conj_fn(label)
        return c

    def dim(self, label: str) -> Fraction:
        d = self._dims.get(label)
        if d is None:
            if self._labels is not None:
                self._reject_unknown(label)
            d = self._dim_fn(label)
            self._dims[label] = d = d if isinstance(d, Fraction) else Fraction(d)
        return d

    def product(self, a: str, b: str) -> Element:
        """Decomposition of a ⊗ b into basis labels with multiplicities."""
        key = (a, b)
        hit = self._cache.get(key)
        if hit is None:
            if self._labels is not None:
                self._reject_unknown(a, b)
            hit = self._product_fn(a, b)
            label = hit.single_label()
            hit = (require_nonnegative(hit, "{} ⊗ {}", a, b) if label is None
                   else self._singles.setdefault(label, hit))
            self._cache[key] = hit
        return hit

    def basis_up_to_depth(self, depth: int) -> list:
        """Basis window: full basis for finite rings, product closure otherwise."""
        if self._basis is not None:
            return list(self._basis)
        if depth < 0:
            raise InvalidInputError("depth must be non-negative")
        with self._levels_lock:
            while len(self._levels) <= depth:
                fresh = set()
                for w in self._levels[-1]:
                    for g in self.generators:
                        for label, _ in self.product(w, g).items():
                            if label not in self._level_seen:
                                fresh.add(label)
                level = sorted(fresh)
                self._level_seen.update(level)
                self._levels.append(level)
            levels = self._levels[: depth + 1]
        out: list = []
        for level in levels:
            out.extend(level)
        return out

    def same_as(self, other: "BasedRing") -> bool:
        """Identity, or equality of serialized definitions when both exist."""
        if self is other:
            return True
        if self.doc is not None and other.doc is not None:
            return self.doc == other.doc
        return False

    def __repr__(self) -> str:
        kind = f"finite rank {len(self._basis)}" if self._basis is not None else "lazy"
        return f"BasedRing({self.name}, {kind})"


def tensor(ring: BasedRing, a: Element, b: Element) -> Element:
    """Bilinear extension of the fusion product to arbitrary elements."""
    return bilinear(ring.product, a, b)


def conjugate(ring: BasedRing, a: Element) -> Element:
    """Coefficient-preserving relabeling through the involution."""
    return a.map_basis(ring.conj)


def checked_window(obj: Any, depth: int) -> list:
    """The labels of a ring or module that a check at ``depth`` covers; every
    depth-taking check starts here, so depth < 1 is refused in one place."""
    if depth < 1:
        raise InvalidInputError("depth must be >= 1")
    return obj.basis_up_to_depth(depth)


def exhaustive(*checked: Any) -> bool:
    """A check over these rings and modules covers every label: all are finite."""
    return all(x.is_finite for x in checked)


def check_ring_axioms(ring: BasedRing, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Verify unit, involution, the unit-multiplicity axiom, conjugation
    anti-multiplicativity and associativity on all tuples within depth.

    Exhaustive for finite rings, whose associativity is proved from the
    triples of :func:`generating_labels`; a failure there is named by the
    ordered sweep over every triple, which also decides lazy rings.  For
    lazy rings the verdict records the window it covered.
    """
    window = checked_window(ring, depth)
    if ring.conj(ring.unit) != ring.unit:
        return Verdict.fails(
            f"conj(unit) = {ring.conj(ring.unit)} ≠ {ring.unit}")
    for a in window:
        cc = ring.conj(ring.conj(a))
        if cc != a:
            return Verdict.fails(f"conj is not involutive at {a}: conj(conj({a})) = {cc}",
                                 data=(a,))
        if ring.product(ring.unit, a) != Element.basis(a):
            return Verdict.fails(
                f"unit not left-neutral at {a}: \U0001d7d9 ⊗ {a} = "
                f"{ring.product(ring.unit, a).format()}", data=(a,))
        if ring.product(a, ring.unit) != Element.basis(a):
            return Verdict.fails(
                f"unit not right-neutral at {a}: {a} ⊗ \U0001d7d9 = "
                f"{ring.product(a, ring.unit).format()}", data=(a,))
    for a in window:
        ca = ring.conj(a)
        for b in window:
            got = ring.product(ca, b).coeff(ring.unit)
            want = 1 if a == b else 0
            if got != want:
                return Verdict.fails(
                    f"unit coefficient of conj({a}) ⊗ {b} is {got}, expected {want}",
                    data=(a, b))
            lhs = conjugate(ring, ring.product(a, b))
            rhs = ring.product(ring.conj(b), ring.conj(a))
            if lhs != rhs:
                return Verdict.fails(
                    f"conj({a} ⊗ {b}) = {lhs.format()} ≠ "
                    f"conj({b}) ⊗ conj({a}) = {rhs.format()}", data=(a, b))
    if exhaustive(ring) and associative_by_generators(ring) is not None:
        return Verdict.holds()
    # the ordered sweep decides lazy windows and names the first failing triple
    failure = first_nonassociative(ring.product, ring.product, window, window, window)
    if failure is not None:
        a, b, c, right, left = failure
        return Verdict.fails(
            f"associativity fails at ({a}, {b}, {c}): "
            f"({a}⊗{b})⊗{c} = {left.format()} ≠ "
            f"{a}⊗({b}⊗{c}) = {right.format()}", data=(a, b, c))
    return Verdict.holds_within(depth, ring)


def first_nonassociative(action: Callable[[str, str], Element],
                         product: Callable[[str, str], Element], alphas: Sequence[str],
                         betas: Sequence[str], js: Sequence[str]) -> Optional[tuple]:
    """The first (α, β, j), in loop order, with α⊗(β⊗j) ≠ (α⊗β)⊗j, as
    (α, β, j, α⊗(β⊗j), (α⊗β)⊗j), else None.  ``action`` decomposes x ⊗ j
    and ``product`` α ⊗ β, once per pair: a ring's own product as both is
    ring associativity, a module's action module associativity.

    Per triple, (α⊗β)⊗j comes first, then β⊗j, then α⊗(β⊗j), so the first
    call to raise is fixed; β⊗j is asked during the first α only, and kept.
    A row that is one label with coefficient 1 is used directly,
    (α⊗β)⊗j = action(l, j) for α⊗β = l and α⊗(β⊗j) = action(α, m) for
    β⊗j = m: the bilinear sum of one term with coefficient 1 is that term's
    Element, which a ring shares, so the sides are compared by identity
    first.  Every other row takes the bilinear sum."""
    singles = [(j, Element.basis(j)) for j in js]
    rows: dict = {}  # β → [(β⊗j, its single label)] in the order of js
    for alpha in alphas:
        alpha_single = Element.basis(alpha)
        for beta in betas:
            ab = product(alpha, beta)
            ab_label = ab.single_label()
            fill = beta not in rows
            row = rows.setdefault(beta, [])
            for k, (j, j_single) in enumerate(singles):
                flat = (bilinear(action, ab, j_single) if ab_label is None
                        else action(ab_label, j))
                if fill:
                    bj = action(beta, j)
                    row.append((bj, bj.single_label()))
                bj, bj_label = row[k]
                nested = (bilinear(action, alpha_single, bj) if bj_label is None
                          else action(alpha, bj_label))
                if nested is not flat and nested != flat:
                    return alpha, beta, j, nested, flat
    return None


def generating_labels(ring: BasedRing) -> list:
    """Greedy list S of basis labels, in basis order, whose linear closure
    is the whole basis of a finite ring.

    The closure starts at the unit.  A label c joins it when some product
    x ⊗ y of closed labels has c as its only support label outside the
    closure; when no product adds a label, the first label outside the
    closure, in basis order, joins S.  Closure in the fusion-graph sense is
    not enough: in Rep(D4), std ⊗ std = 1 ⊕ a ⊕ b ⊕ c reaches every label,
    but the span of the powers of std has dimension 3 of 5.

    Why S decides associativity (Light's test; Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, 1961, §1.2).  Let M be the set of
    elements m with (x⊗m)⊗y = x⊗(m⊗y) for all basis x, y.  M is a subgroup,
    and it holds the unit when the unit is neutral.  If a, b ∈ M, then
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), each step moving
    brackets around a or b only, so ab ∈ M.  When c joins the closure
    through x ⊗ y = N·c + (closed terms), N·c ∈ M; the associator is
    Z-linear and the ring is a free Z-module, so c ∈ M.  Hence S ⊆ M gives
    M = the whole ring: the |S|·n² triples (x, s, y) with s ∈ S decide
    associativity.  Products must stay on the basis.
    """
    seen = {ring.unit}
    closed = [ring.unit]
    labels: list = []
    pending: list = []  # products with two or more labels outside the closure
    paired = 0  # closed[:paired] have been multiplied with each other
    while True:
        for c in closed[paired:]:
            paired += 1
            for x in closed[:paired]:
                pending += (ring.product(c, x), ring.product(x, c))
        waiting = []
        for p in pending:
            outside = [label for label in p.support if label not in seen]
            if len(outside) == 1:
                seen.add(outside[0])
                closed.append(outside[0])
            elif outside:
                waiting.append(p)
        pending = waiting
        if paired < len(closed):
            continue
        spare = next((label for label in ring.basis if label not in seen), None)
        if spare is None:
            return labels
        labels.append(spare)
        seen.add(spare)
        closed.append(spare)


def associative_by_generators(ring: BasedRing) -> Optional[list]:
    """The generating labels of a finite ring when their |S|·n² triples
    prove it associative, else None.

    None also when a product leaves the basis or the unit is not neutral,
    the two facts the proof in :func:`generating_labels` rests on, or when
    an input error or overflow is met on the way; the caller's ordered
    sweep then decides, or raises, exactly as it would alone.  Records
    nothing on the ring.
    """
    basis, unit = ring.basis, ring.unit
    single = {x: Element.basis(x) for x in basis}
    try:
        for a in basis:
            if ring.product(unit, a) != single[a] or ring.product(a, unit) != single[a]:
                return None
            for b in basis:
                if not ring._labels.issuperset(ring.product(a, b).support):
                    return None
        labels = generating_labels(ring)
        if first_nonassociative(ring.product, ring.product,
                                basis, labels, basis) is not None:
            return None
    except (ValueError, ArithmeticError):
        return None
    return labels


def check_dimension(ring: BasedRing, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Verify positivity, conjugation invariance and multiplicativity of the
    dimension function on all pairs within depth.  A pair whose dimensions
    all have denominator 1 is compared in integers, any other as Fractions."""
    window = checked_window(ring, depth)
    if ring.dim(ring.unit) != 1:
        return Verdict.fails(f"d(unit) = {ring.dim(ring.unit)} ≠ 1")
    for a in window:
        da = ring.dim(a)
        if da <= 0:
            return Verdict.fails(f"d({a}) = {da} is not positive", data=(a,))
        if ring.dim(ring.conj(a)) != da:
            return Verdict.fails(
                f"d(conj({a})) = {ring.dim(ring.conj(a))} ≠ d({a}) = {da}",
                data=(a,))
    for a in window:
        da = ring.dim(a)
        for b in window:
            db = ring.dim(b)
            terms = [(c, ring.dim(lbl)) for lbl, c in ring.product(a, b).items()]
            if all(d.denominator == 1 for d in (da, db, *(d for _, d in terms))):
                total = sum(c * d.numerator for c, d in terms)
                want = da.numerator * db.numerator
            else:
                total, want = sum((c * d for c, d in terms), Fraction(0)), da * db
            if total != want:
                return Verdict.fails(
                    f"dimension not multiplicative at ({a}, {b}): "
                    f"d({a})·d({b}) = {da * db} but "
                    f"Σ N·d = {total}", data=(a, b))
    return Verdict.holds_within(depth, ring)


def explicit_ring(*, name: str, basis: Iterable[str], unit: str,
                  conj: dict, dim: dict, fusion: dict,
                  doc: Optional[dict] = None) -> BasedRing:
    """Build a finite ring from explicit tables, checked once, here.

    ``conj`` and ``dim`` map exactly the basis, ``conj`` into it.
    ``fusion`` maps pairs of basis labels to Elements supported on the
    basis, with non-negative coefficients; every non-unit pair must be
    listed, because a missing pair is undefined, never a silent zero.  Unit products are implied, and an
    entry for a unit pair is never read.
    """
    conj, dim, fusion = dict(conj), dict(dim), dict(fusion)

    def product_fn(a: str, b: str) -> Element:
        if a == unit:
            return Element.basis(b)
        if b == unit:
            return Element.basis(a)
        return fusion[(a, b)]

    ring = BasedRing(name=name, unit=unit, conj=conj.__getitem__,
                     product=product_fn, dim=dim.__getitem__, basis=basis,
                     doc=doc)
    labels = ring._labels
    for what, table in (("conj", conj), ("dim", dim)):
        if set(table) != labels:
            raise InvalidInputError(
                f"ring {name}: {what} table must map exactly the basis "
                f"labels; it differs at {sorted(set(table) ^ labels, key=str)}")
    for label, target in conj.items():
        if target not in labels:
            raise InvalidInputError(f"ring {name}: conj({label!r}) = "
                                    f"{target!r} is not a basis label")
    for a, b in itertools.product(ring.basis, repeat=2):
        if unit not in (a, b) and (a, b) not in fusion:
            raise InvalidInputError(f"ring {name}: fusion entry for ({a}, {b}) is "
                                    "missing; unlisted pairs are undefined, not zero")
    for (a, b), value in fusion.items():
        stray = {a, b, *value.support} - labels
        if stray:
            raise InvalidInputError(f"ring {name}: fusion entry ({a}, {b}) "
                                    f"names unknown labels {sorted(stray)}")
        for label, c in value.items():
            if c < 0:
                raise InvalidInputError(f"ring {name}: negative coefficient "
                                        f"{c}·{label} in fusion entry ({a}, {b})")
    return ring
