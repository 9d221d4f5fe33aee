"""Based rings with exact fusion data: products, involution, axiom checks.

A based ring here is a free Z-module on a pointed involutive basis with an
associative product whose structure constants are non-negative integers and
whose unit appears in conj(a) ⊗ b exactly when a = b.  Adding a positive,
multiplicative, conjugation-invariant dimension function makes it a fusion
ring.  Bases are either finite and explicit, or lazy: generated on demand by
closing a generator set under products, depth by depth.

Rings and based modules share one base, :class:`Based`: the finite or lazy
basis, the id rows of every product or action, and the one ``_fill`` that
computes, checks and stores a row.

Concurrency: extending a lazy basis window is serialized by a per-ring lock,
so concurrent ``basis_up_to_depth`` calls on one ring see the same levels as
a serial run.  The product rows, the conjugation and dimension memos, and
the one shared Element per single-label product, are fill-on-read dicts; a
duplicate fill computes the same value.  Label ids are assigned on the
ring's label registry (:class:`Labels`), under its own lock, in the order
labels are first met; threads running the same check meet them in the
serial order, so they assign the serial ids.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from fractions import Fraction
from typing import (Any, Callable, Iterable, NamedTuple, Optional, Sequence,
                    Tuple)

from .elements import (
    Element,
    InvalidInputError,
    UnknownBasisError,
    bilinear,
    checked_sums,
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
    """A ``data`` payload as JSON; no verdict carries an Element or a Fraction."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


class Labels:
    """Dense int ids for the labels of a ring or module, in order of first
    registration.

    A product ring renders each label from a key (a pair of factor labels,
    or a word of letter ids) and resolves only labels already registered;
    anywhere else a label is its own key and is registered when first met.
    Registration takes the registry's own lock, on a miss only, and hands
    an id out only once the id decodes and its label resolves.
    """

    def __init__(self, name: str, render: Optional[Callable] = None,
                 show: Callable = lambda key: key):
        self.name, self._render, self._show = name, render, show
        self.labels: list = []  # id → label
        self.keys: list = []  # id → key
        self.ids: dict = {}  # label → id
        self._key_ids: dict = {}
        self._lock = threading.Lock()

    def intern(self, key: Any) -> int:
        i = self._key_ids.get(key)
        if i is None:
            with self._lock:
                i = self._key_ids.get(key)
                if i is None:
                    label = key if self._render is None else self._render(key)
                    if label in self.ids:
                        raise InvalidInputError(
                            f"ambiguous label {label!r} in {self.name}: it stands for "
                            f"both {self._show(self.keys[self.ids[label]])!r} and "
                            f"{self._show(key)!r}; relabel a factor")
                    i = len(self.labels)
                    self.labels.append(label)
                    self.keys.append(key)
                    self.ids[label] = i
                    self._key_ids[key] = i  # handed out from here on
        return i

    def make(self, key: Any) -> str:
        return self.labels[self.intern(key)]

    def id(self, label: str) -> int:
        i = self.ids.get(label)
        if i is None and self._render is not None:
            raise UnknownBasisError(f"unknown basis label {label!r} in {self.name}")
        return self.intern(label) if i is None else i

    def decode(self, label: str) -> Any:
        return self.keys[self.id(label)]


def _single(sums: dict) -> Any:
    """The id of a one-label, coefficient-1 sum, else the sum."""
    return next(iter(sums)) if len(sums) == 1 and 1 in sums.values() else sums


class Based:
    """What :class:`BasedRing` and :class:`~fusionkit.modules.BasedModule`
    share: a finite or lazy basis and its structure constants, kept once.

    ``_rows[a][x]`` holds a ⊗ x, for a ring id a and an id x of this ring or
    module: the id of its label when it is one label with coefficient 1,
    else its (id, coeff) terms in label order.  On a miss, ``_fill`` runs
    the subclass's ``_rule``, checks the result (an Element non-negative,
    every final coefficient in the signed 64-bit range) and stores it; a
    one-label row's shared Element is the rule's own when it returned one.
    ``_get`` reads rows by label for ``BasedRing.product`` and
    ``BasedModule.action``, after the subclass's ``_reject_unknown``.
    """

    _kind = "ring"  # names the object in messages

    def __init__(self, name: str, basis: Optional[Sequence[str]],
                 labels: Optional[Labels], ring: Optional["BasedRing"] = None):
        self.name = name
        if basis is not None:
            self._basis: Optional[Tuple[str, ...]] = tuple(basis)
            self._labels: Optional[frozenset] = frozenset(self._basis)
            if len(self._labels) != len(self._basis):
                raise InvalidInputError(f"{self._kind} {name}: duplicate basis labels")
        else:
            self._basis = self._labels = None
        self._ids = labels if labels is not None else Labels(name)
        for label in self._basis or ():
            self._ids.id(label)
        self._ring_ids = self._ids if ring is None else ring._ids
        self._rows: defaultdict = defaultdict(dict)  # a → {x: row of a ⊗ x}
        self._singles: dict = {}  # id → the one shared Element of that label

    @property
    def is_finite(self) -> bool:
        return self._basis is not None

    @property
    def basis(self) -> Tuple[str, ...]:
        if self._basis is None:
            raise InvalidInputError(f"{self._kind} {self.name} has an infinite basis")
        return self._basis

    def _get(self, a: str, x: str) -> Element:
        """Decomposition of a ⊗ x, by label: the row read, or filled once
        the labels are checked; a one-label row is its shared Element."""
        try:
            row = self._rows[self._ring_ids.ids[a]].get(self._ids.ids[x])
        except KeyError:  # a label not met yet
            row = None
        if row is None:
            self._reject_unknown(a, x)
            row = self._fill(self._ring_ids.id(a), self._ids.id(x))
        single = self._singles.get(row)
        return self._element(row) if single is None else single

    def _at(self, a: int, x: int) -> Any:
        row = self._rows[a].get(x)
        return self._fill(a, x) if row is None else row

    def _fill(self, a: int, x: int) -> Any:
        """Compute, check and store the row of a ⊗ x, each coefficient
        range-checked; a one-label Element is the one shared from here on."""
        row = self._rule(a, x)
        if type(row) is not int:
            if type(row) is not dict:
                require_nonnegative(row, "{} ⊗ {}", self._ring_ids.labels[a],
                                    self._ids.labels[x])
                single = row.single_label()
                if single is not None:
                    self._rows[a][x] = i = self._ids.id(single)
                    self._singles.setdefault(i, row)
                    return i
                row = {self._ids.id(y): c for y, c in row.items()}
            row = _single(checked_sums(row))
            if type(row) is not int:
                row = tuple(sorted(row.items(), key=lambda t: self._ids.labels[t[0]]))
        self._rows[a][x] = row
        return row

    def _element(self, row: Any) -> Element:
        """A row, or a dict of coefficients by id, as an Element."""
        if type(row) is int:
            single = self._singles.get(row)
            return single or self._singles.setdefault(row, Element.basis(self._ids.labels[row]))
        terms = row.items() if type(row) is dict else row
        return Element.from_sums({self._ids.labels[i]: c for i, c in terms})


_UNTRIED = object()  # no generator proof has run on the ring yet


class BasedRing(Based):
    """Exact based/fusion ring with a finite or lazily generated basis.

    The product, involution and dimension are supplied as callables over
    labels and memoized on first read; nothing is stored for a call that
    raised.  Products are the id rows of :class:`Based`; ``id_product``
    may compute them in place of ``product``, by id, as an id or a dict of
    coefficients by id.  A finite ring rejects a label outside its basis
    itself, so its callables see only basis labels.  For lazy rings
    ``generators`` seeds the depth-by-depth basis enumeration: depth k holds
    every label appearing in a product of at most k generators, ordered by
    (depth of first appearance, label).
    """

    def __init__(self, *, name: str, unit: str,
                 conj: Callable[[str], str],
                 product: Optional[Callable[[str, str], Element]],
                 dim: Callable[[str], Fraction],
                 basis: Optional[Sequence[str]] = None,
                 generators: Optional[Sequence[str]] = None,
                 doc: Optional[dict] = None, labels: Optional[Labels] = None,
                 id_product: Optional[Callable[[int, int], Any]] = None):
        super().__init__(name, basis, labels)
        self.unit = unit
        self._conj_fn = conj
        self._product_fn = product
        if id_product is not None:  # stands in for the rule over labels
            self._rule = id_product
        self._dim_fn = dim
        self.doc = doc
        if basis is not None:
            if unit not in self._labels:
                raise InvalidInputError(f"ring {name}: unit {unit!r} not in basis")
            self.generators: Tuple[str, ...] = ()
        else:
            if not generators:
                raise InvalidInputError(f"ring {name}: lazy ring needs generators")
            self.generators = tuple(generators)
        for label in (unit, *self.generators):
            self._ids.id(label)
        self._proof: Any = _UNTRIED
        self._conjs: dict = {}
        self._dims: dict = {}
        self._levels: list = [[unit]]
        self._level_seen = {unit}
        self._levels_lock = threading.Lock()

    def _reject_unknown(self, *labels: str) -> None:
        """Raise for the first label outside a finite basis."""
        if self._labels is not None:
            for label in labels:
                if label not in self._labels:
                    raise UnknownBasisError(
                        f"unknown basis label {label!r} in ring {self.name}")

    def conj(self, label: str) -> str:
        c = self._conjs.get(label)
        if c is None:
            self._reject_unknown(label)
            self._conjs[label] = c = self._conj_fn(label)
        return c

    def dim(self, label: str) -> Fraction:
        d = self._dims.get(label)
        if d is None:
            self._reject_unknown(label)
            d = self._dim_fn(label)
            self._dims[label] = d = d if isinstance(d, Fraction) else Fraction(d)
        return d

    product = Based._get  # a ⊗ b into basis labels with multiplicities

    def _rule(self, a: int, b: int) -> Any:
        la, lb = self._ids.labels[a], self._ids.labels[b]
        self._reject_unknown(la, lb)
        return self._product_fn(la, lb)

    def stored_pairs(self) -> list:
        labels = self._ids.labels
        return [(labels[a], labels[b]) for a, row in self._rows.items() for b in row]

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
    failure = first_nonassociative(ring, ring, window, window, window)
    if failure is not None:
        a, b, c, right, left = failure
        return Verdict.fails(
            f"associativity fails at ({a}, {b}, {c}): "
            f"({a}⊗{b})⊗{c} = {left.format()} ≠ "
            f"{a}⊗({b}⊗{c}) = {right.format()}", data=(a, b, c))
    return Verdict.holds_within(depth, ring)


def first_nonassociative(table: Any, ring: BasedRing, alphas: Sequence[str],
                         betas: Sequence[str], js: Sequence[str]) -> Optional[tuple]:
    """The first (α, β, j), in loop order, with α⊗(β⊗j) ≠ (α⊗β)⊗j, as
    (α, β, j, α⊗(β⊗j), (α⊗β)⊗j), else None.  ``table`` is ``ring`` itself,
    for ring associativity, or a module over it, for module associativity:
    x ⊗ j is read from its rows and α ⊗ β from the ring's.

    The sweep runs on the id rows of :class:`Based`, and ``_fill`` makes a
    miss.  Per triple, (α⊗β)⊗j comes first, then β⊗j, then α⊗(β⊗j), so the first
    fill to raise is fixed; β⊗j is read during the first α only, and kept.
    A one-label row is used directly, (α⊗β)⊗j = l⊗j for α⊗β = l and
    α⊗(β⊗j) = α⊗m for β⊗j = m, so both sides are ids compared as ints; any
    other row is summed term by term, each final coefficient range-checked.
    """
    xs, ys = [ring._ids.id(x) for x in alphas], [ring._ids.id(y) for y in betas]
    ks = [table._ids.id(j) for j in js]
    act, fill, prod = table._rows, table._fill, ring._rows
    by_beta: dict = {}  # β → [β⊗j for j in js]
    for a in xs:
        ra, pa = act[a], prod[a]
        for b in ys:
            ab = pa[b] if b in pa else ring._fill(a, b)
            rab = None if type(ab) is tuple else act[ab]
            first = b not in by_beta
            bjs = by_beta.setdefault(b, [])
            for k, j in enumerate(ks):
                if rab is None:
                    flat = _sum(act, fill, [(x, j, c) for x, c in ab])
                else:
                    flat = rab[j] if j in rab else fill(ab, j)
                if first:
                    bjs.append(act[b][j] if j in act[b] else fill(b, j))
                bj = bjs[k]
                if type(bj) is tuple:
                    nested = _sum(act, fill, [(a, y, c) for y, c in bj])
                else:
                    nested = ra[bj] if bj in ra else fill(a, bj)
                if nested != flat and _terms(nested) != _terms(flat):
                    return (ring._ids.labels[a], ring._ids.labels[b],
                            table._ids.labels[j], table._element(nested),
                            table._element(flat))
    return None


def _sum(rows: dict, fill: Callable[[int, int], Any], terms: list) -> Any:
    """Σ c·(x ⊗ y) over ``terms`` (x, y, c), in order, as an id or {id: coeff}."""
    sums: dict = {}
    for x, y, c in terms:
        row = rows[x][y] if y in rows[x] else fill(x, y)
        for z, d in (row if type(row) is tuple else ((row, 1),)):
            sums[z] = sums.get(z, 0) + c * d
    return _single(checked_sums(sums))


def _terms(row: Any) -> dict:
    return {row: 1} if type(row) is int else dict(row)


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
    prove it associative, else None; run once per ring and kept.

    None also when a product leaves the basis or the unit is not neutral,
    the two facts the proof in :func:`generating_labels` rests on, or when
    an input error or overflow is met on the way; the caller's ordered
    sweep then decides, or raises, exactly as it would alone.
    """
    if ring._proof is _UNTRIED:
        ring._proof = _generator_proof(ring)
    return ring._proof


def _generator_proof(ring: BasedRing) -> Optional[list]:
    basis = [ring._ids.id(x) for x in ring.basis]
    inside, unit = set(basis), ring._ids.id(ring.unit)
    try:
        for a in basis:
            if ring._at(unit, a) != a or ring._at(a, unit) != a:
                return None
            for b in basis:
                if not inside.issuperset(_terms(ring._at(a, b))):
                    return None
        labels = generating_labels(ring)
        if first_nonassociative(ring, ring, ring.basis, labels, ring.basis):
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
