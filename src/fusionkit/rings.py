"""Based rings with exact fusion data: products, involution, axiom checks.

A based ring here is a free Z-module on a pointed involutive basis with an
associative product whose structure constants are non-negative integers and
whose unit appears in conj(a) ⊗ b exactly when a = b.  Adding a positive,
multiplicative, conjugation-invariant dimension function makes it a fusion
ring.  Bases are either finite and explicit, or lazy: generated on demand by
closing a generator set under products, depth by depth.

Rings and based modules share one base, :class:`Based`: the finite or lazy
basis, the id rows of every product or action, and the one ``_fill`` that
computes, checks and stores a row.  Every internal reader reads rows;
``product`` and ``action`` return a fresh Element, for a public result.

Concurrency: extending a lazy basis window is serialized by a per-ring lock,
so concurrent ``basis_up_to_depth`` calls on one ring see the same levels as
a serial run.  The product rows and the conjugation and dimension memos are
fill-on-read dicts; a duplicate fill computes the same value.  Label ids
are assigned on the ring's label registry (:class:`Labels`), under its own
lock, in the order labels are first met; threads running the same check
meet them in the serial order, so they assign the serial ids.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from fractions import Fraction
from typing import (Any, Callable, Iterable, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .elements import (
    Element,
    InvalidInputError,
    UnknownBasisError,
    bilinear,
    check_coeff,
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
            doc["data"] = self.data
        return doc


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
    else its (id, coeff) terms in label order, as :func:`_pairs` reads both.
    On a miss, ``_fill`` runs the subclass's ``_rule``, checks the result
    (an Element non-negative, every final coefficient in the signed 64-bit
    range) and stores it.  ``_row`` reads rows by label, after the
    subclass's ``_reject_unknown``; ``_get`` makes a fresh Element of one
    for ``BasedRing.product`` and ``BasedModule.action``.
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

    @property
    def is_finite(self) -> bool:
        return self._basis is not None

    @property
    def basis(self) -> Tuple[str, ...]:
        if self._basis is None:
            raise InvalidInputError(f"{self._kind} {self.name} has an infinite basis")
        return self._basis

    def _row(self, a: str, x: str) -> Any:
        """The row of a ⊗ x, by label: read, or filled once the labels are checked."""
        try:
            row = self._rows[self._ring_ids.ids[a]].get(self._ids.ids[x])
        except KeyError:  # a label not met yet
            row = None
        if row is None:
            self._reject_unknown(a, x)
            row = self._fill(self._ring_ids.id(a), self._ids.id(x))
        return row

    def _get(self, a: str, x: str) -> Element:
        """Decomposition of a ⊗ x, by label, as a fresh Element."""
        return self._element(self._row(a, x))

    def _at(self, a: int, x: int) -> Any:
        row = self._rows[a].get(x)
        return self._fill(a, x) if row is None else row

    def _fill(self, a: int, x: int) -> Any:
        """Compute, check and store the row of a ⊗ x, each coefficient range-checked."""
        row = self._rule(a, x)
        if type(row) is not int:
            if type(row) is not dict:
                require_nonnegative(row, "{} ⊗ {}", self._ring_ids.labels[a],
                                    self._ids.labels[x])
                row = {self._ids.id(y): c for y, c in row.items()}
            row = _single(checked_sums(row))
            if type(row) is not int:
                row = tuple(sorted(row.items(), key=lambda t: self._ids.labels[t[0]]))
        self._rows[a][x] = row
        return row

    def _element(self, row: Any) -> Element:
        """A row, or a dict of coefficients by id, as a fresh Element."""
        if type(row) is int:
            return Element.basis(self._ids.labels[row])
        terms = row.items() if type(row) is dict else row
        return Element.from_sums({self._ids.labels[i]: c for i, c in terms})


def _pairs(row: Any) -> Any:
    """The (id, coeff) terms of a row, in label order."""
    return ((row, 1),) if type(row) is int else row


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
                 dim: Callable[[str], Union[int, Fraction]],
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

    def dim(self, label: str) -> Union[int, Fraction]:
        """d(label): an int when integral, else a Fraction; the two mix exactly."""
        d = self._dims.get(label)
        if d is None:
            self._reject_unknown(label)
            d = self._dim_fn(label)
            self._dims[label] = d = d.numerator if d.denominator == 1 else d
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
                fresh, labels = set(), self._ids.labels
                for w in self._levels[-1]:
                    for g in self.generators:
                        fresh.update(labels[i] for i, _ in _pairs(self._row(w, g)))
                level = sorted(fresh - self._level_seen)
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

    The checks read the id rows of :class:`Based`.  Per pair (a, b) the
    pair pass asks for conj(a)⊗b, then a⊗b, the conjugate of each of its
    terms in label order, and conj(b)⊗conj(a), as a loop over labels
    would, so its first witness and first exception are that loop's; a
    conjugate is resolved to its id as ``product`` resolves a label, and
    Elements are built only for a witness.
    """
    window = checked_window(ring, depth)
    if ring.conj(ring.unit) != ring.unit:
        return Verdict.fails(
            f"conj(unit) = {ring.conj(ring.unit)} ≠ {ring.unit}")
    labels, to_id, rows, fill = ring._ids.labels, ring._ids.id, ring._rows, ring._fill
    u, ids = to_id(ring.unit), [to_id(a) for a in window]
    for a, i in zip(window, ids):
        cc = ring.conj(ring.conj(a))
        if cc != a:
            return Verdict.fails(f"conj is not involutive at {a}: conj(conj({a})) = {cc}",
                                 data=(a,))
        row = ring._at(u, i)
        if row != i:
            return Verdict.fails(
                f"unit not left-neutral at {a}: \U0001d7d9 ⊗ {a} = "
                f"{ring._element(row).format()}", data=(a,))
        row = ring._at(i, u)
        if row != i:
            return Verdict.fails(
                f"unit not right-neutral at {a}: {a} ⊗ \U0001d7d9 = "
                f"{ring._element(row).format()}", data=(a,))
    conj_ids: dict = {}  # id → the id of its conjugate
    conj_labels: dict = {}  # id → the label of its conjugate
    for a, i in zip(window, ids):
        ci = conj_ids.get(i)
        if ci is None:
            conj_ids[i] = ci = to_id(ring.conj(a))
        row_i, row_ci = rows[i], rows[ci]
        for b, j in zip(window, ids):
            row = row_ci[j] if j in row_ci else fill(ci, j)
            got = (1 if row == u else 0) if type(row) is int else dict(row).get(u, 0)
            want = 1 if i == j else 0
            if got != want:
                return Verdict.fails(
                    f"unit coefficient of conj({a}) ⊗ {b} is {got}, expected {want}",
                    data=(a, b))
            ab = row_i[j] if j in row_i else fill(i, j)
            lhs: dict = {}  # conj(a ⊗ b) by label
            for x, c in _pairs(ab):
                cx = conj_labels.get(x)
                if cx is None:
                    cx = ring.conj(labels[x])
                    if not isinstance(cx, str):
                        raise InvalidInputError(f"basis label {cx!r} is not a string")
                    conj_labels[x] = cx
                lhs[cx] = lhs.get(cx, 0) + c
            cj = conj_ids.get(j)
            if cj is None:
                conj_ids[j] = cj = to_id(ring.conj(b))
            rhs = rows[cj][ci] if ci in rows[cj] else fill(cj, ci)
            if type(rhs) is int and len(lhs) == 1 and lhs.get(labels[rhs]) == 1:
                continue
            lhs = checked_sums(lhs)
            if lhs != {labels[y]: c for y, c in _pairs(rhs)}:
                return Verdict.fails(
                    f"conj({a} ⊗ {b}) = {Element.from_sums(lhs).format()} ≠ "
                    f"conj({b}) ⊗ conj({a}) = {ring._element(rhs).format()}",
                    data=(a, b))
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
    other row is summed term by term, each final coefficient range-checked,
    once per row and j, or α and row, within one call: a repeat is a sum
    that already finished without raising.
    """
    xs, ys = [ring._ids.id(x) for x in alphas], [ring._ids.id(y) for y in betas]
    ks = [table._ids.id(j) for j in js]
    act, fill, prod = table._rows, table._fill, ring._rows
    by_beta: dict = {}  # β → [β⊗j for j in js]
    flats: dict = {}  # (α⊗β row, j) → (α⊗β)⊗j, for a row of several terms
    nesteds: dict = {}  # (α, β⊗j row) → α⊗(β⊗j), likewise
    for a in xs:
        ra, pa = act[a], prod[a]
        for b in ys:
            ab = pa[b] if b in pa else ring._fill(a, b)
            rab = None if type(ab) is tuple else act[ab]
            first = b not in by_beta
            bjs = by_beta.setdefault(b, [])
            for k, j in enumerate(ks):
                if rab is None:
                    flat = flats.get((ab, j))
                    if flat is None:
                        flats[ab, j] = flat = _sum(act, fill, [(x, j, c) for x, c in ab])
                else:
                    flat = rab[j] if j in rab else fill(ab, j)
                if first:
                    bjs.append(act[b][j] if j in act[b] else fill(b, j))
                bj = bjs[k]
                if type(bj) is tuple:
                    nested = nesteds.get((a, bj))
                    if nested is None:
                        nesteds[a, bj] = nested = _sum(act, fill, [(a, y, c) for y, c in bj])
                else:
                    nested = ra[bj] if bj in ra else fill(a, bj)
                if nested != flat and dict(_pairs(nested)) != dict(_pairs(flat)):
                    return (ring._ids.labels[a], ring._ids.labels[b],
                            table._ids.labels[j], table._element(nested),
                            table._element(flat))
    return None


def _sum(rows: dict, fill: Callable[[int, int], Any], terms: list) -> Any:
    """Σ c·(x ⊗ y) over ``terms`` (x, y, c), in order, as an id or {id: coeff}."""
    sums: dict = {}
    for x, y, c in terms:
        row = rows[x][y] if y in rows[x] else fill(x, y)
        for z, d in _pairs(row):
            sums[z] = sums.get(z, 0) + c * d
    return _single(checked_sums(sums))


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
    ids, rows, fill = ring._ids, ring._rows, ring._fill  # the closure is kept by id
    seen = {ids.id(ring.unit)}
    closed = list(seen)
    labels: list = []
    pending: list = []  # products with two or more labels outside the closure
    paired = 0  # closed[:paired] have been multiplied with each other
    while True:
        for c in closed[paired:]:
            paired += 1
            row_c = rows[c]
            for x in closed[:paired]:
                row_x = rows[x]
                pending += (row_c[x] if x in row_c else fill(c, x),
                            row_x[c] if c in row_x else fill(x, c))
        waiting = []
        for p in pending:
            outside = [y for y, _ in _pairs(p) if y not in seen]
            if len(outside) == 1:
                seen.add(outside[0])
                closed.append(outside[0])
            elif outside:
                waiting.append(p)
        pending = waiting
        if paired < len(closed):
            continue
        spare = next((label for label in ring.basis if ids.ids[label] not in seen), None)
        if spare is None:
            return labels
        labels.append(spare)
        seen.add(ids.ids[spare])
        closed.append(ids.ids[spare])


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
            row_a = ring._rows[a]
            for b in basis:
                row = row_a[b] if b in row_a else ring._fill(a, b)
                if not (row in inside if type(row) is int else inside.issuperset(dict(row))):
                    return None
        labels = generating_labels(ring)
        if first_nonassociative(ring, ring, ring.basis, labels, ring.basis):
            return None
    except (ValueError, ArithmeticError):
        return None
    return labels


def check_dimension(ring: BasedRing, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Verify positivity, conjugation invariance and multiplicativity of the
    dimension function on all pairs within depth.  The pairs read the id
    rows of :class:`Based`, and the dimension of each term in label order."""
    window = checked_window(ring, depth)
    dim = ring.dim
    if dim(ring.unit) != 1:
        return Verdict.fails(f"d(unit) = {dim(ring.unit)} ≠ 1")
    for a in window:
        da = dim(a)
        if da <= 0:
            return Verdict.fails(f"d({a}) = {da} is not positive", data=(a,))
        if dim(ring.conj(a)) != da:
            return Verdict.fails(
                f"d(conj({a})) = {dim(ring.conj(a))} ≠ d({a}) = {da}",
                data=(a,))
    labels, rows, fill = ring._ids.labels, ring._rows, ring._fill
    ids = [ring._ids.id(a) for a in window]
    # id → d: the window's, read above, and any other term's when first met
    dims = dict(zip(ids, map(dim, window)))
    for a, i in zip(window, ids):
        da, row_i = dims[i], rows[i]
        for b, j in zip(window, ids):
            want = da * dims[j]
            row = row_i[j] if j in row_i else fill(i, j)
            total = 0
            for k, c in _pairs(row):
                dk = dims.get(k)
                if dk is None:
                    dims[k] = dk = dim(labels[k])
                total += c * dk
            if total != want:
                return Verdict.fails(
                    f"dimension not multiplicative at ({a}, {b}): "
                    f"d({a})·d({b}) = {want} but Σ N·d = {total}", data=(a, b))
    return Verdict.holds_within(depth, ring)


def explicit_ring(*, name: str, basis: Iterable[str], unit: str,
                  conj: dict, dim: dict, fusion: dict,
                  doc: Optional[dict] = None) -> BasedRing:
    """Build a finite ring from explicit tables, checked once, here.

    ``conj`` and ``dim`` map exactly the basis, ``conj`` into it.
    ``fusion`` maps pairs of basis labels to their products, supported on
    the basis, with non-negative coefficients: each an Element or a
    {label: coeff} dict of ints.  Every non-unit pair must be listed,
    because a missing pair is undefined, never a silent zero.  Unit
    products are implied, and an entry for a unit pair is never read.

    The table becomes one of rows by id, here, with the unit's row and
    column implied, and the ring's rule reads it by id.  A missing pair is
    reported before the first entry, in table order, that names an
    unknown label or holds a negative coefficient.
    """
    conj, dim = dict(conj), dict(dim)
    table: list = []  # table[a][b]: a ⊗ b by id, an id or {id: coeff}
    ring = BasedRing(name=name, unit=unit, conj=conj.__getitem__, product=None,
                     id_product=lambda a, b: table[a][b], dim=dim.__getitem__,
                     basis=basis, doc=doc)
    labels, ids = ring._labels, ring._ids.ids
    for what, given in (("conj", conj), ("dim", dim)):
        if set(given) != labels:
            raise InvalidInputError(
                f"ring {name}: {what} table must map exactly the basis "
                f"labels; it differs at {sorted(set(given) ^ labels, key=str)}")
    for label, target in conj.items():
        if target not in labels:
            raise InvalidInputError(f"ring {name}: conj({label!r}) = "
                                    f"{target!r} is not a basis label")
    n, u = len(ring.basis), ids[unit]  # the basis has ids 0 … n - 1
    table.extend([None] * n for _ in range(n))
    table[u] = list(range(n))
    for a, row in enumerate(table):
        row[u] = a
    fault = None  # the first entry that names an unknown label or is negative
    for (a, b), value in fusion.items():
        terms = value._terms if isinstance(value, Element) else value
        row: Any = {}  # a listed pair, even one with a fault
        if not (a in labels and b in labels and labels.issuperset(terms)):
            fault = fault or (f"fusion entry ({a}, {b}) names unknown labels "
                              f"{sorted({a, b, *terms} - labels, key=str)}")
        else:
            row = _single({ids[x]: c for x, c in terms.items() if check_coeff(c)})
            if type(row) is dict and min(row.values(), default=0) < 0:
                label, c = next((x, c) for x, c in sorted(terms.items()) if c < 0)
                fault = fault or (f"negative coefficient {c}·{label} in fusion "
                                  f"entry ({a}, {b})")
        if unit not in (a, b) and a in labels and b in labels:
            table[ids[a]][ids[b]] = row
    for a, row in enumerate(table):
        if None in row:
            raise InvalidInputError(
                f"ring {name}: fusion entry for ({ring.basis[a]}, "
                f"{ring.basis[row.index(None)]}) is missing; unlisted pairs are "
                "undefined, not zero")
    if fault is not None:
        raise InvalidInputError(f"ring {name}: {fault}")
    return ring
