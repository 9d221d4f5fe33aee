"""Based modules over a based ring: action arithmetic and bounded verdicts.

A based module is a free Z-module on a basis J with an action of the ring
whose structure constants are non-negative integers and satisfy the symmetry
j ⊂ α ⊗ j'  ⇔  j' ⊂ conj(α) ⊗ j.  Torsion means co-finite and connected.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from .elements import (Element, InvalidInputError, UnknownBasisError, bilinear,
                       check_coeff, relabel, require_nonnegative)
from .rings import (DEFAULT_DEPTH, Based, BasedRing, Labels, Verdict, _id_row,
                    _pairs, associative_by_generators, checked_window,
                    exhaustive, first_nonassociative)

ActionLike = Union[Mapping[Tuple[str, str], Any], Callable[[str, str], Element]]


class BasedModule(Based):
    """Module basis plus action coefficients over a :class:`BasedRing`.

    The basis is a finite explicit tuple, or a lazy window (``window_fn``).
    The action is a callable or a total table over (non-unit ring label,
    module label) of Elements, {label: coeff} dicts or the loader's rows;
    the unit acts as the identity.  Actions are the id rows of
    :class:`~fusionkit.rings.Based`, by ring id and module id; the standard
    module (``mirrors_ring``) keeps its ring's labels and non-unit rows, and
    a restriction its source's labels (``labels``).
    """

    _kind = "module"

    def __init__(self, *, ring: BasedRing, basis: Optional[Sequence[str]],
                 action: ActionLike, name: str = "module",
                 doc: Optional[dict] = None,
                 window_fn: Optional[Callable[[int], list]] = None,
                 mirrors_ring: bool = False, labels: Optional[Labels] = None):
        super().__init__(name, basis, ring._ids if mirrors_ring else labels, ring)
        self.ring = ring
        self.doc = doc
        self.mirrors_ring = mirrors_ring
        if basis is not None and not self._basis:
            raise InvalidInputError(f"module {name}: empty basis is rejected")
        if basis is None and window_fn is None:
            raise InvalidInputError(
                f"module {name}: infinite basis needs a window function")
        self._window_fn = window_fn
        if callable(action):
            self._action_fn = action
        else:
            table = self._validate_table(action)

            def lookup(alpha: str, j: str) -> Any:  # holds no module
                try:
                    return table[(alpha, j)]
                except KeyError:
                    raise InvalidInputError(f"module {name}: action undefined "
                                            f"for ({alpha}, {j})") from None
            self._action_fn = lookup
        self._unit = self._ring_ids.id(ring.unit)
        if mirrors_ring:
            self._rows = _RingRows(self._unit, ring._rows)

    def _validate_table(self, action: Mapping) -> dict:
        """The table, each entry as its row (a loaded row as it is): entries checked
        in order for labels, coefficients, sign and targets, then missing pairs."""
        if self._basis is None:
            raise InvalidInputError(f"module {self.name}: a lazy basis needs a "
                                    "callable action, not a table")
        labels, ring_labels, ids, table = self._labels, self.ring._labels, self._ids.ids, {}
        for (alpha, j), value in action.items():
            if j not in labels or (ring_labels is not None and alpha not in ring_labels):
                raise InvalidInputError(f"module {self.name}: action entry "
                                        f"({alpha}, {j}) names an unknown label")
            if type(value) is not int and type(value) is not tuple:
                terms = {x: c for x, c in value.items() if check_coeff(c)}
                value = _id_row(terms, ids)
                if value is None:  # a negative coefficient, else an unknown target
                    require_nonnegative(terms, "{} ⊗ {} of module {}", alpha, j, self.name)
                    raise InvalidInputError(
                        f"module {self.name}: action ({alpha}, {j}) hits unknown "
                        f"label {min(set(terms) - self._labels, key=str)!r}")
            table[(alpha, j)] = value
        if self.ring.is_finite:
            for alpha, j in itertools.product(self.ring.basis, self._basis):
                if alpha != self.ring.unit and (alpha, j) not in table:
                    raise InvalidInputError(
                        f"module {self.name}: action undefined for "
                        f"({alpha}, {j}); missing pairs are not zero")
        return table

    def basis_up_to_depth(self, depth: int) -> list:
        if self._basis is not None:
            return list(self._basis)
        return self._window_fn(depth)

    action = Based._get  # α ⊗ j over the module basis

    def _reject_unknown(self, alpha: str, j: str) -> None:
        """Raise for a j outside a finite basis; an unknown α is the action's,
        and the standard module's action is its ring's product, whose rule
        may read by id."""
        if self._labels is not None and j not in self._labels:
            raise UnknownBasisError(f"unknown module label {j!r} in module {self.name}")
        if self.mirrors_ring:
            self.ring._reject_unknown(alpha)

    def _rule(self, a: int, i: int) -> Any:
        return self._action_fn(self._ring_ids.labels[a], self._ids.labels[i])

    def _fill(self, a: int, i: int) -> Any:
        """α ⊗ j by ids; a standard module's non-unit rows are its ring's."""
        self._reject_unknown(self._ring_ids.labels[a], self._ids.labels[i])
        if a == self._unit:
            return self._rows[a].setdefault(i, i)
        return (self.ring if self.mirrors_ring else super())._fill(a, i)

    def __repr__(self) -> str:
        size = f"rank {len(self._basis)}" if self._basis is not None else "lazy"
        return f"BasedModule({self.name}, {size} over {self.ring.name})"


class _RingRows(dict):
    """A standard module's rows: its own unit row, else the ring's row."""

    def __init__(self, unit: int, ring_rows: dict):
        super().__init__({unit: {}})  # filled as the identity
        self._ring_rows = ring_rows

    def __missing__(self, a: int) -> dict:
        self[a] = row = self._ring_rows[a]
        return row


def standard_module(ring: BasedRing) -> BasedModule:
    """The ring acting on itself by multiplication: on the ring's labels
    and rows, so each product is computed and stored once."""
    return BasedModule(ring=ring, basis=ring._basis, action=ring.product,
                       window_fn=ring.basis_up_to_depth,
                       name=f"standard({ring.name})", mirrors_ring=True,
                       doc={"kind": "module", "standard_of": ring.doc}
                       if ring.doc is not None else None)


def module_doc(ring: BasedRing, basis: Sequence[str],
               entries: Sequence[list]) -> dict:
    """The explicit document of a finite module: its ring's document, its basis
    and its non-unit action entries [α, j, {label: coeff}], sorted, not copied."""
    return {"kind": "module", "ring": ring.doc, "basis": list(basis),
            "action": sorted(entry for entry in entries if entry[0] != ring.unit)}


def act(m: BasedModule, a: Element, v: Element) -> Element:
    """Bilinear extension of the module action."""
    return bilinear(m.action, a, v)


def check_module_axioms(m: BasedModule, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Verify action associativity over ring decompositions and based
    symmetry on all tuples within depth; the unit acts as the identity by
    construction.  Based symmetry is one ordered pass for every module.  A
    finite module over a proved finite ring checks action associativity
    only at the ring's generating labels; a failure there is named by the
    ordered sweep over every tuple, which also decides lazy windows.
    """
    ring = m.ring
    ring_window = checked_window(ring, depth)
    window = checked_window(m, depth)
    asymmetric = _first_asymmetric(m, ring_window, window)
    if asymmetric is not None:
        alpha, j, jp, forward = asymmetric
        return Verdict.fails(
            f"based symmetry fails at (α={alpha}, j={j}, j'={jp}): "
            f"{j} ⊂ {alpha}⊗{jp} is {forward} but "
            f"{jp} ⊂ conj({alpha})⊗{j} is {not forward}", data=(alpha, j, jp))
    if exhaustive(ring, m) and _associative_by_generators(m):
        return Verdict.holds()
    failure = first_nonassociative(m, ring, ring_window, ring_window, window)
    if failure is not None:
        alpha, beta, j, nested, flat = failure
        return Verdict.fails(
            f"action associativity fails at ({alpha}, {beta}, {j}): "
            f"{alpha}⊗({beta}⊗{j}) = {nested.format()} ≠ "
            f"({alpha}⊗{beta})⊗{j} = {flat.format()}",
            data=(alpha, beta, j))
    return Verdict.holds_within(depth, ring, m)


def check_module_dimension(m: BasedModule, dims: Mapping[str, Fraction],
                           depth: int = DEFAULT_DEPTH) -> Verdict:
    """Verify a supplied module dimension d_J: positivity, and
    d_J(α ⊗ j) = d(α)·d_J(j) for every ring label α within depth and every
    module label j, reading the row of each (α, j) in that order."""
    ring_window, labels = checked_window(m.ring, depth), m._ids.labels
    for j, value in dims.items():
        if value <= 0:
            return Verdict.fails(
                f"module dimension of {j} is {value}, not positive")
    for alpha in ring_window:
        d_alpha = m.ring.dim(alpha)
        for j in m.basis:
            total = sum(c * dims[labels[k]] for k, c in _pairs(m._row(alpha, j)))
            if total != d_alpha * dims[j]:
                return Verdict.fails(
                    f"module dimension incompatible at ({alpha}, {j}): "
                    f"Σ N·d_J = {total} but d({alpha})·d_J({j}) = "
                    f"{d_alpha * dims[j]}", data=(alpha, j))
    return Verdict.holds_within(depth, m.ring, m)


def _first_asymmetric(m: BasedModule, alphas: Sequence[str],
                      js: Sequence[str]) -> Optional[tuple]:
    """The first (α, j, j′), in loop order, at which j ⊂ α ⊗ j′ and
    j′ ⊂ conj(α) ⊗ j disagree, as (α, j, j′, whether j ⊂ α ⊗ j′), else None.
    Per α, on the id rows: α ⊗ j′ for each j′, conj(α) ⊗ j₀ after the first,
    then conj(α) ⊗ j once per later j, each compared as it arrives; so rows
    are asked for, and the pass stops, where the loop over (α, j, j′) would.
    """
    place = {m._ids.id(j): n for n, j in enumerate(js)}  # id → window place

    def read(a: int, k: int) -> list:  # the window places of a ⊗ k, in order
        row = m._at(a, k)
        if type(row) is int:
            return [place[row]] if row in place else []
        return sorted(place[x] for x, _ in row if x in place)

    for alpha in alphas:
        calpha, a = m.ring.conj(alpha), m._ring_ids.id(alpha)
        into: list = [[] for _ in js]  # into[n]: the j′ with js[n] ⊂ α ⊗ j′
        for k, p in place.items():
            for n in read(a, k):
                into[n].append(p)
            if not p:
                c = m._ring_ids.id(calpha)
                first = read(c, k)
            if (into[0][-1:] == [p]) != (p in first):
                return alpha, js[0], js[p], p not in first
        for k, n in list(place.items())[1:]:
            back = read(c, k)
            if into[n] != back:
                p = min(set(into[n]).symmetric_difference(back))
                return alpha, js[n], js[p], p in into[n]
    return None


def _associative_by_generators(m: BasedModule) -> bool:
    """α ⊗ (β ⊗ j) = (α ⊗ β) ⊗ j for a finite module over a finite ring,
    checked only for α in the ring's generating labels.

    Let A be the set of ring elements α with α(βj) = (αβ)j for all basis β
    and j.  A is a subgroup, and it holds the unit, which acts as the
    identity and is neutral in the ring.  Once the ring is associative, A
    is closed under products: for α, α' ∈ A, (αα')k = α(α'k) for every
    basis k, so (αα')(βj) = α(α'(βj)) = α((α'β)j) = (α(α'β))j = ((αα')β)j.
    N·c ∈ A puts c in A, as the module is a free Z-module, so the
    generating labels of :func:`~fusionkit.rings.generating_labels` reach
    every α.  False when the ring's associativity is not proved, a
    generator fails, or an input error or overflow is met; the ordered
    sweep then decides, or raises, as it would alone.
    """
    ring = m.ring
    labels = associative_by_generators(ring)
    if labels is None:
        return False
    try:
        return first_nonassociative(m, ring, labels, ring.basis, m.basis) is None
    except (ValueError, ArithmeticError):
        return False


def is_cofinite(m: BasedModule, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Co-finiteness: each pair of module labels is connected by only
    finitely many ring labels.

    Decided positively by finiteness of the ring; over an infinite basis the
    property is not falsifiable by bounded search, so the verdict stays
    unknown within the bound.  The window is taken only for the shared depth
    guard; over a lazy ring that expands the product closure to the depth.
    """
    checked_window(m.ring, depth)
    return Verdict.holds() if exhaustive(m.ring) else Verdict.unknown(depth)


def connected_components(m: BasedModule, depth: int = DEFAULT_DEPTH) -> list:
    """Partition of the module basis (within depth) by the undirected edge
    relation {j, j'} ⇔ some α within depth has j ⊂ α ⊗ j'.

    The relation is symmetric by the based axiom.  Exact for finite rings
    and finite modules.  The rows are read per j′, then per α.
    """
    ring_window = checked_window(m.ring, depth)
    window = checked_window(m, depth)
    index, labels = {j: i for i, j in enumerate(window)}, m._ids.labels
    parent = list(range(len(window)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for jp in window:
        for alpha in ring_window:
            for k, _ in _pairs(m._row(alpha, jp)):
                if labels[k] in index:
                    roots = find(index[labels[k]]), find(index[jp])
                    parent[max(roots)] = min(roots)
    groups: Dict[int, list] = {}
    for i, j in enumerate(window):
        groups.setdefault(find(i), []).append(j)
    return [groups[root] for root in sorted(groups)]


def is_torsion(m: BasedModule, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Co-finite and connected, with three-valued propagation."""
    cofinite = is_cofinite(m, depth)
    components = connected_components(m, depth)
    if len(components) == 1:
        connected = Verdict.holds_within(depth, m.ring, m)
    elif exhaustive(m.ring, m):
        connected = Verdict.fails(
            f"not connected: {len(components)} components, first two "
            f"{components[0]} and {components[1]}", data=components)
    else:
        # more ring labels may still merge components; undecided in the window
        connected = Verdict.unknown(depth)
    return Verdict.combine(cofinite, connected)


def _supports(m: BasedModule, ring_window: list) -> Dict[str, list]:
    """Per module label j and ring label α: the row α ⊗ j, then the column of
    j's coefficients in α ⊗ k, on the module basis; each row read once."""
    lines: Dict[str, list] = {j: [] for j in m.basis}
    labels = m._ids.labels
    for alpha in ring_window:
        cols: Dict[str, dict] = {j: {} for j in m.basis}
        for k in m.basis:
            row = {labels[i]: c for i, c in _pairs(m._row(alpha, k))
                   if labels[i] in lines}
            lines[k].append(row)
            for j, c in row.items():
                cols[j][k] = c
        for j in m.basis:
            lines[j].append(cols[j])
    return lines


def first_nonintertwining(f: Callable[[str], str], left: Based, right: Based,
                          alphas: Sequence[str], xs: Sequence[str]) -> Optional[tuple]:
    """The first (α, x), in loop order, with f(α ⊗ x) ≠ α ⊗ f(x), as
    (α, x, f(α ⊗ x), α ⊗ f(x)), else None; ``left`` (a module) acts on
    ``xs``, ``right`` (a module, or a ring on itself) on their images under
    ``f``.  Per (α, x) the row α ⊗ x is read and mapped, then α ⊗ f(x)."""
    into, onto = left._ids.labels, right._ids.labels
    for alpha in alphas:
        for x in xs:
            lhs = relabel(_pairs(left._row(alpha, x)), lambda i: f(into[i]))
            rhs = right._row(alpha, f(x))
            if lhs != {onto[i]: c for i, c in _pairs(rhs)}:
                return alpha, x, Element.from_sums(lhs), right._element(rhs)
    return None


def find_intertwiner(m1: BasedModule, m2: BasedModule,
                     depth: int = DEFAULT_DEPTH) -> Optional[Dict[str, str]]:
    """Search for a basis bijection carrying the action of ``m1`` to ``m2``
    coefficient-exactly, for all ring labels within depth.

    Labels go by fewest signature-equal candidates, then by label; each tries
    its candidates in label order against the assigned labels on the row and
    column supports.  Returns the first bijection, re-checked in full, or None.
    """
    ring_window = checked_window(m1.ring, depth)
    if not m1.ring.same_as(m2.ring):
        raise InvalidInputError("modules live over different rings")
    if not (m1.is_finite and m2.is_finite):
        raise InvalidInputError("intertwiner search needs finite module bases")
    if len(m1.basis) != len(m2.basis):
        return None
    lines1, lines2 = _supports(m1, ring_window), _supports(m2, ring_window)
    # sorted non-zero entries of each row and column, and j's own coefficient
    # per row: at equal ranks, the classes of the full sorted vectors
    sig1, sig2 = ({j: (tuple(tuple(sorted(x.values())) for x in lines[j]),
                       tuple(row.get(j, 0) for row in lines[j][::2]))
                   for j in lines} for lines in (lines1, lines2))
    if Counter(sig1.values()) != Counter(sig2.values()):
        return None
    classes: Dict[tuple, list] = {}
    for k in sorted(m2.basis):
        classes.setdefault(sig2[k], []).append(k)
    candidates = {j: classes[sig1[j]] for j in m1.basis}
    order = sorted(m1.basis, key=lambda j: (len(candidates[j]), j))
    assignment: Dict[str, str] = {}
    inverse: Dict[str, str] = {}

    def consistent(j: str, k: str) -> bool:
        # equal signatures already match j's coefficient in α ⊗ j to k's
        return all({assignment[x]: c for x, c in u.items() if x in assignment}
                   == {y: c for y, c in v.items() if y in inverse}
                   for u, v in zip(lines1[j], lines2[k]))

    def backtrack(pos: int) -> bool:
        if pos == len(order):
            return True
        j = order[pos]
        for k in candidates[j]:
            if k not in inverse and consistent(j, k):
                assignment[j], inverse[k] = k, j
                if backtrack(pos + 1):
                    return True
                del assignment[j], inverse[k]
        return False

    # full re-verification; the witness must stand on its own
    if not backtrack(0) or first_nonintertwining(
            assignment.__getitem__, m1, m2, ring_window, m1.basis) is not None:
        return None
    return dict(assignment)


def is_standard(m: BasedModule, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Is the module isomorphic, basis to basis, to the ring acting on itself?

    Definite for finite rings; over a lazy ring a finite module is rejected
    once the enumerated window outgrows its rank, otherwise the verdict stays
    within the bound.  The witness bijection rides in ``Verdict.data``.
    """
    ring = m.ring
    window = checked_window(ring, depth)
    if m.mirrors_ring:
        return Verdict.holds_within(depth, ring, m, data={j: j for j in window})
    if exhaustive(ring):
        target = standard_module(ring)
        if len(m.basis) != len(ring.basis):
            return Verdict.fails(
                f"rank {len(m.basis)} ≠ rank {len(ring.basis)}",
                data=(len(m.basis), len(ring.basis)))
        witness = find_intertwiner(m, target, depth)
        if witness is None:
            return Verdict.fails(
                "no basis bijection intertwines the action with the regular one")
        return Verdict.holds(data=witness)
    if m.is_finite and len(window) > len(m.basis):
        return Verdict.fails(
            f"rank {len(m.basis)} < {len(window)} distinct ring basis elements",
            data=(len(m.basis), len(window)))
    return Verdict.unknown(depth)
