"""Brute-force torsion-module census over finite based rings.

Exhaustive enumeration of action tensors within a rank/coefficient budget,
deduplicated up to based isomorphism; used both as a classification tool and
as the independent oracle for the induction and restriction machinery.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .elements import Element, InvalidInputError, check_coeff
from .modules import (
    BasedModule,
    check_module_axioms,
    connected_components,
    find_intertwiner,
    is_standard,
    is_torsion,
    module_doc,
)
from .rings import BasedRing, Verdict


class _Budget(NamedTuple):
    max_rank: int
    max_coeff: int
    max_seconds: Optional[float] = None


class EnumerationBudget(_Budget):
    __slots__ = ()

    def __new__(cls, max_rank: int, max_coeff: int,
                max_seconds: Optional[float] = None) -> EnumerationBudget:
        if max_rank < 1 or max_coeff < 1:
            raise InvalidInputError("budget needs max_rank >= 1 and max_coeff >= 1")
        if max_seconds is not None and not 0 <= max_seconds < math.inf:
            raise InvalidInputError("budget needs a finite max_seconds >= 0")
        return super().__new__(cls, max_rank, max_coeff, max_seconds)

    def to_doc(self) -> dict:
        doc = {"max_rank": self.max_rank, "max_coeff": self.max_coeff}
        if self.max_seconds is not None:
            doc["max_seconds"] = self.max_seconds
        return doc


class CensusResult(NamedTuple):
    ring: BasedRing
    budget: EnumerationBudget
    modules: List[BasedModule]
    complete: bool


Table = Dict[Tuple[str, str], Dict[str, int]]


def _assignments(ring: BasedRing, basis: List[str], max_coeff: int,
                 deadline: float) -> Iterator[Table]:
    """Backtrack over the action tables (non-unit label, module label) →
    column on ``basis`` that satisfy every based-module axiom.

    The walk holds each label's action as its matrix, a tuple of ``rank``
    integer columns (column j: α ⊗ basis[j]).  An invertible label, one
    with ``a ⊗ a* = 1`` exactly, tries only the ``rank!`` permutations of
    the identity's columns.  This is exact: the module axiom gives
    M_a·M_{a*} = I, and a non-negative integer matrix with a non-negative
    inverse is monomial, so a permutation matrix.  Every other label tries
    all (max_coeff + 1)^(rank²) tuples of the (max_coeff + 1)^rank columns.
    Candidates are generated one at a time, the deadline checked before
    each, so a walk holds the same memory however long it runs.

    Labels are assigned in basis order, each followed by its conjugate; the
    unit's matrix is the identity.  Each non-unit pair (a, b) is checked
    once, when the walk assigns the last of a, b and the support of a ⊗ b:
    for each j, Σᵢ (b⊗mⱼ)ᵢ·(a⊗mᵢ) = Σ N_ab^c·(c⊗mⱼ) in integer columns, each
    final coefficient range-checked.  The based symmetry of (a, a*) is
    checked, on supports, when the later of the two is assigned.  So every
    yielded table is a based module, its columns {label: coeff} without zeros.

    Both candidate lists are closed under relabelling the basis by a
    permutation, and every check is invariant under it, so the walk yields
    every relabelling of every table it yields.
    """
    unit = ring.unit
    alphas: List[str] = []
    for a in ring.basis:
        if a != unit and a not in alphas:
            alphas.extend(dict.fromkeys((a, ring.conj(a))))
    position = {unit: -1, **{a: p for p, a in enumerate(alphas)}}
    invertible = {a for a in alphas
                  if ring.product(a, ring.conj(a)) == Element.basis(unit)}
    rank = len(basis)
    identity = tuple(tuple(int(i == j) for i in range(rank)) for j in range(rank))
    mats = [identity] * (len(alphas) + 1)  # by position; the unit's is last
    # the checks that become decidable when position p is assigned
    mirrors: List[list] = [[] for _ in alphas]
    pairs: List[list] = [[] for _ in alphas]
    for a in alphas:
        conj = ring.conj(a)
        if position[a] <= position[conj]:
            mirrors[position[conj]].append((position[a], position[conj]))
        for b in alphas:
            ab = [(n, position[c]) for c, n in ring.product(a, b).items()]
            last = max(position[a], position[b], *(q for _, q in ab))
            pairs[last].append((position[a], position[b], ab))

    def combine(terms: list) -> tuple:
        # Σ n·column over the (n, column) terms; one term 1·column is the column
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return tuple(check_coeff(sum(n * column[i] for n, column in terms))
                     for i in range(rank))

    def holds(p: int) -> bool:
        # entries of later positions are stale here, and no check reads them
        for x, y in mirrors[p]:
            for column, row in zip(mats[x], zip(*mats[y])):
                if column != row and [*map(bool, column)] != [*map(bool, row)]:
                    return False
        for x, y, xy in pairs[p]:
            for j, column in enumerate(mats[y]):
                lhs = zip(filter(None, column), itertools.compress(mats[x], column))
                if combine([*lhs]) != combine([(n, mats[q][j]) for n, q in xy]):
                    return False
        return True

    def general(k: int = 0) -> Iterator[tuple]:
        # columns k.. in product(columns, repeat=rank - k) order, built lazily
        for column in itertools.product(range(max_coeff + 1), repeat=rank):
            for rest in general(k + 1) if k + 1 < rank else [()]:
                yield (column,) + rest

    def walk(p: int) -> Iterator[Table]:
        if p == len(alphas):
            yield {(a, j): {i: c for i, c in zip(basis, column) if c}
                   for a, matrix in zip(alphas, mats)
                   for j, column in zip(basis, matrix)}
            return
        candidates = (itertools.permutations(identity)
                      if alphas[p] in invertible else general())
        for candidate in candidates:
            if time.monotonic() > deadline:
                raise TimeoutError
            mats[p] = candidate
            if holds(p):
                yield from walk(p + 1)

    yield from walk(0)


def enumerate_torsion_modules(ring: BasedRing,
                              budget: EnumerationBudget) -> CensusResult:
    """All torsion modules within the budget, up to based isomorphism.

    The connected tables of each rank are grouped into classes with
    ``find_intertwiner``, and each class keeps the member whose flattened
    form (each non-unit label's matrix, row by row) is least.  The walk
    yields every relabelling of every table it yields, so that member is
    the least relabelling of the class: the canonical form, found without
    trying all rank! relabellings of each table.  Modules are emitted in
    (rank, canonical form) order.  A wall-clock budget overrun returns the
    partial census flagged incomplete; each class of the rank in progress
    is then named by the least relabelling found before the deadline.
    """
    if not ring.is_finite:
        raise InvalidInputError("census enumeration needs a finite ring")
    alphas = [a for a in ring.basis if a != ring.unit]
    deadline = (time.monotonic() + budget.max_seconds
                if budget.max_seconds is not None else math.inf)
    found: List[list] = []  # [rank, least form, its table, its module]
    complete = True
    try:
        for rank in range(1, budget.max_rank + 1):
            basis = [f"m{i}" for i in range(rank)]
            start = len(found)
            for table in _assignments(ring, basis, budget.max_coeff, deadline):
                leaf = BasedModule(ring=ring, basis=basis, action=table)
                if len(connected_components(leaf)) > 1:
                    continue
                form = tuple(tuple(table[(a, j)].get(i, 0) for i in basis
                                   for j in basis) for a in alphas)
                for entry in found[start:]:
                    if find_intertwiner(leaf, entry[3]) is not None:
                        if form < entry[1]:
                            entry[1:] = [form, table, leaf]
                        break
                else:
                    found.append([rank, form, table, leaf])
    except TimeoutError:
        complete = False
    found.sort(key=lambda entry: entry[:2])
    modules = []
    for idx, (_, _, table, leaf) in enumerate(found):
        doc = None if ring.doc is None else module_doc(ring, leaf.basis, table)
        module = BasedModule(ring=ring, basis=leaf.basis, action=table,
                             name=f"census[{ring.name}][{idx}]", doc=doc)
        verdict = Verdict.combine(check_module_axioms(module), is_torsion(module))
        if not verdict.is_holds:
            raise AssertionError(
                f"enumerated module failed re-verification: {verdict.witness}")
        modules.append(module)
    return CensusResult(ring=ring, budget=budget, modules=modules,
                        complete=complete)


def is_torsion_free_finite(ring: BasedRing,
                           budget: EnumerationBudget) -> Verdict:
    """Search the census for a non-standard torsion module.

    Fails with the first witness found (rank ascending).  Holds only when
    the enumeration completed and a documented bound argument covers the
    ring: for pointed rings (every dimension 1) rank up to the basis size
    and coefficients up to 1 exhaust all torsion modules admitting a
    compatible dimension function.  Anything short of that stays unknown
    within the budget.
    """
    census = enumerate_torsion_modules(ring, budget)
    for module in census.modules:
        verdict = is_standard(module)
        if verdict.is_fails:
            action = {f"{alpha} ⊗ {j}": module.action(alpha, j).format()
                      for alpha in ring.basis if alpha != ring.unit
                      for j in module.basis}
            return Verdict.fails(
                f"non-standard torsion module of rank {len(module.basis)}: "
                f"{action} ({verdict.witness})",
                data=module.doc if module.doc is not None else action)
    pointed = all(ring.dim(a) == 1 for a in ring.basis)
    if (census.complete and pointed and budget.max_rank >= len(ring.basis)
            and budget.max_coeff >= 1):
        return Verdict.holds(witness=(
            "pointed ring: every torsion module with a compatible dimension "
            f"function has rank ≤ {len(ring.basis)} and coefficients ≤ 1; "
            "enumeration was exhaustive for that budget"))
    return Verdict.unknown(
        budget.max_rank,
        witness="no non-standard torsion module within the budget, but no "
                "bound argument covers this ring at this budget")
