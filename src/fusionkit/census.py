"""Brute-force torsion-module census over finite based rings.

Exhaustive enumeration of action tensors within a rank/coefficient budget,
deduplicated up to based isomorphism; used both as a classification tool and
as the independent oracle for the induction and restriction machinery.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .elements import Element, InvalidInputError
from .modules import (
    BasedModule,
    check_module_axioms,
    find_intertwiner,
    is_torsion,
)
from .rings import BasedRing, Verdict


@dataclass(frozen=True)
class EnumerationBudget:
    max_rank: int
    max_coeff: int
    max_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_rank < 1 or self.max_coeff < 1:
            raise InvalidInputError("budget needs max_rank >= 1 and max_coeff >= 1")

    def to_doc(self) -> dict:
        doc = {"max_rank": self.max_rank, "max_coeff": self.max_coeff}
        if self.max_seconds is not None:
            doc["max_seconds"] = self.max_seconds
        return doc


@dataclass(frozen=True)
class IsomorphismWitness:
    """Basis bijection intertwining two module actions coefficient-exactly."""

    mapping: Tuple[Tuple[str, str], ...]

    def as_dict(self) -> Dict[str, str]:
        return dict(self.mapping)


@dataclass
class CensusResult:
    ring: BasedRing
    budget: EnumerationBudget
    modules: List[BasedModule]
    complete: bool


Matrix = Tuple[Tuple[int, ...], ...]


def _identity(rank: int) -> Matrix:
    return tuple(tuple(1 if i == k else 0 for k in range(rank))
                 for i in range(rank))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rank = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(rank))
                       for j in range(rank)) for i in range(rank))


def _mat_add_scaled(acc, m: Matrix, c: int):
    return [[acc[i][j] + c * m[i][j] for j in range(len(m))]
            for i in range(len(m))]


def _support_transpose_ok(a: Matrix, b: Matrix) -> bool:
    rank = len(a)
    return all((a[i][j] != 0) == (b[j][i] != 0)
               for i in range(rank) for j in range(rank))


def _connected(mats: Dict[str, Matrix], rank: int) -> bool:
    parent = list(range(rank))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for m in mats.values():
        for i in range(rank):
            for j in range(rank):
                if m[i][j]:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
    return len({find(i) for i in range(rank)}) == 1


def _assignments(ring: BasedRing, rank: int, max_coeff: int,
                 deadline: Optional[float]) -> Iterator[Dict[str, Matrix]]:
    """Backtrack over action matrices for the non-unit basis, pruning with
    based symmetry and with associativity as soon as a product's support is
    fully assigned.

    An invertible label, one with ``a ⊗ a* = 1`` exactly, is tried only on
    the ``rank!`` permutation matrices.  This is exact: the module axiom
    gives M_a·M_{a*} = I, and a matrix of non-negative integers with a
    non-negative inverse is monomial, whose integer entries must then be 1.
    Every other candidate fails the final sweep over (a, a*) anyway.  The
    (max_coeff + 1)^(rank²) general candidates are built only when some
    non-unit label is not invertible.
    """
    alphas = [a for a in ring.basis if a != ring.unit]
    unit_m = _identity(rank)
    products = {(a, b): ring.product(a, b)
                for a in ring.basis for b in ring.basis}
    one = Element.basis(ring.unit)
    invertible = {a for a in alphas if ring.product(a, ring.conj(a)) == one}
    permutations = [tuple(unit_m[k] for k in perm)
                    for perm in itertools.permutations(range(rank))]
    general: List[Matrix] = []
    if len(invertible) < len(alphas):
        general = [tuple(tuple(flat[i * rank + j] for j in range(rank))
                         for i in range(rank))
                   for flat in itertools.product(range(max_coeff + 1),
                                                 repeat=rank * rank)]
    candidates = {a: permutations if a in invertible else general
                  for a in alphas}

    def matrix_of(label: str, assigned: Dict[str, Matrix]) -> Optional[Matrix]:
        if label == ring.unit:
            return unit_m
        return assigned.get(label)

    def check_new(label: str, assigned: Dict[str, Matrix]) -> bool:
        conj_label = ring.conj(label)
        m = assigned[label]
        partner = matrix_of(conj_label, assigned)
        if partner is not None and not _support_transpose_ok(m, partner):
            return False
        known = [ring.unit] + [a for a in alphas if a in assigned]
        for a in known:
            for b in known:
                if label not in (a, b) and a != ring.unit and b != ring.unit:
                    continue
                ma = matrix_of(a, assigned)
                mb = matrix_of(b, assigned)
                expansion = products[(a, b)]
                terms = []
                complete = True
                for c, coeff in expansion.items():
                    mc = matrix_of(c, assigned)
                    if mc is None:
                        complete = False
                        break
                    terms.append((mc, coeff))
                if not complete:
                    continue
                acc = [[0] * rank for _ in range(rank)]
                for mc, coeff in terms:
                    acc = _mat_add_scaled(acc, mc, coeff)
                if _mat_mul(ma, mb) != tuple(tuple(row) for row in acc):
                    return False
        return True

    def walk(pos: int, assigned: Dict[str, Matrix]) -> Iterator[Dict[str, Matrix]]:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError
        if pos == len(alphas):
            # final full associativity sweep over every pair
            for a in alphas:
                for b in alphas:
                    acc = [[0] * rank for _ in range(rank)]
                    for c, coeff in products[(a, b)].items():
                        acc = _mat_add_scaled(acc, matrix_of(c, assigned), coeff)
                    if _mat_mul(assigned[a], assigned[b]) != tuple(
                            tuple(row) for row in acc):
                        return
            yield dict(assigned)
            return
        label = alphas[pos]
        for m in candidates[label]:
            assigned[label] = m
            if check_new(label, assigned):
                yield from walk(pos + 1, assigned)
            del assigned[label]

    yield from walk(0, {})


def _canonical_form(mats: Dict[str, Matrix], alphas: List[str], rank: int) -> tuple:
    best = None
    for perm in itertools.permutations(range(rank)):
        form = tuple(
            tuple(mats[a][perm[i]][perm[j]] for i in range(rank)
                  for j in range(rank))
            for a in alphas)
        if best is None or form < best:
            best = form
    return best


def _module_from_matrices(ring: BasedRing, mats: Dict[str, Matrix],
                          rank: int, tag: str) -> BasedModule:
    basis = [f"m{i}" for i in range(rank)]
    table: Dict[Tuple[str, str], Element] = {}
    for alpha, m in mats.items():
        for j in range(rank):
            table[(alpha, basis[j])] = Element(
                {basis[i]: m[i][j] for i in range(rank) if m[i][j]})
    doc = None
    if ring.doc is not None:
        doc = {"kind": "module", "ring": ring.doc, "basis": list(basis),
               "action": sorted(
                   [[alpha, j, dict(table[(alpha, j)].items())]
                    for (alpha, j) in table])}
    return BasedModule(ring=ring, basis=basis, action=table, name=tag, doc=doc)


def enumerate_torsion_modules(ring: BasedRing,
                              budget: EnumerationBudget) -> CensusResult:
    """All torsion modules within the budget, up to based isomorphism.

    Deterministic: modules are canonicalized by the lexicographically
    minimal action tensor over basis permutations and emitted in
    (rank, canonical form) order.  A wall-clock budget overrun returns the
    partial census flagged incomplete.
    """
    if not ring.is_finite:
        raise InvalidInputError("census enumeration needs a finite ring")
    alphas = [a for a in ring.basis if a != ring.unit]
    deadline = (time.monotonic() + budget.max_seconds
                if budget.max_seconds is not None else None)
    found: List[Tuple[int, tuple]] = []
    complete = True
    try:
        for rank in range(1, budget.max_rank + 1):
            for mats in _assignments(ring, rank, budget.max_coeff, deadline):
                if not _connected(mats, rank):
                    continue
                form = _canonical_form(mats, alphas, rank)
                key = (rank, form)
                if key not in found:
                    found.append(key)
    except TimeoutError:
        complete = False
    found.sort()
    modules = []
    for idx, (rank, form) in enumerate(found):
        mats = {a: tuple(tuple(form[ai][i * rank + j] for j in range(rank))
                         for i in range(rank))
                for ai, a in enumerate(alphas)}
        module = _module_from_matrices(ring, mats, rank,
                                       f"census[{ring.name}][{idx}]")
        verdictA = check_module_axioms(module, depth=4)
        verdictT = is_torsion(module, depth=4)
        if not (verdictA.is_holds and verdictT.is_holds):
            raise AssertionError(
                f"enumerated module failed re-verification: "
                f"{verdictA.witness or verdictT.witness}")
        modules.append(module)
    return CensusResult(ring=ring, budget=budget, modules=modules,
                        complete=complete)


def modules_isomorphic(m1: BasedModule, m2: BasedModule,
                       depth: int = 4) -> Optional[IsomorphismWitness]:
    """Basis bijection intertwining the actions, or None.

    The witness is re-verified before being returned.
    """
    mapping = find_intertwiner(m1, m2, depth)
    if mapping is None:
        return None
    return IsomorphismWitness(tuple(sorted(mapping.items())))


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
    from .modules import is_standard  # local to avoid cycle at import time
    for module in census.modules:
        verdict = is_standard(module, depth=4)
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
