"""Independent oracles for the benchmark's output checks.

Nothing here imports fusionkit or the test suite.  Each oracle computes
from the plain mathematics of the workload: integers mod n, permutations,
reduced words, Laurent polynomials and subgroup lattices.
"""

from __future__ import annotations

import cmath
import itertools
from typing import Dict, List, Sequence, Tuple

# --- addition mod n -----------------------------------------------------------


def add_mod(a: int, b: int, n: int) -> int:
    return (a + b) % n


# --- permutations ---------------------------------------------------------------

Perm = Tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    """p after q, as functions on points."""
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, image in enumerate(p):
        out[image] = i
    return tuple(out)


def symmetric_group(degree: int) -> List[Perm]:
    return sorted(itertools.permutations(range(degree)))


def coset_point(g: Perm, point: int) -> int:
    """The left coset g·Stab(point) is determined by g(point)."""
    return g[point]


# --- the free product Z2 * Z3 = PSL(2, Z) ----------------------------------------
# A letter is (side, exponent): side 0 is Z2 (exponent 1), side 1 is Z3
# (exponent 1 or 2).  A reduced word alternates sides.

Letter = Tuple[int, int]
ORDERS = (2, 3)


def reduce_word(letters: Sequence[Letter]) -> Tuple[Letter, ...]:
    out: List[Letter] = []
    for side, exp in letters:
        exp %= ORDERS[side]
        if exp == 0:
            continue
        if out and out[-1][0] == side:
            merged = (out[-1][1] + exp) % ORDERS[side]
            out.pop()
            if merged:
                out.append((side, merged))
        else:
            out.append((side, exp))
    return tuple(out)


def reduced_words(length: int) -> List[Tuple[Letter, ...]]:
    letters = [(0, 1), (1, 1), (1, 2)]
    words: List[Tuple[Letter, ...]] = [()]
    for _ in range(length):
        words = [w + (x,) for w in words for x in letters
                 if not w or w[-1][0] != x[0]]
    return words


def reduced_word_counts(max_length: int) -> List[int]:
    return [len(reduced_words(k)) for k in range(max_length + 1)]


# --- SU(2) characters as Laurent polynomials in q --------------------------------


def _su2_character(n: int) -> Dict[int, int]:
    """chi_n = q^n + q^(n-2) + ... + q^(-n)."""
    return {n - 2 * k: 1 for k in range(n + 1)}


def clebsch_gordan(m: int, n: int) -> Dict[int, int]:
    """Decompose chi_m * chi_n into irreducible characters by peeling off
    the highest weight."""
    product: Dict[int, int] = {}
    for a, ca in _su2_character(m).items():
        for b, cb in _su2_character(n).items():
            product[a + b] = product.get(a + b, 0) + ca * cb
    out: Dict[int, int] = {}
    while any(product.values()):
        top = max(w for w, c in product.items() if c)
        mult = product[top]
        out[top] = mult
        for w, c in _su2_character(top).items():
            product[w] = product.get(w, 0) - mult * c
    return out


# --- subgroups, transitive G-sets and Rep(G) module ranks --------------------------


class FiniteGroup:
    """A group given by elements 0..n-1 and a multiplication table."""

    def __init__(self, mul: Sequence[Sequence[int]]):
        self.mul = [list(row) for row in mul]
        self.order = len(self.mul)
        self.identity = next(e for e in range(self.order)
                             if all(self.mul[e][a] == a for a in range(self.order)))
        self.inv = [next(b for b in range(self.order)
                         if self.mul[a][b] == self.identity)
                    for a in range(self.order)]

    def subgroups(self) -> List[frozenset]:
        """Every subgroup, by closing each subset of generators of size <= 2."""
        found = set()
        for gens in itertools.combinations_with_replacement(range(self.order), 2):
            group = {self.identity, *gens}
            while True:
                grown = {self.mul[a][b] for a in group for b in group}
                if grown <= group:
                    break
                group |= grown
            found.add(frozenset(group))
        return sorted(found, key=lambda h: (len(h), sorted(h)))

    def conjugate(self, h: frozenset, g: int) -> frozenset:
        return frozenset(self.mul[self.mul[g][x]][self.inv[g]] for x in h)

    def subgroup_classes(self) -> List[frozenset]:
        reps: List[frozenset] = []
        seen = set()
        for h in self.subgroups():
            if h in seen:
                continue
            reps.append(h)
            seen.update(self.conjugate(h, g) for g in range(self.order))
        return reps

    def is_abelian(self, h: frozenset) -> bool:
        return all(self.mul[a][b] == self.mul[b][a] for a in h for b in h)


def transitive_gset_ranks(group: FiniteGroup, max_rank: int) -> List[int]:
    """Sizes of the transitive G-sets G/H of size <= max_rank, one per
    conjugacy class of subgroups: the connected based modules of Z[G] whose
    action matrices are permutation matrices."""
    return sorted(group.order // len(h) for h in group.subgroup_classes()
                  if group.order // len(h) <= max_rank)


def _linear_characters(group: FiniteGroup, h: frozenset) -> List[Dict[int, complex]]:
    """All homomorphisms h -> C^x, found by brute force over roots of unity."""
    elements = sorted(h)
    n = len(elements)
    roots = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
    chars = []
    for values in itertools.product(roots, repeat=n):
        chi = dict(zip(elements, values))
        if all(abs(chi[group.mul[a][b]] - chi[a] * chi[b]) < 1e-9
               for a in elements for b in elements):
            chars.append(chi)
    return chars


def rep_module_ranks(group: FiniteGroup, characters: Sequence[Dict[int, complex]],
                     max_rank: int, max_coeff: int) -> List[int]:
    """Ranks of the module categories Rep(H) over Rep(G), one per class of
    subgroups H whose irreducibles are all one-dimensional or H = G, kept
    when the rank and every action coefficient fit the census budget.

    ``characters`` are the irreducible characters of G as functions on
    elements.  For abelian H the coefficient of sigma in Res(alpha) * rho
    is the inner product <Res(alpha) rho, sigma>_H; for H = G the module is
    the regular one and the coefficients are G's fusion coefficients.
    """
    ranks = []
    whole = frozenset(range(group.order))
    for h in group.subgroup_classes():
        if h == whole:
            irreps = [dict(c) for c in characters]
        elif group.is_abelian(h):
            irreps = _linear_characters(group, h)
        else:
            raise ValueError("non-abelian proper subgroups are not covered")
        rank = len(irreps)
        coeff = 0
        for alpha in characters:
            for rho in irreps:
                for sigma in irreps:
                    total = sum(alpha[x] * rho[x] * sigma[x].conjugate()
                                for x in h) / len(h)
                    coeff = max(coeff, round(total.real))
        if rank <= max_rank and coeff <= max_coeff:
            ranks.append(rank)
    return sorted(ranks)


def is_permutation_matrix(rows: Sequence[Sequence[int]]) -> bool:
    n = len(rows)
    return (all(sorted(row) == [0] * (n - 1) + [1] for row in rows)
            and all(sorted(col) == [0] * (n - 1) + [1] for col in zip(*rows)))
