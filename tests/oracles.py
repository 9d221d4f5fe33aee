"""Independent oracles the library is tested against.

These stay deliberately naive and separate from the library code paths:
polynomial character arithmetic for the Clebsch-Gordan rules, free-word
reduction for the infinite dihedral group, the recursive word product of
a free product of fusion rings, plain-integer character convolution,
representation rings from complex floating-point characters,
cyclic and permutation arithmetic on labels, a Counter fold for bilinear
extensions, transitive G-sets from subgroup classes with Mackey's orbit
sizes, semi-direct products of groups in the textbook law, an unpruned
torsion-module census, the backtracking intertwiner search on plain
tables, and the plain loops whose order fixes the first witness and first
error of each ordered check.
"""

import cmath
import itertools
from collections import Counter
from fractions import Fraction


# --- character polynomials: chi_n with chi_0 = 1, chi_1 = t,
#     chi_{n+1} = t * chi_n - chi_{n-1}

def _chi_poly(n):
    polys = [(1,), (0, 1)]
    while len(polys) <= n:
        prev, last = polys[-2], polys[-1]
        shifted = (0,) + last
        padded_prev = prev + (0,) * (len(shifted) - len(prev))
        polys.append(tuple(a - b for a, b in zip(shifted, padded_prev)))
    return polys[n]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def cg_tensor_oracle(m, n):
    """Decompose chi_m * chi_n in the chi basis by top-down elimination."""
    product = _poly_mul(list(_chi_poly(m)), list(_chi_poly(n)))
    coeffs = {}
    degree = len(product) - 1
    while degree >= 0:
        lead = product[degree]
        if lead:
            coeffs[degree] = lead
            chi = _chi_poly(degree)
            for i, c in enumerate(chi):
                product[i] -= lead * c
        degree -= 1
    assert all(c == 0 for c in product)
    return {k: v for k, v in coeffs.items() if v}


# --- infinite dihedral group: words over g, h with g^2 = h^2 = empty

def dihedral_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(letter)
    return "".join(out)


def dihedral_mul(u, v):
    return dihedral_reduce(u + v)


def dihedral_words(max_len):
    words = [""]
    for start in "gh":
        w = ""
        other = {"g": "h", "h": "g"}
        cur = start
        for _ in range(max_len):
            w += cur
            words.append(w)
            cur = other[cur]
    return sorted(set(words), key=lambda w: (len(w), w))


# --- the free product of an order-2 and an order-3 cyclic group: words
#     over g (g^2 = 1) and a, a2 (a^3 = 1), reduced by merging adjacent
#     letters from the same factor

def modular_reduce(letters):
    stack = []
    for letter in letters:
        while True:
            if not stack:
                stack.append(letter)
                break
            top = stack[-1]
            same_g = top == "g" and letter == "g"
            both_a = top in ("a", "a2") and letter in ("a", "a2")
            if same_g:
                stack.pop()
                break
            if both_a:
                stack.pop()
                exponent = ({"a": 1, "a2": 2}[top] + {"a": 1, "a2": 2}[letter]) % 3
                if exponent == 0:
                    break
                letter = "a" if exponent == 1 else "a2"
                continue
            stack.append(letter)
            break
    return tuple(stack)


def modular_words(max_len):
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        new = []
        for w in frontier:
            for letter in ("g", "a", "a2"):
                r = modular_reduce(w + (letter,))
                if r not in words and len(r) == len(w) + 1:
                    words.append(r)
                    new.append(r)
        frontier = new
    return words


def modular_mul(u, v):
    return modular_reduce(tuple(u) + tuple(v))


# --- free products of fusion rings: words are tuples of (side, letter)
#     pairs with alternating sides; rules[side](x, y) is the {label: coeff}
#     expansion of x ⊗ y in that factor, whose unit is units[side]

def free_word_product(rules, units, u, v):
    """u ⊗ v by the defining recursion: words meeting in different factors
    concatenate; at a same-factor boundary x | y every constituent N·t of
    x ⊗ y with t ≠ 1 gives N·(u' t v'), and N·1 gives N·(u' ⊗ v')."""
    if not u or not v or u[-1][0] != v[0][0]:
        return {u + v: 1}
    side = u[-1][0]
    total = Counter()
    for t, n in rules[side](u[-1][1], v[0][1]).items():
        if t == units[side]:
            for w, m in free_word_product(rules, units, u[:-1], v[1:]).items():
                total[w] += n * m
        else:
            total[u[:-1] + ((side, t),) + v[1:]] += n
    return {w: c for w, c in total.items() if c}


# --- S3 character convolution with plain integers

S3_CLASS_SIZES = (1, 3, 2)
S3_CHARACTERS = {
    "triv": (1, 1, 1),
    "sgn": (1, -1, 1),
    "std": (2, 0, -1),
}


def s3_fusion_oracle(a, b):
    out = {}
    for c, chi_c in S3_CHARACTERS.items():
        total = Fraction(0)
        for size, xa, xb, xc in zip(S3_CLASS_SIZES, S3_CHARACTERS[a],
                                    S3_CHARACTERS[b], chi_c):
            total += Fraction(size * xa * xb * xc)
        value = total / 6
        assert value.denominator == 1
        if value:
            out[c] = int(value)
    return out


# --- representation rings from complex character values, in floating point

def root_of_unity(n, e):
    return cmath.exp(2j * cmath.pi * e / n)


def float_rep_ring_oracle(sizes, characters):
    """(fusion, conj) of the ring of ``characters`` (label → complex values,
    class by class; class sizes ``sizes``): fusion[(a, b)] = {c: N} with
    N = (1/|G|) Σ_k |k|·χ_a(k)·χ_b(k)·conj χ_c(k) rounded, after checking
    that it lies within 1e-9 of a non-negative integer; conj[a] is the label
    whose values are the complex conjugates of a's."""
    order = sum(sizes)
    fusion = {}
    for a, xa in characters.items():
        for b, xb in characters.items():
            terms = {}
            for c, xc in characters.items():
                z = sum(s * u * v * w.conjugate()
                        for s, u, v, w in zip(sizes, xa, xb, xc)) / order
                n = round(z.real)
                assert abs(z - n) < 1e-9 and n >= 0, (a, b, c, z)
                if n:
                    terms[c] = n
            fusion[(a, b)] = terms
    conj = {a: next(c for c, xc in characters.items()
                    if all(abs(u.conjugate() - w) < 1e-9 for u, w in zip(xa, xc)))
            for a, xa in characters.items()}
    return fusion, conj


# --- bilinear extension: a Counter fold over a rule returning {label: coeff}

def bilinear_oracle(rule, a, b):
    """Σ a[x]·b[y]·rule(x, y) over plain dicts, zeros dropped."""
    total = Counter()
    for x, ca in a.items():
        for y, cb in b.items():
            for z, c in rule(x, y).items():
                total[z] += ca * cb * c
    return {z: c for z, c in total.items() if c}


# --- ring and module axioms over plain dicts; mul[(a, b)] is the
#     {label: coeff} expansion of a ⊗ b, unit pairs included

def first_nonassociative_triple(basis, mul):
    """First (a, b, c) in itertools order with (a⊗b)⊗c ≠ a⊗(b⊗c), or None."""
    def rule(x, y):
        return mul[(x, y)]
    for a, b, c in itertools.product(basis, repeat=3):
        if (bilinear_oracle(rule, mul[(a, b)], {c: 1})
                != bilinear_oracle(rule, {a: 1}, mul[(b, c)])):
            return (a, b, c)
    return None


def first_module_failure(ring_basis, conj, mul, basis, action):
    """First failing tuple of the based-module axioms, in the order of the
    full sweep: based symmetry at (α, j, j'), then α⊗(β⊗j) = (α⊗β)⊗j at
    (α, β, j).  ``action[(α, j)]`` is a {label: coeff} dict, unit included.
    Returns (axiom, tuple) or None."""
    for alpha in ring_basis:
        for j in basis:
            for jp in basis:
                forward = action[(alpha, jp)].get(j, 0) != 0
                backward = action[(conj[alpha], j)].get(jp, 0) != 0
                if forward != backward:
                    return ("symmetry", (alpha, j, jp))

    def rule(x, k):
        return action[(x, k)]
    for alpha in ring_basis:
        for beta in ring_basis:
            for j in basis:
                if (bilinear_oracle(rule, {alpha: 1}, action[(beta, j)])
                        != bilinear_oracle(rule, mul[(alpha, beta)], {j: 1})):
                    return ("associativity", (alpha, beta, j))
    return None


# --- Z/n on labels e, a, a2, ..., a{n-1}

def cyclic_exponent(label):
    return 0 if label == "e" else int(label[1:] or 1)


def cyclic_label(k):
    return "e" if k == 0 else ("a" if k == 1 else f"a{k}")


def cyclic_mul_oracle(n):
    def rule(x, y):
        return {cyclic_label((cyclic_exponent(x) + cyclic_exponent(y)) % n): 1}
    return rule


# --- S3 on words in r = (1 2 0) and t = (1 0 2); the word "rt" acts by t
#     first, then r

S3_GENERATORS = {"r": (1, 2, 0), "t": (1, 0, 2)}


def word_permutation(word):
    perm = (0, 1, 2)
    for letter in reversed("" if word == "e" else word):
        step = S3_GENERATORS[letter]
        perm = tuple(step[i] for i in perm)
    return perm


def s3_mul_oracle(labels):
    """Composition of words, labeled by whichever of ``labels`` matches."""
    by_perm = {word_permutation(w): w for w in labels}

    def rule(x, y):
        px, py = word_permutation(x), word_permutation(y)
        return {by_perm[tuple(px[i] for i in py)]: 1}
    return rule


# --- finite groups as multiplication tables over 0..n-1, identity 0

def cyclic_table(n):
    return [[(i + k) % n for k in range(n)] for i in range(n)]


def klein_table():
    return [[i ^ k for k in range(4)] for i in range(4)]


def product_table(t1, t2):
    """G1 × G2 on pairs (x1, x2) numbered x1 * |G2| + x2."""
    n2 = len(t2)
    return [[t1[i // n2][k // n2] * n2 + t2[i % n2][k % n2]
             for k in range(len(t1) * n2)] for i in range(len(t1) * n2)]


def permutation_table(degree):
    """S_degree on itertools order; entry [x][y] is x after y."""
    perms = list(itertools.permutations(range(degree)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(degree))] for q in perms]
            for p in perms]


def subgroups(table):
    """Every subgroup, as a frozenset, found by closing every subset."""
    n = len(table)
    found = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            h = frozenset(subset)
            if 0 in h and all(table[x][y] in h for x in h for y in h):
                found.append(h)
    return found


def _inverses(table):
    return [next(y for y in range(len(table)) if table[x][y] == 0)
            for x in range(len(table))]


def conjugate(table, g, h):
    """g·h·g⁻¹ as a frozenset."""
    inverse = _inverses(table)
    return frozenset(table[table[g][x]][inverse[g]] for x in h)


def subgroup_classes(table):
    """One subgroup per conjugacy class: the least conjugate, as a sorted
    tuple."""
    return sorted({min(tuple(sorted(conjugate(table, g, h)))
                       for g in range(len(table)))
                   for h in subgroups(table)})


def transitive_gset_ranks(table, max_rank):
    """Sizes [G:H] ≤ max_rank of the transitive G-sets G/H, one per
    conjugacy class of subgroups H."""
    n = len(table)
    return sorted(n // len(h) for h in subgroup_classes(table)
                  if n // len(h) <= max_rank)


def left_cosets(table, k):
    """The G-set G/K: the cosets gK in order of their least element, and
    ``perm[g][i]``, the index of the coset g·(coset i)."""
    cosets = []
    for g in range(len(table)):
        coset = frozenset(table[g][x] for x in k)
        if coset not in cosets:
            cosets.append(coset)
    index = {c: i for i, c in enumerate(cosets)}
    perm = [[index[frozenset(table[g][x] for x in c)] for c in cosets]
            for g in range(len(table))]
    return cosets, perm


def mackey_orbit_sizes(table, h, k):
    """|H| / |H ∩ gKg⁻¹| over the double cosets HgK, sorted: the orbit
    sizes of H on G/K."""
    sizes, seen = [], set()
    for g in range(len(table)):
        double = frozenset(table[table[x][g]][y] for x in h for y in k)
        if double not in seen:
            seen.add(double)
            sizes.append(len(h) // len(h & conjugate(table, g, k)))
    return sorted(sizes)


def semidirect_oracle(gamma, normal, action):
    """N ⋊ Γ from the tables of Γ and N and the automorphisms
    ``action[γ]`` of N as index lists, in the textbook law
    (n, γ)·(n′, γ′) = (n·γ(n′), γγ′) on the elements n·γ.  The pair (γ, x)
    names the element γ·x = γ(x)·γ.  Returns the product and the inverse
    of every pair, as pairs."""
    pairs = [(g, x) for g in range(len(gamma)) for x in range(len(normal))]
    textbook = {(g, x): (action[g][x], g) for g, x in pairs}
    pair_of = {v: k for k, v in textbook.items()}
    mul = {}
    for p in pairs:
        for q in pairs:
            (n, g), (m, h) = textbook[p], textbook[q]
            mul[(p, q)] = pair_of[(normal[n][action[g][m]], gamma[g][h])]
    inverse = {p: next(q for q in pairs if mul[(p, q)] == (0, 0))
               for p in pairs}
    return mul, inverse


def is_permutation_matrix(rows):
    return (all(sorted(row) == [0] * (len(row) - 1) + [1] for row in rows)
            and all(sum(col) == 1 for col in zip(*rows)))


# --- an unpruned census: every bounded matrix for every non-unit label

def census_forms(basis, unit, conj, fusion, max_rank, max_coeff=1):
    """Canonical forms (rank, form) of the connected based modules up to
    ``max_rank`` whose action matrices have entries at most ``max_coeff``.
    ``fusion[(a, b)]`` is the {label: coefficient} expansion of a ⊗ b.
    Each label ranges over all (max_coeff + 1)^(rank²) matrices; an
    assignment is abandoned as soon as a symmetry or associativity
    condition whose matrices are all assigned fails, so every module
    survives.  Based symmetry compares supports: M_a has a non-zero (i, j)
    entry exactly when M_{a*} has a non-zero (j, i) entry."""
    labels = [a for a in basis if a != unit]
    found = set()
    for rank in range(1, max_rank + 1):
        identity = tuple(tuple(int(i == j) for j in range(rank))
                         for i in range(rank))
        matrices = [tuple(tuple(cells[i * rank:(i + 1) * rank])
                          for i in range(rank))
                    for cells in itertools.product(range(max_coeff + 1),
                                                   repeat=rank * rank)]

        def needs(a, b):
            return {a, b, *fusion[(a, b)]} - {unit}

        def holds(a, b, mats):
            def m(x):
                return identity if x == unit else mats[x]
            ma, mb = m(a), m(b)
            for i in range(rank):
                for j in range(rank):
                    lhs = sum(ma[i][k] * mb[k][j] for k in range(rank))
                    rhs = sum(c * m(x)[i][j] for x, c in fusion[(a, b)].items())
                    if lhs != rhs:
                        return False
            return True

        def symmetric(a, mats):
            ma, mc = mats[a], mats[conj[a]]
            return all(bool(ma[i][j]) == bool(mc[j][i])
                       for i in range(rank) for j in range(rank))

        def walk(pos, mats):
            if pos == len(labels):
                yield dict(mats)
                return
            label = labels[pos]
            for m in matrices:
                mats[label] = m
                if (all(symmetric(a, mats) for a in mats if conj[a] in mats)
                        and all(holds(a, b, mats)
                                for a in basis for b in basis
                                if label in needs(a, b)
                                and needs(a, b) <= set(mats))):
                    yield from walk(pos + 1, mats)
                del mats[label]

        for mats in walk(0, {}):
            if connected(mats.values(), rank):
                found.add((rank, canonical_form([mats[a] for a in labels])))
    return found


def connected(matrices, rank):
    reach, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for m in matrices:
            for j in range(rank):
                if (m[i][j] or m[j][i]) and j not in reach:
                    reach.add(j)
                    frontier.append(j)
    return len(reach) == rank


def canonical_form(matrices):
    """The least relabelling, over basis permutations, of a list of square
    matrices."""
    rank = len(matrices[0]) if matrices else 0
    return min(tuple(tuple(m[p[i]][p[j]] for i in range(rank)
                           for j in range(rank)) for m in matrices)
               for p in itertools.permutations(range(rank)))


# --- the backtracking intertwiner search on plain tables

def _action_signature(window, basis, action, j):
    sig = []
    for alpha in window:
        into = action[(alpha, j)]
        out_coeffs = tuple(sorted(action[(alpha, k)].get(j, 0) for k in basis))
        in_coeffs = tuple(sorted(into.get(k, 0) for k in basis))
        sig.append((in_coeffs, out_coeffs, into.get(j, 0)))
    return tuple(sig)


def intertwiner_oracle(window, basis1, action1, basis2, action2):
    """First basis bijection carrying ``action1`` to ``action2``, or None.

    ``action[(alpha, j)]`` is the {label: coefficient} expansion of
    alpha ⊗ j for every ring label alpha of ``window``, the unit included.
    Labels are ordered by fewest signature-equal candidates, then by label;
    candidates are tried in label order, and every coefficient between
    assigned labels is compared at each step."""
    if len(basis1) != len(basis2):
        return None
    sig1 = {j: _action_signature(window, basis1, action1, j) for j in basis1}
    sig2 = {k: _action_signature(window, basis2, action2, k) for k in basis2}
    if Counter(sig1.values()) != Counter(sig2.values()):
        return None
    candidates = {j: sorted(k for k in basis2 if sig2[k] == sig1[j])
                  for j in basis1}
    order = sorted(basis1, key=lambda j: (len(candidates[j]), j))
    assignment = {}

    def consistent(j, k):
        for alpha in window:
            row_j, row_k = action1[(alpha, j)], action2[(alpha, k)]
            if row_j.get(j, 0) != row_k.get(k, 0):
                return False
            for jp, kp in assignment.items():
                if row_j.get(jp, 0) != row_k.get(kp, 0):
                    return False
                if action1[(alpha, jp)].get(j, 0) != action2[(alpha, kp)].get(k, 0):
                    return False
        return True

    def backtrack(pos):
        if pos == len(order):
            return True
        j = order[pos]
        for k in candidates[j]:
            if k in assignment.values() or not consistent(j, k):
                continue
            assignment[j] = k
            if backtrack(pos + 1):
                return True
            del assignment[j]
        return False

    if not backtrack(0) or not intertwines(window, basis1, action1, basis2,
                                           action2, assignment):
        return None
    return dict(assignment)


def intertwines(window, basis1, action1, basis2, action2, mapping):
    """``mapping`` is a bijection from ``basis1`` onto ``basis2`` carrying
    alpha ⊗ j of ``action1`` to alpha ⊗ mapping[j] of ``action2``,
    coefficient by coefficient, for every alpha of the window."""
    if (sorted(mapping) != sorted(basis1)
            or sorted(mapping.values()) != sorted(basis2)):
        return False
    for alpha in window:
        for j in basis1:
            image = Counter()
            for x, c in action1[(alpha, j)].items():
                image[mapping[x]] += c
            if +image != +Counter(action2[(alpha, mapping[j])]):
                return False
    return True


# --- the ordered associativity sweep, the pair and dimension passes and the
#     based-symmetry loop over plain dict tables: the order in which they
#     ask for products fixes their first witness and first error

I64_MAX = 2**63 - 1


class LazyTable(dict):
    """A dict table filled on first read from ``rule(x, y)``; a rule that
    returns None leaves the pair missing, a product that raises."""

    def __init__(self, rule):
        super().__init__()
        self.rule = rule

    def __missing__(self, key):
        value = self.rule(*key)
        if value is None:
            raise KeyError(key)
        self[key] = value
        return value


class _Stop(Exception):
    def __init__(self, outcome):
        super().__init__(outcome)
        self.outcome = outcome


def ordered_triple_scan(alphas, betas, js, mul, act):
    """The ordered associativity sweep on tables: ``mul[(α, β)]`` and
    ``act[(x, j)]`` are {label: coeff} dicts, unit pairs included, and a
    missing key is a product that raises.  Per (α, β, j) in loop order it
    asks for α⊗β, then each x⊗j of (α⊗β)⊗j, then β⊗j, then each α⊗y of
    α⊗(β⊗j), terms in label order, and range-checks each side's final
    coefficients once that side is summed.  Returns ("holds",),
    ("fails", (α, β, j), α⊗(β⊗j), (α⊗β)⊗j), ("missing", (x, y)) for the
    first product asked for that is missing, or ("overflow", (α, β, j), c)
    for the first coefficient c outside the signed 64-bit range."""
    def ask(table, key):
        try:
            return table[key]
        except KeyError:
            raise _Stop(("missing", key)) from None

    def side(where, a, b):
        total = {}
        for x in sorted(a):
            for y in sorted(b):
                for z, c in ask(act, (x, y)).items():
                    total[z] = total.get(z, 0) + a[x] * b[y] * c
        for c in total.values():
            if not -I64_MAX - 1 <= c <= I64_MAX:
                raise _Stop(("overflow", where, c))
        return {z: c for z, c in total.items() if c}

    try:
        for alpha in alphas:
            for beta in betas:
                ab = ask(mul, (alpha, beta))
                for j in js:
                    flat = side((alpha, beta, j), ab, {j: 1})
                    nested = side((alpha, beta, j), {alpha: 1}, ask(act, (beta, j)))
                    if flat != nested:
                        return ("fails", (alpha, beta, j), nested, flat)
    except _Stop as stop:
        return stop.outcome
    return ("holds",)


def ordered_pair_scan(window, unit, conj, mul):
    """The pair pass of the ring axioms on a table: ``mul[(a, b)]`` is a
    {label: coeff} dict, unit pairs included, and a missing key is a
    product that raises; ``conj`` maps a label to its conjugate.  Per
    (a, b) in loop order it asks for conj(a)⊗b and checks its unit
    coefficient, then asks for a⊗b, conjugates its terms and asks for
    conj(b)⊗conj(a).  Returns ("holds",), ("unit", (a, b), got, want),
    ("conj", (a, b), conj(a⊗b), conj(b)⊗conj(a)), or ("missing", (x, y))
    for the first product asked for that is missing."""
    def ask(key):
        try:
            return mul[key]
        except KeyError:
            raise _Stop(("missing", key)) from None

    try:
        for a in window:
            for b in window:
                got = ask((conj(a), b)).get(unit, 0)
                want = 1 if a == b else 0
                if got != want:
                    return ("unit", (a, b), got, want)
                lhs = Counter()
                for x, c in sorted(ask((a, b)).items()):
                    lhs[conj(x)] += c
                rhs = ask((conj(b), conj(a)))
                if dict(+lhs) != {x: c for x, c in rhs.items() if c}:
                    return ("conj", (a, b), dict(+lhs), rhs)
    except _Stop as stop:
        return stop.outcome
    return ("holds",)


def ordered_dimension_scan(window, dim, mul):
    """Multiplicativity of ``dim`` by the plain loop over (a, b) on a
    table, as in :func:`ordered_pair_scan`.  Returns ("holds",),
    ("fails", (a, b), d(a)·d(b), Σ N·d) or ("missing", (a, b))."""
    for a in window:
        for b in window:
            if (a, b) not in mul:
                return ("missing", (a, b))
            total = sum(Fraction(c) * dim[x] for x, c in mul[(a, b)].items())
            if total != dim[a] * dim[b]:
                return ("fails", (a, b), dim[a] * dim[b], total)
    return ("holds",)


def ordered_symmetry_scan(alphas, conj, js, act):
    """Based symmetry by the plain loop over α, then j, then j′ on a table:
    ``act[(x, j)]`` is a {label: coeff} dict, unit pairs included, and a
    missing key is an action that raises; ``conj`` maps a label to its
    conjugate.  At each (α, j, j′) it asks for α⊗j′, then conj(α)⊗j.
    Returns ("holds",), ("fails", (α, j, j′)) for the first tuple at which
    j ⊂ α⊗j′ and j′ ⊂ conj(α)⊗j disagree, or ("missing", (x, j)) for the
    first action asked for that is missing."""
    def ask(key):
        try:
            return act[key]
        except KeyError:
            raise _Stop(("missing", key)) from None

    try:
        for alpha in alphas:
            for j in js:
                for jp in js:
                    forward = ask((alpha, jp)).get(j, 0) != 0
                    backward = ask((conj(alpha), j)).get(jp, 0) != 0
                    if forward != backward:
                        return ("fails", (alpha, j, jp))
    except _Stop as stop:
        return stop.outcome
    return ("holds",)


def ordered_module_dimension_scan(alphas, js, dim, dims, act):
    """Compatibility of a module dimension by the plain loop over α, then
    j, on a table: ``act[(α, j)]`` is a {label: coeff} dict, unit pairs
    included, and a missing key is an action that raises; ``dim`` and
    ``dims`` map ring and module labels to dimensions.  Returns ("holds",),
    ("fails", (α, j), Σ N·d_J, d(α)·d_J(j)) for the first pair at which
    they differ, or ("missing", (α, j)) for the first action asked for that
    is missing."""
    for alpha in alphas:
        for j in js:
            row = _lookup(act, (alpha, j))
            if row is None:
                return ("missing", (alpha, j))
            total = sum(Fraction(c) * dims[k] for k, c in row.items())
            if total != dim[alpha] * dims[j]:
                return ("fails", (alpha, j), total, dim[alpha] * dims[j])
    return ("holds",)


def _lookup(table, key):
    """``table[key]``, or None for a missing key, a LazyTable filled on the way."""
    try:
        return table[key]
    except KeyError:
        return None


def ordered_component_scan(alphas, js, act):
    """The components of the window ``js`` under the edges {j, j′} with
    j ⊂ α ⊗ j′, asking for α ⊗ j′ by the plain loop over j′, then α, on a
    table as in :func:`ordered_module_dimension_scan`; a label outside the
    window adds no edge.  Returns ("components", [[labels], …]), each in
    window order and the components by their first label's place, or
    ("missing", (α, j′)) for the first action asked for that is missing."""
    neighbours = {j: set() for j in js}
    for jp in js:
        for alpha in alphas:
            row = _lookup(act, (alpha, jp))
            if row is None:
                return ("missing", (alpha, jp))
            for j, c in row.items():
                if c and j in neighbours:
                    neighbours[j].add(jp)
                    neighbours[jp].add(j)
    components, placed = [], set()
    for start in js:  # a depth-first search from each label not yet placed
        if start in placed:
            continue
        reached, stack = {start}, [start]
        while stack:
            for k in neighbours[stack.pop()] - reached:
                reached.add(k)
                stack.append(k)
        placed |= reached
        components.append([j for j in js if j in reached])
    return ("components", components)


def ordered_intertwining_scan(alphas, xs, f, left, right):
    """The first (α, x), by the plain loop over α, then x, with
    f(α ⊗ x) ≠ α ⊗ f(x), on tables as in
    :func:`ordered_module_dimension_scan`: ``left`` acts on ``xs`` and
    ``right`` on their images under the dict ``f``.  Per (α, x) it asks
    for α ⊗ x in ``left``, then α ⊗ f(x) in ``right``.  Returns
    ("holds",), ("fails", (α, x), f(α ⊗ x), α ⊗ f(x)), or
    ("missing", side, key) for the first action asked for that is missing,
    side "left" or "right"."""
    for alpha in alphas:
        for x in xs:
            row = _lookup(left, (alpha, x))
            if row is None:
                return ("missing", "left", (alpha, x))
            image = Counter()
            for y, c in row.items():
                image[f[y]] += c
            row = _lookup(right, (alpha, f[x]))
            if row is None:
                return ("missing", "right", (alpha, f[x]))
            want = {y: c for y, c in row.items() if c}
            if dict(+image) != want:
                return ("fails", (alpha, x), dict(+image), want)
    return ("holds",)


def first_window_collision(rules, units, generators, depth):
    """The first label that two words of a free product render to, in the
    order a depth-by-depth window meets words: the unit, each generator's
    one-letter word, then level by level, w ⊗ g for w in the last level in
    label order and g in generator order.  A word is rendered as its
    letters joined, the empty word as ε.  Returns (label, the word met
    first, the word met second), or None."""
    def render(word):
        return "".join(letter for _, letter in word) or "ε"

    owner = {}
    seen, level = {()}, [()]
    for word in [(), *((g,) for g in generators)]:
        if owner.setdefault(render(word), word) != word:
            return render(word), owner[render(word)], word
    for _ in range(depth):
        fresh = set()
        for w in level:
            for g in generators:
                for word in free_word_product(rules, units, w, (g,)):
                    if owner.setdefault(render(word), word) != word:
                        return render(word), owner[render(word)], word
                    fresh.add(word)
        level = sorted(fresh - seen, key=render)
        seen |= fresh
    return None
