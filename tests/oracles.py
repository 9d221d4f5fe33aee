"""Independent oracles the library is tested against.

These stay deliberately naive and separate from the library code paths:
polynomial character arithmetic for the Clebsch-Gordan rules, free-word
reduction for the infinite dihedral group, plain-integer character
convolution, cyclic and permutation arithmetic on labels, and a Counter
fold for bilinear extensions.
"""

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


# --- bilinear extension: a Counter fold over a rule returning {label: coeff}

def bilinear_oracle(rule, a, b):
    """Σ a[x]·b[y]·rule(x, y) over plain dicts, zeros dropped."""
    total = Counter()
    for x, ca in a.items():
        for y, cb in b.items():
            for z, c in rule(x, y).items():
                total[z] += ca * cb * c
    return {z: c for z, c in total.items() if c}


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
