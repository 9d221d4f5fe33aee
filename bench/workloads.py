"""The three workloads: generated definition files, the fusionkit commands
run on them, and the check of every command's output.

A seed relabels every basis label and generator name (two-letter tokens
drawn from the seed) and fixes the order of the commands within a pass.
The mathematics, the label lengths and the order of the bases stay the
same, so the work done does not depend on the seed.  Every check decodes
labels through the generator's own record of what each label means and
compares with ``oracles``, so no check depends on the labels chosen.
"""

from __future__ import annotations

import json
import os
import random
import re
import string
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import oracles as orc

Check = Callable[[dict, str], List[str]]

CENSUS_RANK = 3
CENSUS_COEFF = 1


@dataclass
class Command:
    argv: List[str]
    check: Check

    @property
    def name(self) -> str:
        return " ".join(self.argv[:2])


@dataclass
class Workload:
    name: str
    files: Dict[str, dict]
    commands: List[Command]
    uses_cache: bool = False
    # a check of what the run left in its work directory, after the passes
    final_check: Optional[Callable[[str], List[str]]] = None

    @property
    def probe_files(self) -> List[str]:
        """Definition files the commands read, in command order."""
        seen: List[str] = []
        for cmd in self.commands:
            for arg in cmd.argv:
                if arg in self.files and arg not in seen:
                    seen.append(arg)
        return seen

    def write(self, workdir: str) -> None:
        for name, doc in self.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)


class Labels:
    """Distinct two-letter tokens drawn from the seed."""

    def __init__(self, rng: random.Random):
        pool = [a + b for a in string.ascii_lowercase for b in string.ascii_lowercase]
        rng.shuffle(pool)
        self._pool = pool

    def take(self, count: int) -> List[str]:
        out, self._pool = self._pool[:count], self._pool[count:]
        return out


# --- shared document builders ----------------------------------------------------


def group_doc(labels: Sequence[str], mul: Sequence[Sequence[int]]) -> dict:
    n = len(labels)
    return {"elements": list(labels),
            "mult": [[labels[a], labels[b], labels[mul[a][b]]]
                     for a in range(n) for b in range(n)]}


def group_ring_doc(labels: Sequence[str], mul: Sequence[Sequence[int]]) -> dict:
    return {"kind": "construct", "construct": "group_ring",
            "group": group_doc(labels, mul)}


def explicit_group_ring(labels: Sequence[str], mul: Sequence[Sequence[int]],
                        inv: Sequence[int]) -> dict:
    n = len(labels)
    return {"kind": "explicit_ring", "basis": list(labels), "unit": labels[0],
            "conj": {labels[a]: labels[inv[a]] for a in range(n)},
            "dim": {label: 1 for label in labels},
            "fusion": [[labels[a], labels[b], {labels[mul[a][b]]: 1}]
                       for a in range(1, n) for b in range(1, n)]}


def cyclic_table(n: int) -> List[List[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def perm_table(perms: Sequence[orc.Perm]) -> List[List[int]]:
    index = {p: i for i, p in enumerate(perms)}
    return [[index[orc.compose(p, q)] for q in perms] for p in perms]


def perm_group(degree: int, keep: Callable[[orc.Perm], bool] = lambda p: True
               ) -> List[orc.Perm]:
    """Permutations with the identity first, in a fixed order."""
    return [p for p in orc.symmetric_group(degree) if keep(p)]


def module_doc(ring: str, basis: Sequence[str], action) -> dict:
    return {"kind": "module", "ring": ring, "basis": list(basis),
            "action": [list(entry) for entry in action]}


def matrices(module: dict) -> Dict[str, List[List[int]]]:
    """Action matrices of an explicit module document: M[k][j] is the
    coefficient of k in alpha (x) j."""
    basis = module["basis"]
    pos = {b: i for i, b in enumerate(basis)}
    out: Dict[str, List[List[int]]] = {}
    for alpha, j, value in module["action"]:
        m = out.setdefault(alpha, [[0] * len(basis) for _ in basis])
        for k, c in value.items():
            m[pos[k]][pos[j]] = c
    return out


def verdict_errors(doc: dict, bound: Optional[int]) -> List[str]:
    verdict = doc.get("verdict") or {}
    if verdict.get("status") != "holds":
        return [f"verdict {verdict.get('status')!r}: {verdict.get('witness')}"]
    if verdict.get("bound") != bound:
        return [f"verdict bound {verdict.get('bound')!r}, expected {bound!r}"]
    return []


def parse_induced(label: str) -> Tuple[str, str]:
    match = re.fullmatch(r"1_(.+)⊙(.+)", label)
    if match is None:
        raise ValueError(f"not an induced label: {label!r}")
    return match.group(1), match.group(2)


# --- lazy-windows ------------------------------------------------------------------

FREE_UNIT = "ε"
SU2_LABEL = re.compile(r"x[0-9]+")


def lazy_windows(rng: random.Random) -> Workload:
    labels = Labels(rng)
    e2, g = labels.take(2)
    e3, a, b = labels.take(3)
    letter_of = {g: (0, 1), a: (1, 1), b: (1, 2)}
    token_of = {v: k for k, v in letter_of.items()}

    def decode(label: str) -> Tuple[orc.Letter, ...]:
        if label == FREE_UNIT:
            return ()
        if len(label) % 2:
            raise ValueError(f"label {label!r} is not a word of tokens")
        return tuple(letter_of[label[i:i + 2]] for i in range(0, len(label), 2))

    def encode(word: Sequence[orc.Letter]) -> str:
        return "".join(token_of[x] for x in word) or FREE_UNIT

    z2 = group_ring_doc([e2, g], cyclic_table(2))
    z3 = group_ring_doc([e3, a, b], cyclic_table(3))
    free = {"kind": "construct", "construct": "free_product",
            "left": "z2.json", "right": "z3.json"}
    files = {
        "z2.json": z2,
        "z3.json": z3,
        "free.json": free,
        "free-left.json": {"kind": "embedding", "canonical": "free_left",
                           "ambient": free},
        "su2.json": {"kind": "construct", "construct": "su2"},
    }

    # two depth-6 words that meet on the same side, so the product reduces,
    # and that do not commute, so the order of the factors shows
    words6 = orc.reduced_words(6)
    left = rng.choice(words6)
    right = rng.choice([w for w in words6 if w[0][0] == left[-1][0]
                        and orc.reduce_word(left + w) != orc.reduce_word(w + left)])
    want = {encode(orc.reduce_word(left + right)): 1}

    def check_product(doc: dict, _: str) -> List[str]:
        got = doc["result"]["product"]
        return [] if got == want else [f"product {got} ≠ word oracle {want}"]

    sub_letter = {e2: (), g: ((0, 1),)}
    z2_label = [e2, g]
    z2_value = {e2: 0, g: 1}

    def check_divisible(doc: dict, _: str) -> List[str]:
        errors = verdict_errors(doc, 7)
        factorization = doc["result"]["certificate"]["factorization"]
        # the window at depth 7 is every word of length <= 7; a class
        # representative of length 7 also factors the words one longer
        counts = Counter(len(decode(i)) for i in factorization)
        levels = [counts[k] for k in range(8)]
        if levels != orc.reduced_word_counts(7) or max(counts) > 8:
            errors.append(f"window sizes by level {sorted(counts.items())}")
        for i, (t, s) in factorization.items():
            if decode(i) != orc.reduce_word(sub_letter[s] + decode(t)):
                errors.append(f"factorization {i} = map({s})·{t} is wrong")
                break
        return errors

    def check_cache(workdir: str) -> List[str]:
        """Every product the cache logged must match its oracle.  Each log
        holds one ring: SU2, the free product, or its Z2 factor."""
        def z2_product(x: str, y: str) -> dict:
            return {z2_label[(z2_value[x] + z2_value[y]) % 2]: 1}

        def su2_product(x: str, y: str) -> dict:
            return {f"x{k}": c for k, c in
                    orc.clebsch_gordan(int(x[1:]), int(y[1:])).items()}

        def free_product(x: str, y: str) -> dict:
            return {encode(orc.reduce_word(decode(x) + decode(y))): 1}

        cache = os.path.join(workdir, "cache")
        rings = Counter()
        for name in sorted(os.listdir(cache)):
            with open(os.path.join(cache, name), encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            labels = {x for r in records for x in (r["a"], r["b"], *r["v"])}
            if all(SU2_LABEL.fullmatch(x) for x in labels):
                ring, oracle = "su2", su2_product
            elif labels <= set(z2_value):
                ring, oracle = "z2", z2_product
            else:
                ring, oracle = "free", free_product
            rings[ring] += len(records)
            for rec in records:
                want_v = oracle(rec["a"], rec["b"])
                if rec["v"] != want_v:
                    return [f"cached {ring} product {rec} ≠ oracle {want_v}"]
        if not (rings["su2"] and rings["free"]):
            return [f"cache logs hold too few rings: {dict(rings)}"]
        return []

    commands = [
        Command(["validate", "free.json", "--depth", "6"],
                lambda doc, _: verdict_errors(doc, 6)),
        Command(["product", "free.json", encode(left), encode(right),
                 "--depth", "6"], check_product),
        # --no-cache: a replayed log leaves the embedding's ambient words
        # unregistered, and divisible then exits 4 (see bench/README.md)
        Command(["divisible", "free.json", "--sub", "free-left.json",
                 "--depth", "7", "--no-cache"], check_divisible),
        Command(["validate", "su2.json", "--depth", "20"],
                lambda doc, _: verdict_errors(doc, 20)),
    ]
    return Workload("lazy-windows", files, commands, uses_cache=True,
                    final_check=check_cache)


# --- finite-induction --------------------------------------------------------------

N = 48
HALF = N // 2


def finite_induction(rng: random.Random) -> Workload:
    labels = Labels(rng)
    zn = labels.take(N)
    value = {label: k for k, label in enumerate(zn)}
    z2 = labels.take(2)
    bit = {label: k for k, label in enumerate(z2)}
    (j,) = labels.take(1)
    zn_doc = explicit_group_ring(zn, cyclic_table(N), [(-k) % N for k in range(N)])
    z2_doc = explicit_group_ring(z2, cyclic_table(2), [0, 1])
    emb_map = {z2[0]: zn[0], z2[1]: zn[HALF]}

    # the certificate: class representatives 0..HALF-1, and i = s + t
    cert = {"kind": "certificate",
            "embedding": {"kind": "embedding", "sub": z2_doc, "ambient": zn_doc,
                          "map": emb_map},
            "classes": zn[:HALF],
            "factorization": {zn[i]: [zn[i % HALF], z2[i // HALF]]
                              for i in range(N)},
            "verified_depth": 4, "exhaustive": True}

    s4 = perm_group(4)
    s3 = perm_group(4, lambda p: p[3] == 3)
    s4_labels = labels.take(len(s4))
    s3_labels = labels.take(len(s3))
    perm_of = dict(zip(s4_labels, s4))
    perm_of.update(zip(s3_labels, s3))
    s4_label = dict(zip(s4, s4_labels))
    s3_map = {s3_labels[k]: s4_label[p] for k, p in enumerate(s3)}
    # right cosets S3·t are fixed by t^-1(3); representative: the first
    # permutation of each coset, the identity for S3 itself
    reps: Dict[int, orc.Perm] = {}
    for p in s4:
        reps.setdefault(orc.inverse(p)[3], p)
    s4_factor = {}
    for i in s4:
        t = reps[orc.inverse(i)[3]]
        s4_factor[s4_label[i]] = [s4_label[t], s3_labels[s3.index(
            orc.compose(i, orc.inverse(t)))]]
    s4_doc = group_ring_doc(s4_labels, perm_table(s4))
    s3_doc = group_ring_doc(s3_labels, perm_table(s3))
    cert_s4 = {"kind": "certificate",
               "embedding": {"kind": "embedding", "sub": s3_doc,
                             "ambient": s4_doc, "map": s3_map},
               "classes": [s4_label[reps[k]] for k in sorted(reps)],
               "factorization": s4_factor,
               "verified_depth": 4, "exhaustive": True}

    files = {
        "zn.json": zn_doc,
        "z2.json": z2_doc,
        "emb.json": {"kind": "embedding", "sub": "z2.json", "ambient": "zn.json",
                     "map": emb_map},
        "cert.json": cert,
        "triv.json": module_doc("z2.json", [j], [[z2[1], j, {j: 1}]]),
        "std2.json": {"kind": "module", "standard_of": "z2.json"},
        "stdn.json": {"kind": "module", "standard_of": "zn.json"},
        "ind-triv.json": {"kind": "module", "induced": {
            "source": "triv.json", "certificate": "cert.json"}},
        "idn.json": {"kind": "embedding", "canonical": "identity",
                     "ring": "zn.json"},
        "s4.json": s4_doc,
        "s3.json": s3_doc,
        "s3-in-s4.json": {"kind": "embedding", "sub": "s3.json",
                          "ambient": "s4.json", "map": s3_map},
        "cert-s4.json": cert_s4,
        "triv-s3.json": module_doc("s3.json", [j], [[h, j, {j: 1}]
                                                    for h in s3_labels[1:]]),
        "ind-s3.json": {"kind": "module", "induced": {
            "source": "triv-s3.json", "certificate": "cert-s4.json"}},
        "id-s4.json": {"kind": "embedding", "canonical": "identity",
                       "ring": "s4.json"},
    }

    def check_divisible_n(doc: dict, workdir: str) -> List[str]:
        errors = verdict_errors(doc, None)
        certificate = doc["result"]["certificate"]
        if len(certificate["classes"]) != HALF:
            errors.append(f"{len(certificate['classes'])} classes, not {HALF}")
        for i, (t, s) in certificate["factorization"].items():
            if value[i] != orc.add_mod(value[emb_map[s]], value[t], N):
                errors.append(f"factorization {i} = {s} + {t} is wrong mod {N}")
                break
        with open(os.path.join(workdir, "cert-out.json"), encoding="utf-8") as fh:
            if json.load(fh) != certificate:
                errors.append("--out certificate differs from the printed one")
        return errors

    def check_induce(rank: int) -> Check:
        def check(doc: dict, _: str) -> List[str]:
            errors = verdict_errors(doc, None)
            result = doc["result"]
            got = (result["basis_size"], result["classes"],
                   result["torsion"]["status"])
            if got != (rank * HALF, HALF, "holds"):
                errors.append(f"induced (rank, classes, torsion) = {got}")
            return errors
        return check

    def check_standardize(doc: dict, _: str) -> List[str]:
        errors = verdict_errors(doc, None)
        f = doc["result"]["bijection"]
        for beta in z2:
            for x in z2:
                lhs = f[z2[orc.add_mod(bit[beta], bit[x], 2)]]
                rhs = z2[orc.add_mod(bit[beta], bit[f[x]], 2)]
                if lhs != rhs:
                    errors.append(f"bijection does not intertwine at ({beta}, {x})")
        return errors

    def check_restrict_std(doc: dict, _: str) -> List[str]:
        errors = verdict_errors(doc, None)
        summands = doc["result"]["summands"]
        if doc["result"]["count"] != HALF or len(summands) != HALF:
            return errors + [f"{doc['result']['count']} summands, not {HALF}"]
        for summand in summands:
            pair = sorted(value[x] for x in summand["basis"])
            if len(pair) != 2 or pair[1] != pair[0] + HALF:
                errors.append(f"summand basis {summand['basis']} is not a coset")
                break
            swap = matrices(summand)[z2[1]]
            if not (swap[0][1] == swap[1][0] == 1 and swap[0][0] == swap[1][1] == 0):
                errors.append("the subring generator does not swap a summand")
                break
        return errors

    def check_coset_action(point_of: Callable[[str], int],
                           act: Callable[[str, int], int], size: int) -> Check:
        """The induced module, restricted along the identity, is one
        summand whose action moves the coset of each basis label as the
        oracle moves it."""
        def check(doc: dict, _: str) -> List[str]:
            errors = verdict_errors(doc, None)
            summands = doc["result"]["summands"]
            if len(summands) != 1 or len(summands[0]["basis"]) != size:
                return errors + ["induced module is not one summand of rank "
                                 f"{size}"]
            basis = summands[0]["basis"]
            point = {x: point_of(parse_induced(x)[0]) for x in basis}
            if sorted(point.values()) != list(range(size)):
                return errors + ["induced basis does not biject onto cosets"]
            for alpha, m in matrices(summands[0]).items():
                if not orc.is_permutation_matrix(m):
                    return errors + [f"{alpha} does not act by a permutation"]
                for col, x in enumerate(basis):
                    row = next(r for r in range(size) if m[r][col])
                    if point[basis[row]] != act(alpha, point[x]):
                        return errors + [f"{alpha} moves {x} to {basis[row]}, "
                                         "not as the coset oracle says"]
            return errors
        return check

    # 1_t ⊙ j stands for the coset of conj(t): -t mod HALF, or t^-1(3)
    # in S4, which S4 moves by the permutation itself
    coset_n = check_coset_action(lambda t: (-value[t]) % HALF,
                                 lambda a, c: (value[a] + c) % HALF, HALF)
    coset_s4 = check_coset_action(
        lambda t: orc.coset_point(orc.inverse(perm_of[t]), 3),
        lambda a, c: perm_of[a][c], 4)

    def check_divisible_s4(doc: dict, _: str) -> List[str]:
        errors = verdict_errors(doc, None)
        certificate = doc["result"]["certificate"]
        if len(certificate["classes"]) != 4:
            errors.append(f"{len(certificate['classes'])} classes, not 4")
        for i, (t, s) in certificate["factorization"].items():
            if perm_of[i] != orc.compose(perm_of[s], perm_of[t]):
                errors.append(f"factorization {i} = {s}·{t} is wrong in S4")
                break
        return errors

    commands = [
        Command(["validate", "zn.json"], lambda doc, _: verdict_errors(doc, None)),
        Command(["divisible", "zn.json", "--sub", "emb.json",
                 "--out", "cert-out.json"], check_divisible_n),
        Command(["induce", "triv.json", "--cert", "cert.json"], check_induce(1)),
        Command(["induce", "std2.json", "--cert", "cert.json"], check_induce(2)),
        Command(["standardize", "std2.json", "--cert", "cert.json"],
                check_standardize),
        Command(["restrict", "stdn.json", "--embed", "emb.json", "--decompose"],
                check_restrict_std),
        Command(["restrict", "ind-triv.json", "--embed", "idn.json",
                 "--decompose"], coset_n),
        Command(["divisible", "s4.json", "--sub", "s3-in-s4.json"],
                check_divisible_s4),
        Command(["induce", "triv-s3.json", "--cert", "cert-s4.json"],
                lambda doc, _: verdict_errors(doc, None)),
        Command(["restrict", "ind-s3.json", "--embed", "id-s4.json",
                 "--decompose"], coset_s4),
    ]
    return Workload("finite-induction", files, commands)


# --- census-reps ---------------------------------------------------------------------

REP_N = 12


def census_reps(rng: random.Random) -> Workload:
    labels = Labels(rng)
    files: Dict[str, dict] = {}
    commands: List[Command] = []

    def census_check(want: List[int], permutations: bool) -> Check:
        def check(doc: dict, _: str) -> List[str]:
            errors = verdict_errors(doc, None)
            modules = doc["result"]["census"]["modules"]
            ranks = sorted(len(m["basis"]) for m in modules)
            if ranks != want:
                errors.append(f"census ranks {ranks}, oracle {want}")
            if permutations and not all(orc.is_permutation_matrix(m)
                                        for module in modules
                                        for m in matrices(module).values()):
                errors.append("an action matrix is not a permutation matrix")
            return errors
        return check

    groups = {
        "z4.json": cyclic_table(4),
        "s3.json": perm_table(perm_group(3)),
        "z2z2.json": [[a ^ b for b in range(4)] for a in range(4)],
    }
    for name, table in groups.items():
        files[name] = group_ring_doc(labels.take(len(table)), table)
        want = orc.transitive_gset_ranks(orc.FiniteGroup(table), CENSUS_RANK)
        commands.append(Command(
            ["enumerate", name, "--max-rank", str(CENSUS_RANK),
             "--max-coeff", str(CENSUS_COEFF)], census_check(want, True)))

    # Rep(S3): characters from the permutation action on three points
    s3 = perm_group(3)

    def sign(p: orc.Perm) -> int:
        return (-1) ** sum(p[i] > p[k] for i in range(3) for k in range(i + 1, 3))

    characters = [{x: 1 for x in range(6)},
                  {x: sign(p) for x, p in enumerate(s3)},
                  {x: sum(p[i] == i for i in range(3)) - 1
                   for x, p in enumerate(s3)}]
    # classes by fixed points: identity (3), transpositions (1), 3-cycles (0)
    class_of = [{3: 0, 1: 1, 0: 2}[sum(p[i] == i for i in range(3))] for p in s3]
    class_labels = labels.take(3)
    irrep_labels = labels.take(3)
    files["rep-s3.json"] = {"kind": "construct", "construct": "rep_ring",
                            "character_table": {
        "classes": [{"label": class_labels[c], "size": size}
                    for c, size in enumerate([1, 3, 2])],
        "irreps": [{"label": irrep_labels[r],
                    "values": [next(chi[x] for x in range(6) if class_of[x] == c)
                               for c in range(3)]}
                   for r, chi in enumerate(characters)]}}
    want = orc.rep_module_ranks(orc.FiniteGroup(perm_table(s3)), characters,
                                CENSUS_RANK, CENSUS_COEFF)
    commands.append(Command(
        ["enumerate", "rep-s3.json", "--max-rank", str(CENSUS_RANK),
         "--max-coeff", str(CENSUS_COEFF)], census_check(want, False)))

    # Rep(Z/12) from its character table: chi_j(c_k) = zeta^(jk)
    chi = labels.take(REP_N)
    cls = labels.take(REP_N)

    def zeta_power(e: int):
        return 1 if e % REP_N == 0 else {"zeta": REP_N, "coeffs": {str(e % REP_N): 1}}

    files["rep-z12.json"] = {"kind": "construct", "construct": "rep_ring",
                             "character_table": {
        "classes": [{"label": cls[k], "size": 1} for k in range(REP_N)],
        "irreps": [{"label": chi[jj], "values": [zeta_power(jj * k)
                                                 for k in range(REP_N)]}
                   for jj in range(REP_N)]}}
    j, k = rng.randrange(1, REP_N), rng.randrange(1, REP_N)
    want_product = {chi[orc.add_mod(j, k, REP_N)]: 1}

    def check_product(doc: dict, _: str) -> List[str]:
        got = doc["result"]["product"]
        return [] if got == want_product else [f"product {got} ≠ {want_product}"]

    commands.append(Command(["product", "rep-z12.json", chi[j], chi[k]],
                            check_product))
    commands.append(Command(["validate", "rep-z12.json"],
                            lambda doc, _: verdict_errors(doc, None)))
    return Workload("census-reps", files, commands)


BUILDERS = {
    "lazy-windows": lazy_windows,
    "finite-induction": finite_induction,
    "census-reps": census_reps,
}


def build(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    workload = BUILDERS[name](rng)
    rng.shuffle(workload.commands)
    return workload
