"""Output checks that do not rest on easywg's own results.

Every expected value here comes from a closed form or from a property the
Weingarten method must have, computed with this file's own combinatorics.
Nothing in this module imports easywg.  Partitions are restricted-growth
tuples; categories and words are the strings the command line uses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np

# ---------------------------------------------------------------------------
# Counting.


def bell(k: int) -> int:
    return sum(stirling2(k, j) for j in range(k + 1))


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def odd_double_factorial(m: int) -> int:
    """(2m - 1)!!, the number of pairings of 2m points."""
    return math.prod(range(1, 2 * m, 2))


@lru_cache(maxsize=None)
def stirling2(k: int, j: int) -> int:
    if k == j:
        return 1
    if j == 0 or j > k:
        return 0
    return j * stirling2(k - 1, j) + stirling2(k - 1, j - 1)


def narayana(k: int, j: int) -> int:
    """Noncrossing partitions of k points with j blocks."""
    if k == 0:
        return int(j == 0)
    if not 1 <= j <= k:
        return 0
    return math.comb(k, j) * math.comb(k, j - 1) // k


def _nc_colour_matchings(word: str) -> int:
    """Noncrossing pairings of the word's legs, each pair joining o with b."""

    @lru_cache(maxsize=None)
    def count(lo: int, hi: int) -> int:
        if lo >= hi:
            return 1
        return sum(
            count(lo + 1, t) * count(t + 1, hi)
            for t in range(lo + 1, hi, 2)
            if word[lo] != word[t]
        )

    return count(0, len(word)) if len(word) % 2 == 0 else 0


def partition_count(category: str, word: str) -> int:
    """Size of the category's partition set for the word."""
    k = len(word)
    if category == "S":
        return bell(k)
    if category == "S+":
        return catalan(k)
    if k % 2:
        return 0
    if category == "O":
        return odd_double_factorial(k // 2)
    if category == "O+":
        return catalan(k // 2)
    if category == "U":
        return math.factorial(k // 2) if word.count("o") == k // 2 else 0
    if category == "U+":
        return _nc_colour_matchings(word)
    raise ValueError(f"unknown category {category!r}")


def alternating(k: int) -> str:
    return ("ob" * k)[:k]


def block_sum(category: str, k: int, t: Fraction) -> Fraction:
    """Sum of t^|pi| over the category's set for the all-o word of length k
    (the alternating word for U and U+)."""
    t = Fraction(t)
    if category == "S":
        return sum((stirling2(k, j) * t**j for j in range(k + 1)), Fraction(0))
    if category == "S+":
        return sum((narayana(k, j) * t**j for j in range(k + 1)), Fraction(0))
    word = alternating(k) if category in ("U", "U+") else "o" * k
    return partition_count(category, word) * t ** (k // 2)


# Free (S+, O+) adds noncrossing, O adds pairing: an intersection of the
# S/O-type sets is the category carrying the union of the properties.
_PROPERTIES = {
    "S": frozenset(),
    "S+": frozenset({"nc"}),
    "O": frozenset({"pair"}),
    "O+": frozenset({"nc", "pair"}),
}


def intersection_category(categories) -> str:
    props = frozenset().union(*(_PROPERTIES[c] for c in categories))
    return next(c for c, p in _PROPERTIES.items() if p == props)


# ---------------------------------------------------------------------------
# Closed-form moments.


def falling(n: int, d: int) -> int:
    return math.prod(range(n - d + 1, n + 1))


def kernel(values) -> tuple[int, ...]:
    labels: dict = {}
    return tuple(labels.setdefault(v, len(labels)) for v in values)


def sn_group_moment(n: int, rows, cols) -> Fraction:
    """[ker rows = ker cols] (N - b)! / N!, b the number of blocks."""
    if kernel(rows) != kernel(cols):
        return Fraction(0)
    return Fraction(1, falling(n, len(set(rows))))


def sn_space_moment(n: int, m: int, indices) -> Fraction:
    """(m)_d / (N)_d for d distinct indices, rescaled coordinates."""
    d = len(set(indices))
    return Fraction(falling(m, d), falling(n, d))


def fixed_point_moment(k: int, n: int) -> Fraction:
    """k-th moment of the fixed-point count of S_N: sum_{j<=min(k,N)} S(k,j)."""
    return Fraction(sum(stirling2(k, j) for j in range(min(k, n) + 1)))


def word_count(length: int, coords: int) -> int:
    """Monomials of degree <= length in the given number of coordinates,
    each leg either plain or conjugated."""
    return sum((2 * coords) ** d for d in range(length + 1))


def relation_count(factors, max_k: int) -> int:
    """Sum over coloured words e of length <= max_k of prod_r |D_r(e)|."""
    total = 0
    for k in range(max_k + 1):
        for bits in range(2**k):
            e = "".join("b" if bits >> i & 1 else "o" for i in range(k))
            total += math.prod(partition_count(c, e) for c, _ in factors)
    return total


def verify_check_count(factors, max_k: int, test_degree: int) -> int:
    coords = math.prod(n for _, n in factors)
    return relation_count(factors, max_k) * word_count(test_degree, coords)


# ---------------------------------------------------------------------------
# Partitions.


def parse_partition(text: str, k: int) -> tuple[int, ...]:
    """Restricted-growth form of the command line's "12|34" (comma-separated
    points within a block once k > 9)."""
    label = [0] * k
    if text:
        for b, block in enumerate(text.split("|")):
            points = block.split(",") if k > 9 else list(block)
            for x in points:
                label[int(x) - 1] = b
    return kernel(label)


def blocks_of(rgs) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(max(rgs, default=-1) + 1)]
    for pos, b in enumerate(rgs):
        out[b].append(pos)
    return out


def join_blocks(*partitions) -> int:
    """Block count of the finest partition coarser than all the given ones."""
    parent = list(range(len(partitions[0])))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for rgs in partitions:
        for block in blocks_of(rgs):
            for x in block[1:]:
                ra, rb = find(block[0]), find(x)
                if ra != rb:
                    parent[rb] = ra
    return len({find(x) for x in range(len(parent))})


def is_noncrossing(rgs) -> bool:
    blocks = blocks_of(rgs)
    return not any(
        a < b < c < d
        for p in blocks for q in blocks if p is not q
        for a in p for c in p for b in q for d in q
    )


def is_member(category: str, word: str, rgs) -> bool:
    blocks = blocks_of(rgs)
    pairing = all(len(b) == 2 for b in blocks)
    matching = pairing and all(word[x] != word[y] for x, y in blocks)
    nc = is_noncrossing(rgs)
    return {
        "S": True, "S+": nc, "O": pairing, "O+": pairing and nc,
        "U": matching, "U+": matching and nc,
    }[category]


# ---------------------------------------------------------------------------
# Weingarten matrices.

_PRIME = 2**31 - 1


def rank_profile_mod_p(rows) -> list[int]:
    """Rows, in order, that are independent of the rows before them, mod a prime."""
    pivots: list[tuple[int, np.ndarray]] = []
    profile = []
    for i, row in enumerate(rows):
        r = np.array([x % _PRIME for x in row], dtype=np.int64)
        for col, v in pivots:
            if r[col]:
                r = (r - r[col] * v) % _PRIME
        nz = np.flatnonzero(r)
        if nz.size:
            col = int(nz[0])
            pivots.append((col, r * pow(int(r[col]), -1, _PRIME) % _PRIME))
            profile.append(i)
    return profile


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def check_weingarten(category, word, n, index, basis, denominator, numerators) -> list[str]:
    """Problems with a Weingarten matrix W = numerators / denominator.

    The index must be exactly the category's partition set for the word in
    canonical order, and with the Gram matrix G built here from its own
    joins: G W G = G and W G W = W exactly, W symmetric and zero outside the
    basis, and the basis the greedy row-rank profile of G (so its size is
    the rank of G).
    """
    errors = []
    index = [tuple(p) for p in index]
    size = len(index)
    if size != partition_count(category, word):
        errors.append(f"index has {size} partitions, expected {partition_count(category, word)}")
    if index != sorted(set(index)):
        errors.append("index is not strictly increasing")
    if any(len(p) != len(word) or not is_member(category, word, p) for p in index):
        errors.append("index holds a partition outside the category")
    a = [list(r) for r in numerators]
    if len(a) != size or any(len(r) != size for r in a) or denominator <= 0:
        return errors + ["matrix shape or denominator is wrong"]
    basis = list(basis)
    if any(a[i][j] != a[j][i] for i in range(size) for j in range(i)):
        errors.append("W is not symmetric")
    inside = set(basis)
    if any(a[i][j] for i in range(size) for j in range(size)
           if i not in inside or j not in inside):
        errors.append("W is nonzero outside the basis")
    g = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1):
            g[i][j] = g[j][i] = n ** join_blocks(index[i], index[j])
    # W vanishes outside the basis B, so G W G = G[:, B] W_BB G[B, :].
    ab = [[a[i][j] for j in basis] for i in basis]
    ga = _matmul([[row[j] for j in basis] for row in g], ab)
    gag = _matmul(ga, [g[i] for i in basis]) if basis else [[0] * size for _ in range(size)]
    if any(gag[i][j] != denominator * g[i][j] for i in range(size) for j in range(size)):
        errors.append("G W G != G")
    aga = _matmul(ab, [ga[i] for i in basis])
    if any(aga[x][y] != denominator * ab[x][y]
           for x in range(len(basis)) for y in range(len(basis))):
        errors.append("W G W != W")
    if rank_profile_mod_p(g) != basis:
        errors.append("basis is not the greedy row-rank profile of G")
    return errors


# ---------------------------------------------------------------------------
# Command outputs.


def _same(a, b) -> bool:
    return Fraction(a) == Fraction(b)


def check_payload(expect: dict, payload: dict) -> list[str]:
    """Problems with one easywg JSON document, given the operation's expectation."""
    if "value" in expect:
        ok = _same(payload["value"], expect["value"])
        return [] if ok else [f"value {payload['value']} != {expect['value']}"]
    if "weingarten" in expect:
        cat, word, n = expect["weingarten"]
        entries = [[Fraction(x) for x in row] for row in payload["entries"]]
        den = math.lcm(1, *(x.denominator for row in entries for x in row))
        return check_weingarten(
            cat, word, n, [parse_partition(t, len(word)) for t in payload["index"]],
            payload["basis"], den, [[int(x * den) for x in row] for row in entries])
    if "relations" in expect:
        errors = [] if payload["count"] == expect["relations"] == len(payload["relations"]) \
            else [f"{payload['count']} relations, expected {expect['relations']}"]
        for r in payload["relations"]:
            k = len(r["word"])
            parts = [parse_partition(p, k) for p in r["partitions"]]
            if not all(is_member(c, r["word"], p) for (c, _), p in zip(expect["factors"], parts)):
                errors.append(f"relation {r} uses a partition outside its category")
            jb = join_blocks(*parts)
            if (r["join_blocks"], r["rhs_exponent_halves"]) != (jb, 2 * jb - k):
                errors.append(f"relation {r} has the wrong right-hand side")
        return errors
    if "checked" in expect:
        got = (payload["checked"], payload["failed"], payload["all_passed"])
        return [] if got == (expect["checked"], 0, True) else [f"verify gave {got}"]
    if "moments" in expect:
        got = [m["value"] for m in payload["moments"]]
        ks = [m["k"] for m in payload["moments"]]
        ok = ks == list(range(1, len(got) + 1)) and len(got) == len(expect["moments"]) \
            and all(map(_same, got, expect["moments"]))
        return [] if ok else [f"moments {got} != {expect['moments']}"]
    if "bp" in expect:
        got = [[r["classical"], r["free"]] for r in payload["rows"]]
        ok = len(got) == len(expect["bp"]) and all(
            _same(a, c) and _same(b, d) for (a, b), (c, d) in zip(got, expect["bp"]))
        return [] if ok else [f"bp rows {got} != {expect['bp']}"]
    if "convergence" in expect:
        fields = ("ambient_dimension", "truncation", "t", "exact", "asymptotic", "difference")
        got = [[r[f] for f in fields] for r in payload["rows"]]
        ok = len(got) == len(expect["convergence"]) and all(
            a[:2] == b[:2] and all(map(_same, a[2:], b[2:]))
            for a, b in zip(got, expect["convergence"]))
        return [] if ok else [f"convergence rows {got} != {expect['convergence']}"]
    if "haar" in expect:
        exact = float(Fraction(expect["haar"]))
        est, se = payload["estimate"], payload["standard_error"]
        ok = abs(est - exact) <= 5 * se
        return [] if ok else [f"estimate {est} is more than 5 s.e. ({se}) from {exact}"]
    raise ValueError(f"no check for expectation {sorted(expect)}")
