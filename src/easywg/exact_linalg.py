"""Exact rational matrices indexed by partition sets.

Gram matrices of partition vectors and their exact (generalized) inverses
in the Weingarten role.  Inverses are computed from numpy int64 residues
modulo word-size primes, combined by CRT and rational reconstruction, and
certified exactly before they are returned.  All values are ints or
fractions.Fraction; no floating point enters this module.

A Gram matrix is stored as its join block counts, and the residues of
N^count modulo a prime come from a table of powers indexed by the counts.
A Weingarten matrix is stored as its block on basis x basis.  The full
n x n views, ``GramMatrix.entries`` and ``WeingartenMatrix.numerators``,
are built on first access.  A disk record, the one full matrix read in,
must be zero outside its basis before its block is certified.

numpy is imported inside the functions that compute with it, so importing
this module, and every command that builds no matrix, never loads it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, prod
from typing import TYPE_CHECKING, Sequence

from .partitions import (
    CategoryId,
    CategoryLike,
    ColoredWord,
    SetPartition,
    WordLike,
    as_category,
    as_word,
    enumerate_partitions,
)

if TYPE_CHECKING:
    import numpy as np


def format_scalar(x) -> str:
    """Canonical "p/q" form with q > 0, denominator always explicit."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_scalar(text: str) -> Fraction:
    return Fraction(text)


@dataclass(frozen=True)
class GramMatrix:
    """Inner products of partition vectors: entries N^{|pi v sigma|}, kept
    as the join block counts |pi v sigma|."""

    category: CategoryId
    word: ColoredWord
    dimension: int
    index: tuple[SetPartition, ...]
    counts: np.ndarray = field(compare=False, repr=False)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        powers = [self.dimension**c for c in range(len(self.word) + 1)]
        return tuple(tuple(map(powers.__getitem__, row)) for row in self.counts.tolist())


def gram_matrix(category: CategoryLike, word: WordLike, dimension: int) -> GramMatrix:
    """Gram matrix over the category's partition set for the word.

    Entry (pi, sigma) is dimension ** (number of blocks of the join), the
    exhaustive inner product of the two 0/1 partition vectors.
    """
    category = as_category(category)
    word = as_word(word)
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    index = tuple(enumerate_partitions(category, word))
    return GramMatrix(category, word, dimension, index, _join_block_counts(index, len(word)))


# Elements of the (k, rows, n) mask array built per slab of Gram rows.
_SLAB = 1 << 22


def _join_block_counts(index: Sequence[SetPartition], k: int) -> np.ndarray:
    """|pi v sigma| for every pair of partitions of {1, ..., k}, as an n x n array.

    Each partition is one bitmask per point, the mask of that point's block.
    A pair's masks ORed point by point relate the points that share a block
    of either partition; one Warshall pass (point j's mask is ORed into
    every mask that contains j) closes the relation, after which each point
    holds the mask of its block of the join.  A block is counted at its
    lowest point: the point whose mask has no lower bit set.
    """
    import numpy as np

    n = len(index)
    if n == 0:
        return np.zeros((0, 0), dtype=np.intp)
    dtype = np.min_scalar_type((1 << k) - 1)
    bits = np.array([1 << j for j in range(k)], dtype=dtype)
    rgs = np.array([p.rgs for p in index], dtype=np.intp)
    masks = ((rgs[:, :, None] == rgs[:, None, :]) * bits).sum(axis=2, dtype=dtype).T
    below = (bits - 1).reshape(k, 1, 1)
    counts = np.empty((n, n), dtype=np.intp)
    step = max(1, _SLAB // (n * max(k, 1)))
    for a in range(0, n, step):
        m = masks[:, a:a + step, None] | masks[:, None, :]
        for j in range(k):
            m |= ((m >> j) & 1) * m[j]
        counts[a:a + step] = ((m & below) == 0).sum(axis=0)
    return counts


@dataclass(frozen=True)
class WeingartenMatrix:
    """Generalized inverse of a Gram matrix, supported on a basis subset.

    ``block[a][b] / denominator`` is the entry at positions basis[a],
    basis[b] of the full index, the exact inverse of the Gram restriction
    to basis x basis; rows and columns outside ``basis`` are zero.
    """

    source: GramMatrix
    basis: tuple[int, ...]
    denominator: int
    block: tuple[tuple[int, ...], ...]

    @property
    def index(self) -> tuple[SetPartition, ...]:
        return self.source.index

    @cached_property
    def numerators(self) -> tuple[tuple[int, ...], ...]:
        """The n x n numerators: block on basis x basis, zeros elsewhere."""
        n = len(self.index)
        rows = [(0,) * n] * n
        for i, row in zip(self.basis, self.block):
            line = [0] * n
            for j, x in zip(self.basis, row):
                line[j] = x
            rows[i] = tuple(line)
        return tuple(rows)

    @property
    def entries(self) -> list[list[Fraction]]:
        d = self.denominator
        return [[Fraction(x, d) for x in row] for row in self.numerators]


# Multi-modular engine.  Residues live in numpy int64 arrays modulo primes
# below 2**26: a product of two residues is below 2**52, so a sum of up to
# 2**11 products plus one reduced residue stays below 2**63, and every
# intermediate of the sweep, the products and the CRT is exact.  The same
# bound, _CHUNK * (p - 1)**2 + p < 2**63, lets the sweep subtract _CHUNK
# pivot updates from an entry before it reduces the matrix modulo p again.
_PRIME_LIMIT = 1 << 26
_CHUNK = 1 << 11


@lru_cache(maxsize=None)
def _prime(i: int) -> int:
    """The i-th prime below 2**26, counting down from the largest.  Callers
    ask for i = 0, 1, 2, ... in turn, so the recursion is one level deep."""
    c = _prime(i - 1) - 2 if i else _PRIME_LIMIT - 1
    while any(c % d == 0 for d in range(3, isqrt(c) + 1, 2)):
        c -= 2
    return c


def _residues(gram: GramMatrix, p: int) -> np.ndarray:
    """The Gram matrix modulo p as int64, from a table of N^c modulo p."""
    import numpy as np

    powers = [pow(gram.dimension, c, p) for c in range(len(gram.word) + 1)]
    return np.array(powers, dtype=np.int64)[gram.counts]


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b modulo p, reducing after every 2**11 terms of each inner sum."""
    out = a[:, :_CHUNK] @ b[:_CHUNK]
    out %= p
    for s in range(_CHUNK, a.shape[1], _CHUNK):
        out += a[:, s:s + _CHUNK] @ b[s:s + _CHUNK]
        out %= p
    return out


def _sweep(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Symmetric sweep of the residue matrix a modulo p (Goodnight, 1979).

    Diagonals are swept in index order, and one that is 0 modulo p is
    skipped.  Sweeping c subtracts a[i, c] * a[c, j] / a[c, c] from every
    other entry, divides row and column c by a[c, c] and sets a[c, c] to
    -1 / a[c, c].  After the swept set B, a[B, B] = -G[B, B]^-1 and the
    diagonal at c is the Schur complement of G[c, c] against the swept
    indices before c.

    Over Q a Gram matrix is positive semidefinite, so a zero Schur diagonal
    means a zero Schur row: B is then the greedy row rank profile.  Modulo
    p every swept prefix block is nonsingular, so B never has a larger
    _profile_key than the profile over Q.  Column c is reduced when used
    and the whole matrix every _CHUNK sweeps.  Overwrites a; returns B and
    G[B, B]^-1 modulo p.
    """
    import numpy as np

    swept: list[int] = []
    for c in range(a.shape[0]):
        col = a[:, c] % p
        if col[c] == 0:
            continue
        inv = pow(int(col[c]), -1, p)
        row = col * inv % p
        a -= np.outer(col, row)
        a[c] = a[:, c] = row
        a[c, c] = -inv % p
        swept.append(c)
        if len(swept) % _CHUNK == 0:
            a %= p
    return swept, -a[np.ix_(swept, swept)] % p


def _crt(residues: list, primes: list[int]) -> np.ndarray:
    """Residue matrices combined into Python ints in [0, prod(primes)).

    Garner's mixed-radix digits are computed in int64; only the final
    Horner sum runs on Python ints.
    """
    digits: list[np.ndarray] = []
    for x, p in zip(residues, primes):
        for d, q in zip(digits, primes):
            x = (x - d) % p * pow(q, -1, p) % p
        digits.append(x)
    value = digits[-1].astype(object)
    for d, q in zip(digits[-2::-1], primes[-2::-1]):
        value = value * q + d.astype(object)
    return value


def _denominator(a: int, m: int, bound: int) -> "int | None":
    """The v with 0 < v <= bound and v*a = u (mod m), |u| <= bound,
    gcd(u, v) = 1, by the half-extended Euclidean algorithm; else None."""
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return abs(t1)


def _reconstruct(value: np.ndarray, modulus: int):
    """One common denominator d and the integer matrix d*value.

    Rational reconstruction with numerators and denominator bounded by
    sqrt(modulus/2): d grows by the denominator of the first entry that
    d*value does not yet make small.  None when the modulus is too small.
    """
    import numpy as np

    bound = isqrt(modulus // 2)
    half = modulus // 2
    d = 1
    while True:
        y = value * d % modulus
        y = np.where(y > half, y - modulus, y)
        big = np.flatnonzero(np.abs(y) > bound)
        if big.size == 0:
            return d, y
        q = _denominator(int(y.flat[big[0]]) % modulus, modulus, bound)
        if q is None or q < 2 or d * q > bound:
            return None
        d *= q


def _profile_key(profile: list[int], n: int) -> list[int]:
    """Prefix ranks of a row profile.  Over Q every prefix of the matrix has
    at least the rank it has modulo a prime, so the profile over Q has the
    largest key of all."""
    import numpy as np

    return np.cumsum(np.bincount(profile, minlength=n)).tolist()


def weingarten_matrix(gram: GramMatrix) -> WeingartenMatrix:
    """Invert a Gram matrix, falling back to a canonical generalized inverse.

    The basis is the greedy row rank profile: the index is scanned in
    canonical order and a row is kept exactly when it is not in the span of
    the rows already kept.  The kept block is inverted exactly, so an
    invertible input yields its exact inverse with basis equal to the full
    index.

    Multi-modular: each prime's _sweep gives a profile and the inverse of
    its kept block.  Residues are combined, by CRT and rational
    reconstruction with one common denominator, across the primes whose
    profile has the largest _profile_key seen so far; a larger key starts
    the combination again.  The result is returned only after the exact
    certificate of _certify; a failed reconstruction or certificate adds
    primes.
    """
    import numpy as np

    n = len(gram.index)
    if n == 0:
        return WeingartenMatrix(gram, (), 1, ())
    key: list[int] = []
    primes: list[int] = []
    inverses: list[np.ndarray] = []
    i = 0
    while True:
        p = _prime(i)
        i += 1
        swept, inv = _sweep(_residues(gram, p), p)
        seen = _profile_key(swept, n)
        if seen < key:  # p divides a Schur diagonal of a profile already seen
            continue
        if seen > key:
            basis, key, primes, inverses = swept, seen, [], []
        primes.append(p)
        inverses.append(inv)
        rec = _reconstruct(_crt(inverses, primes), prod(primes))
        if rec is None:
            continue
        den, num = rec
        g = gcd(den, *num.flat)
        wg = WeingartenMatrix(gram, tuple(basis), den // g,
                              tuple(map(tuple, (num // g).tolist())))
        if _certify(wg):
            return wg


def _certify(wg: WeingartenMatrix) -> bool:
    """Exact proof that wg is the canonical Weingarten matrix of its Gram matrix.

    With G the Gram matrix, num = block, den = denominator and B the basis
    (r indices): B is strictly increasing, num is a symmetric r x r block,
    and, writing W for the matrix that is num/den on B x B and zero
    elsewhere,

      1. G[B,B] . num = den . I
      2. G . W . G = G
      3. (G[:,B] . num)[c, b] = 0 for every row c outside B and b in B, b > c.

    (1) and (2) make W a generalized inverse of G supported on an
    independent set of rows spanning the row space; (3) says every other
    row depends only on the kept rows before it, so B is the greedy rank
    profile over Q and W the unique such inverse.  Given (1), (2) holds on
    the rows of B, so only the rows outside B are multiplied out.  All
    identities are checked modulo primes whose product exceeds twice an
    a-priori bound on both sides, which makes every check exact.
    """
    import numpy as np

    gram = wg.source
    n = len(gram.index)
    den = wg.denominator
    basis = list(wg.basis)
    r = len(basis)
    if den < 1 or basis != sorted(set(basis)) or any(not 0 <= b < n for b in basis):
        return False
    if len(wg.block) != r or any(len(row) != r for row in wg.block):
        return False
    w = np.array(wg.block, dtype=object).reshape(r, r)
    if (w != w.T).any():
        return False
    if n == 0:
        return True
    kept = set(basis)
    out = [i for i in range(n) if i not in kept]
    b = np.array(basis, dtype=np.intp)
    later = b[None, :] > np.array(out, dtype=np.intp)[:, None]
    max_g = gram.dimension ** int(gram.counts.max())
    max_w = int(abs(w).max()) if r else 0
    bound = r * r * max_g * max_g * max_w + den * max_g
    modulus, i = 1, 0
    while modulus <= 2 * bound:
        p = _prime(i)
        i += 1
        modulus *= p
        ap = _residues(gram, p)
        y = _matmul_mod(ap[:, b], (w % p).astype(np.int64), p)  # (G[:,B] . num)
        if not np.array_equal(y[b], np.eye(r, dtype=np.int64) * (den % p)):
            return False
        if y[out][later].any():
            return False
        rhs = ap[out]
        rhs *= den % p
        rhs %= p
        if not np.array_equal(_matmul_mod(y[out], ap[b], p), rhs):
            return False
    return True


_MEMO: dict = {}
_DISK_DIR: str | None = None


def set_disk_cache(directory: "str | None") -> None:
    """Enable (or disable with None) the on-disk Weingarten record store."""
    global _DISK_DIR
    if directory is not None:
        os.makedirs(directory, exist_ok=True)
    _DISK_DIR = directory


def clear_memo() -> None:
    _MEMO.clear()


def _cache_key(category: CategoryId, word: ColoredWord, dimension: int):
    # Color-blind categories share one record per word length.
    wkey = word.text if category.color_sensitive else "o" * len(word)
    return (category.value, wkey, dimension)


def _record_path(key) -> str:
    cat, wkey, dim = key
    safe = cat.replace("+", "p")
    return os.path.join(_DISK_DIR, f"wg_{safe}_{wkey or 'e'}_{dim}.json")


def _to_record(key, wg: WeingartenMatrix) -> dict:
    return {
        "category": key[0],
        "word": key[1],
        "dimension": key[2],
        "basis": list(wg.basis),
        "entries": [[format_scalar(Fraction(x, wg.denominator)) for x in row]
                    for row in wg.numerators],
    }


def _from_record(record: dict, key, gram: GramMatrix) -> "WeingartenMatrix | None":
    """The record's matrix if its header names the key, its entries are n x n
    with a basis in range and zeros outside basis x basis, and its block
    passes the engine's certificate against the freshly built Gram matrix."""
    try:
        if [record["category"], record["word"], record["dimension"]] != list(key):
            return None
        basis = tuple(int(b) for b in record["basis"])
        rows = [[parse_scalar(x) for x in row] for row in record["entries"]]
    except (KeyError, ValueError, TypeError, ZeroDivisionError):
        return None
    n = len(gram.index)
    kept = set(basis)
    if (len(rows) != n or any(len(row) != n for row in rows) or not kept <= set(range(n))
            or any(x for i, row in enumerate(rows) for j, x in enumerate(row)
                   if i not in kept or j not in kept)):
        return None
    den = lcm(*(rows[i][j].denominator for i in basis for j in basis))
    block = tuple(tuple(int(rows[i][j] * den) for j in basis) for i in basis)
    wg = WeingartenMatrix(gram, basis, den, block)
    return wg if _certify(wg) else None


def _write_record(key, wg: WeingartenMatrix) -> None:
    """Store a record atomically; on failure no temporary file is left and
    the run goes on without the record."""
    import tempfile

    try:
        fd, tmp = tempfile.mkstemp(dir=_DISK_DIR, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(_to_record(key, wg), fh)
        os.replace(tmp, _record_path(key))
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass


def get_weingarten(
    category: CategoryLike, word: WordLike, dimension: int
) -> WeingartenMatrix:
    """Memoized Weingarten matrix for (category, word, dimension).

    The in-process cache is shared and its writes are idempotent, so
    concurrent use is safe.  When a disk directory is configured, records
    are re-certified against a freshly built Gram matrix, with the same
    certificate as a new build, before being trusted; a record that fails
    is rebuilt and overwritten.
    """
    category = as_category(category)
    word = as_word(word)
    key = _cache_key(category, word, dimension)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    gram = gram_matrix(category, ColoredWord.parse(key[1]), dimension)
    wg = None
    if _DISK_DIR is not None:
        try:
            with open(_record_path(key)) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = None
        if isinstance(record, dict):
            wg = _from_record(record, key, gram)
    if wg is None:
        wg = weingarten_matrix(gram)
        if _DISK_DIR is not None:
            _write_record(key, wg)
    _MEMO[key] = wg
    return wg
