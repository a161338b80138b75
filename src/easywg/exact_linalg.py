"""Exact rational matrices indexed by partition sets.

Gram matrices of partition vectors and their exact (generalized) inverses
in the Weingarten role, by one of two routes chosen by the number of
partitions n; all results are ints or fractions.Fraction.

Up to _SMALL partitions everything runs in Python ints and never imports
numpy: the join block counts come from partitions._join_blocks, one table
per category and word key shared by every N; the inverse comes from
fraction-free elimination (Bareiss, 1968); and the certificate multiplies
out in exact integers.  Importing numpy costs about a hundred
milliseconds, far more than this route on such a matrix, and most words a
user asks about have 1 to 6 legs.

Above _SMALL, where Python ints fall behind BLAS, numpy computes the
counts, again once per category and word key for every N (_join_counts,
a read-only array), and inverses are computed from int64 residues modulo
word-size primes by a blocked symmetric sweep, combined by CRT and
rational reconstruction, and certified modulo primes before they are
returned.
Products of residue matrices run on float64 BLAS with every value an
integer of at most 2**53, so they are exact.

A Gram matrix is stored as its join block counts, and its entries, or
their residues modulo a prime, come from a table of powers of N indexed by
the counts.  A Weingarten matrix is stored as its block on basis x basis.
The full n x n views, ``GramMatrix.entries`` and
``WeingartenMatrix.numerators``, are built on first access; the
Python-int route reads the entries of its small Gram matrices.
get_weingarten memoizes matrices for the process in an lru_cache keyed by
the category, the word's word_key and N, like every memo of the package.
A disk record holds what either route holds, the basis, denominator and
block, and is certified like a new build.

numpy is imported inside the functions that compute with it, so importing
this module, and every command whose matrices have at most _SMALL
partitions, never loads it.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, prod
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .partitions import (
    CategoryId,
    CategoryLike,
    SetPartition,
    WordLike,
    _enumerate,
    _join_blocks,
    as_category,
    as_word,
    key_length,
    record,
    word_key,
)

if TYPE_CHECKING:
    import numpy as np


def format_scalar(x) -> str:
    """Canonical "p/q" form with q > 0, denominator always explicit."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


# Gram matrices with at most this many partitions take the Python-int route.
# With numpy already loaded, a cold build (the join table shared by four N)
# costs about the same on both routes at 8 partitions; below that the
# Python ints are faster even then, and from 10 partitions BLAS is.
_SMALL = 8


@record(hidden=("counts",))
class GramMatrix:
    """Inner products of partition vectors on `legs` points: entries
    N^{|pi v sigma|}, kept as the join block counts |pi v sigma|."""

    category: CategoryId
    legs: int
    dimension: int
    index: tuple[SetPartition, ...]
    # n x n: tuples of rows up to _SMALL partitions, else a numpy array;
    # left out of equality, hash and repr
    counts: "tuple[tuple[int, ...], ...] | np.ndarray"

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        powers = [self.dimension**c for c in range(self.legs + 1)]
        return tuple(tuple(map(powers.__getitem__, row)) for row in self.counts)


def gram_matrix(category: CategoryLike, word: WordLike, dimension: int) -> GramMatrix:
    """Gram matrix over the category's partition set for the word.

    Entry (pi, sigma) is dimension ** (number of blocks of the join), the
    exhaustive inner product of the two 0/1 partition vectors.
    """
    category = as_category(category)
    return _gram(category, word_key(category, as_word(word)), dimension)


def _gram(category: CategoryId, wkey: int, dimension: int) -> GramMatrix:
    """gram_matrix for the words with word_key wkey."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    index, legs = _enumerate(category, wkey), key_length(category, wkey)
    n = len(index)
    if n > _SMALL:
        return GramMatrix(category, legs, dimension, index, _join_counts(category, wkey))
    flat = _join_blocks((category, category), (wkey, wkey))  # shared by every dimension
    return GramMatrix(category, legs, dimension, index,
                      tuple(flat[i * n:i * n + n] for i in range(n)))


# Elements of the (k, rows, n) mask array built per slab of Gram rows.
_SLAB = 1 << 22


@lru_cache(maxsize=None)
def _join_counts(category: CategoryId, wkey: int) -> np.ndarray:
    """_join_block_counts for the words with word_key wkey, read-only and
    memoized for the process: every dimension shares them."""
    counts = _join_block_counts(_enumerate(category, wkey), key_length(category, wkey))
    counts.flags.writeable = False
    return counts


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
    dtype = np.min_scalar_type((1 << k) - 1)
    bits = np.array([1 << j for j in range(k)], dtype=dtype)
    rgs = np.array([p.rgs for p in index], dtype=np.intp)
    masks = ((rgs[:, :, None] == rgs[:, None, :]) * bits).sum(axis=2, dtype=dtype).T
    below = (bits - 1).reshape(k, 1, 1)
    counts = np.empty((n, n), dtype=np.min_scalar_type(k))
    step = max(1, _SLAB // (n * max(k, 1)))
    for a in range(0, n, step):
        m = masks[:, a:a + step, None] | masks[:, None, :]
        for j in range(k):
            m |= ((m >> j) & 1) * m[j]
        counts[a:a + step] = ((m & below) == 0).sum(axis=0)
    return counts


@record
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
# below 2**26, and every product of residue matrices runs as float64 BLAS
# matmul (_matmul_mod), which is exact while every partial sum stays at most
# _EXACT = 2**53.  The left factor is split into halves below 2**s, s = 13
# for these primes, so a term is below 2**13 * 2**26 and an inner chunk of
# 2**13 indices (2**14 terms) sums exactly; a longer inner dimension is
# taken chunk by chunk.  The split width and the chunk length are derived
# from p, which keeps any p below 2**31.5 exact as well.  The sweep (_sweep)
# pivots through panels of _PANEL diagonals, fewer than the (2**63 - p) //
# (p - 1)**2 = 2**11 unreduced pivot updates an int64 entry takes for these
# primes, so a panel's block is reduced at its end; between panels the
# matrix is left unreduced, each panel subtracting one reduced product, so
# an entry stays above -(n / _PANEL) * p.
_PRIME_LIMIT = 1 << 26
_EXACT = 1 << 53
_PANEL = 128
_TILE = 1 << 18
assert _PANEL <= (2**63 - _PRIME_LIMIT) // _PRIME_LIMIT**2, "a panel overflows int64"


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

    powers = [pow(gram.dimension, c, p) for c in range(gram.legs + 1)]
    return np.array(powers, dtype=np.int64)[np.asarray(gram.counts)]


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b modulo p for int64 residues in [0, p), on float64 BLAS.

    a = hi * 2**s + lo with both halves below 2**s, so a @ b = hi @ (2**s * b
    mod p) + lo @ b modulo p: one float64 product [hi | lo] @ [2**s * b mod p;
    b] per inner chunk of _EXACT // (2 * (2**s - 1) * (p - 1)) indices, in
    which every partial sum is an integer of at most 2**53, added to the
    reduced result in int64.  Rows of a are taken in tiles of about _TILE
    output entries, which bounds the temporaries.
    """
    import numpy as np

    s = ((p - 1).bit_length() + 1) // 2
    k, n = b.shape
    step = _EXACT // (2 * ((1 << s) - 1) * (p - 1))
    rows = max(1, _TILE // max(n, 1))
    out = np.zeros((a.shape[0], n), dtype=np.int64)
    for c in range(0, k, step):
        part = b[c:c + step]
        z = np.concatenate(((part << s) % p, part), dtype=np.float64)
        for i in range(0, a.shape[0], rows):
            t = a[i:i + rows, c:c + step]
            y = np.concatenate((t >> s, t & ((1 << s) - 1)), axis=1, dtype=np.float64) @ z
            o = out[i:i + rows]
            o += y.astype(np.int64)
            o %= p
    return out


def _sweep_panel(a: np.ndarray, p: int) -> list[int]:
    """Sweep the square block a modulo p, one diagonal at a time.

    Sweeping c subtracts a[i, c] * a[c, j] / a[c, c] from every other entry,
    divides row and column c by a[c, c] and sets a[c, c] to -1 / a[c, c]; a
    diagonal that is 0 modulo p is skipped.  Column c is reduced when it is
    used, and the whole block at the end, which _PANEL keeps within the
    unreduced updates an int64 entry holds.  Overwrites a with its reduced
    sweep; returns the swept positions.
    """
    import numpy as np

    swept: list[int] = []
    for c in range(a.shape[0]):
        col = a[:, c] % p
        if col[c] == 0:
            continue
        inv = pow(int(col[c]), -1, p)
        row = col * inv % p
        a -= np.multiply.outer(col, row)
        a[c] = a[:, c] = row
        a[c, c] = -inv % p
        swept.append(c)
    a %= p
    return swept


def _sweep(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Symmetric sweep of the residue matrix a modulo p (Goodnight, 1979).

    Diagonals are swept in index order, and one that is 0 modulo p is
    skipped (see _sweep_panel).  After the swept set B, a[B, B] =
    -G[B, B]^-1 and the diagonal at c is the Schur complement of G[c, c]
    against the swept indices before c.

    Over Q a Gram matrix is positive semidefinite, so a zero Schur diagonal
    means a zero Schur row: B is then the greedy row rank profile.  Modulo
    p every swept prefix block is nonsingular, so B never has a larger
    _profile_key than the profile over Q.

    Blocked: the diagonals of a panel of _PANEL indices P are swept on the
    panel's own block, which decides the panel's swept set K exactly as one
    diagonal at a time would.  With U = a[:, K] and M = a[K, K]^-1, sweeping
    K is then one rank-|K| update of the whole matrix: V = U M, a -= V U^T,
    a[:, K] = V, a[K, :] = V^T, and the panel's block takes its sweep.  A
    panel that is the whole matrix needs no update.  Overwrites a; returns
    B and G[B, B]^-1 modulo p.
    """
    import numpy as np

    n = a.shape[0]
    swept: list[int] = []
    for s in range(0, n, _PANEL):
        strip = a[:, s:s + _PANEL] % p
        block = strip[s:s + _PANEL].copy()
        kept = _sweep_panel(block, p)
        if kept and len(block) < n:
            u = strip[:, kept]
            v = _matmul_mod(u, -block[kept][:, kept] % p, p)
            a -= _matmul_mod(v, u.T, p)
            k = s + np.array(kept)
            a[:, k] = v
            a[k, :] = v.T
        a[s:s + _PANEL, s:s + _PANEL] = block
        swept += [s + c for c in kept]
    return swept, -a[swept][:, swept] % p


class _Garner:
    """Residue vectors combined by CRT, one prime at a time.

    Garner's mixed-radix digits stay in int64 across primes, so adding a
    prime costs one int64 pass per prime already held.  values() yields the
    combination as Python ints in [0, modulus), _SCAN entries at a time
    with two digits per int64 word, so a reconstruction that fails at an
    early entry builds few of them.
    """

    def __init__(self):
        self.digits: list = []
        self.primes: list[int] = []
        self.modulus = 1

    def add(self, x: np.ndarray, p: int) -> None:
        for d, q in zip(self.digits, self.primes):
            x = (x - d) % p * pow(q, -1, p) % p
        self.digits.append(x)
        self.primes.append(p)
        self.modulus *= p

    def values(self) -> Iterator[int]:
        words, radices = [], []
        for j in range(0, len(self.primes), 2):
            d, q = self.digits[j:j + 2], self.primes[j:j + 2]
            words.append(d[0] + d[1] * q[0] if len(d) == 2 else d[0])  # < q0 * q1
            radices.append(prod(q))
        for s in range(0, len(words[0]), _SCAN):
            v = words[-1][s:s + _SCAN].astype(object)
            for w, q in zip(words[-2::-1], radices[-2::-1]):
                v = v * q + w[s:s + _SCAN]
            yield from v.tolist()


# Entries per slab of _Garner.values.
_SCAN = 1 << 12


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


def _reconstruct(values: Callable[[], Iterable[int]], modulus: int
                 ) -> "tuple[int, list[int]] | None":
    """One common denominator d and the integers d*value, entry by entry.

    Rational reconstruction with numerators and denominator bounded by
    sqrt(modulus/2), over the entries that values() yields.  They are
    scanned in order; d grows by the denominator of an entry that d*value
    does not make small, and the scan fails at the first entry that would
    push d past the bound.  A second pass takes the entries before the last
    growth again and checks them against the final d.  None when the
    modulus is too small.
    """
    bound = isqrt(modulus // 2)
    top = modulus - bound
    d, last = 1, 0
    ys: list[int] = []
    for v in values():
        y = v * d % modulus
        if bound < y < top:
            q = _denominator(y, modulus, bound)
            if q is None or q < 2 or d * q > bound:
                return None
            d *= q
            last = len(ys)
            y = v * d % modulus
        ys.append(y - modulus if y > bound else y)
    for e, v in zip(range(last), values()):
        y = v * d % modulus
        if bound < y < top:
            return None
        ys[e] = y - modulus if y > bound else y
    return d, ys


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
    index.  Up to _SMALL partitions the matrix is found by fraction-free
    elimination in Python ints (_bareiss), above by the multi-modular
    engine (_modular_weingarten); either result is returned only after the
    exact certificate of _certify.
    """
    if len(gram.index) > _SMALL:
        return _modular_weingarten(gram)
    wg = _bareiss(gram)
    if not _certify(wg):
        raise ArithmeticError("fraction-free elimination failed its certificate")
    return wg


def _bareiss(gram: GramMatrix) -> WeingartenMatrix:
    """The canonical Weingarten matrix by fraction-free Gauss-Jordan
    elimination of [G | I] in Python ints (Bareiss, 1968).

    Diagonals are pivots in index order.  A step multiplies every other row
    by the pivot, subtracts the pivot row's multiple and divides exactly by
    the previous pivot, so after the pivots K the diagonal at c is the
    minor det G[K+c, K+c].  G is positive semidefinite, so a zero there
    means a zero Schur row: c depends on the rows before it and is skipped,
    and the pivots are the greedy rank profile B (as in _sweep).  After the
    last pivot, d = det G[B, B], the rows B of the right half hold
    d G[B, B]^-1 on the columns B.
    """
    n = len(gram.index)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(gram.entries)]
    basis: list[int] = []
    last = 1
    for c in range(n):
        pivot = a[c]
        d = pivot[c]
        if d == 0:
            continue
        for i in range(n):
            if i != c:
                f = a[i][c]
                a[i] = [(d * x - f * y) // last for x, y in zip(a[i], pivot)]
        basis.append(c)
        last = d
    block = [[a[i][n + j] for j in basis] for i in basis]
    g = gcd(last, *(x for row in block for x in row))
    return WeingartenMatrix(gram, tuple(basis), last // g,
                            tuple(tuple(x // g for x in row) for row in block))


def _modular_weingarten(gram: GramMatrix) -> WeingartenMatrix:
    """weingarten_matrix by the multi-modular engine, for a nonempty index.

    Each prime's _sweep gives a profile and the inverse of its kept block.
    The upper triangles of the inverses are combined, by CRT and rational
    reconstruction with one common denominator, across the primes whose
    profile has the largest _profile_key seen so far; a larger key starts
    the combination again.  The block is symmetric, so its lower triangle
    is the mirror.  A failed reconstruction or certificate adds primes.
    """
    import numpy as np

    n = len(gram.index)
    key: list[int] = []
    i = 0
    while True:
        p = _prime(i)
        i += 1
        swept, inv = _sweep(_residues(gram, p), p)
        seen = _profile_key(swept, n)
        if seen < key:  # p divides a Schur diagonal of a profile already seen
            continue
        if seen > key:
            basis, key, crt = swept, seen, _Garner()
            idx = np.arange(len(basis))
            upper = idx[:, None] <= idx
        crt.add(inv[upper], p)
        del inv  # the certificate's products need the room
        rec = _reconstruct(crt.values, crt.modulus)
        if rec is None:
            continue
        wg = WeingartenMatrix(gram, tuple(basis), *_symmetric_block(*rec, len(basis)))
        del rec
        if _certify(wg):
            return wg


def _symmetric_block(den: int, upper: list[int], r: int):
    """(denominator, block) in lowest terms from d and the upper triangle
    of d*W, row by row; the lower triangle is its mirror."""
    g = gcd(den, *upper)
    if g > 1:
        den, upper = den // g, [x // g for x in upper]
    rows: list[list[int]] = []
    at = 0
    for i in range(r):
        rows.append([row[i] for row in rows] + upper[at:at + r - i])
        at += r - i
    return den, tuple(map(tuple, rows))


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
    the rows of B, so only the rows outside B are multiplied out.  Up to
    _SMALL partitions the identities are checked in Python ints; above,
    modulo primes whose product exceeds twice an a-priori bound on both
    sides, which makes every check exact.
    """
    gram = wg.source
    n = len(gram.index)
    den = wg.denominator
    basis = list(wg.basis)
    r = len(basis)
    block = wg.block
    if den < 1 or basis != sorted(set(basis)) or any(not 0 <= b < n for b in basis):
        return False
    if len(block) != r or any(len(row) != r for row in block):
        return False
    if any(tuple(row) != col for row, col in zip(block, zip(*block))):
        return False
    kept = set(basis)
    out = [i for i in range(n) if i not in kept]
    if n <= _SMALL:
        return _exact_identities_hold(gram, basis, out, den, block)
    max_g = gram.dimension ** int(gram.counts.max())
    max_w = max((max(max(row), -min(row)) for row in block), default=0)
    limbs = _limbs(block, max_w.bit_length())
    bound = r * r * max_g * max_g * max_w + den * max_g
    modulus, i = 1, 0
    while modulus <= 2 * bound:
        p = _prime(i)
        i += 1
        modulus *= p
        if not _identities_hold(gram, basis, out, den, limbs, p):
            return False
    return True


def _exact_identities_hold(gram: GramMatrix, basis: list[int], out: list[int], den: int,
                           block: Sequence[Sequence[int]]) -> bool:
    """The certificate's identities (1)-(3) in Python ints."""
    g = gram.entries
    cols = list(zip(*block))
    y = [[sum(row[b] * x for b, x in zip(basis, col)) for col in cols] for row in g]  # G[:,B].num
    r = len(basis)
    if [y[i] for i in basis] != [[den * (a == b) for b in range(r)] for a in range(r)]:
        return False
    for c in out:
        if any(x for x, b in zip(y[c], basis) if b > c):
            return False
        if [sum(x * g[b][j] for x, b in zip(y[c], basis)) for j in range(len(g))] != [
                den * x for x in g[c]]:
            return False
    return True


def _identities_hold(gram: GramMatrix, basis: list[int], out: list[int], den: int,
                     limbs: list, p: int) -> bool:
    """The certificate's identities (1)-(3) modulo p, with W's numerators
    given as limbs (see _limbs)."""
    import numpy as np

    ap = _residues(gram, p)
    w = limbs[-1] % p
    for limb in limbs[-2::-1]:
        w *= pow(2, 62, p)
        w += limb % p
        w %= p
    y = _matmul_mod(ap if not out else ap[:, basis], w, p)  # (G[:,B] . num)
    yb = y[basis]
    if (yb.diagonal() != den % p).any():
        return False
    np.fill_diagonal(yb, 0)
    if yb.any():
        return False
    if not out:
        return True
    y = y[out]
    b = np.array(basis, dtype=np.intp)
    if y[b[None, :] > np.array(out, dtype=np.intp)[:, None]].any():
        return False
    rhs = ap[out]
    rhs *= den % p
    rhs %= p
    return np.array_equal(_matmul_mod(y, ap[basis], p), rhs)


def _limbs(block: Sequence[Sequence[int]], width: int) -> list:
    """A square block of integers below 2**width in absolute value as int64
    limb matrices of 62 bits, least significant first: x = sum(limb[j] *
    2**(62 j)), every limb but the last in [0, 2**62) and the last signed."""
    import numpy as np

    r = len(block)
    limbs = []
    for _ in range(max(width - 1, 0) // 62):
        limbs.append(np.array([[x & ((1 << 62) - 1) for x in row] for row in block],
                              dtype=np.int64).reshape(r, r))
        block = [[x >> 62 for x in row] for row in block]
    limbs.append(np.array(block, dtype=np.int64).reshape(r, r))
    return limbs


_DISK_DIR: str | None = None


def set_disk_cache(directory: "str | None") -> None:
    """Enable (or disable with None) the on-disk Weingarten record store."""
    global _DISK_DIR
    if directory is not None:
        os.makedirs(directory, exist_ok=True)
    _DISK_DIR = directory


def _record_path(name: list) -> str:
    category, wkey, dimension = name
    safe = category.replace("+", "p")
    return os.path.join(_DISK_DIR, f"wg_{safe}_{wkey}_{dimension}.json")


def _from_record(record, name: list, gram: GramMatrix) -> "WeingartenMatrix | None":
    """The record's matrix if its key is name, every number in it is a JSON
    integer, its block is in lowest terms, and it passes the engine's
    certificate against the freshly built Gram matrix."""
    try:
        key, basis, den = record["key"], tuple(record["basis"]), record["denominator"]
        block = tuple(map(tuple, record["block"]))
    except (KeyError, TypeError):
        return None
    if key != name:
        return None
    numbers = [x for row in block for x in row]
    if any(type(x) is not int for x in [*key[1:], *basis, den, *numbers]):
        return None
    if gcd(den, *numbers) != 1:
        return None
    wg = WeingartenMatrix(gram, basis, den, block)
    return wg if _certify(wg) else None


def _write_record(name: list, wg: WeingartenMatrix) -> None:
    """Store a record atomically; on failure no temporary file is left and
    the run goes on without the record."""
    import tempfile

    try:
        fd, tmp = tempfile.mkstemp(dir=_DISK_DIR, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump({"key": name, "basis": wg.basis, "denominator": wg.denominator,
                       "block": wg.block}, fh)
        os.replace(tmp, _record_path(name))
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass


def get_weingarten(
    category: CategoryLike, word: WordLike, dimension: int
) -> WeingartenMatrix:
    """Memoized Weingarten matrix for (category, word, dimension).

    The word enters as its word_key, so words with one key share a matrix.
    The memo is the lru_cache of _weingarten, keyed by (category, word_key,
    dimension), whose cache_info() counts hits and builds; it is shared,
    and safe for concurrent use.  When a disk directory is configured,
    records are re-certified against a freshly built Gram matrix, with the
    same certificate as a new build, before being trusted; a record that
    fails is rebuilt and overwritten.
    """
    category = as_category(category)
    return _weingarten(category, word_key(category, as_word(word)), dimension)


@lru_cache(maxsize=None)
def _weingarten(category: CategoryId, wkey: int, dimension: int) -> WeingartenMatrix:
    gram = _gram(category, wkey, dimension)
    wg = None
    name = [category.value, wkey, dimension]  # the record's key
    if _DISK_DIR is not None:
        try:
            with open(_record_path(name)) as fh:
                record = json.load(fh)
        except (OSError, ValueError, RecursionError):  # json recurses on nested arrays
            record = None
        wg = _from_record(record, name, gram)
    if wg is None:
        wg = weingarten_matrix(gram)
        if _DISK_DIR is not None:
            _write_record(name, wg)
    return wg
