"""Haar-state moments of easy quantum groups: each factor's generalized
inverse (_inverse_rows), shared by group moments and space kernels, with
the S category's built from the partition lattice's Moebius function for
the partitions that N keeps (_lattice_operator, memoized by k and N), the
U and U+ categories' built once per symmetry class of words and relabelled
(_relabel), and the tensor contraction that every Weingarten sum runs on."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exact_linalg import _weingarten
from .partitions import (CategoryId, ColoredWord, _enumerate, as_category, as_word,
                         key_length, record, word_key)


@record
class GroupSpec:
    """An easy compact quantum group: category plus matrix size."""

    category: CategoryId
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "category", as_category(self.category))
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        """Parse "CATEGORY:N", e.g. "O+:4"."""
        try:
            cat, dim = text.rsplit(":", 1)
            return cls(as_category(cat), int(dim))
        except (ValueError, TypeError):
            raise ValueError(f"cannot parse group spec {text!r}") from None


@record
class IndexSet:
    """A nonempty sorted set of coordinate indices within {1, ..., N}."""

    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted(set(self.members)))
        if not members:
            raise ValueError("index set must be nonempty")
        if members[0] < 1:
            raise ValueError("index set entries must be >= 1")
        object.__setattr__(self, "members", members)

    @classmethod
    def parse(cls, text: str) -> "IndexSet":
        try:
            members = tuple(int(x) for x in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse index set {text!r}") from None
        return cls(members)

    @property
    def size(self) -> int:
        return len(self.members)


@record
class MomentQuery:
    """A colored monomial in the matrix coordinates: word, row and column indices."""

    word: ColoredWord
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", as_word(self.word))
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        if len(self.rows) != len(self.word) or len(self.cols) != len(self.word):
            raise ValueError("rows/cols length must equal word length")


def _check_bounds(indices: Sequence[int], n: int, what: str) -> None:
    for x in indices:
        if not 1 <= x <= n:
            raise ValueError(f"{what} index {x} out of range 1..{n}")


# A sparse row lists (column, coefficient) pairs; a row set replaces one
# axis of a tensor, one row per new position.
Rows = Sequence[Sequence[tuple[int, int]]]


def _delta_row(partitions: Sequence, indices: Sequence) -> list[tuple[int, int]]:
    """The sparse row of the partitions that the indices fit."""
    return [(j, 1) for j, p in enumerate(partitions) if p.delta(indices)]


def _contract_axis(
    flat: "list[int] | tuple[int, ...]",
    shape: Sequence[int],
    axis: int,
    rows: Rows,
) -> tuple[list[int], tuple[int, ...]]:
    """Replace axis by sparse rows: out[..,a,..] = sum of c * flat[..,b,..]
    over the pairs (b, c) of rows[a]."""
    n_old = shape[axis]
    n_new = len(rows)
    outer = math.prod(shape[:axis])
    inner = math.prod(shape[axis + 1 :])
    out = [0] * (outer * n_new * inner)
    for o in range(outer):
        base_in = o * n_old * inner
        base_out = o * n_new * inner
        for a, row in enumerate(rows):
            dst = base_out + a * inner
            for b, coeff in row:
                src = base_in + b * inner
                for i in range(inner):
                    out[dst + i] += coeff * flat[src + i]
    new_shape = tuple(shape[:axis]) + (n_new,) + tuple(shape[axis + 1 :])
    return out, new_shape


def _contract_each(
    flat: "list[int] | tuple[int, ...]",
    shape: Sequence[int],
    options: Sequence[Sequence[Rows]],
) -> list:
    """The tensor with each axis r replaced by one row set from options[r],
    for every choice, in itertools.product order; an axis contracted once is
    shared by every choice on the later axes."""
    layer = [(flat, shape)]
    for axis, row_sets in enumerate(options):
        layer = [_contract_axis(f, s, axis, rows) for f, s in layer for rows in row_sets]
    return [f for f, _ in layer]


@lru_cache(maxsize=None)
def _lattice_operator(k: int, n: int) -> tuple[tuple[Rows, ...], int]:
    """The S category's inverse on k legs at dimension n, times L, as two
    row sets applied in turn, and L = (n)_{min(k, n)}; memoized, so the
    rows are tuples.

    G = Z D Z^T over the partition lattice, with Z[pi, tau] = [pi <= tau]
    and D = diag((n)_{|tau|}) (falling factorials), so X = mu^T D^+ mu is
    a generalized inverse of G at every n, mu = Z^-1 being the lattice's
    Moebius function.  The first row set is mu scaled by L D^+, over the
    tau with at most n blocks ((n)_{|tau|} = 0 for the others), and the
    second is mu^T; L / (n)_{|tau|} = (n - |tau|)! / (n - min(k, n))! is an
    integer.  The coarsenings of tau are lambda o tau, lambda a set
    partition of its blocks (tau labels them in order of first appearance,
    so the composed growth string is canonical), and mu(tau, lambda o tau)
    is the product over lambda's blocks of (-1)^(c-1) (c-1)!, c the size.
    """
    parts = _enumerate(CategoryId.S, k)
    position = {p.rgs: i for i, p in enumerate(parts)}
    scale = math.perm(n, min(k, n))
    merges = []  # per block count b <= min(k, n): (lambda's rgs, mu, mu L / (n)_b)
    for b in range(min(k, n) + 1):
        d = scale // math.perm(n, b)
        merges.append([])
        for lam in _enumerate(CategoryId.S, b):
            mu = math.prod((-1) ** (len(c) - 1) * math.factorial(len(c) - 1) for c in lam.blocks)
            merges[b].append((lam.rgs, mu, d * mu))
    first: list = []
    second: list = [[] for _ in parts]
    for tau in parts:
        if tau.block_count > n:
            continue
        t, row = len(first), []
        for lam, mu, scaled in merges[tau.block_count]:
            r = position[tuple(lam[x] for x in tau.rgs)]
            row.append((r, scaled))
            second[r].append((t, mu))
        first.append(tuple(row))
    return (tuple(first), tuple(map(tuple, second))), scale


# Inverses read off a lattice, by word key (an S key is the length) and n.
_LATTICES = {CategoryId.S: _lattice_operator}


@lru_cache(maxsize=None)
def _relabel(category: CategoryId, key: int) -> tuple[int, "tuple[int, ...] | None"]:
    """(canonical, phi): the word key of the canonical word of the key's
    symmetry class, and phi[i], the index in the canonical key's
    enumeration of the key's partition i carried over by a leg map; phi is
    None when the key is its own canonical key.  Memoized.

    A permutation of the legs is an automorphism of the partition lattice,
    so it keeps the join block counts: when it maps the key's partition set
    onto the canonical one, G_w[i][j] = G_c[phi i][phi j], and X_c relabelled
    the same way is a generalized inverse of G_w with the same L.  The U
    pairings of a word are those of its colours sorted whites first (a
    stable sort of the legs; the canonical word is o^a b^a).  The U+
    partitions, noncrossing pairings of opposite colours, are carried over
    by the k rotations, the reflection and the colour swap, 4k maps in all,
    and the canonical word is the image with the least code.  The other
    categories key their words by length, so their map is the identity.
    Raises RuntimeError if phi is not a bijection.
    """
    if not category.color_sensitive or key == 1:  # key 1: the empty word
        return key, None
    k = key_length(category, key)
    bits = format(key, "b")[1:]  # leg colours, the first leg first, "1" black
    if category is CategoryId.U:
        legs = sorted(range(k), key=bits.__getitem__)  # stable: whites first, in order
        image = "".join(sorted(bits))
    else:
        # canonical leg t is leg (t + s) % k, or (k - 1 - s - t) % k when flip
        # is odd (the reflection); flip >= 2 also swaps the colours
        turns = [bits + bits, (bits + bits)[::-1]]
        turns += [d.translate(str.maketrans("01", "10")) for d in turns]
        image, s, flip = min((d[s:s + k], s, flip) for flip, d in enumerate(turns)
                             for s in range(k))
        legs = [(k - 1 - s - t if flip % 2 else t + s) % k for t in range(k)]
    canonical = int("1" + image, 2)
    if canonical == key:
        return key, None
    position = {p.rgs: i for i, p in enumerate(_enumerate(category, canonical))}
    phi = []
    for p in _enumerate(category, key):
        labels: dict[int, int] = {}  # the carried labels, renumbered in order of first use
        phi.append(position.get(tuple(labels.setdefault(p.rgs[i], len(labels)) for i in legs)))
    if len(phi) != len(position) or set(phi) != set(range(len(phi))):
        raise RuntimeError(f"the leg map of {category.value} word key {key} is not a bijection")
    return canonical, tuple(phi)


def _inverse_rows(category: CategoryId, key: int, n: int) -> tuple[Sequence[Rows], int]:
    """A generalized inverse X of the category's Gram matrix for word key
    `key` at dimension n, times an integer L, as row sets to apply in turn,
    and L: a lattice's inverse, or else the Weingarten block of the key's
    canonical word (_relabel), relabelled.  Consumers pair X only with
    delta vectors, which lie in the Gram matrix's range, so every
    generalized inverse gives the same numbers."""
    if category in _LATTICES:
        return _LATTICES[category](key, n)
    canonical, phi = _relabel(category, key)
    wg = _weingarten(category, canonical, n)
    where = list(range(len(wg.index)))  # the key's index of each canonical partition
    for i, a in enumerate(phi or ()):
        where[a] = i
    rows: list = [[] for _ in wg.index]
    for a, row in zip(wg.basis, wg.block):
        rows[where[a]] = [(where[b], c) for b, c in zip(wg.basis, row) if c]
    return [rows], wg.denominator


def group_moment(group: GroupSpec, query: MomentQuery) -> Fraction:
    """Haar integral of the colored coordinate monomial over the group.

    The Weingarten sum delta(rows)^T X delta(cols), with X from
    _inverse_rows: S takes the partition lattice, builds no matrix and
    loads no numpy.  The degree-0 monomial integrates to 1.
    """
    _check_bounds(query.rows, group.dimension, "row")
    _check_bounds(query.cols, group.dimension, "column")
    key = word_key(group.category, query.word)
    parts = _enumerate(group.category, key)
    if not parts:  # an empty Weingarten sum needs no inverse
        return Fraction(0)
    steps, scale = _inverse_rows(group.category, key, group.dimension)
    flat, shape = [int(p.delta(query.cols)) for p in parts], (len(parts),)
    for rows in [*steps, [_delta_row(parts, query.rows)]]:
        flat, shape = _contract_axis(flat, shape, 0, rows)
    return Fraction(flat[0], scale)
