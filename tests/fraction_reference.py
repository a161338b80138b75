"""Independent reference implementations the tests compare the library with.

These are the library's former code paths, kept here as oracles: a
fraction-free Bareiss inverse, the incremental Fraction bordering that
built Weingarten matrices before the multi-modular engine, and the
enumeration that scans every restricted-growth string and filters by
membership, with the membership predicates of the six categories, a
block and text form of partitions and their join.  `clear_caches`
empties every process memo of the library.  Nothing in src imports this
module.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from easywg.partitions import (
    CategoryId,
    CategoryLike,
    SetPartition,
    WordLike,
    _join_forest,
    _links,
    _root,
    as_category,
    as_word,
)

Matrix = Sequence[Sequence]


class SingularMatrixError(ValueError):
    """Raised by solve_inverse on singular input; .row is the first dependent row (0-based)."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(
            f"singular matrix: row {row} is a linear combination of rows 0..{row - 1}"
        )


def _first_dependent_row(matrix: Matrix) -> int:
    """Index of the first row lying in the span of the rows before it."""
    pivots: list[tuple[int, list[Fraction]]] = []
    for idx, row in enumerate(matrix):
        r = [Fraction(x) for x in row]
        for col, prow in pivots:
            if r[col]:
                f = r[col]
                r = [a - f * b for a, b in zip(r, prow)]
        for col, a in enumerate(r):
            if a:
                pivots.append((col, [x / a for x in r]))
                break
        else:
            return idx
    raise ValueError("matrix has full row rank")


def solve_inverse(matrix: Matrix) -> list[list[Fraction]]:
    """Exact inverse of a nonsingular square matrix.

    Fraction-free Bareiss (Montante) elimination on an integer row-scaling
    of the input; the only divisions are the exact ones of the scheme plus
    the final division by the determinant.  Raises SingularMatrixError
    naming the first dependent row.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return []
    aug: list[list[int]] = []
    for i, row in enumerate(matrix):
        fr = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in fr)) if fr else 1
        left = [int(x * den) for x in fr]
        right = [0] * n
        right[i] = den
        aug.append(left + right)
    prev = 1
    width = 2 * n
    for col in range(n):
        if aug[col][col] == 0:
            for r in range(col + 1, n):
                if aug[r][col] != 0:
                    aug[col], aug[r] = aug[r], aug[col]
                    break
            else:
                raise SingularMatrixError(_first_dependent_row(matrix))
        p = aug[col][col]
        pivot_row = aug[col]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col]
            row_r = aug[r]
            new_row = []
            for j in range(width):
                q, rem = divmod(p * row_r[j] - f * pivot_row[j], prev)
                if rem:
                    raise ArithmeticError("inexact division in Bareiss step")
                new_row.append(q)
            aug[r] = new_row
        prev = p
    d = prev
    return [[Fraction(aug[i][n + j], d) for j in range(n)] for i in range(n)]


def bordering_weingarten(entries: Matrix):
    """(basis, denominator, numerators) of the canonical generalized inverse.

    The index is scanned in order and a row is kept exactly when the Schur
    complement scalar against the rows already kept is nonzero; the kept
    block is inverted incrementally by bordering in Fraction arithmetic.
    The denominator is the lcm of the reduced entry denominators.
    """
    g = entries
    n = len(g)
    basis: list[int] = []
    inv: list[list[Fraction]] = []
    for cand in range(n):
        col = [g[b][cand] for b in basis]
        u = [sum(row[j] * col[j] for j in range(len(col))) for row in inv]
        s = Fraction(g[cand][cand]) - sum(c * x for c, x in zip(col, u))
        if s < 0:
            raise ValueError("input is not a positive semidefinite Gram matrix")
        if s == 0:
            continue
        m = len(basis)
        new_inv = [
            [inv[i][j] + u[i] * u[j] / s for j in range(m)] + [-u[i] / s]
            for i in range(m)
        ]
        new_inv.append([-u[j] / s for j in range(m)] + [Fraction(1) / s])
        inv = new_inv
        basis.append(cand)
    den = 1
    for row in inv:
        for x in row:
            den = lcm(den, x.denominator)
    numerators = [[0] * n for _ in range(n)]
    for bi, i in enumerate(basis):
        for bj, j in enumerate(basis):
            numerators[i][j] = int(inv[bi][bj] * den)
    return tuple(basis), den, tuple(tuple(r) for r in numerators)


def clear_caches() -> None:
    """Empty every lru_cache of the loaded easywg modules: every memo the
    library keeps for the process."""
    for name, module in list(sys.modules.items()):
        if name.startswith("easywg."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def from_blocks(
    blocks: Iterable[Iterable[int]], ground_size: int | None = None
) -> SetPartition:
    """Build a partition from blocks of 1-based points, validating cover."""
    blocks = [tuple(sorted(b)) for b in blocks]
    seen: dict[int, int] = {}
    for label, block in enumerate(sorted(blocks)):
        if not block:
            raise ValueError("empty block")
        for x in block:
            if x in seen:
                raise ValueError(f"point {x} appears in two blocks")
            seen[x] = label
    k = ground_size if ground_size is not None else len(seen)
    if sorted(seen) != list(range(1, k + 1)):
        raise ValueError(f"blocks do not cover {{1,...,{k}}}")
    relabel: dict[int, int] = {}
    rgs = []
    for x in range(1, k + 1):
        lab = seen[x]
        if lab not in relabel:
            relabel[lab] = len(relabel)
        rgs.append(relabel[lab])
    return SetPartition(rgs)


def from_text(text: str, ground_size: int | None = None) -> SetPartition:
    """Parse SetPartition.to_text output.  Text with a comma or more than nine
    digits is in comma form, where a part without a comma is a single point."""
    if text == "":
        return SetPartition(())
    if "," in text or sum(ch.isdigit() for ch in text) > 9:
        blocks = [[int(x) for x in part.split(",")] for part in text.split("|")]
    else:
        blocks = [[int(ch) for ch in part] for part in text.split("|")]
    return from_blocks(blocks, ground_size)


def join(a: SetPartition, b: SetPartition) -> SetPartition:
    """The finest partition coarser than both (superposition of blocks)."""
    if len(a.rgs) != len(b.rgs):
        raise ValueError("ground-size mismatch in join")
    parent, _ = _join_forest(len(a.rgs), (_links(a.rgs), _links(b.rgs)))
    labels: dict[int, int] = {}  # root -> block label, in order of first appearance
    return SetPartition([labels.setdefault(_root(parent, pos), len(labels))
                         for pos in range(len(parent))])


def is_pairing(partition: SetPartition) -> bool:
    """True when every block has exactly two points."""
    return len(partition.rgs) == 2 * partition.block_count and all(
        len(b) == 2 for b in partition.blocks
    )


def is_color_matching(partition: SetPartition, word: WordLike) -> bool:
    """True for a pairing whose every pair joins one white and one black leg."""
    word = as_word(word)
    if len(word) != len(partition.rgs):
        raise ValueError("word length does not match ground size")
    if not is_pairing(partition):
        return False
    return all(word.colors[a - 1] != word.colors[b - 1] for a, b in partition.blocks)


def is_noncrossing(partition: SetPartition) -> bool:
    """Stack scan: no a<b<c<d with a,c in one block and b,d in another."""
    last: dict[int, int] = {}
    for pos, label in enumerate(partition.rgs):
        last[label] = pos
    stack: list[int] = []
    opened: set[int] = set()
    for pos, label in enumerate(partition.rgs):
        if label not in opened:
            opened.add(label)
            stack.append(label)
        elif stack[-1] != label:
            return False
        if last[label] == pos:
            stack.pop()
    return True


def is_member(category: CategoryLike, word: WordLike, partition: SetPartition) -> bool:
    """Membership of a partition in the category's set for the given word."""
    category = as_category(category)
    word = as_word(word)
    if partition.ground_size != len(word):
        raise ValueError("partition ground size does not match word length")
    if category is CategoryId.S:
        return True
    if category is CategoryId.S_PLUS:
        return is_noncrossing(partition)
    if category is CategoryId.O:
        return is_pairing(partition)
    if category is CategoryId.O_PLUS:
        return is_pairing(partition) and is_noncrossing(partition)
    if category is CategoryId.U:
        return is_color_matching(partition, word)
    return is_color_matching(partition, word) and is_noncrossing(partition)


def _iter_rgs(k: int):
    """All restricted-growth strings of length k, in lexicographic order."""

    def rec(prefix: list[int], top: int):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for a in range(top + 1):
            prefix.append(a)
            yield from rec(prefix, top + 1 if a == top else top)
            prefix.pop()

    yield from rec([], 0)


def filter_enumerate(category, word) -> list[SetPartition]:
    """The category's partitions for the word: every restricted-growth
    string of the word's length, filtered by membership."""
    category = as_category(category)
    word = as_word(word)
    return [
        p
        for rgs in _iter_rgs(len(word))
        for p in (SetPartition(rgs),)
        if is_member(category, word, p)
    ]


# Keys whose Fraction bordering takes several seconds each: the tests
# compare the engine with digests of the reference output recorded here
# (`python tests/fraction_reference.py` recomputes them, in a few minutes).
HEAVY_KEYS = [(cat, "oooooo", n) for cat in ("S", "S+") for n in (3, 4, 10)]
DIGESTS = pathlib.Path(__file__).with_name("reference_digests.json")


def digest(basis, denominator, numerators) -> str:
    return hashlib.sha256(repr((basis, denominator, numerators)).encode()).hexdigest()


if __name__ == "__main__":
    from easywg.exact_linalg import gram_matrix

    out = {}
    for cat, word, n in HEAVY_KEYS:
        out[f"{cat}:{word}:{n}"] = digest(*bordering_weingarten(gram_matrix(cat, word, n).entries))
        print(cat, word, n, out[f"{cat}:{word}:{n}"], flush=True)
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n")
