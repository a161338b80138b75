"""Haar-state moments of easy quantum groups via the exact Weingarten kernel."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact_linalg import get_weingarten
from .partitions import CategoryId, ColoredWord, as_category, as_word


@dataclass(frozen=True)
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

    @property
    def text(self) -> str:
        return f"{self.category.value}:{self.dimension}"


@dataclass(frozen=True)
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

    @property
    def text(self) -> str:
        return ",".join(str(x) for x in self.members)


@dataclass(frozen=True)
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


def _contract(
    flat: "list[int] | tuple[int, ...]",
    shape: Sequence[int],
    row_sets: Sequence[Rows],
) -> "list[int] | tuple[int, ...]":
    """The tensor with each axis r replaced by row_sets[r]."""
    return _contract_each(flat, shape, [[rows] for rows in row_sets])[0]


def group_moment(group: GroupSpec, query: MomentQuery) -> Fraction:
    """Haar integral of the colored coordinate monomial over the group.

    Weingarten sum over pairs of partitions in the category's set for the
    word, weighting each pair by whether the row and column indices fit.
    W vanishes outside its basis, so only the kept partitions take part:
    the block, read as a two-axis tensor, is contracted with their row
    deltas and then with their column deltas.  The degree-0 monomial
    integrates to 1.
    """
    _check_bounds(query.rows, group.dimension, "row")
    _check_bounds(query.cols, group.dimension, "column")
    wg = get_weingarten(group.category, query.word, group.dimension)
    kept = [wg.index[b] for b in wg.basis]
    fits = [[_delta_row(kept, query.rows)], [_delta_row(kept, query.cols)]]
    flat = list(itertools.chain.from_iterable(wg.block))
    return Fraction(_contract(flat, (len(kept), len(kept)), fits)[0], wg.denominator)
