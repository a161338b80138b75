"""Truncated-character moments and moment-level limit laws.

The truncated character of a diagonal-mode space sums the first T diagonal
coordinates; its rescaled moments are exact rationals at finite size and
converge to partition-counting generating sums, which is where the
classical/free moment correspondence becomes visible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .partitions import (
    CategoryId,
    CategoryLike,
    Color,
    ColoredWord,
    SetPartition,
    WordLike,
    as_category,
    as_word,
    enumerate_partitions,
    record,
)
from .spaces import SpaceSpec, _kernel


@record
class CharacterQuery:
    """Moment query for the rescaled truncated character of a space.

    The space must be in diagonal mode; a single-factor space qualifies,
    its subset index set playing the role of J.
    """

    space: SpaceSpec
    truncation: int
    word: ColoredWord

    def __post_init__(self):
        object.__setattr__(self, "word", as_word(self.word))
        bound = min(f.dimension for f in self.space.factors)
        if not 1 <= self.truncation <= bound:
            raise ValueError(f"truncation must lie in 1..{bound}")


def char_moment_exact(query: CharacterQuery) -> Fraction:
    """Exact moment of sqrt(M) times the truncated character at the word.

    Sum over tuples of factor partitions (pi, sigma) of
    T^{|join pi|} M^{|join sigma|} prod_r W_r(pi_r, sigma_r); rational.
    """
    kern, scale = _kernel(query.space, query.word)
    t = query.truncation
    num = scale * sum(t**b * y for b, y in zip(kern.blocks, kern.values))
    return Fraction(num, kern.denominator)


def _positive(t) -> Fraction:
    """t as a Fraction, which must be > 0."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be > 0")
    return t


def _block_sum(parts: Iterable[SetPartition], t: Fraction) -> Fraction:
    """Sum of t^{|pi|} over the partitions."""
    return sum((t**p.block_count for p in parts), Fraction(0))


def char_moment_asymptotic(
    categories: Sequence[CategoryLike], word: WordLike, t: Fraction
) -> Fraction:
    """Large-size limit of the rescaled character moment: sum of t^{|pi|}
    over the intersection of the categories' partition sets for the word."""
    t = _positive(t)
    cats = [as_category(c) for c in categories]
    if not cats:
        raise ValueError("at least one category is required")
    word = as_word(word)
    common = set(enumerate_partitions(cats[0], word))
    for c in cats[1:]:
        common &= set(enumerate_partitions(c, word))
    return _block_sum(common, t)


_LAW_KINDS = {
    "poisson": CategoryId.S,
    "free-poisson": CategoryId.S_PLUS,
    "gaussian": CategoryId.O,
    "semicircle": CategoryId.O_PLUS,
    "classical-matching": CategoryId.U,
    "free-matching": CategoryId.U_PLUS,
}


@record
class LimitLaw:
    """A moment-level limit law: counting kind plus a positive parameter t."""

    kind: str
    t: Fraction

    def __post_init__(self):
        if self.kind not in _LAW_KINDS:
            raise ValueError(
                f"unknown law {self.kind!r}; expected one of {sorted(_LAW_KINDS)}"
            )
        object.__setattr__(self, "t", _positive(self.t))

    @property
    def category(self) -> CategoryId:
        return _LAW_KINDS[self.kind]


def _law_word(category: CategoryId, k: int) -> ColoredWord:
    if category.color_sensitive:
        return ColoredWord(
            (Color.WHITE if i % 2 == 0 else Color.BLACK) for i in range(k)
        )
    return ColoredWord((Color.WHITE,) * k)


def limit_law_moments(law: LimitLaw, max_k: int) -> list[Fraction]:
    """Moments m_1 .. m_max_k of the law: m_k = sum over the category's
    partition set of t^{|pi|}.

    Unitary-type categories read the alternating word, under which their
    moments are nonzero; the others read the all-white word.
    """
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    return [
        _block_sum(enumerate_partitions(law.category, _law_word(law.category, k)), law.t)
        for k in range(1, max_k + 1)
    ]


@record
class BpRow:
    k: int
    classical: Fraction
    free: Fraction


def bp_compare(
    classical_category: CategoryLike, t: Fraction, max_k: int
) -> list[BpRow]:
    """Classical-versus-free moment table: t^{|pi|} summed over the
    classical category's set and over its noncrossing restriction."""
    cat = as_category(classical_category)
    if cat.is_free:
        raise ValueError("bp_compare takes a classical category (S, O or U)")
    t = _positive(t)
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    rows = []
    for k in range(1, max_k + 1):
        word = _law_word(cat, k)
        rows.append(BpRow(
            k,
            _block_sum(enumerate_partitions(cat, word), t),
            _block_sum(enumerate_partitions(cat.free_version, word), t),
        ))
    return rows


@record
class ProfileRow:
    ambient_dimension: int
    truncation: int
    t: Fraction
    exact: Fraction
    asymptotic: Fraction
    difference: Fraction


def convergence_profile(
    entries: Sequence[tuple[SpaceSpec, int]], word: WordLike
) -> list[ProfileRow]:
    """Exact versus asymptotic rescaled character moments along a family.

    Each entry is (space, T); the limit parameter is t = T.M / N with N the
    ambient dimension, and the difference column is |exact - asymptotic|.
    """
    word = as_word(word)
    rows = []
    for space, t_rank in entries:
        exact = char_moment_exact(CharacterQuery(space, t_rank, word))
        t = Fraction(t_rank * space.m, space.ambient_dimension)
        asym = char_moment_asymptotic(
            [f.category for f in space.factors], word, t
        )
        rows.append(
            ProfileRow(
                space.ambient_dimension, t_rank, t, exact, asym, abs(exact - asym)
            )
        )
    return rows
