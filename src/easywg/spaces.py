"""Affine homogeneous spaces over easy quantum groups.

A space is a product of easy-group factors together with an index set:
an arbitrary subset of {1, ..., N} for a single factor, or a diagonal set
parametrized by J over the smallest factor dimension for products.  This
module holds the presets, the defining relation families, exact moment
evaluation in the rescaled coordinates (sqrt(M) times the standard ones,
keeping every value rational), and relation verification in expectation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .exact_linalg import get_weingarten
from .integrator import GroupSpec, IndexSet, _contract
from .partitions import (
    CategoryId,
    Color,
    ColoredWord,
    SetPartition,
    WordLike,
    as_category,
    as_word,
    enumerate_partitions,
    kernel_partition,
)


@dataclass(frozen=True)
class SpaceSpec:
    """Factors plus index set.

    With one factor the index set is an arbitrary subset of the coordinate
    range; with several factors it is the diagonal parameter J, i.e. the
    actual ambient index set is {(c, ..., c) | c in J}, and J must sit
    inside {1, ..., min of the factor dimensions}.
    """

    factors: tuple[GroupSpec, ...]
    index: IndexSet

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("a space needs at least one factor")
        bound = min(f.dimension for f in self.factors)
        limit = self.factors[0].dimension if len(self.factors) == 1 else bound
        if self.index.members[-1] > limit:
            raise ValueError(f"index set exceeds {{1,...,{limit}}}")

    @property
    def m(self) -> int:
        return self.index.size

    @property
    def ambient_dimension(self) -> int:
        n = 1
        for f in self.factors:
            n *= f.dimension
        return n

    @property
    def is_product(self) -> bool:
        return len(self.factors) > 1

    @property
    def text(self) -> str:
        body = "x".join(f.text for f in self.factors)
        tag = "J" if self.is_product else "I"
        return f"{body}/{tag}={self.index.text}"

    def coordinates(self) -> Iterator:
        """All coordinate labels: ints for one factor, tuples for products."""
        if not self.is_product:
            yield from range(1, self.factors[0].dimension + 1)
        else:
            ranges = [range(1, f.dimension + 1) for f in self.factors]
            yield from itertools.product(*ranges)

    def validate_indices(self, indices: Sequence, length: int) -> tuple:
        indices = tuple(indices)
        if len(indices) != length:
            raise ValueError(f"expected {length} indices, got {len(indices)}")
        if not self.is_product:
            for x in indices:
                if isinstance(x, tuple):
                    raise ValueError("single-factor space queried with tuple indices")
                if not 1 <= x <= self.factors[0].dimension:
                    raise ValueError(f"index {x} out of range")
        else:
            s = len(self.factors)
            for x in indices:
                if not isinstance(x, tuple) or len(x) != s:
                    raise ValueError(
                        "product space requires one index tuple per leg, "
                        f"with {s} components; got {x!r}"
                    )
                for comp, f in zip(x, self.factors):
                    if not 1 <= comp <= f.dimension:
                        raise ValueError(f"index component {comp} out of range")
        return indices


_PRESET_NAMES = (
    "free-complex-sphere",
    "free-real-sphere",
    "classical-sphere",
    "group-as-space",
    "column-space",
)


def preset(name: str, *params) -> SpaceSpec:
    """The named space with its parameters.

    free-complex-sphere(N); free-real-sphere(N);
    classical-sphere(category O|U, N); group-as-space(category, N);
    column-space(category, N, M with M <= N).
    """
    if name == "free-complex-sphere":
        (n,) = params
        return SpaceSpec((GroupSpec(CategoryId.U_PLUS, int(n)),), IndexSet((1,)))
    if name == "free-real-sphere":
        (n,) = params
        return SpaceSpec((GroupSpec(CategoryId.O_PLUS, int(n)),), IndexSet((1,)))
    if name == "classical-sphere":
        cat, n = params
        cat = as_category(cat)
        if cat not in (CategoryId.O, CategoryId.U):
            raise ValueError("classical-sphere takes category O or U")
        return SpaceSpec((GroupSpec(cat, int(n)),), IndexSet((1,)))
    if name == "group-as-space":
        cat, n = params
        n = int(n)
        g = GroupSpec(as_category(cat), n)
        return SpaceSpec((g, g), IndexSet(tuple(range(1, n + 1))))
    if name == "column-space":
        cat, n, m = params
        n, m = int(n), int(m)
        if m > n:
            raise ValueError("column-space requires M <= N")
        cat = as_category(cat)
        return SpaceSpec(
            (GroupSpec(cat, n), GroupSpec(cat, m)),
            IndexSet(tuple(range(1, m + 1))),
        )
    raise ValueError(f"unknown preset {name!r}; expected one of {_PRESET_NAMES}")


def parse_space(text: str) -> SpaceSpec:
    """Parse either the factor grammar or a preset invocation.

    Factor grammar: "O+:5/I=1,2" for a single factor, "O:4xO:2/J=1,2" for
    a diagonal product.  Presets: "free-real-sphere:5",
    "classical-sphere:U:3", "group-as-space:O:3", "column-space:O+:4:2".
    """
    head = text.split(":", 1)[0]
    if head in _PRESET_NAMES:
        parts = text.split(":")
        return preset(parts[0], *parts[1:])
    if "/" not in text:
        raise ValueError(f"cannot parse space {text!r}")
    body, index_part = text.split("/", 1)
    factors = tuple(GroupSpec.parse(p) for p in body.split("x"))
    tag, _, members = index_part.partition("=")
    if tag not in ("I", "J") or not members:
        raise ValueError(f"cannot parse index set in {text!r}")
    if tag == "I" and len(factors) > 1:
        raise ValueError("products only support diagonal index sets (J=...)")
    return SpaceSpec(factors, IndexSet.parse(members))


# ---------------------------------------------------------------------------
# Moment kernels.
#
# For a word w the kernel of a space is the tensor, over tuples of factor
# partitions pi = (pi_1, ..., pi_s), of
#     y[pi] = sum_sigma M^{|sigma_1 v ... v sigma_s|} prod_r W_r(pi_r, sigma_r)
# so that the rescaled moment at indices i is  sum_pi delta_pi(i) y[pi],
# a truncated-character moment is  sum_pi T^{|v pi|} y[pi],  and relation
# verification contracts y with counting matrices.  Kernels are memoized:
# they depend only on the factor list, M, and (for color-sensitive factor
# categories) the word's colors.


def _joined_tuples(
    space: SpaceSpec, word: ColoredWord
) -> list[tuple[tuple[SetPartition, ...], int]]:
    """The word's tuples of factor partitions in row-major order, each with
    the block count of its join; empty when a factor has no partitions."""
    out = []
    dlists = [enumerate_partitions(f.category, word) for f in space.factors]
    for combo in itertools.product(*dlists):
        j = combo[0]
        for p in combo[1:]:
            j = j.join(p)
        out.append((combo, j.block_count))
    return out


@dataclass(frozen=True)
class _Kernel:
    dlists: tuple[tuple[SetPartition, ...], ...]
    shape: tuple[int, ...]
    values: tuple[int, ...]  # flat, row-major over the shape
    blocks: tuple[int, ...]  # join block count per position, same order
    denominator: int


_KERNELS: dict = {}


def _word_key(space: SpaceSpec, word: ColoredWord) -> "str | int":
    if any(f.category.color_sensitive for f in space.factors):
        return word.text
    return len(word)


def _kernel(space: SpaceSpec, word: ColoredWord) -> _Kernel:
    key = (space.factors, space.m, _word_key(space, word))
    hit = _KERNELS.get(key)
    if hit is not None:
        return hit
    dlists = tuple(
        tuple(enumerate_partitions(f.category, word)) for f in space.factors
    )
    shape = tuple(len(d) for d in dlists)
    blocks = tuple(b for _, b in _joined_tuples(space, word))
    values: "list[int] | tuple[int, ...]" = ()
    den = 1
    if blocks:  # an empty partition set needs no Weingarten matrix
        wgs = [get_weingarten(f.category, word, f.dimension) for f in space.factors]
        values = _contract([space.m**b for b in blocks], shape, [wg.numerators for wg in wgs])
        den = math.prod(wg.denominator for wg in wgs)
    kern = _Kernel(dlists, shape, tuple(values), blocks, den)
    _KERNELS[key] = kern
    return kern


def _factor_components(space: SpaceSpec, indices: tuple) -> list[tuple]:
    if not space.is_product:
        return [indices]
    return [tuple(x[r] for x in indices) for r in range(len(space.factors))]


def _moment_from_kernel(space: SpaceSpec, kern: _Kernel, indices: tuple) -> Fraction:
    if not kern.values:
        return Fraction(0)
    comps = _factor_components(space, indices)
    rows = [[[p.delta(comp) for p in dlist]] for dlist, comp in zip(kern.dlists, comps)]
    return Fraction(_contract(kern.values, kern.shape, rows)[0], kern.denominator)


def space_moment(space: SpaceSpec, word: WordLike, indices: Sequence) -> Fraction:
    """Rescaled moment of a coordinate monomial over the space.

    Coordinates are h_i = sqrt(M) x_i, which makes every moment rational;
    the unscaled moment is this value times M^(-k/2).  For product spaces
    each index is a tuple with one component per factor.
    """
    word = as_word(word)
    indices = space.validate_indices(indices, len(word))
    return _moment_from_kernel(space, _kernel(space, word), indices)


# ---------------------------------------------------------------------------
# Relations.


@dataclass(frozen=True)
class Relation:
    """One defining relation: sum over delta-fitting indices of the word
    monomial equals M ** join_blocks in rescaled coordinates (that is,
    M ** (join_blocks - k/2) unscaled)."""

    word: ColoredWord
    partitions: tuple[SetPartition, ...]
    join_blocks: int

    @property
    def k(self) -> int:
        return len(self.word)


def _all_words(max_k: int) -> Iterator[ColoredWord]:
    for k in range(max_k + 1):
        for colors in itertools.product((Color.WHITE, Color.BLACK), repeat=k):
            yield ColoredWord(colors)


def relation_set(space: SpaceSpec, max_k: int) -> list[Relation]:
    """All defining relations for words of length <= max_k.

    One relation per colored word and per tuple of factor partitions; the
    right-hand side exponent is the block count of the superposition join.
    """
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    return [
        Relation(word, combo, blocks)
        for word in _all_words(max_k)
        for combo, blocks in _joined_tuples(space, word)
    ]


@dataclass(frozen=True)
class RelationCheck:
    relation: Relation
    monomial_word: ColoredWord
    monomial_indices: tuple
    ok: bool
    lhs: "Fraction | None" = None  # recorded on failure only
    rhs: "Fraction | None" = None


@dataclass
class VerificationReport:
    space: SpaceSpec
    max_k: int
    test_degree: int
    checks: list[RelationCheck]

    @property
    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.ok]

    @property
    def all_passed(self) -> bool:
        return not self.failures


def _count_matrix(
    heads: Sequence[SetPartition], fulls: Sequence[SetPartition], tail: tuple, n: int
) -> list[list[int]]:
    """Entry [h][w]: the number of head tuples in {1..n}^k fitting h whose
    concatenation with `tail` fits w on k+d legs.

    With J = (h + ker tail) v w, the tuple is constant on the blocks of J,
    so the count is n^(|J| - |ker tail|) when J restricted to the tail legs
    is ker tail, and 0 when J would equate two distinct tail values.  The
    restriction is never finer than ker tail, so the two are equal exactly
    when they have the same number of blocks.
    """
    ker = kernel_partition(tail)
    out = []
    for h in heads:
        k = h.ground_size
        both = SetPartition(h.rgs + tuple(h.block_count + x for x in ker.rgs))
        row = []
        for w in fulls:
            j = both.join(w)
            fits = len(set(j.rgs[k:])) == ker.block_count
            row.append(n ** (j.block_count - ker.block_count) if fits else 0)
        out.append(row)
    return out


def _outcomes(
    space: SpaceSpec, relations: list[Relation], f_word: ColoredWord, j: tuple
) -> list[tuple]:
    """(ok, lhs, rhs) for each relation of one word against the test
    monomial f_word at j; only the per-factor equality pattern of j
    matters.  Exact values are built for failures only."""
    e_word = relations[0].word
    kern_w = _kernel(space, e_word + f_word)
    m_j = _moment_from_kernel(space, _kernel(space, f_word), j)
    lvec = [0] * len(relations)  # no partition tuples: every integral is 0
    if kern_w.values:
        lvec = _contract(kern_w.values, kern_w.shape, [
            _count_matrix(enumerate_partitions(f.category, e_word), fulls, comp, f.dimension)
            for f, fulls, comp in zip(space.factors, kern_w.dlists, _factor_components(space, j))
        ])
    out = []
    for lhs, rel in zip(lvec, relations):
        scale = space.m**rel.join_blocks
        if lhs * m_j.denominator == scale * m_j.numerator * kern_w.denominator:
            out.append((True, None, None))
        else:
            out.append((False, Fraction(lhs, kern_w.denominator), scale * m_j))
    return out


def verify_relations(space: SpaceSpec, max_k: int, test_degree: int) -> VerificationReport:
    """Check every relation in expectation against every test monomial.

    For a relation with left side L (a delta-weighted sum of degree-k
    monomials) and right side a power of M, and for each monomial m of
    degree <= test_degree, the exact identity  integral(L . m) =
    RHS . integral(m)  is evaluated in rescaled coordinates; failures are
    reported with both exact values.  Each outcome depends only on the
    relation word's key, the test word's key and the per-factor equality
    pattern of the test indices, so it is decided once per call.
    """
    if test_degree < 0:
        raise ValueError("test_degree must be >= 0")
    tuples = {  # test indices of each length, with their equality patterns
        d: [
            (j, tuple(kernel_partition(c).rgs for c in _factor_components(space, j)))
            for j in itertools.product(space.coordinates(), repeat=d)
        ]
        for d in range(test_degree + 1)
    }
    tests = [(f, _word_key(space, f)) for f in _all_words(test_degree)]
    decided: dict = {}
    checks: list[RelationCheck] = []
    for e_word, group in itertools.groupby(relation_set(space, max_k), key=lambda r: r.word):
        rels = list(group)
        e_key = _word_key(space, e_word)
        for f_word, f_key in tests:
            for j, pattern in tuples[len(f_word)]:
                key = (e_key, f_key, pattern)
                found = decided.get(key)
                if found is None:
                    found = decided[key] = _outcomes(space, rels, f_word, j)
                checks.extend(
                    RelationCheck(rel, f_word, j, *o) for rel, o in zip(rels, found)
                )
    return VerificationReport(space, max_k, test_degree, checks)
