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
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .integrator import (
    _EXACT_KERNEL,
    GroupSpec,
    IndexSet,
    _contract_axis,
    _contract_each,
    _delta_row,
    _inverse_rows,
)
from .partitions import (
    CategoryId,
    Color,
    ColoredWord,
    SetPartition,
    WordLike,
    _enumerate,
    _join_blocks,
    _join_forest,
    _links,
    _root,
    as_category,
    as_word,
    concat_key,
    record,
    word_key,
)


@record
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
        return math.prod(f.dimension for f in self.factors)

    @property
    def is_product(self) -> bool:
        return len(self.factors) > 1

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


# Each preset's parameters, in the order its text form gives them.
_PRESETS = {
    "free-complex-sphere": "N",
    "free-real-sphere": "N",
    "classical-sphere": "CATEGORY:N",
    "group-as-space": "CATEGORY:N",
    "column-space": "CATEGORY:N:M",
}


def preset(name: str, *params) -> SpaceSpec:
    """The named space with its parameters.

    free-complex-sphere(N); free-real-sphere(N);
    classical-sphere(category O|U, N); group-as-space(category, N);
    column-space(category, N, M with M <= N).
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {tuple(_PRESETS)}")
    usage = f"{name} takes {_PRESETS[name]}"
    fields = _PRESETS[name].split(":")
    if len(params) != len(fields):
        raise ValueError(usage)
    try:
        args = [x if f == "CATEGORY" else int(x) for f, x in zip(fields, params)]
    except (TypeError, ValueError):
        raise ValueError(usage) from None
    if name == "free-complex-sphere":
        return SpaceSpec((GroupSpec(CategoryId.U_PLUS, *args),), IndexSet((1,)))
    if name == "free-real-sphere":
        return SpaceSpec((GroupSpec(CategoryId.O_PLUS, *args),), IndexSet((1,)))
    cat, n, *rest = args
    cat = as_category(cat)
    if name == "classical-sphere":
        if cat not in (CategoryId.O, CategoryId.U):
            raise ValueError("classical-sphere takes category O or U")
        return SpaceSpec((GroupSpec(cat, n),), IndexSet((1,)))
    if name == "group-as-space":
        g = GroupSpec(cat, n)
        return SpaceSpec((g, g), IndexSet(tuple(range(1, n + 1))))
    (m,) = rest
    if m > n:
        raise ValueError("column-space requires M <= N")
    return SpaceSpec(
        (GroupSpec(cat, n), GroupSpec(cat, m)),
        IndexSet(tuple(range(1, m + 1))),
    )


def parse_space(text: str) -> SpaceSpec:
    """Parse either the factor grammar or a preset invocation.

    Factor grammar: "O+:5/I=1,2" for a single factor, "O:4xO:2/J=1,2" for
    a diagonal product.  Presets: "free-real-sphere:5",
    "classical-sphere:U:3", "group-as-space:O:3", "column-space:O+:4:2".
    """
    head = text.split(":", 1)[0]
    if head in _PRESETS:
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
    if tag == "J" and len(factors) == 1:
        raise ValueError("a single factor takes an index set I=..., not J=...")
    return SpaceSpec(factors, IndexSet.parse(members))


# ---------------------------------------------------------------------------
# Moment kernels.
#
# For a word w the kernel of a space is the tensor, over tuples of factor
# partitions pi = (pi_1, ..., pi_s), of
#     y[pi] = sum_sigma M^{|sigma_1 v ... v sigma_s|} prod_r X_r(pi_r, sigma_r)
# so that the rescaled moment at indices i is  sum_pi delta_pi(i) y[pi],
# a truncated-character moment is  sum_pi T^{|v pi|} y[pi],  and relation
# verification contracts y with counting matrices.  X_r is any generalized
# inverse of factor r's Gram matrix: each consumer contracts every axis
# with sums of delta vectors of tuples in {1..N_r}^k, which lie in the
# Gram matrix's range, so the moments do not depend on the choice.  Each
# axis is contracted with the row sets of integrator._inverse_rows, which
# group moments share: the diagonal D^+ for S factors, whose axes are read
# by exact kernel (integrator._EXACT_KERNEL), the Weingarten matrix for
# every other factor.  Moebius inversion on an S axis makes the start
# values (x)_{|J|} where every S partition is the join J, else 0
# (_weights); a delta row keeps the tuple's kernel alone, and a count
# table the entries with J = w.  A word enters as its factor
# keys, one partitions.word_key per factor, and nothing below reads the
# word itself: kernels are memoized by the factor list, M and the factor
# keys, and what depends on neither N nor M, the partition tuples' join
# block counts and verify's count tables, is memoized for the process
# under the factors' categories and keys, so that every space, dimension
# and index set shares it.  So is the part of verify's outcome tables
# that reads only the categories (_verify_plan: the relations, the test
# words and the pairs' concatenated keys).  A count table holds exponents
# of N, which its reader raises each factor's N to.  verify's equality
# patterns are memoized by the factors and the test degree, and its
# outcome tables by the factors, M, max_k and the test degree.
#
# When every partition tuple of a word joins to the same number b of
# blocks (_uniform_blocks; every word of a single O, O+, U or U+ factor,
# whose partitions all have k/2 blocks), y at M is M^b times y at M = 1.
# Such a kernel is memoized under M = 1 and read with the scale M^b
# beside it (_kernel), and so are verify's left sides, which are linear in
# it (_Patterns.lhs_vectors): every index-set size of the factors shares
# one contraction.  Other words are contracted at their M, with scale 1.


def _factor_keys(categories: Sequence[CategoryId], word: ColoredWord) -> tuple[int, ...]:
    """The word's word_key per factor category: all that its partition
    tuples, their joins and its kernels depend on."""
    return tuple(word_key(c, word) for c in categories)


@record
class _Kernel:
    dlists: tuple[tuple[SetPartition, ...], ...]
    shape: tuple[int, ...]
    values: tuple[int, ...]  # flat, row-major over the shape
    denominator: int


def _uniform_blocks(categories: tuple[CategoryId, ...], keys: tuple[int, ...]) -> "int | None":
    """The join block count that every partition tuple of the words with
    these factor keys has (0 when there are none), or None when the counts
    differ; read from the memoized joins."""
    blocks = _join_blocks(categories, keys)
    if not blocks:
        return 0
    b = blocks[0]
    return b if blocks.count(b) == len(blocks) else None


def _weights(categories: tuple[CategoryId, ...], keys: tuple[int, ...], x: int) -> list[int]:
    """x^{|J|} per partition tuple of the factor keys, J its join; with S
    axes, (x)_{|J|} when each S partition has |J| blocks, and 0 otherwise."""
    blocks = _join_blocks(categories, keys)
    if _EXACT_KERNEL.isdisjoint(categories):
        return [x**b for b in blocks]
    sizes = itertools.product(*([p.block_count if c in _EXACT_KERNEL else None for p in
                                 _enumerate(c, key)] for c, key in zip(categories, keys)))
    return [math.perm(x, b) if all(s in (None, b) for s in ss) else 0
            for b, ss in zip(blocks, sizes)]


def _kernel(space: SpaceSpec, word: ColoredWord) -> tuple[_Kernel, int]:
    """(kernel, scale): the space's kernel of the word is scale times the
    memoized kernel's values, scale = M^b read at M = 1 when the word's
    joins all have b blocks (_uniform_blocks), else 1 at the space's M.
    With an S factor b <= 1, where the start (M)_b (_weights) is M^b."""
    categories = tuple(f.category for f in space.factors)
    keys = _factor_keys(categories, word)
    b = _uniform_blocks(categories, keys)
    if b is None:
        return _space_kernel(space.factors, space.m, keys), 1
    return _space_kernel(space.factors, 1, keys), space.m**b


@lru_cache(maxsize=None)
def _space_kernel(factors: tuple[GroupSpec, ...], m: int, keys: tuple[int, ...]) -> _Kernel:
    """The kernel over the factors at M = m of the words with _factor_keys
    keys; index sets of one size share it.  When the keys' joins all have b
    blocks (_uniform_blocks), callers ask for m = 1 and scale by M^b, so
    that every index-set size shares it."""
    categories = tuple(f.category for f in factors)
    dlists = tuple(map(_enumerate, categories, keys))
    shape = tuple(len(d) for d in dlists)
    values: "list[int] | tuple[int, ...]" = ()
    den = 1
    if all(shape):  # an empty partition set needs no inverse
        values, now = _weights(categories, keys, m), shape
        for axis, (f, key) in enumerate(zip(factors, keys)):
            steps, scale = _inverse_rows(f.category, key, f.dimension)
            for rows in steps:
                values, now = _contract_axis(values, now, axis, rows)
            den *= scale
    return _Kernel(dlists, shape, tuple(values), den)


def space_moment(space: SpaceSpec, word: WordLike, indices: Sequence) -> Fraction:
    """Rescaled moment of a coordinate monomial over the space.

    Coordinates are h_i = sqrt(M) x_i, which makes every moment rational;
    the unscaled moment is this value times M^(-k/2).  For product spaces
    each index is a tuple with one component per factor.
    """
    word = as_word(word)
    indices = space.validate_indices(indices, len(word))
    kern, scale = _kernel(space, word)
    if not kern.values:
        return Fraction(0)
    # one index component per factor, the empty word's included, for which
    # zip(*indices) would give none
    comps = ([tuple(x[r] for x in indices) for r in range(len(space.factors))]
             if space.is_product else [indices])
    rows = [[[_delta_row(f.category, dlist, comp)]]
            for f, dlist, comp in zip(space.factors, kern.dlists, comps)]
    return scale * Fraction(_contract_each(kern.values, kern.shape, rows)[0][0], kern.denominator)


# ---------------------------------------------------------------------------
# Relations.


@record
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


def _all_words(max_k: int) -> tuple[ColoredWord, ...]:
    """Every colored word of length at most max_k, shortest first."""
    return tuple(ColoredWord(colors) for k in range(max_k + 1)
                 for colors in itertools.product((Color.WHITE, Color.BLACK), repeat=k))


@record
class _Plan:
    """What the outcome tables over one tuple of factor categories read of
    the categories alone, at one max_k and test degree."""

    groups: tuple  # (factor keys, relations) per relation word that has any
    tests: tuple  # (test word, factor keys, uniform blocks) per test word
    # (e_key, f_key, test degree, concatenated keys, bare, uniform blocks) per distinct pair
    pairs: tuple


@lru_cache(maxsize=None)
def _verify_plan(categories: tuple[CategoryId, ...], max_k: int, test_degree: int) -> _Plan:
    """The relations of relation_set for words of length <= max_k, the
    test words of degree <= test_degree and the (relation word key, test
    word key) pairs, memoized for the process: none of it reads N or M.

    Words with the same _factor_keys share their partition tuples and
    joins.  A pair holds the keys of a relation word followed by a test
    word, concatenated per factor (partitions.concat_key), and is bare
    when some factor has no partitions for them.  Test words and pairs
    carry _uniform_blocks of their kernel's keys (0 for a bare pair).
    """
    joined: dict = {}
    groups = []
    for word in _all_words(max_k):
        keys = _factor_keys(categories, word)
        if keys not in joined:
            joined[keys] = tuple(zip(itertools.product(*map(_enumerate, categories, keys)),
                                     _join_blocks(categories, keys)))
        if joined[keys]:
            groups.append((keys, tuple(Relation(word, combo, blocks)
                                       for combo, blocks in joined[keys])))
    tests = []
    for f_word in _all_words(test_degree):
        f_key = _factor_keys(categories, f_word)
        tests.append((f_word, f_key, _uniform_blocks(categories, f_key)))
    pairs: dict = {}
    for e_key, _ in groups:
        for f_word, f_key, _ in tests:
            if (e_key, f_key) not in pairs:
                key = tuple(map(concat_key, categories, e_key, f_key))
                bare = not all(map(_enumerate, categories, key))
                pairs[e_key, f_key] = (len(f_word), key, bare,
                                       0 if bare else _uniform_blocks(categories, key))
    return _Plan(tuple(groups), tuple(tests), tuple((*keys, *v) for keys, v in pairs.items()))


def relation_set(space: SpaceSpec, max_k: int) -> list[Relation]:
    """All defining relations for words of length <= max_k.

    One relation per colored word and per tuple of factor partitions; the
    right-hand side exponent is the block count of the superposition join.
    The relations read only the factors' categories: they are those of
    _verify_plan, in a new list on every call.
    """
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    plan = _verify_plan(tuple(f.category for f in space.factors), max_k, 0)
    return [rel for _, rels in plan.groups for rel in rels]


@record
class RelationCheck:
    relation: Relation
    monomial_word: ColoredWord
    monomial_indices: tuple
    ok: bool
    lhs: "Fraction | None" = None  # recorded on failure only
    rhs: "Fraction | None" = None


@record(frozen=False)
class VerificationReport:
    """The checks of a verification, as the lazy `_Checks` of
    `_outcome_table`, which every report over the same factors, M, max_k
    and test degree shares: its `len` is a count, and failures are found
    from its outcome table without building the passing checks."""

    space: SpaceSpec
    max_k: int
    test_degree: int
    checks: _Checks

    @property
    def failures(self) -> list[RelationCheck]:
        return list(self.checks.failing())

    @property
    def all_passed(self) -> bool:
        return next(self.checks.failing(), None) is None


@lru_cache(maxsize=None)
def _count_table(
    category: CategoryId, head: int, full: int, pattern: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Sparse rows over the category's partitions h of the word key head
    and w of the word key full, entry [h][w]: the exponent e with n^e head
    tuples in {1..n}^k fitting h whose concatenation with a tail of
    equality pattern `pattern` (a restricted-growth string on d legs) fits
    w on k+d legs.  Memoized for the process: the rows read neither N nor
    M, and their reader raises its N to the exponents.

    With J = (h + pattern) v w, the tuple is constant on the blocks of J,
    so the count is n^(|J| - |pattern|) when J restricted to the tail legs
    is the pattern, and 0 (no entry) when J would equate two distinct tail
    values.  The restriction is never finer than the pattern, so the two
    are equal exactly when they have the same number of blocks.  Read by
    exact kernel (S), the tuples' kernel must be w: only the entries with
    J = w (|J| = |w|) are kept, and their reader takes (n - |pattern|)_e.
    """
    tail = max(pattern) + 1 if pattern else 0
    full_links = [(_links(w.rgs), w.block_count if category in _EXACT_KERNEL else None)
                  for w in _enumerate(category, full)]
    out = []
    for h in _enumerate(category, head):
        k = h.ground_size
        legs = k + len(pattern)
        both = _links(h.rgs + tuple(h.block_count + x for x in pattern))
        row = []
        for c, (links, size) in enumerate(full_links):
            parent, blocks = _join_forest(legs, (both, links))
            if size in (None, blocks) and len({_root(parent, x) for x in range(k, legs)}) == tail:
                row.append((c, blocks - tail))
        out.append(tuple(row))
    return tuple(out)


@lru_cache(maxsize=None)
class _Patterns:
    """The equality patterns of test tuples on d legs: one restricted-growth
    string per factor, with at most N_r blocks for a factor of dimension N_r;
    memoized for the process by the factors and d, so that every M of the
    factors shares the patterns and the left sides kept at M = 1.

    `combos` lists them in itertools.product order over the factors; each
    stands for prod_r (N_r)_{|rho_r|} tuples (falling factorials), and
    `count` is their total, |coordinates|^d.  Every tuple of a pattern has
    the same outcomes, so a pattern is decided once, from count tables that
    read only the pattern.  Nothing here reads M: the left sides of words
    whose kernel is scaled from M = 1 are kept at M = 1, for every M.
    """

    def __init__(self, factors: tuple[GroupSpec, ...], d: int):
        self.factors = factors
        # fulls -> left sides at M = 1 and their denominator; on d test legs the
        # kernel's keys fix the relation word's (partitions.concat_key)
        self._unit: dict = {}
        everything = _enumerate(CategoryId.S, d)
        self.options = [
            [p for p in everything if p.block_count <= f.dimension] for f in factors
        ]
        self.combos = list(itertools.product(*self.options))
        self.count = math.prod(
            sum(math.perm(f.dimension, p.block_count) for p in opts)
            for f, opts in zip(factors, self.options)
        )

    def _indices(self, comps: Sequence[tuple]) -> tuple:
        """The test tuple with the given per-factor components."""
        return tuple(zip(*comps)) if len(self.factors) > 1 else comps[0]

    def lhs_vectors(self, m: int, b: "int | None", heads: tuple[int, ...],
                    fulls: tuple[int, ...], size: int) -> tuple[list, int, int]:
        """(v, scale, denominator): for each pattern, the integrals at M = m
        of the left sides of the relations of the words with factor keys
        heads times the test monomial are scale * v[pattern] / denominator.
        fulls are the kernel's factor keys, those of a relation word
        followed by the test word, and b their _uniform_blocks: when it is
        not None, v is read at M = 1, contracted once for every M, and the
        scale is m^b.  The kernel is contracted with count matrices, each
        factor's N raised to the exponents of _count_table."""
        found = None if b is None else self._unit.get(fulls)
        if found is None:
            kern = _space_kernel(self.factors, m if b is None else 1, fulls)
            if not kern.values:  # no partition tuples: every integral is 0
                v = [[0] * size] * len(self.combos)
            else:
                mats: dict = {}  # equal factors share their count matrices
                for f, opts, head, full in zip(self.factors, self.options, heads, fulls):
                    if f not in mats:
                        n = f.dimension
                        exact = f.category in _EXACT_KERNEL
                        mats[f] = [[[(c, math.perm(n - rho.block_count, e) if exact else n**e)
                                     for c, e in row]
                                    for row in _count_table(f.category, head, full, rho.rgs)]
                                   for rho in opts]
                v = _contract_each(kern.values, kern.shape, [mats[f] for f in self.factors])
            found = v, kern.denominator
            if b is not None:
                self._unit[fulls] = found
        v, den = found
        return v, 1 if b is None else m**b, den

    def tuples(self, chosen: Sequence[int]) -> list[tuple]:
        """(test tuple, pattern position) for every tuple of the chosen
        patterns, in itertools.product order over the coordinates."""
        out = []
        for i in chosen:
            comps = [
                [tuple(v[x] for x in rho.rgs)
                 for v in itertools.permutations(range(1, f.dimension + 1), rho.block_count)]
                for f, rho in zip(self.factors, self.combos[i])
            ]
            out.extend((self._indices(combo), i) for combo in itertools.product(*comps))
        out.sort()
        return out


_PASSED = (True, None, None)


class _Checks:
    """The checks of the `verify_relations` calls over one (factors, M,
    max_k, test_degree), as a lazy sequence; nothing in it reads the index
    set.

    `table[e_key, f_key][i]` holds the outcome of each relation of a word
    with factor keys e_key against a test word with factor keys f_key at
    pattern i: None when every relation passes, else one (ok, lhs, rhs) per
    relation.  The entry of a pair is None when every relation passes at
    every pattern.
    Iteration builds the checks in order: relation word, test word, test
    tuple in itertools.product order, relation.
    """

    def __init__(self, groups: list, tests: list, patterns: list, table: dict):
        self._groups, self._tests, self._patterns, self._table = groups, tests, patterns, table
        self._len = sum(len(rels) for _, rels in groups) * sum(
            patterns[len(f)].count for f, *_ in tests
        )

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[RelationCheck]:
        return self._walk(failing=False)

    def failing(self) -> Iterator[RelationCheck]:
        return self._walk(failing=True)

    def _walk(self, failing: bool) -> Iterator[RelationCheck]:
        expanded: dict = {}
        for e_key, rels in self._groups:
            passed = (_PASSED,) * len(rels)
            for f_word, f_key, _ in self._tests:
                entries = self._table[e_key, f_key]
                if entries is None:
                    if failing:
                        continue
                    entries = (None,) * len(self._patterns[len(f_word)].combos)
                chosen = tuple(
                    i for i, e in enumerate(entries) if not failing or e is not None
                )
                if not chosen:
                    continue
                key = (len(f_word), chosen)
                if key not in expanded:
                    expanded[key] = self._patterns[len(f_word)].tuples(chosen)
                for j, i in expanded[key]:
                    for rel, o in zip(rels, entries[i] or passed):
                        if not (failing and o[0]):
                            yield RelationCheck(rel, f_word, j, *o)


def verify_relations(space: SpaceSpec, max_k: int, test_degree: int) -> VerificationReport:
    """Check every relation in expectation against every test monomial.

    For a relation with left side L (a delta-weighted sum of degree-k
    monomials) and right side a power of M, and for each monomial m of
    degree <= test_degree, the exact identity  integral(L . m) =
    RHS . integral(m)  is evaluated in rescaled coordinates; failures are
    reported with both exact values.  The outcomes depend on the index set
    only through M, so they come from _outcome_table, which index sets of
    one size share.  The report's checks are built only when iterated.
    """
    if test_degree < 0:
        raise ValueError("test_degree must be >= 0")
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    checks = _outcome_table(space.factors, space.m, max_k, test_degree)
    return VerificationReport(space, max_k, test_degree, checks)


@lru_cache(maxsize=None)
def _outcome_table(
    factors: tuple[GroupSpec, ...], m: int, max_k: int, test_degree: int
) -> _Checks:
    """The checks of verify_relations over the factors at M = m, memoized
    for the process.

    Each outcome depends only on the relation word's key, the test word's
    key and the per-factor equality pattern of the test indices, so it is
    decided once per pattern, by integer cross-multiplication, and the
    pattern's tuples are counted rather than enumerated.  integral(m) is
    the integral of the empty relation word's left side, 1, times m.
    The relations, the test words and the pairs with their concatenated
    keys come from _verify_plan, which reads only the categories and which
    every N and M share.  The left sides, and so the moments, of a pair or
    test word whose joins all have b blocks are read at M = 1 from
    _Patterns, which every M shares, and scaled by M^b in the
    cross-multiplication; a second M of a single O, O+, U or U+ factor
    then contracts nothing.  A pair is decided wholesale, before any kernel
    of it is built, when the test monomial's moment is 0 at every pattern
    and the pair is bare: every integral is then 0, and 0 = M^b . 0
    passes.
    """
    categories = tuple(f.category for f in factors)
    plan = _verify_plan(categories, max_k, test_degree)
    patterns = [_Patterns(factors, d) for d in range(test_degree + 1)]
    empty = _factor_keys(categories, ColoredWord())  # the relation word whose left side is 1
    moments: dict = {}  # f_key -> the test monomial's moment at each pattern
    for f_word, f_key, b in plan.tests:
        if f_key not in moments:
            lvecs, power, den = patterns[len(f_word)].lhs_vectors(m, b, empty, f_key, 1)
            moments[f_key] = [Fraction(power * v, den) for (v,) in lvecs]
    vanishing = {f_key for f_key, ms in moments.items() if not any(ms)}
    scales = {e_key: [m**rel.join_blocks for rel in rels] for e_key, rels in plan.groups}
    table: dict = {}
    for e_key, f_key, d, key, bare, b in plan.pairs:
        if bare and f_key in vanishing:
            table[e_key, f_key] = None  # 0 = M^b . 0 for every check
            continue
        entries = []
        lvecs, power, den = patterns[d].lhs_vectors(m, b, e_key, key, len(scales[e_key]))
        for lvec, m_j in zip(lvecs, moments[f_key]):
            left, right = power * m_j.denominator, m_j.numerator * den
            outs = tuple(
                _PASSED if lhs * left == s * right
                else (False, Fraction(power * lhs, den), s * m_j)
                for lhs, s in zip(lvec, scales[e_key])
            )
            entries.append(None if all(o is _PASSED for o in outs) else outs)
        table[e_key, f_key] = entries if any(entries) else None
    return _Checks(plan.groups, plan.tests, patterns, table)
