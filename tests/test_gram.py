"""The whole-matrix Gram construction, the blocked sweep and the float64
modular products, each against a plain route to the same numbers.

`gram_matrix` computes every join block count at once by a bitmask
closure; here each entry is compared with the reference `join` pair by pair.
`_sweep` pivots through panels of `_PANEL` diagonals and updates the
matrix once per panel; with `_PANEL` patched small the panel updates run
many times, and the residues must equal those of an unblocked sweep on
Python ints.  Its profile is the rational greedy basis of the Fraction
reference.  `_matmul_mod` is compared with Python-int products, and `_reconstruct`
with the random rational matrices it was given.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import easywg.exact_linalg as xl
from easywg.exact_linalg import WeingartenMatrix, gram_matrix
from easywg.partitions import enumerate_partitions
from fraction_reference import bordering_weingarten, clear_caches, join

ALL_CATEGORIES = ["S", "O", "U", "S+", "O+", "U+"]
DIMENSIONS = (1, 2, 3, 10)


def _words(cat: str, max_k: int) -> list[str]:
    """Every word length up to max_k; balanced coloured words for U, U+."""
    if cat not in ("U", "U+"):
        return ["o" * k for k in range(max_k + 1)]
    return ["".join(w) for k in range(0, max_k + 1, 2)
            for w in sorted(set(itertools.permutations("o" * (k // 2) + "b" * (k // 2))))]


def _reference_counts(index) -> list[list[int]]:
    """|p v q| by one reference join per unordered pair."""
    counts = [[0] * len(index) for _ in index]
    for i, p in enumerate(index):
        for j in range(i, len(index)):
            counts[i][j] = counts[j][i] = join(p, index[j]).block_count
    return counts


@pytest.mark.parametrize("cat", ALL_CATEGORIES)
def test_gram_equals_pairwise_joins(cat):
    for word in _words(cat, 7):
        index = tuple(enumerate_partitions(cat, word))
        counts = _reference_counts(index)
        for n in DIMENSIONS:
            g = gram_matrix(cat, word, n)
            assert g.index == index, (cat, word)
            assert g.entries == tuple(tuple(n**c for c in row) for row in counts), (cat, word, n)
            assert all(type(x) is int for row in g.entries for x in row)


@pytest.mark.parametrize("cat,word", [
    ("U", "ooo"), ("U", "o"), ("U+", "oob"), ("U", "o" * 70), ("U+", "b" * 100),
])
def test_empty_partition_set_gives_empty_gram(cat, word):
    for n in DIMENSIONS:
        g = gram_matrix(cat, word, n)
        assert g.index == () and g.entries == ()


@pytest.mark.parametrize("cat", ALL_CATEGORIES)
def test_empty_word(cat):
    for n in DIMENSIONS:
        g = gram_matrix(cat, "", n)
        assert [p.rgs for p in g.index] == [()] and g.entries == ((1,),)


@pytest.mark.parametrize("cat,word,blocks", [
    ("S", "o", 1), ("O", "oo", 1), ("O+", "oo", 1), ("U", "ob", 1), ("U+", "bo", 1),
])
def test_single_partition_set(cat, word, blocks):
    for n in DIMENSIONS:
        g = gram_matrix(cat, word, n)
        assert len(g.index) == 1 and g.entries == ((n**blocks,),)


def test_masks_wider_than_a_byte():
    # k <= 8 fits uint8 masks; these need uint16 (k = 10, 12) and uint32 (k = 18)
    for cat, word in (("O+", "o" * 10), ("O+", "o" * 12), ("U+", "obobobobob"),
                      ("U+", "oobb" * 4 + "ob"), ("U+", "ooobbb" * 3)):
        index = tuple(enumerate_partitions(cat, word))
        counts = np.array(_reference_counts(index))
        assert np.array_equal(xl._join_block_counts(index, len(word)), counts), (cat, word)


def test_join_counts_are_shared_by_every_dimension():
    # above _SMALL the counts are computed once per category and word key,
    # as one read-only array that the Gram matrices of every N hold
    clear_caches()
    for cat, word in (("S", "ooooo"), ("U", "oooobbbb"), ("U", "obobobob"), ("O+", "o" * 8)):
        grams = [gram_matrix(cat, word, n) for n in DIMENSIONS]
        assert len(grams[0].index) > xl._SMALL
        assert all(g.counts is grams[0].counts for g in grams)
        assert not grams[0].counts.flags.writeable
        assert np.array_equal(grams[0].counts, _reference_counts(grams[0].index)), (cat, word)
    assert xl._join_counts.cache_info()[:2] == (4 * len(DIMENSIONS) - 4, 4)


def test_slabs_split_the_rows(monkeypatch):
    index = tuple(enumerate_partitions("S", "ooooo"))
    whole = xl._join_block_counts(index, 5)
    for slab in (1, 7, 5 * len(index) + 3):  # one row, a ragged split, a slab per row
        monkeypatch.setattr(xl, "_SLAB", slab)
        assert np.array_equal(xl._join_block_counts(index, 5), whole), slab


# Gram matrices for the elimination tests: (category, word, N, singular).
# S o^6 at N=2 (203 indices, basis 32) has skipped diagonals inside panels
# at every width below, the default included.
ELIMINATION_KEYS = [
    ("S", "oooo", 2, True),
    ("S", "ooooo", 3, True),
    ("O", "oooooo", 2, True),
    ("S+", "oooooo", 2, True),
    ("U", "oobbob", 2, True),
    ("S", "oooooo", 2, True),
    ("S", "ooooo", 10, False),
    ("S+", "oooooo", 10, False),
    ("O+", "oooooooo", 10, False),
    ("U+", "obobobob", 4, False),
]
PANEL_WIDTHS = (1, 2, 3, xl._PANEL)


def _reference_sweep(a, p):
    """The unblocked sweep on Python ints (object arrays), every entry
    reduced after every pivot: the plain route to the profile and block."""
    a = a.astype(object) % p
    swept = []
    for c in range(len(a)):
        if a[c, c] == 0:
            continue
        inv = pow(int(a[c, c]), -1, p)
        col = a[:, c].copy()
        row = col * inv % p
        a = (a - np.outer(col, row)) % p
        a[c] = a[:, c] = row
        a[c, c] = -inv % p
        swept.append(c)
    return swept, (-a[np.ix_(swept, swept)] % p).astype(np.int64)


def _sweeps(monkeypatch, a, p):
    """(width, profile, block) of _sweep at every panel width."""
    for width in PANEL_WIDTHS:
        monkeypatch.setattr(xl, "_PANEL", width)
        yield (width, *xl._sweep(a.copy(), p))
    monkeypatch.undo()


def _skips_inside_a_panel(profile, n, width):
    """A skipped diagonal with a swept one before it in the same panel."""
    kept = set(profile)
    return any(c not in kept and any(b in kept for b in range(c - c % width, c))
               for c in range(n))


@pytest.mark.parametrize("cat,word,n,singular", ELIMINATION_KEYS)
def test_delayed_reduction_keeps_residues(monkeypatch, cat, word, n, singular):
    basis = list(bordering_weingarten(gram_matrix(cat, word, n).entries)[0])
    for p in (xl._prime(0), xl._prime(1)):
        a = xl._residues(gram_matrix(cat, word, n), p)
        reference = _reference_sweep(a, p)
        for width, profile, block in _sweeps(monkeypatch, a, p):
            assert profile == basis, (width, p)
            assert (len(profile) < len(a)) == singular
            kept = a[np.ix_(profile, profile)]
            assert np.array_equal(kept @ block % p, np.eye(len(profile), dtype=np.int64))
            assert block.min() >= 0 and block.max() < p
            assert (profile, block.tolist()) == (reference[0], reference[1].tolist()), (width, p)


def test_a_skipped_diagonal_falls_inside_a_panel():
    basis = list(bordering_weingarten(gram_matrix("S", "oooooo", 2).entries)[0])
    assert all(_skips_inside_a_panel(basis, 203, width) for width in PANEL_WIDTHS[1:])


@pytest.mark.parametrize("cat,word", sorted({key[:2] for key in ELIMINATION_KEYS}))
def test_dimension_equal_to_the_prime_sweeps_nothing(cat, word):
    # every entry is a positive power of N, so G = 0 modulo p = N
    p = xl._prime(0)
    a = xl._residues(gram_matrix(cat, word, p), p)
    profile, block = xl._sweep(a, p)
    assert profile == [] and block.shape == (0, 0)


@pytest.mark.parametrize("cat,word,n,singular", ELIMINATION_KEYS)
def test_periodic_reduction_prevents_overflow(monkeypatch, cat, word, n, singular):
    # With p = 2**31 - 1 a single pivot update is near 2**62, so an int64
    # entry holds at most two unreduced updates, and the products split
    # residues into 16-bit halves and take 32 inner indices (64 terms) per
    # float64 product.  Widths 3 and the default need the in-panel
    # reduction, and at the default width the first panel of S+ o^6 at N=10
    # sweeps 128 diagonals, so its products take four chunks.  Python ints
    # never wrap and give the reference residues.
    p = 2**31 - 1
    assert (2**63 - p) // (p - 1) ** 2 == 2
    assert _chunk(p) == 32
    a = xl._residues(gram_matrix(cat, word, n), p)
    profile, block = _reference_sweep(a, p)
    for width, got_profile, got_block in _sweeps(monkeypatch, a, p):
        assert got_profile == profile, width
        assert np.array_equal(got_block, block), width


# _matmul_mod against Python-int products: the largest residues, random
# ones, and inner dimensions around the panel width and the chunk length.
def _product_reference(a, b, p):
    return (a.astype(object) @ b.astype(object)) % p if a.shape[1] else np.zeros(
        (a.shape[0], b.shape[1]), dtype=object)


def _chunk(p):
    """Inner indices per float64 product: two halves below 2**s each."""
    return 2**53 // (2 * (2 ** (((p - 1).bit_length() + 1) // 2) - 1) * (p - 1))


@pytest.mark.parametrize("p", [xl._prime(0), xl._prime(11), 2**31 - 1])
def test_products_match_python_ints(p):
    rng = np.random.default_rng(p)
    step = _chunk(p)
    inner = {0, 1, 2, xl._PANEL - 1, xl._PANEL, xl._PANEL + 1,
             step - 1, step, step + 1, 2 * step + 1}
    for k in sorted(inner):
        rows, cols = (2, 3) if k > 1000 else (5, 4)
        for a, b in ((np.full((rows, k), p - 1), np.full((k, cols), p - 1)),
                     (rng.integers(0, p, (rows, k)), rng.integers(0, p, (k, cols)))):
            got = xl._matmul_mod(a.astype(np.int64), b.astype(np.int64), p)
            assert got.dtype == np.int64 and got.shape == (rows, cols)
            assert got.tolist() == _product_reference(a, b, p).tolist(), (p, k)


@pytest.mark.parametrize("shape", [(4, 0, 3), (4, 5, 0), (0, 5, 4), (0, 0, 0)])
def test_products_of_empty_shapes(shape):
    n, k, m = shape
    p = xl._prime(0)
    a = np.ones((n, k), dtype=np.int64)
    b = np.ones((k, m), dtype=np.int64)
    got = xl._matmul_mod(a, b, p)
    assert got.shape == (n, m) and got.dtype == np.int64 and not got.any()


# Rational reconstruction: random symmetric rational matrices, given by the
# upper triangle of their residues modulo three of the engine's primes.
MODULUS = xl._prime(0) * xl._prime(1) * xl._prime(2)
BOUND = math.isqrt(MODULUS // 2)


@st.composite
def _bounded_matrices(draw):
    """(r, denominator, upper-triangle numerators), all within the bound and
    the denominator prime to the modulus."""
    r = draw(st.integers(1, 5))
    den = draw(st.integers(1, BOUND).filter(lambda d: math.gcd(d, MODULUS) == 1))
    nums = draw(st.lists(st.integers(-BOUND, BOUND), min_size=r * (r + 1) // 2,
                         max_size=r * (r + 1) // 2))
    return r, den, nums


def _residues_of(fractions):
    return [f.numerator * pow(f.denominator, -1, MODULUS) % MODULUS for f in fractions]


@settings(max_examples=200, deadline=None)
@given(_bounded_matrices())
def test_reconstruct_recovers_bounded_matrices(case):
    _, den, nums = case
    truth = [Fraction(x, den) for x in nums]
    got = xl._reconstruct(lambda: iter(_residues_of(truth)), MODULUS)
    assert got is not None
    d, ys = got
    assert d == math.lcm(*(f.denominator for f in truth))
    assert [Fraction(y, d) for y in ys] == truth


@settings(max_examples=200, deadline=None)
@given(_bounded_matrices(), st.data())
def test_reconstruct_never_returns_an_unbounded_matrix(case, data):
    # one entry's numerator or denominator passes the bound, so the matrix
    # has no reconstruction within it: None, or some other matrix
    _, den, nums = case
    truth = [Fraction(x, den) for x in nums]
    at = data.draw(st.integers(0, len(truth) - 1))
    big = data.draw(st.integers(BOUND + 1, MODULUS // 2 - 1))
    if data.draw(st.booleans()):
        truth[at] = Fraction(big * data.draw(st.sampled_from([1, -1])))
    else:
        assume(math.gcd(big, MODULUS) == 1)
        truth[at] = Fraction(1, big)
    got = xl._reconstruct(lambda: iter(_residues_of(truth)), MODULUS)
    assert got is None or [Fraction(y, got[0]) for y in got[1]] != truth


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("S", "oooo", 3), ("O+", "oooooooo", 10), ("U+", "obobob", 2),
                        ("S", "ooooo", 10), ("U", "oobbob", 2)]),
       st.integers(0, 10**6), st.fractions(min_value=-4, max_value=4, max_denominator=10**4),
       st.integers(1, 4))
def test_a_wrong_matrix_is_none_or_rejected(key, at, delta, primes):
    # the residues of W with one upper-triangle entry moved by delta, under
    # a few of the engine's primes: the reconstruction is None, or a matrix
    # the certificate rejects (in Python ints for the keys of at most
    # _SMALL partitions, U+ obobob and U oobbob)
    assume(delta != 0)
    good = xl.weingarten_matrix(gram_matrix(*key))
    r = len(good.basis)
    mask = np.triu(np.ones((r, r), dtype=bool))
    upper = [Fraction(x, good.denominator) for x in np.array(good.block, dtype=object)[mask]]
    upper[at % len(upper)] += delta
    crt = xl._Garner()
    for i in range(primes):
        p = xl._prime(i)
        crt.add(np.array([f.numerator * pow(f.denominator, -1, p) % p for f in upper]), p)
    rec = xl._reconstruct(crt.values, crt.modulus)
    if rec is not None:
        assert not xl._certify(WeingartenMatrix(good.source, good.basis,
                                                *xl._symmetric_block(*rec, r)))
