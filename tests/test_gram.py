"""The whole-matrix Gram construction and the delayed-reduction sweep,
each against a plain route to the same numbers.

`gram_matrix` computes every join block count at once by a bitmask
closure; here each entry is compared with `SetPartition.join` pair by pair.
`_sweep` reduces the whole matrix only every `_CHUNK` pivots; with
`_CHUNK` patched small the periodic reduction runs many times, and the
residues must not change.  Its profile is the rational greedy basis of the
Fraction reference.
"""

import itertools

import numpy as np
import pytest

import easywg.exact_linalg as xl
from easywg.exact_linalg import gram_matrix
from easywg.partitions import enumerate_partitions
from fraction_reference import bordering_weingarten

ALL_CATEGORIES = ["S", "O", "U", "S+", "O+", "U+"]
DIMENSIONS = (1, 2, 3, 10)


def _words(cat: str, max_k: int) -> list[str]:
    """Every word length up to max_k; balanced coloured words for U, U+."""
    if cat not in ("U", "U+"):
        return ["o" * k for k in range(max_k + 1)]
    return ["".join(w) for k in range(0, max_k + 1, 2)
            for w in sorted(set(itertools.permutations("o" * (k // 2) + "b" * (k // 2))))]


def _reference_counts(index) -> list[list[int]]:
    """|p v q| by one SetPartition.join per unordered pair."""
    counts = [[0] * len(index) for _ in index]
    for i, p in enumerate(index):
        for j in range(i, len(index)):
            counts[i][j] = counts[j][i] = p.join(index[j]).block_count
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


def test_slabs_split_the_rows(monkeypatch):
    index = tuple(enumerate_partitions("S", "ooooo"))
    whole = xl._join_block_counts(index, 5)
    for slab in (1, 7, 5 * len(index) + 3):  # one row, a ragged split, a slab per row
        monkeypatch.setattr(xl, "_SLAB", slab)
        assert np.array_equal(xl._join_block_counts(index, 5), whole), slab


# Gram matrices for the elimination tests: (category, word, N, singular).
ELIMINATION_KEYS = [
    ("S", "oooo", 2, True),
    ("S", "ooooo", 3, True),
    ("O", "oooooo", 2, True),
    ("S+", "oooooo", 2, True),
    ("U", "oobbob", 2, True),
    ("S", "ooooo", 10, False),
    ("O+", "oooooooo", 10, False),
    ("U+", "obobobob", 4, False),
]


def _sweep(cat, word, n, p):
    a = xl._residues(gram_matrix(cat, word, n), p)
    return (a, *xl._sweep(a.copy(), p))


@pytest.mark.parametrize("cat,word,n,singular", ELIMINATION_KEYS)
def test_delayed_reduction_keeps_residues(monkeypatch, cat, word, n, singular):
    basis = list(bordering_weingarten(gram_matrix(cat, word, n).entries)[0])
    for p in (xl._prime(0), xl._prime(1)):
        a, profile, block = _sweep(cat, word, n, p)
        assert profile == basis, p
        assert (len(profile) < len(a)) == singular
        # the real chunk against plain modular arithmetic
        kept = a[np.ix_(profile, profile)]
        assert np.array_equal(kept @ block % p, np.eye(len(profile), dtype=np.int64))
        assert block.min() >= 0 and block.max() < p
        for chunk in (1, 2, 3):
            monkeypatch.setattr(xl, "_CHUNK", chunk)
            _, profile_c, block_c = _sweep(cat, word, n, p)
            assert profile_c == profile, (chunk, p)
            assert np.array_equal(block_c, block), (chunk, p)
        monkeypatch.undo()


@pytest.mark.parametrize("cat,word", sorted({key[:2] for key in ELIMINATION_KEYS}))
def test_dimension_equal_to_the_prime_sweeps_nothing(cat, word):
    # every entry is a positive power of N, so G = 0 modulo p = N
    p = xl._prime(0)
    _, profile, block = _sweep(cat, word, p, p)
    assert profile == [] and block.shape == (0, 0)


@pytest.mark.parametrize("cat,word,n,singular", ELIMINATION_KEYS)
def test_periodic_reduction_prevents_overflow(monkeypatch, cat, word, n, singular):
    # With p = 2**31 - 1 a single pivot update is near 2**62, so int64 holds
    # at most two unreduced updates: chunks of 1 and 2 fit the bound, and a
    # sweep that skipped the periodic reduction would wrap.  Python ints
    # (object arrays) never wrap and give the reference residues.
    p = 2**31 - 1
    a = xl._residues(gram_matrix(cat, word, n), p)
    profile, block = xl._sweep(a.astype(object), p)
    for chunk in (1, 2):
        assert chunk * (p - 1) ** 2 + p < 2**63
        monkeypatch.setattr(xl, "_CHUNK", chunk)
        got_profile, got_block = xl._sweep(a.copy(), p)
        assert got_profile == profile, chunk
        assert np.array_equal(got_block, block), chunk
