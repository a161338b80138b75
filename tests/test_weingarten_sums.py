"""Differential tests of the kernel contractions against explicit sums.

Each route of the library (space moments, truncated-character moments,
the counting matrices of relation verification) is compared with the
Weingarten double sum written out over explicit index tuples.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import easywg.integrator as integrator
import easywg.spaces as spaces
from easywg.characters import CharacterQuery, char_moment_exact
from easywg.exact_linalg import get_weingarten
from easywg.partitions import ColoredWord, as_category, as_word, enumerate_partitions
from easywg.spaces import parse_space, relation_set, space_moment
from verify_reference import _count_matrix, coordinates, force_false


def _fits(parts, tuples: np.ndarray) -> np.ndarray:
    """fits[p, t] = 1 when tuple t is constant on every block of parts[p]."""
    out = np.ones((len(parts), len(tuples)), dtype=np.int64)
    for row, p in zip(out, parts):
        for block in p.blocks:
            for x in block[1:]:
                row &= tuples[:, block[0] - 1] == tuples[:, x - 1]
    return out


def _keyed_words(category, length: int) -> list[ColoredWord]:
    """One word of the given length per word key of the category: every
    coloured word for U and U+, balanced or not, and o^length otherwise."""
    if not category.color_sensitive:
        return [as_word("o" * length)]
    return [as_word("".join(w)) for w in itertools.product("ob", repeat=length)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_count_matrix_against_brute_force(n):
    # every category and every pair of word keys with k + d <= 6; one tail
    # per kernel with at most n values, written with values counted down
    # from n: the one N-free count table, raised to n, counts the tuples
    for category in map(as_category, ("S", "S+", "O", "O+", "U", "U+")):
        for k in range(7):
            tuples = list(itertools.product(range(1, n + 1), repeat=k))
            head_tuples = np.array(tuples, dtype=np.int64).reshape(len(tuples), k)
            for head in _keyed_words(category, k):
                heads = enumerate_partitions(category, head)
                fit_heads = _fits(heads, head_tuples)
                for d in range(7 - k):
                    for tail_word in _keyed_words(category, d):
                        full = ColoredWord(head.colors + tail_word.colors)
                        fulls = enumerate_partitions(category, full)
                        for ker in enumerate_partitions("S", "o" * d):
                            if ker.block_count > n:
                                continue
                            tail = tuple(n - label for label in ker.rgs)
                            tails = np.tile(np.array(tail, dtype=np.int64), (len(tuples), 1))
                            joined = np.hstack([head_tuples, tails])
                            expected = [[(w, c) for w, c in enumerate(row) if c]
                                        for row in (fit_heads @ _fits(fulls, joined).T).tolist()]
                            got = _count_matrix(category, head, full, tail, n)
                            assert got == expected, (category, head, full, tail)


def _explicit(space, word, row_weight) -> Fraction:
    """sum over partition tuples (pi, sigma) of row_weight(pi) * prod_r W_r(pi_r,
    sigma_r) * K(sigma), with K(sigma) summed over explicit index tuples j
    in J^k, the same j for every factor."""
    word = as_word(word)
    wgs = [get_weingarten(f.category, word, f.dimension) for f in space.factors]
    ranges = [range(len(wg.index)) for wg in wgs]
    entries = [wg.entries for wg in wgs]
    js = list(itertools.product(space.index.members, repeat=len(word)))
    total = Fraction(0)
    for pis in itertools.product(*ranges):
        weight = row_weight([wg.index[a] for wg, a in zip(wgs, pis)])
        if not weight:
            continue
        for sigmas in itertools.product(*ranges):
            w = math.prod(e[a][b] for e, a, b in zip(entries, pis, sigmas))
            k_sigma = sum(
                all(wg.index[b].delta(j) for wg, b in zip(wgs, sigmas)) for j in js
            )
            total += weight * w * k_sigma
    return total


CASES = [
    ("S:4/I=1,3", "ooo", [(1, 1, 2), (3, 3, 3), (1, 2, 4), (2, 2, 1)]),
    ("U:2xU+:3/J=1,2", "obob",
     [((1, 1), (1, 1), (2, 2), (2, 2)), ((1, 2), (1, 2), (1, 2), (1, 2)),
      ((1, 1), (2, 1), (1, 1), (2, 1)), ((2, 3), (2, 3), (1, 1), (1, 1))]),
]


@pytest.mark.parametrize("text,word,index_list", CASES)
def test_space_moment_against_explicit_sum(text, word, index_list):
    space = parse_space(text)
    for indices in index_list:
        comps = [indices] if not space.is_product else [
            tuple(x[r] for x in indices) for r in range(len(space.factors))
        ]

        def fits(pis):
            return all(p.delta(c) for p, c in zip(pis, comps))

        assert space_moment(space, word, indices) == _explicit(space, word, fits), indices


@pytest.mark.parametrize("text,word,truncation", [
    ("S:4/I=1,3", "ooo", 3),
    ("O:3xO+:3/J=1,2", "oooo", 2),
])
def test_char_moment_against_explicit_sum(text, word, truncation):
    space = parse_space(text)
    cs = list(itertools.product(range(1, truncation + 1), repeat=len(word)))

    def trace_weight(pis):
        return sum(all(p.delta(c) for p in pis) for c in cs)

    query = CharacterQuery(space, truncation, as_word(word))
    assert char_moment_exact(query) == _explicit(space, word, trace_weight)


def test_relation_set_builds_no_weingarten_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("relation_set asked for a Weingarten matrix")

    monkeypatch.setattr(integrator, "_weingarten", refuse)
    assert len(relation_set(parse_space("O:2xO+:2/J=1,2"), 4)) == 101


def _fitting_sum(space, relation, f_word, j) -> Fraction:
    """sum over delta-fitting indices i of the rescaled moment of the
    relation word followed by f_word, at i followed by j."""
    total = Fraction(0)
    for i in itertools.product(coordinates(space), repeat=relation.k):
        comps = [i] if not space.is_product else [
            tuple(x[r] for x in i) for r in range(len(space.factors))
        ]
        if all(p.delta(c) for p, c in zip(relation.partitions, comps)):
            total += space_moment(space, ColoredWord(relation.word.colors + f_word.colors), i + j)
    return total


def _brute_force_checks(space, max_k):
    """Each check of verify_relations at test degree 2, with its left side
    and right side computed from space moments."""
    report = spaces.verify_relations(space, max_k, 2)
    monomials = sum((2 * len(coordinates(space))) ** d for d in range(3))
    assert len(report.checks) == len(spaces.relation_set(space, max_k)) * monomials
    for c in report.checks:
        lhs = _fitting_sum(space, c.relation, c.monomial_word, c.monomial_indices)
        moment = space_moment(space, c.monomial_word, c.monomial_indices)
        yield c, lhs, space.m**c.relation.join_blocks * moment


VERIFY_CASES = [
    ("O:2/I=1", 2),  # colour-blind
    ("U:2/I=1,2", 2),  # colour-sensitive
    ("O:2xU+:2/J=1,2", 2),  # mixed product
    ("U+:2/I=1,2", 4),  # oobb and obob have different partition sets
]


@pytest.mark.parametrize("text,max_k", VERIFY_CASES)
def test_verify_outcomes_against_brute_force(text, max_k):
    for c, lhs, rhs in _brute_force_checks(parse_space(text), max_k):
        assert c.ok == (lhs == rhs), c
        assert c.ok and c.lhs is None and c.rhs is None


@pytest.mark.parametrize("text,max_k", VERIFY_CASES[1:])
def test_verify_failures_carry_brute_force_values(text, max_k, monkeypatch):
    # one block too many on every right side: the relations are false for M > 1
    force_false(monkeypatch)
    failed = 0
    for c, lhs, rhs in _brute_force_checks(parse_space(text), max_k):
        assert c.ok == (lhs == rhs), c
        if not c.ok:
            failed += 1
            assert (c.lhs, c.rhs) == (lhs, rhs), c
    assert failed
