"""The partition-lattice route for S factors.

`integrator._inverse_rows` gives S the inverse X = mu^T D^+ mu on the
lattice of set partitions instead of the Weingarten matrix, and every
other category the Weingarten matrix; space kernels and `group_moment`
both take it from there.  Both are generalized inverses of the same Gram
matrix, so every moment-level number must agree.  These tests compare the
two routes on such numbers, the `engine` fixture sending S through the
Weingarten branch, and the lattice route with closed forms and the
exhaustive S_n oracle.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import easywg.exact_linalg as xl
import easywg.integrator as integrator
import easywg.spaces as spaces
from easywg.characters import CharacterQuery, char_moment_exact
from easywg.exact_linalg import get_weingarten, gram_matrix
from easywg.integrator import GroupSpec, IndexSet, MomentQuery, _contract_axis, group_moment
from easywg.oracles import sn_exhaustive_space_moment
from easywg.partitions import CategoryId, enumerate_partitions
from easywg.spaces import parse_space, space_moment, verify_relations
from fraction_reference import clear_caches, join
from verify_reference import force_false, kernel_partition


# ---------------------------------------------------------------------------
# The Moebius function, read off the operator's row sets: the first is
# mu scaled by L D^+ over the partitions with at most n blocks, and the
# second is mu^T.

def test_interval_counts():
    # OEIS A000258: the number of intervals of the lattice of set partitions;
    # at n >= k every partition keeps its row, one entry per coarsening
    counts = [sum(map(len, integrator._lattice_operator(k, 10)[0][0])) for k in range(9)]
    assert counts == [1, 1, 3, 12, 60, 358, 2471, 19302, 167894]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("k", range(6))
def test_mobius_inverts_the_zeta_matrix(k):
    parts = enumerate_partitions("S", "o" * k)
    zeta = [[int(join(p, q) == q) for q in parts] for p in parts]
    mu = [[0] * len(parts) for _ in parts]
    for r, column in enumerate(integrator._lattice_operator(k, k + 1)[0][1]):
        for t, value in column:
            assert zeta[t][r]  # only coarsenings are listed
            mu[t][r] = value
    assert _matmul(mu, zeta) == [[int(s == t) for s in range(len(parts))]
                                 for t in range(len(parts))]


def _stirling2(k: int, b: int) -> int:
    """The number of set partitions of k points into b blocks."""
    if k == 0 or b == 0:
        return int(k == b)
    return b * _stirling2(k - 1, b) + _stirling2(k - 1, b - 1)


@pytest.mark.parametrize("k", range(1, 8))
def test_rows_only_for_partitions_that_n_keeps(k):
    # (n)_{|tau|} = 0 beyond n blocks, so D^+ drops those tau and no row is built
    for n in range(1, k):
        first, second = integrator._lattice_operator(k, n)[0]
        assert len(first) == sum(_stirling2(k, b) for b in range(n + 1))
        assert len(second) == len(enumerate_partitions("S", "o" * k))


def _exact_matmul(a, b):
    """a @ b in float64 for integer matrices, exact while every partial sum
    stays below 2**53."""
    assert np.abs(a).max() * np.abs(b).max() * a.shape[1] < 2**53
    return a @ b


@pytest.mark.parametrize("k, n", [(k, n) for k in range(6) for n in (1, 2, 3, 10)]
                         + [(7, 2), (7, 3)])
def test_lattice_operator_is_a_reflexive_generalized_inverse(k, n):
    # with G the Gram matrix and L X the operator: G X G = G and X G X = X;
    # the second fails if D^+ keeps a partition with more than n blocks
    steps, scale = integrator._lattice_operator(k, n)
    size = len(enumerate_partitions("S", "o" * k))
    flat, shape = [int(i == j) for i in range(size) for j in range(size)], (size, size)
    for rows in steps:
        flat, shape = _contract_axis(flat, shape, 0, rows)
    x = np.array(flat, dtype=float).reshape(size, size)
    g = np.array(gram_matrix("S", "o" * k, n).entries, dtype=float)
    assert np.array_equal(_exact_matmul(_exact_matmul(g, x), g), scale * g)
    assert np.array_equal(_exact_matmul(_exact_matmul(x, g), x), scale * x)


# ---------------------------------------------------------------------------
# Closed form of the S_N moments, against group_moment (the lattice).

@st.composite
def _sn_query(draw):
    n, k = draw(st.integers(1, 50)), draw(st.integers(0, 4))
    rows = draw(st.lists(st.integers(1, n), min_size=k, max_size=k))
    if draw(st.booleans()):  # an equal kernel half the time: relabel the rows
        values = sorted(set(rows))
        image = draw(st.lists(st.integers(1, n), min_size=len(values),
                              max_size=len(values), unique=True))
        cols = [dict(zip(values, image))[x] for x in rows]
    else:
        cols = draw(st.lists(st.integers(1, n), min_size=k, max_size=k))
    return n, rows, cols


@settings(max_examples=300, deadline=None)
@given(_sn_query())
def test_sn_moment_closed_form(query):
    # integral of prod u_{i_a j_a} = [ker i = ker j] (N - r)! / N!, r = |ker i|
    n, rows, cols = query
    same = kernel_partition(rows) == kernel_partition(cols)
    r = len(set(rows))
    expected = Fraction(math.factorial(n - r), math.factorial(n)) if same else 0
    got = group_moment(GroupSpec("S", n), MomentQuery("o" * len(rows), rows, cols))
    assert got == expected


def test_seven_legs_build_no_weingarten_matrix():
    # 877 partitions, the engine's largest S key at N = 10: the lattice needs none
    clear_caches()
    rows, cols = (1, 2, 1, 3, 4, 2, 1), (5, 6, 5, 7, 8, 6, 5)
    got = group_moment(GroupSpec("S", 10), MomentQuery("o" * 7, rows, cols))
    assert got == Fraction(math.factorial(10 - 4), math.factorial(10))
    assert group_moment(GroupSpec("S", 10), MomentQuery("o" * 7, rows, rows[::-1])) == 0
    assert xl._weingarten.cache_info().misses == 0


# ---------------------------------------------------------------------------
# The lattice route against the engine route.

@pytest.fixture
def engine(monkeypatch):
    """Calls a function with S factors taking the Weingarten branch of
    `_inverse_rows`, and every space kernel, verify's pair kernels
    included, verify's outcome tables and its patterns, with the left sides
    they keep, taken from memos of the test's own rather than the
    process's, so that the two routes never share a kernel or a table."""
    memos = {name: functools.lru_cache(maxsize=None)(getattr(spaces, name).__wrapped__)
             for name in ("_space_kernel", "_outcome_table", "_Patterns")}

    def call(fn, *args):
        with monkeypatch.context() as m:
            m.delitem(integrator._LATTICES, CategoryId.S)
            for name, memo in memos.items():
                m.setattr(spaces, name, memo)
            return fn(*args)
    return call


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10])
def test_group_moments_match_the_engine(n, engine):
    rng = random.Random(n)
    group = GroupSpec("S", n)
    for k in range(6):
        for _ in range(20):
            rows = [rng.randint(1, n) for _ in range(k)]
            if rng.random() < 0.5:  # an equal kernel: relabel the rows
                image = rng.sample(range(1, n + 1), n)
                cols = [image[x - 1] for x in rows]
            else:
                cols = [rng.randint(1, n) for _ in range(k)]
            query = MomentQuery("o" * k, rows, cols)
            assert group_moment(group, query) == engine(group_moment, group, query)


def _spaces(n: int) -> list[str]:
    j = ",".join(str(x) for x in range(1, min(n, 2) + 1))
    return [
        f"S:{n}/I=1",
        f"S:{n}/I={','.join(str(x) for x in range(1, n + 1))}",
        f"group-as-space:S:{n}",
        f"column-space:S:{n}:{min(n, 3)}",
        f"S:{n}xO:{n}/J={j}",
        f"S:{n}xS+:{n}/J={j}",
        f"U:{n}xS:{n}/J={j}",
    ]


SIZES = (1, 2, 3, 4, 10)  # N < k is singular
SPACES = [s for n in SIZES for s in _spaces(n)]


def _words(space) -> list[str]:
    """Words of every length up to 6 (5 where two factors have more than
    a hundred partitions at 6 legs); alternating colours reach U factors'
    nonzero kernels."""
    wide = sum(f.category.value in ("S", "S+") for f in space.factors) > 1
    return ["ob" * (k // 2) + "o" * (k % 2) for k in range(6 if wide else 7)]


def _sample(space, k: int, rng: random.Random, count: int = 12) -> list[tuple]:
    """Index tuples with repeats, so that many are nonzero."""
    out = []
    for _ in range(count):
        pool = [tuple(rng.randint(1, f.dimension) for f in space.factors)
                for _ in range(rng.randint(1, 3))]
        legs = [rng.choice(pool) for _ in range(k)]
        out.append(tuple(legs) if space.is_product else tuple(x for (x,) in legs))
    return out


@pytest.mark.parametrize("text", SPACES)
def test_space_and_character_moments_match_the_engine(text, engine):
    space = parse_space(text)
    rng = random.Random(text)
    for word in _words(space):
        for idx in _sample(space, len(word), rng):
            assert space_moment(space, word, idx) == engine(space_moment, space, word, idx)
        for t in range(1, min(f.dimension for f in space.factors) + 1):
            query = CharacterQuery(space, t, word)
            assert char_moment_exact(query) == engine(char_moment_exact, query)


def test_group_as_space_at_six_legs_matches_the_engine(engine):
    space, word = parse_space("group-as-space:S:3"), "oooooo"
    for idx in _sample(space, 6, random.Random(6), 30):
        assert space_moment(space, word, idx) == engine(space_moment, space, word, idx)
    for t in (1, 2, 3):
        query = CharacterQuery(space, t, word)
        assert char_moment_exact(query) == engine(char_moment_exact, query)


def _outcomes(report) -> tuple:
    """The check count, the verdict and the outcome table: (ok, lhs, rhs)
    per relation wherever one fails, for each pattern of test tuples."""
    return len(report.checks), report.all_passed, report.checks._table


@pytest.mark.parametrize("text", SPACES)
@pytest.mark.parametrize("forced", [False, True], ids=["true", "forced-false"])
def test_verify_outcomes_match_the_engine(text, forced, engine, monkeypatch):
    space = parse_space(text)
    if forced:  # one block too many on every right side, so failures carry values
        force_false(monkeypatch)
    max_k, degree = (2, 2) if space.is_product else (3, 2)
    report = verify_relations(space, max_k, degree)
    other = engine(verify_relations, space, max_k, degree)
    assert report.checks is not other.checks  # two builds, not one table read twice
    got = _outcomes(report)
    assert got == _outcomes(other)
    assert got[1] == (not forced or space.m == 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_space_moments_match_the_sn_oracle(n):
    for members in {(1,), tuple(range(1, n + 1)), (n,)}:
        space = spaces.SpaceSpec((GroupSpec("S", n),), IndexSet(members))
        for k in range(5):
            for idx in itertools.product(range(1, n + 1), repeat=k):
                expected = sn_exhaustive_space_moment(n, IndexSet(members), "o" * k, idx)
                assert space_moment(space, "o" * k, idx) == expected


def test_eight_legs_build_no_weingarten_matrix():
    # 4140 partitions: far beyond what the engine can invert
    clear_caches()
    space, idx = parse_space("S:6/I=1,2,3"), (1, 2, 1, 3, 1, 2, 1, 3)
    value = space_moment(space, "o" * 8, idx)
    assert value == sn_exhaustive_space_moment(6, IndexSet((1, 2, 3)), "o" * 8, idx)
    assert value == Fraction(1, 20)
    assert xl._weingarten.cache_info().misses == 0


def test_only_the_non_s_factor_uses_the_engine():
    clear_caches()
    space_moment(parse_space("S:3xO:3/J=1,2"), "oooo", ((1, 1), (2, 2), (1, 1), (2, 2)))
    assert xl._weingarten.cache_info().misses == 1
    hits = xl._weingarten.cache_info().hits
    get_weingarten("O", "oooo", 3)
    assert xl._weingarten.cache_info()[:2] == (hits + 1, 1)
