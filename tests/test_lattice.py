"""The exact-kernel route for S factors.

`integrator._inverse_rows` gives S the diagonal D^+ of the partition
lattice, which every consumer reads in exact-kernel coordinates, and
every other category the Weingarten matrix; space kernels and
`group_moment` both take it from there.  D^+ read that way and the
Weingarten matrix are generalized inverses of the same Gram matrix, so
every moment-level number must agree.  These tests check the lattice
factorization G = Z D Z^T and the row sets, compare the two routes on
such numbers, the `engine` fixture sending S through the Weingarten
branch, and check the exact-kernel route against closed forms and the
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
from easywg.integrator import GroupSpec, IndexSet, MomentQuery, group_moment
from easywg.oracles import sn_exhaustive_space_moment
from easywg.partitions import CategoryId, as_word, enumerate_partitions
from easywg.spaces import parse_space, space_moment, verify_relations
from fraction_reference import clear_caches
from verify_reference import coordinates, force_false, kernel_partition


# ---------------------------------------------------------------------------
# The lattice in exact-kernel coordinates: G = Z D Z^T with
# Z[pi, tau] = [pi <= tau] and D = diag((n)_{|tau|}), the S inverse's one
# row set L D^+, and delta rows that hold a tuple's kernel alone.

def _s_rows(k, n):
    return integrator._inverse_rows(CategoryId.S, k, n)


def _zeta(parts) -> np.ndarray:
    """Z[pi, tau] = [pi <= tau]: no two legs that pi joins are apart in
    tau, counted over the k^2 pairs of legs."""
    same = np.array([[int(a == b) for a in p.rgs for b in p.rgs] for p in parts],
                    dtype=np.int64).reshape(len(parts), -1)
    return (same @ (1 - same).T == 0).astype(np.int64)


def _exact_matmul(a, b):
    """a @ b in float64 for integer matrices, exact while every partial sum
    stays below 2**53."""
    assert np.abs(a).max(initial=0) * np.abs(b).max(initial=0) * a.shape[1] < 2**53
    return a.astype(float) @ b.astype(float)


@pytest.mark.parametrize("k, n", [(k, n) for k in range(7) for n in (1, 2, 3, 10)]
                         + [(7, 2), (7, 3)])
def test_lattice_operator_is_a_reflexive_generalized_inverse(k, n):
    # G = Z D Z^T entry for entry; with X the dense form of L D^+ from the
    # row set, D X D = L D and X D X = L X, so Z^-T X Z^-1 is a reflexive
    # generalized inverse of G; the second fails if D^+ keeps a partition
    # with more than n blocks
    parts = enumerate_partitions("S", "o" * k)
    z = _zeta(parts)
    d = np.diag([math.perm(n, p.block_count) for p in parts])
    g = np.array(gram_matrix("S", "o" * k, n).entries, dtype=np.int64)
    assert np.array_equal(_exact_matmul(_exact_matmul(z, d), z.T), g)
    (rows,), scale = _s_rows(k, n)
    x = np.zeros_like(d)
    for t, row in enumerate(rows):
        for j, c in row:
            x[t, j] = c
    assert np.array_equal(_exact_matmul(_exact_matmul(d, x), d), scale * d)
    assert np.array_equal(_exact_matmul(_exact_matmul(x, d), x), scale * x)


def _stirling2(k: int, b: int) -> int:
    """The number of set partitions of k points into b blocks."""
    if k == 0 or b == 0:
        return int(k == b)
    return b * _stirling2(k - 1, b) + _stirling2(k - 1, b - 1)


@pytest.mark.parametrize("k", range(1, 8))
def test_rows_only_for_partitions_that_n_keeps(k):
    # (n)_{|tau|} = 0 beyond n blocks, so D^+ is one integer diagonal row set
    # with an entry L / (n)_{|tau|} at each tau with at most n blocks and an
    # empty row at the others
    parts = enumerate_partitions("S", "o" * k)
    for n in range(1, k + 2):
        steps, scale = _s_rows(k, n)
        assert len(steps) == 1 and scale == math.perm(n, min(k, n))
        (rows,) = steps
        assert len(rows) == len(parts)
        kept = [t for t, row in enumerate(rows) if row]
        assert len(kept) == sum(_stirling2(k, b) for b in range(n + 1))
        for t, (row, p) in enumerate(zip(rows, parts)):
            if p.block_count <= n:
                (j, c), = row
                assert j == t and isinstance(c, int) and c * math.perm(n, p.block_count) == scale
            else:
                assert row == ()


@pytest.mark.parametrize("k", range(6))
def test_delta_row_holds_exactly_the_kernel(k):
    # a tuple's delta vector over the partitions is Z e_{ker i}: read by
    # exact kernel its row is e_{ker i}, one entry at the tuple's kernel;
    # the same partitions read as O's (not by kernel) keep every fit
    parts = enumerate_partitions("S", "o" * k)
    z = _zeta(parts)
    for idx in itertools.product(range(1, k + 1), repeat=k):
        fits = [int(p.delta(idx)) for p in parts]
        row = integrator._delta_row(CategoryId.S, parts, idx)
        assert row == [(parts.index(kernel_partition(idx)), 1)]
        assert z[:, row[0][0]].tolist() == fits
        assert integrator._delta_row(CategoryId.O, parts, idx) == [
            (j, 1) for j, f in enumerate(fits) if f]


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
    `_inverse_rows` and read, like every other factor, by fits rather than
    by exact kernel; and with every space kernel, verify's pair kernels
    included, verify's outcome tables, its patterns, with the left sides
    they keep, and its count tables, whose S entries change meaning with
    the switch, taken from memos of the test's own rather than the
    process's, so that the two routes never share a kernel or a table."""
    memos = {name: functools.lru_cache(maxsize=None)(getattr(spaces, name).__wrapped__)
             for name in ("_space_kernel", "_outcome_table", "_Patterns", "_count_table")}

    def call(fn, *args):
        integrator._EXACT_KERNEL.remove(CategoryId.S)
        try:
            with monkeypatch.context() as m:
                for name, memo in memos.items():
                    m.setattr(spaces, name, memo)
                return fn(*args)
        finally:
            integrator._EXACT_KERNEL.add(CategoryId.S)
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


@pytest.mark.parametrize("text", ["S:2xO:2/J=1", "S:2xO:2/J=1,2", "S:3xO:3/J=1",
                                  "S:3xO:3/J=1,2", "S:3xO:3/J=1,2,3"])
def test_kernels_scaled_from_m_1_match_the_engine(text, engine, monkeypatch):
    # every S x O partition tuple on oo joins to one block, so the kernel is
    # read at M = 1 and scaled by M, exact because its start (M)_1 is M; the
    # same numbers come from the engine and from a contraction at M
    space, word = parse_space(text), as_word("oo")
    categories = tuple(f.category for f in space.factors)
    assert spaces._uniform_blocks(categories, spaces._factor_keys(categories, word)) == 1
    queries = [(space_moment, space, word, idx)
               for idx in itertools.product(coordinates(space), repeat=2)]
    queries += [(char_moment_exact, CharacterQuery(space, t, word)) for t in range(1, 3)]
    at_m = functools.lru_cache(maxsize=None)(spaces._space_kernel.__wrapped__)
    for fn, *args in queries:
        got = fn(*args)
        assert got == engine(fn, *args)
        with monkeypatch.context() as m:
            m.setattr(spaces, "_uniform_blocks", lambda *a: None)
            m.setattr(spaces, "_space_kernel", at_m)
            assert got == fn(*args)


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
