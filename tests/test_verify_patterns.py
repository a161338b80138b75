"""Relation verification by equality pattern against the eager tuple loop.

`verify_relations` decides each (relation word, test word, equality
pattern) once and counts the pattern's tuples; `verify_reference` walks
every test tuple.  The lazy checks must equal the eager ones field by
field and in order, with true relations and with relations forced false.
"""

import collections
import functools
import itertools

import pytest

import easywg.spaces as spaces
from easywg.partitions import ColoredWord, as_category, enumerate_partitions
from easywg.spaces import parse_space, relation_set, verify_relations
from fraction_reference import clear_caches
from verify_reference import coordinates, force_false, reference_checks

DIFF_CASES = [
    ("O:2/I=1", 2, 3),  # N < d: patterns with more than N blocks are cut off
    ("U+:2/I=1,2", 4, 2),  # colour-sensitive, oobb and obob differ
    ("O:2xU+:2/J=1,2", 2, 2),  # mixed product
    ("column-space:S:3:2", 2, 2),  # factors of different dimensions
]


def _fields(c):
    return (c.relation, c.monomial_word, c.monomial_indices, c.ok, c.lhs, c.rhs)


def _compare(text, max_k, degree):
    space = parse_space(text)
    report = verify_relations(space, max_k, degree)
    expected = reference_checks(space, max_k, degree)
    assert len(report.checks) == len(expected)
    assert [_fields(c) for c in report.checks] == [_fields(c) for c in expected]
    failed = [_fields(c) for c in expected if not c.ok]
    assert [_fields(c) for c in report.failures] == failed
    assert report.all_passed == (not failed)
    return failed


@pytest.mark.parametrize("text,max_k,degree", DIFF_CASES)
def test_lazy_checks_equal_eager_loop(text, max_k, degree):
    assert not _compare(text, max_k, degree)


@pytest.mark.parametrize("text,max_k,degree", DIFF_CASES)
def test_lazy_failures_equal_eager_loop(text, max_k, degree, monkeypatch):
    force_false(monkeypatch)
    # with M = 1 the extra block changes nothing and every check still passes
    assert bool(_compare(text, max_k, degree)) == (parse_space(text).m > 1)


def test_passing_checks_are_built_only_when_iterated(monkeypatch):
    built = []
    real = spaces.RelationCheck
    monkeypatch.setattr(spaces, "RelationCheck", lambda *a: built.append(a) or real(*a))
    report = verify_relations(parse_space("O:2xO+:2/J=1,2"), 4, 3)
    assert report.all_passed and report.failures == [] and len(report.checks) == 59_085
    assert built == []
    assert sum(1 for _ in report.checks) == len(built) == 59_085


def test_work_does_not_grow_with_the_dimension(monkeypatch):
    # with N >= d every pattern occurs, so N = 3 and N = 5 have the same
    # patterns: 81 against 625 test tuples at d = 2, the same count tables;
    # from empty memos, so that both dimensions build their outcome tables
    clear_caches()
    calls = []
    real = spaces._count_table
    monkeypatch.setattr(spaces, "_count_table", lambda *key: calls.append(key) or real(*key))
    counts = []
    for n in (3, 5):
        calls.clear()
        report = verify_relations(parse_space(f"O:{n}xO+:{n}/J=1,2"), 2, 2)
        counts.append((len(calls), len(report.checks)))
    assert counts[0][0] == counts[1][0] and counts[0][1] < counts[1][1]


def _expected_count(space, max_k, degree):
    coords = len(coordinates(space))
    return len(relation_set(space, max_k)) * sum((2 * coords) ** d for d in range(degree + 1))


@pytest.mark.parametrize("text,max_k,degree,count", [
    ("group-as-space:O:3", 4, 3, 920_075),
    ("O:3xO+:3/J=1,2", 4, 3, 623_675),
    ("O:4xO+:4/J=1,2", 4, 4, 109_322_501),
])
def test_held_out_spaces_are_counted(text, max_k, degree, count):
    space = parse_space(text)
    report = verify_relations(space, max_k, degree)
    assert len(report.checks) == count == _expected_count(space, max_k, degree)
    assert report.all_passed and report.failures == []


@pytest.mark.parametrize("text", [
    "S:3/I=1,3", "U:2/I=2", "free-complex-sphere:3", "group-as-space:U:2",
    "column-space:O+:4:2", "U:2xU+:3/J=1,2", "S+:2xO:3xU:2/J=1",
])
@pytest.mark.parametrize("max_k,degree", [(0, 0), (2, 3), (3, 2)])
def test_check_count_is_relations_times_monomials(text, max_k, degree):
    space = parse_space(text)
    report = verify_relations(space, max_k, degree)
    assert len(report.checks) == _expected_count(space, max_k, degree)


# ---------------------------------------------------------------------------
# Join work shared across spaces, dimensions and index sets.

REUSE_SEQUENCE = [  # (space, test degree) at max_k 4
    ("O:2/I=1", 3),
    ("O:3/I=1,2", 2),
    ("O:3/I=2", 2),
    ("O:2xO+:2/J=1,2", 2),
    ("column-space:O+:4:2", 2),
    ("group-as-space:S:3", 1),
    ("U:2/I=1", 3),
    ("U+:3/I=1,2", 3),
    ("U+:2/I=2", 3),  # U+ at two N and two M share one plan
    ("U+:3/I=3", 3),
    ("U:2xU+:2/J=1,2", 2),
    ("group-as-space:U:2", 2),
]


@pytest.mark.parametrize("forced_false", [False, True])
@pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
def test_shared_join_work_equals_a_cold_reference(order, forced_false, monkeypatch):
    """One process verifies spaces that share categories but not N or M, so
    each reuses the memos the others left; every space's checks must equal
    the eager loop run from empty caches."""
    if forced_false:
        force_false(monkeypatch)
    clear_caches()
    warm = [
        (text, degree, [_fields(c) for c in verify_relations(parse_space(text), 4, degree).checks])
        for text, degree in REUSE_SEQUENCE[::order]
    ]
    for text, degree, got in warm:
        clear_caches()
        expected = [_fields(c) for c in reference_checks(parse_space(text), 4, degree)]
        assert got == expected, text
        # with M = 1 the extra block changes nothing and every check still passes
        failed = any(not ok for _, _, _, ok, _, _ in got)
        assert failed == (forced_false and parse_space(text).m > 1)


def test_count_tables_are_built_once_per_key(monkeypatch):
    # the nine O slots of the verify benchmark: N = 2 and 3, index sets of
    # every size; O:3 meets every pattern that O:2 does, so one O:3 slot
    # alone builds every table the nine need; the outcome tables above the
    # count tables are left unmemoized, so every slot asks for its tables,
    # index sets of one size included, unless its left sides are
    # kept: an O word's joins all have k/2 blocks, so with the _Patterns
    # memo the first slot of each dimension keeps its left sides at M = 1,
    # and the other slots, whatever their M, ask for no table
    slots = ["O:2/I=1", "O:2/I=2", "O:2/I=1,2", "O:3/I=1", "O:3/I=3", "O:3/I=1,3",
             "O:3/I=2,3", "O:3/I=1,2,3", "O:3/I=1,2,3"]
    monkeypatch.setattr(spaces, "_outcome_table", spaces._outcome_table.__wrapped__)
    build, patterns = spaces._count_table.__wrapped__, spaces._Patterns.__wrapped__

    def run(texts, kept):
        """(tables built, distinct keys asked for, lookups per space), from
        empty memos, with patterns memoized or made per outcome table."""
        table, keys, asked = functools.lru_cache(maxsize=None)(build), [], []
        monkeypatch.setattr(spaces, "_count_table", lambda *key: keys.append(key) or table(*key))
        monkeypatch.setattr(spaces, "_Patterns", functools.lru_cache(maxsize=None)(
            patterns) if kept else patterns)
        for text in texts:
            before = len(keys)
            assert verify_relations(parse_space(text), 4, 3).all_passed
            asked.append(len(keys) - before)
        return table.cache_info().misses, len(set(keys)), asked

    built, distinct, asked = run(slots, False)
    assert built == distinct and all(asked) and sum(asked) > 5 * built
    *kept, asked = run(slots, True)
    assert kept == [built, distinct]
    assert asked[0] > 0 and asked[3] > 0 and sum(asked) == asked[0] + asked[3]
    assert run(["O:3/I=2"], True)[0] == built


def test_zero_pairs_build_no_kernel(monkeypatch):
    # a U word has partitions only when balanced, so a pair's concatenation
    # has none exactly when the test word is unbalanced: such a pair is
    # passed wholesale, and only the test words and the other pairs get a
    # kernel; a U word's factor keys are its code; from empty memos, so that
    # the outcome table is built here; every U word's joins have k/2 blocks,
    # so each left side is kept at M = 1, and a pair of the empty relation
    # word reads the one its test word's moments left
    clear_caches()
    space = parse_space("U:3/I=1,2")
    calls = collections.Counter()
    real = spaces._space_kernel
    monkeypatch.setattr(spaces, "_space_kernel",
                        lambda fs, m, keys: calls.update([keys]) or real(fs, m, keys))
    report = verify_relations(space, 4, 3)
    assert report.all_passed and report.failures == []
    tests = list(spaces._all_words(3))
    heads = {r.word for r in relation_set(space, 4)}
    pairs = [(e, ColoredWord(e.colors + f.colors)) for e in heads for f in tests]
    kept = [w for e, w in pairs if enumerate_partitions("U", w)]
    assert len(heads) == 9 and len(kept) == 27
    assert set(calls) == {(w.code,) for w in tests + kept}
    contracted = [w for e, w in pairs if e and enumerate_partitions("U", w)]
    assert len(contracted) == 24
    assert calls == collections.Counter((w.code,) for w in tests + contracted)


def test_vanishing_moments_alone_decide_no_pair(monkeypatch):
    # a pair is passed wholesale only when it is bare as well: with the
    # kernel of O's two-leg words emptied, the test words on two legs have
    # vanishing moments, but their pairs with a two-leg relation word keep
    # the real four-leg kernel, whose left sides are not 0 = M^b . 0
    build = spaces._space_kernel.__wrapped__

    def kernel(factors, m, keys):
        kern = build(factors, m, keys)
        if keys == (2,):
            return spaces._Kernel(kern.dlists, kern.shape, (), kern.denominator)
        return kern
    monkeypatch.setattr(spaces, "_space_kernel", functools.lru_cache(maxsize=None)(kernel))
    for name in ("_outcome_table", "_Patterns"):  # no left side kept from the real kernel
        monkeypatch.setattr(spaces, name, functools.lru_cache(maxsize=None)(
            getattr(spaces, name).__wrapped__))
    report = verify_relations(parse_space("O:2/I=1,2"), 2, 2)
    paired = [c for c in report.failures
              if len(c.relation.word) == 2 and len(c.monomial_word) == 2]
    assert paired and all(c.rhs == 0 and c.lhs != 0 for c in paired)


# ---------------------------------------------------------------------------
# One outcome table per (factors, M, max_k, test degree).

SHARED_BODIES = [f"{cat}:{n}" for cat in ("O", "O+", "U", "U+", "S") for n in (2, 3)]


def _index_set_spaces(body: str) -> list:
    """The space over the factors of `body` at every index set."""
    tag = "J" if "x" in body else "I"
    n = min(int(f.split(":")[1]) for f in body.split("x"))
    return [parse_space(f"{body}/{tag}=" + ",".join(map(str, members)))
            for size in range(1, n + 1)
            for members in itertools.combinations(range(1, n + 1), size)]


def _outcome(report) -> tuple:
    return (len(report.checks), report.all_passed, [_fields(c) for c in report.failures],
            [_fields(c) for c in report.checks])


@pytest.mark.parametrize("forced", [False, True], ids=["true", "forced-false"])
@pytest.mark.parametrize("body", SHARED_BODIES + ["O:2xO+:2"])
def test_index_sets_of_one_size_share_one_outcome_table(body, forced, monkeypatch):
    """Every index set of one size reads the outcome table that the first
    one built, and each report equals a cold run's and holds the caller's
    space."""
    if forced:
        force_false(monkeypatch)
    table = spaces._outcome_table.__wrapped__
    max_k, degree = 3, 2
    cold = {}
    for space in _index_set_spaces(body):
        clear_caches()
        with monkeypatch.context() as m:
            m.setattr(spaces, "_outcome_table", table)  # no memo: built for this call
            cold[space] = _outcome(verify_relations(space, max_k, degree))
        assert cold[space][1] == (not forced or space.m == 1)
    memo = functools.lru_cache(maxsize=None)(table)
    monkeypatch.setattr(spaces, "_outcome_table", memo)
    for space in _index_set_spaces(body):
        report = verify_relations(space, max_k, degree)
        assert report.space is space
        assert _outcome(report) == cold[space], repr(space)
    sizes = {space.m for space in cold}
    assert memo.cache_info().misses == len(sizes)
    assert memo.cache_info().hits == len(cold) - len(sizes)


@pytest.mark.parametrize("max_k,degree,message", [
    (-1, 1, "max_k must be >= 0"),
    (1, -1, "test_degree must be >= 0"),
    (-1, -1, "test_degree must be >= 0"),
])
def test_negative_arguments_raise_before_the_memo(max_k, degree, message, monkeypatch):
    def refuse(*args):
        raise AssertionError("consulted the outcome-table memo")

    monkeypatch.setattr(spaces, "_outcome_table", refuse)
    with pytest.raises(ValueError, match=message):
        verify_relations(parse_space("O:2/I=1"), max_k, degree)


# ---------------------------------------------------------------------------
# One relation plan per (categories, max_k, test degree).

SEED_1_ROUND = """
    group-as-space:U:3 column-space:O+:4:2 O:2xO+:2/J=1 U:2xU+:2/J=1,2
    O:2/I=2 O:2/I=2 O:2/I=1,2 O:3/I=1 O:3/I=2 O:3/I=1,2 O:3/I=1,2 O:3/I=1,2,3 O:3/I=1,2,3
    O+:2/I=2 O+:2/I=1 O+:2/I=1,2 O+:3/I=3 O+:3/I=3 O+:3/I=1,2 O+:3/I=1,3 O+:3/I=1,2,3
    O+:3/I=1,2,3 U:2/I=2 U:2/I=1 U:2/I=1,2 U:3/I=2 U:3/I=1 U:3/I=1,2 U:3/I=1,2
    U:3/I=1,2,3 U:3/I=1,2,3 U+:2/I=2 U+:2/I=2 U+:2/I=1,2 U+:3/I=2 U+:3/I=1 U+:3/I=2,3
    U+:3/I=1,2 U+:3/I=1,2,3 U+:3/I=1,2,3
""".split()  # the verify benchmark's round at seed 1, at max_k 4, test degree 3


@pytest.mark.parametrize("forced", [False, True], ids=["true", "forced-false"])
def test_a_verify_round_builds_one_plan_per_category_tuple(forced, monkeypatch):
    """The round's 40 spaces build 24 outcome tables over 8 category tuples,
    and each tuple's relations, test words and pairs once; every table
    equals one built from empty memos."""
    if forced:
        force_false(monkeypatch)
    clear_caches()
    warm = {}
    for space in map(parse_space, SEED_1_ROUND):
        report = verify_relations(space, 4, 3)
        assert report.all_passed == (not forced or space.m == 1)
        warm[space.factors, space.m] = report.checks
    plans, tables = spaces._verify_plan.cache_info(), spaces._outcome_table.cache_info()
    tuples = {tuple(f.category for f in factors) for factors, _ in warm}
    assert len(tuples) == 8 and tables.misses == len(warm) == 24
    assert plans.misses == len(tuples)
    assert plans.hits == tables.misses - plans.misses  # one plan read per table built
    for (factors, m), checks in warm.items():
        clear_caches()
        cold = spaces._outcome_table(factors, m, 4, 3)
        assert (cold._groups, cold._table) == (checks._groups, checks._table)


def test_relation_set_returns_a_new_list():
    space = parse_space("O:2xU+:2/J=1")
    first = relation_set(space, 3)
    expected = list(first)
    assert relation_set(space, 3) is not first
    first.reverse()
    first.append(first[0])
    assert relation_set(space, 3) == expected


# ---------------------------------------------------------------------------
# Kernels and left sides scaled from M = 1.

SINGLE_BODIES = [f"{cat}:{n}" for cat in ("O", "O+", "U", "U+") for n in (2, 3)]


def _sizes(body: str) -> list:
    """The space over the factor of `body` at every index-set size."""
    n = int(body.split(":")[1])
    return [parse_space(f"{body}/I=" + ",".join(map(str, range(1, m + 1))))
            for m in range(1, n + 1)]


def test_uniform_blocks_of_single_pairing_factors():
    # every partition of a single O, O+, U or U+ factor is a pairing, so
    # every word has k/2 join blocks, or none at all; S words on two or
    # more legs and products of pairings on four legs have varying counts
    for cat in ("O", "O+", "U", "U+"):
        for word in spaces._all_words(6):
            keys = spaces._factor_keys([as_category(cat)], word)
            expected = len(word) // 2 if enumerate_partitions(cat, word) else 0
            assert spaces._uniform_blocks((as_category(cat),), keys) == expected
    s = (as_category("S"),)
    assert [spaces._uniform_blocks(s, (k,)) for k in range(4)] == [0, 1, None, None]
    o = (as_category("O"), as_category("O+"))
    assert [spaces._uniform_blocks(o, (k, k)) for k in (0, 2, 4)] == [0, 1, None]


@pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
@pytest.mark.parametrize("forced", [False, True], ids=["true", "forced-false"])
@pytest.mark.parametrize("body", SINGLE_BODIES)
def test_scaled_outcome_tables_equal_a_contraction_at_m(body, forced, order, monkeypatch):
    """Every M of a single O, O+, U or U+ factor, verified in one process,
    reads the kernels and left sides kept at M = 1; each outcome table must
    equal one built from empty memos with every kernel contracted at its M,
    and forced-false relations must still fail at M > 1."""
    if forced:
        force_false(monkeypatch)
    clear_caches()
    warm = {}
    for space in _sizes(body)[::order]:
        report = verify_relations(space, 4, 3)
        assert report.all_passed == (not forced or space.m == 1)
        warm[space.m] = (space.factors, report.checks)
    for m, (factors, checks) in warm.items():
        clear_caches()
        with monkeypatch.context() as ctx:
            ctx.setattr(spaces, "_uniform_blocks", lambda *args: None)  # contract at M
            cold = spaces._outcome_table.__wrapped__(factors, m, 4, 3)
        assert (cold._groups, cold._table) == (checks._groups, checks._table), m


@pytest.mark.parametrize("body", SINGLE_BODIES)
def test_scaled_kernels_equal_a_contraction_at_m(body):
    # space_moment's and char-exact's kernels: memoized at M = 1, read with
    # the scale M^b
    clear_caches()
    for space in _sizes(body):
        for word in spaces._all_words(6):
            keys = spaces._factor_keys([space.factors[0].category], word)
            cold = spaces._space_kernel.__wrapped__(space.factors, space.m, keys)
            kern, scale = spaces._kernel(space, word)
            assert tuple(scale * y for y in kern.values) == cold.values, (repr(space), word)
            assert (kern.dlists, kern.shape, kern.denominator) == (
                cold.dlists, cold.shape, cold.denominator), (repr(space), word)


def _count_contractions(monkeypatch) -> collections.Counter:
    """Calls of the kernel and left-side contractions and of the count
    tables from now on."""
    calls = collections.Counter()
    for name in ("_contract_axis", "_contract_each", "_count_table"):
        real = getattr(spaces, name)
        monkeypatch.setattr(spaces, name,
                            lambda *a, real=real, name=name: calls.update([name]) or real(*a))
    return calls


@pytest.mark.parametrize("body", SINGLE_BODIES)
def test_a_second_m_of_a_single_factor_contracts_nothing(body, monkeypatch):
    clear_caches()
    first, *others = _sizes(body)
    assert verify_relations(first, 4, 3).all_passed
    calls = _count_contractions(monkeypatch)
    for space in others:
        report = verify_relations(space, 4, 3)
        assert report.all_passed and len(report.checks) == _expected_count(space, 4, 3)
    assert calls == {}


@pytest.mark.parametrize("first,second", [
    ("O:2xO+:2/J=1", "O:2xO+:2/J=1,2"),
    ("U:2xU:2/J=1", "group-as-space:U:2"),
])
def test_a_product_at_a_second_m_still_contracts_at_that_m(first, second, monkeypatch):
    # some of a product's words join their partition tuples to varying
    # block counts: their kernels are contracted at each M
    clear_caches()
    assert verify_relations(parse_space(first), 4, 3).all_passed
    calls = _count_contractions(monkeypatch)
    asked = []
    real = spaces._space_kernel
    monkeypatch.setattr(spaces, "_space_kernel",
                        lambda fs, m, keys: asked.append(m) or real(fs, m, keys))
    assert verify_relations(parse_space(second), 4, 3).all_passed
    assert calls["_contract_axis"] > 0 and calls["_contract_each"] > 0
    assert calls["_count_table"] > 0 and 2 in asked
