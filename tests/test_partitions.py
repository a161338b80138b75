import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from easywg.oracles import bell_number, catalan_number, double_factorial_odd
from easywg.partitions import (
    CategoryId,
    Color,
    ColoredWord,
    SetPartition,
    _enumerate,
    _join_blocks,
    as_category,
    as_word,
    concat_key,
    enumerate_partitions,
    word_key,
)
from fraction_reference import (
    filter_enumerate,
    from_blocks,
    from_text,
    is_member,
    is_noncrossing,
    join,
)
from verify_reference import kernel_partition

ALL_CATEGORIES = ["S", "O", "U", "S+", "O+", "U+"]


def brute_pairings(k):
    """Independent pairing enumerator: recursive first-point matching."""
    if k % 2:
        return []
    points = list(range(1, k + 1))

    def rec(rest):
        if not rest:
            yield []
            return
        a = rest[0]
        for i in range(1, len(rest)):
            b = rest[i]
            for tail in rec(rest[1:i] + rest[i + 1 :]):
                yield [(a, b)] + tail

    return [from_blocks(p, k) for p in rec(points)]


def brute_is_crossing(p):
    """Quadruple scan, independent of the stack algorithm."""
    blocks = p.blocks
    for x, y in itertools.combinations(range(len(blocks)), 2):
        for a, c in itertools.combinations(blocks[x], 2):
            for b, d in itertools.combinations(blocks[y], 2):
                if a < b < c < d or b < a < d < c:
                    return True
    return False


def partitions_strategy(max_k=6):
    def build(labels):
        rgs = []
        top = 0
        for x in labels:
            a = x % (top + 1)
            rgs.append(a)
            if a == top:
                top += 1
        return SetPartition(rgs)

    return st.lists(st.integers(0, 10), max_size=max_k).map(build)


class TestWordsAndColors:
    def test_parse_roundtrip(self):
        w = ColoredWord.parse("oobb")
        assert w.text == "oobb"
        assert len(w) == 4
        assert w.colors[0] is Color.WHITE and w.colors[3] is Color.BLACK

    def test_empty_word(self):
        assert len(as_word("")) == 0

    def test_bad_color(self):
        with pytest.raises(ValueError):
            ColoredWord.parse("ox")

    def test_exactly_two_colors(self):
        assert len(Color) == 2


class TestSetPartition:
    def test_from_blocks_and_text(self):
        p = from_blocks([[1, 2], [3, 4]])
        assert p.to_text() == "12|34"
        assert from_text("12|34") == p
        assert p.blocks == ((1, 2), (3, 4))

    def test_large_ground_comma_form(self):
        p = from_blocks([range(1, 11), [11, 12]])
        assert p.to_text() == "1,2,3,4,5,6,7,8,9,10|11,12"
        assert from_text(p.to_text()) == p

    def test_invalid_blocks(self):
        with pytest.raises(ValueError):
            from_blocks([[1, 2], [2, 3]])
        with pytest.raises(ValueError):
            from_blocks([[1], [3]])

    def test_delta_examples(self):
        p = from_blocks([[1, 2], [3, 4]])
        assert p.delta((7, 7, 2, 2)) == 1
        assert p.delta((7, 2, 2, 2)) == 0
        assert from_blocks([[1, 2, 3, 4]]).delta((5, 5, 5, 5)) == 1

    def test_delta_length_mismatch(self):
        with pytest.raises(ValueError):
            from_blocks([[1, 2]]).delta((1, 2, 3))

    def test_join_examples(self):
        a = from_blocks([[1, 2], [3, 4]])
        b = from_blocks([[1, 4], [2, 3]])
        assert join(a, b) == from_blocks([[1, 2, 3, 4]])
        assert join(a, a) == a
        discrete = from_blocks([[1], [2], [3]])
        for sigma in enumerate_partitions("S", "ooo"):
            assert join(discrete, sigma) == sigma

    def test_join_ground_mismatch(self):
        with pytest.raises(ValueError):
            join(SetPartition((0,)), SetPartition((0, 1)))

    def test_block_count(self):
        assert from_blocks([[1, 2], [3, 4]]).block_count == 2
        assert from_blocks([[1, 2, 3, 4]]).block_count == 1
        assert SetPartition(tuple(range(5))).block_count == 5

    def test_kernel_partition(self):
        assert kernel_partition((3, 7, 3)) == SetPartition((0, 1, 0))


class TestEnumeration:
    def test_bell_count(self):
        assert len(enumerate_partitions("S", "oooo")) == 15
        assert bell_number(4) == 15

    def test_noncrossing_pairings_of_four(self):
        got = enumerate_partitions("O+", "oooo")
        expected = sorted(
            (p for p in brute_pairings(4) if not brute_is_crossing(p)),
            key=lambda p: p.rgs,
        )
        assert got == expected
        assert [p.to_text() for p in got] == ["12|34", "14|23"]

    def test_matching_pairings(self):
        got = enumerate_partitions("U", "oobb")
        word = as_word("oobb")
        expected = sorted(
            (
                p
                for p in brute_pairings(4)
                if all(word.colors[a - 1] != word.colors[b - 1] for a, b in p.blocks)
            ),
            key=lambda p: p.rgs,
        )
        assert got == expected
        assert [p.to_text() for p in got] == ["13|24", "14|23"]
        assert [p.to_text() for p in enumerate_partitions("U+", "oobb")] == ["14|23"]

    def test_odd_pairings_empty(self):
        assert enumerate_partitions("O", "ooo") == []
        assert enumerate_partitions("U", "oo") == []

    @pytest.mark.parametrize("cat,word", [
        ("O", "o" * 1001), ("O+", "o" * 995), ("O+", "o" * 1001), ("U", "ob" * 500 + "o"),
        ("U", "ob" * 500 + "oo"), ("U+", "ob" * 500 + "oo"),
    ], ids=lambda x: f"{len(x)} legs" if len(x) > 2 else x)
    def test_words_without_partitions_skip_the_search(self, cat, word):
        # one recursion level per leg would pass the recursion limit
        assert enumerate_partitions(cat, word) == []

    def test_deep_word_with_partitions(self):
        # 1000 legs: the search keeps its own stack, not one frame per leg
        [nested] = enumerate_partitions("U+", "o" * 500 + "b" * 500)
        assert nested.blocks == tuple((i, 1001 - i) for i in range(1, 501))

    def test_empty_word_single_partition(self):
        for cat in ALL_CATEGORIES:
            assert enumerate_partitions(cat, "") == [SetPartition(())]

    def test_deterministic_canonical_order(self):
        for cat in ALL_CATEGORIES:
            first = enumerate_partitions(cat, "obob")
            assert first == enumerate_partitions(cat, "obob")
            assert first == sorted(first, key=lambda p: p.rgs)

    def test_colors_ignored_for_orthogonal_types(self):
        for cat in ["S", "O", "S+", "O+"]:
            assert enumerate_partitions(cat, "oobb") == enumerate_partitions(cat, "oooo")


class TestMembership:
    def test_examples(self):
        crossing = from_blocks([[1, 3], [2, 4]])
        assert is_member("O", "oooo", crossing)
        assert not is_member("O+", "oooo", crossing)
        assert not is_member("U", "oooo", from_blocks([[1, 2], [3, 4]]))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            is_member("S", "oo", SetPartition((0, 0, 0)))

    @pytest.mark.parametrize("cat", ALL_CATEGORIES)
    def test_consistent_with_enumeration(self, cat):
        # exhaustive cross-check up to k = 6, on a mixed-color word
        for k in range(7):
            word = as_word(("ob" * 3 + "o" * 3)[:k])
            listed = set(enumerate_partitions(cat, word))
            for p in enumerate_partitions("S", "o" * k):
                assert is_member(cat, word, p) == (p in listed)

    def test_crossing_scan_matches_brute_force(self):
        for k in range(7):
            for p in enumerate_partitions("S", "o" * k):
                assert is_noncrossing(p) == (not brute_is_crossing(p))


class TestCountingIdentities:
    def test_counts_against_recurrence_oracles(self):
        for k in range(9):
            assert len(enumerate_partitions("S", "o" * k)) == bell_number(k)
            assert len(enumerate_partitions("S+", "o" * k)) == catalan_number(k)
        for m in range(5):
            assert len(enumerate_partitions("O", "o" * (2 * m))) == double_factorial_odd(m)
            assert len(enumerate_partitions("O+", "o" * (2 * m))) == catalan_number(m)

    def test_delta_sum_is_power(self):
        # sum over tuples in {1..n}^k of delta equals n^{blocks}
        for k in range(6):
            for p in enumerate_partitions("S", "o" * k):
                for n in range(1, 5):
                    total = sum(
                        p.delta(t)
                        for t in itertools.product(range(1, n + 1), repeat=k)
                    )
                    assert total == n**p.block_count


class TestJoinProperties:
    @given(partitions_strategy(), partitions_strategy())
    @settings(max_examples=150)
    def test_commutative(self, a, b):
        if a.ground_size != b.ground_size:
            return
        assert join(a, b) == join(b, a)

    @given(partitions_strategy(), partitions_strategy(), partitions_strategy())
    @settings(max_examples=150)
    def test_associative(self, a, b, c):
        if not (a.ground_size == b.ground_size == c.ground_size):
            return
        assert join(join(a, b), c) == join(a, join(b, c))

    @given(partitions_strategy())
    def test_idempotent_and_one_block(self, a):
        assert join(a, a) == a
        if a.ground_size:
            one = SetPartition((0,) * a.ground_size)
            assert join(a, one) == one

    @given(partitions_strategy(), partitions_strategy())
    @settings(max_examples=150)
    def test_join_coarsens(self, a, b):
        if a.ground_size != b.ground_size:
            return
        j = join(a, b)
        assert j.block_count <= min(a.block_count, b.block_count)

    @given(
        partitions_strategy(5),
        partitions_strategy(5),
        st.lists(st.integers(1, 3), max_size=5),
    )
    @settings(max_examples=200)
    def test_delta_coarsening(self, a, b, idx):
        if not (a.ground_size == b.ground_size == len(idx)):
            return
        if a.delta(idx) == 1 and b.delta(idx) == 1:
            assert join(a, b).delta(idx) == 1


def _merged_blocks(parts):
    """The join's blocks, by merging every block that meets a new one."""
    blocks = [set(b) for b in parts[0].blocks]
    for p in parts[1:]:
        for b in map(set, p.blocks):
            blocks = [x for x in blocks if not x & b] + [b.union(*(x for x in blocks if x & b))]
    return sorted(map(sorted, blocks))


# every category in every position of a three-factor tuple
_TRIPLES = [tuple(ALL_CATEGORIES[(i + j) % 6] for j in range(3)) for i in range(6)]


class TestJoinBlocks:
    def test_join_equals_merged_blocks(self):
        parts = enumerate_partitions("S", "oooo")
        for a, b in itertools.product(parts, repeat=2):
            assert [list(x) for x in join(a, b).blocks] == _merged_blocks((a, b))

    @pytest.mark.parametrize("categories", [*itertools.product(ALL_CATEGORIES, repeat=2),
                                            *_TRIPLES], ids="-".join)
    def test_counts_equal_chained_joins(self, categories):
        # on every word of at most five legs
        cats = tuple(map(as_category, categories))
        seen = set()
        for k in range(6):
            for colors in itertools.product("ob", repeat=k):
                keys = tuple(word_key(c, as_word("".join(colors))) for c in cats)
                if keys in seen:
                    continue
                seen.add(keys)
                combos = list(itertools.product(*map(_enumerate, cats, keys)))
                expected = tuple(functools.reduce(join, combo).block_count
                                 for combo in combos)
                assert _join_blocks(cats, keys) == expected
                assert expected == tuple(len(_merged_blocks(combo)) for combo in combos)


class TestCategoryId:
    def test_parse(self):
        assert as_category("O+") is CategoryId.O_PLUS
        with pytest.raises(ValueError):
            as_category("H")

    def test_partners(self):
        for classical, free in [("S", "S+"), ("O", "O+"), ("U", "U+")]:
            assert as_category(classical).free_version is as_category(free)
            assert as_category(free).free_version is as_category(free)
        assert CategoryId.O_PLUS.is_free and not CategoryId.O.is_free


class TestGenerationAgainstFilter:
    @pytest.mark.parametrize("cat", ALL_CATEGORIES)
    def test_same_partitions_in_the_same_order(self, cat):
        # every word up to length 6 (all colorings), plain words to length 8
        words = [
            "".join(w) for k in range(7) for w in itertools.product("ob", repeat=k)
        ] + ["o" * 7, "o" * 8, "obobobob", "oooobbbb"]
        for word in words:
            assert enumerate_partitions(cat, word) == filter_enumerate(cat, word), word


class TestWordKeys:
    """The one-int word keys of the partition memos, and the fact that lets
    verification pass a pair of words with no partitions wholesale."""

    WORDS = [ColoredWord.parse("".join(w)) for k in range(9) for w in itertools.product("ob", repeat=k)]

    @pytest.mark.parametrize("cat", ALL_CATEGORIES)
    def test_concatenations(self, cat):
        # for e with partitions: f has partitions exactly when e + f does,
        # and the key of e + f follows from the keys of e and f
        cat = as_category(cat)
        for e in self.WORDS:
            if not enumerate_partitions(cat, e):
                continue
            for f in self.WORDS[:2 ** (9 - len(e)) - 1]:  # |e| + |f| <= 8
                ef = ColoredWord(e.colors + f.colors)
                assert bool(enumerate_partitions(cat, f)) == bool(enumerate_partitions(cat, ef)), (e, f)
                assert concat_key(cat, word_key(cat, e), word_key(cat, f)) == word_key(cat, ef)

    @pytest.mark.parametrize("cat", ALL_CATEGORIES)
    def test_distinct_words_get_distinct_keys(self, cat):
        # one key per word for U and U+, one per length for the colour-blind
        # categories: the pairs (word or length, key) make a bijection
        cat = as_category(cat)
        pairs = {(w.text if cat.color_sensitive else len(w), word_key(cat, w)) for w in self.WORDS}
        assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})
        assert len({w.code for w in self.WORDS}) == len(self.WORDS)


def _integer_partitions(k, largest=None):
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest), 0, -1):
        for rest in _integer_partitions(k - part, part):
            yield (part,) + rest


class TestTextRoundTrip:
    def test_every_shape_up_to_twelve_points(self):
        for k in range(13):
            for shape in _integer_partitions(k):
                labels = [b for b, size in enumerate(shape) for _ in range(size)]
                # consecutive blocks, and the same blocks interleaved
                for layout in (labels, labels[::2] + labels[1::2]):
                    p = kernel_partition(layout)
                    assert from_text(p.to_text()) == p, p.to_text()

    def test_all_singletons(self):
        for k in range(13):
            p = SetPartition(range(k))
            assert p.block_count == k
            assert from_text(p.to_text()) == p
        assert from_text("1|2|3|4|5|6|7|8|9|10").block_count == 10

    def test_every_partition_up_to_seven_points(self):
        for k in range(8):
            for p in enumerate_partitions("S", "o" * k):
                assert from_text(p.to_text()) == p

    def test_digit_form_still_reads_runs(self):
        assert from_text("123456789").block_count == 1
        assert from_text("13|2") == SetPartition((0, 1, 0))
