import itertools
from fractions import Fraction

import pytest

from easywg import integrator, spaces
from easywg.exact_linalg import _weingarten, get_weingarten, gram_matrix
from easywg.integrator import GroupSpec, IndexSet, MomentQuery, _inverse_rows, group_moment
from easywg.oracles import haar_mc_moment, sn_exhaustive_moment
from easywg.partitions import _enumerate, as_category, as_word, enumerate_partitions, word_key
from fraction_reference import clear_caches

ALL_CATEGORIES = ["S", "O", "U", "S+", "O+", "U+"]


def q(word, rows, cols):
    return MomentQuery(as_word(word), rows, cols)


class TestGroupSpec:
    def test_parse(self):
        g = GroupSpec.parse("O+:4")
        assert g.category.value == "O+" and g.dimension == 4
        assert g == GroupSpec("O+", 4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            GroupSpec.parse("O+")
        with pytest.raises(ValueError):
            GroupSpec("S", 0)


class TestIndexSet:
    def test_normalizes(self):
        s = IndexSet((3, 1, 3))
        assert s.members == (1, 3) and s.size == 2
        assert IndexSet.parse("1,3") == s

    def test_nonempty(self):
        with pytest.raises(ValueError):
            IndexSet(())
        with pytest.raises(ValueError):
            IndexSet((0, 1))

    @pytest.mark.parametrize("text", ["x", "1,x", "", "1,,2"])
    def test_parse_rejects_non_integers(self, text):
        with pytest.raises(ValueError, match=f"cannot parse index set {text!r}"):
            IndexSet.parse(text)


class TestGroupMoment:
    def test_symmetric_fixed_point(self):
        # fraction of permutations fixing 1, against the exhaustive sum
        for n in (3, 5):
            value = group_moment(GroupSpec("S", n), q("o", (1,), (1,)))
            assert value == Fraction(1, n)
            assert value == sn_exhaustive_moment(n, q("o", (1,), (1,)))

    def test_unitary_second_moment(self):
        for n in (2, 4, 6):
            assert group_moment(GroupSpec("U", n), q("ob", (1, 1), (1, 1))) == Fraction(1, n)

    def test_free_orthogonal_fourth_moment(self):
        for n in range(2, 7):
            value = group_moment(
                GroupSpec("O+", n), q("oooo", (1,) * 4, (1,) * 4)
            )
            assert value == Fraction(2, n * (n + 1))

    def test_degree_zero(self):
        for cat in ALL_CATEGORIES:
            assert group_moment(GroupSpec(cat, 3), q("", (), ())) == 1

    def test_vanishing_moment(self):
        # no pairings of an odd word or an unbalanced one: no inverse is asked for
        clear_caches()
        assert group_moment(GroupSpec("O", 4), q("o", (1,), (1,))) == 0
        assert group_moment(GroupSpec("O", 3), q("ooo", (1,) * 3, (1,) * 3)) == 0
        assert group_moment(GroupSpec("U+", 3), q("oob", (1,) * 3, (1,) * 3)) == 0
        assert _weingarten.cache_info().misses == 0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            group_moment(GroupSpec("S", 3), q("o", (4,), (1,)))

    def test_query_length_validation(self):
        with pytest.raises(ValueError):
            MomentQuery(as_word("oo"), (1,), (1, 1))

    def test_unitarity_in_expectation(self):
        for cat in ALL_CATEGORIES:
            for n in (2, 4, 6):
                g = GroupSpec(cat, n)
                for i in range(1, n + 1):
                    for i2 in range(1, n + 1):
                        total = sum(
                            group_moment(g, q("ob", (i, i2), (j, j)))
                            for j in range(1, n + 1)
                        )
                        assert total == (1 if i == i2 else 0)

    def test_relabeling_invariance_symmetric_types(self):
        for cat in ("S", "S+"):
            g = GroupSpec(cat, 6)
            base = group_moment(g, q("ooo", (1, 2, 1), (1, 1, 2)))
            relabeled_rows = group_moment(g, q("ooo", (4, 6, 4), (1, 1, 2)))
            relabeled_cols = group_moment(g, q("ooo", (1, 2, 1), (3, 3, 5)))
            assert base == relabeled_rows == relabeled_cols

    @pytest.mark.parametrize(
        "kind,word,rows,cols",
        [
            ("O", "oooo", (1, 1, 1, 1), (1, 1, 1, 1)),
            ("O", "oooo", (1, 1, 2, 2), (1, 1, 2, 2)),
            ("O", "oo", (1, 2), (1, 2)),
            ("U", "obob", (1, 2, 1, 2), (1, 2, 1, 2)),
            ("U", "ob", (1, 1), (2, 2)),
        ],
    )
    def test_monte_carlo_agreement_small(self, kind, word, rows, cols):
        exact = group_moment(GroupSpec(kind, 4), q(word, rows, cols))
        rep = haar_mc_moment(kind, 4, q(word, rows, cols), 100_000, 3)
        assert abs(rep.estimate - float(exact)) <= 5 * rep.standard_error


class TestProductGroupMoment:
    # The Haar measure of a product group is the product measure, so a
    # product moment is the product of the factor moments.
    def test_two_independent_factors(self):
        g1, g2 = GroupSpec("O", 3), GroupSpec("O", 4)
        q1 = q("oo", (1, 1), (1, 1))
        q2 = q("oo", (2, 2), (2, 2))
        assert group_moment(g1, q1) * group_moment(g2, q2) == Fraction(1, 12)

    def test_explicit_double_sum_route(self):
        # independent evaluation of the partition-tuple double sum
        g1, g2 = GroupSpec("O", 3), GroupSpec("S", 2)
        q1 = q("oo", (1, 2), (2, 1))
        q2 = q("oo", (1, 1), (2, 2))
        w1 = get_weingarten("O", "oo", 3)
        w2 = get_weingarten("S", "oo", 2)
        e1, e2 = w1.entries, w2.entries
        total = Fraction(0)
        for i1, p1 in enumerate(w1.index):
            for j1, s1 in enumerate(w1.index):
                for i2, p2 in enumerate(w2.index):
                    for j2, s2 in enumerate(w2.index):
                        total += (
                            p1.delta(q1.rows)
                            * s1.delta(q1.cols)
                            * p2.delta(q2.rows)
                            * s2.delta(q2.cols)
                            * e1[i1][j1]
                            * e2[i2][j2]
                        )
        assert total == group_moment(g1, q1) * group_moment(g2, q2)


# U and U+ words share one Weingarten build per symmetry class
# (integrator._relabel); group moments, kernels and verify read it relabelled.

def _words(k):
    return ["".join(w) for w in itertools.product("ob", repeat=k)]


def _orbit(category, word):
    """The words a leg map carries the word's partitions to, by brute force:
    any colour-keeping permutation for U; rotations, the reflection and the
    colour swap for U+."""
    if category == "U":
        return {w for w in _words(len(word)) if sorted(w) == sorted(word)}
    swap = word.translate(str.maketrans("ob", "bo"))
    return {v[s:] + v[:s] for v in (word, word[::-1], swap, swap[::-1])
            for s in range(max(len(word), 1))}


@pytest.mark.parametrize("category", ["U", "U+"])
def test_relabelled_inverse_is_a_generalized_inverse_of_each_words_gram(category):
    # G X G = L G, exactly, on each word's own Gram matrix and partition order
    for word in (w for k in range(9) for w in _words(k)):
        if not enumerate_partitions(category, word):
            continue
        key = word_key(as_category(category), as_word(word))
        for n in (1, 2, 3, 4, 10):
            g = gram_matrix(category, word, n).entries
            (rows,), scale = _inverse_rows(as_category(category), key, n)
            x = [[0] * len(g) for _ in g]
            for i, row in enumerate(rows):
                for j, c in row:
                    x[i][j] = c
            gx = [[sum(a * b for a, b in zip(r, col)) for col in zip(*x)] for r in g]
            gxg = [[sum(a * b for a, b in zip(r, col)) for col in zip(*g)] for r in gx]
            assert gxg == [[scale * e for e in r] for r in g], (category, word, n)


@pytest.mark.parametrize("category", ["U", "U+"])
def test_each_symmetry_class_builds_once(category):
    clear_caches()
    classes = set()
    for word in _words(6):
        if enumerate_partitions(category, word):
            group_moment(GroupSpec(category, 2), q(word, (1,) * 6, (1,) * 6))
            classes.add(min(_orbit(category, word)))
    assert _weingarten.cache_info().misses == len(classes) == (1 if category == "U" else 3)


def test_verify_builds_once_per_class(monkeypatch):
    asked = []

    def spy(category, key, n):
        asked.append((category, key, n))
        return _inverse_rows(category, key, n)
    monkeypatch.setattr(spaces, "_inverse_rows", spy)
    clear_caches()
    report = spaces.verify_relations(spaces.parse_space("U+:3/I=1,2"), 4, 3)
    assert report.all_passed
    texts = {(format(key, "b")[1:].translate(str.maketrans("01", "ob")), n)
             for _, key, n in asked}
    classes = {(min(_orbit("U+", w)), n) for w, n in texts}
    assert _weingarten.cache_info().misses == len(classes) < len(texts)


def test_a_leg_map_that_is_not_a_bijection_raises(monkeypatch):
    # the canonical word's partitions swapped for the O pairings of its length
    def wrong(category, key):
        if key == 0b10011:
            return _enumerate(as_category("O"), 4)
        return _enumerate(category, key)
    monkeypatch.setattr(integrator, "_enumerate", wrong)
    clear_caches()
    with pytest.raises(RuntimeError, match="not a bijection"):
        group_moment(GroupSpec("U+", 2), q("boob", (1,) * 4, (1,) * 4))
