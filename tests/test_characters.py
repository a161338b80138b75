import itertools
import math
from fractions import Fraction

import pytest

from easywg.characters import (
    CharacterQuery,
    LimitLaw,
    bp_compare,
    char_moment_asymptotic,
    char_moment_exact,
    convergence_profile,
    limit_law_moments,
)
from easywg.integrator import GroupSpec, IndexSet
from easywg.oracles import (
    bell_number,
    catalan_number,
    double_factorial_odd,
    poisson_moments,
)
from easywg.partitions import as_word, enumerate_partitions
from easywg.spaces import SpaceSpec, preset, space_moment
from fraction_reference import is_noncrossing

ALL_CATEGORIES = ["S", "O", "U", "S+", "O+", "U+"]


def fix_moments(n, power):
    """Exhaustive moment of the fixed-point count of a uniform permutation."""
    total = 0
    for perm in itertools.permutations(range(n)):
        fixed = sum(1 for i, x in enumerate(perm) if i == x)
        total += fixed**power
    return Fraction(total, math.factorial(n))


class TestCharMomentExact:
    def test_sphere_second_moment_is_one(self):
        for n in range(2, 7):
            q = CharacterQuery(preset("free-real-sphere", n), n, as_word("oo"))
            assert char_moment_exact(q) == 1

    def test_sphere_fourth_moment_closed_form(self):
        for n in (2, 5, 8):
            q = CharacterQuery(preset("free-real-sphere", n), n, as_word("oooo"))
            assert char_moment_exact(q) == Fraction(2 * n, n + 1)

    def test_symmetric_group_character_mean(self):
        # expected number of fixed points of a uniform permutation is 1
        for n in (2, 3, 4, 5):
            sp = preset("group-as-space", "S", n)
            q = CharacterQuery(sp, n, as_word("o"))
            assert char_moment_exact(q) == 1 == fix_moments(n, 1)

    def test_empty_word(self):
        q = CharacterQuery(preset("free-real-sphere", 3), 2, as_word(""))
        assert char_moment_exact(q) == 1

    def test_truncation_bounds(self):
        with pytest.raises(ValueError):
            CharacterQuery(preset("free-real-sphere", 3), 4, as_word("oo"))
        with pytest.raises(ValueError):
            CharacterQuery(preset("group-as-space", "O", 3), 0, as_word("oo"))

    def test_equals_direct_sum_of_space_moments(self):
        # both routes computed independently: kernel sum vs coordinate sums
        words = ["", "o", "oo", "ob", "oob", "obob", "oooo"]
        for cat in ALL_CATEGORIES:
            for members in ((1,), (1, 2)):
                sp = SpaceSpec((GroupSpec(cat, 4),), IndexSet(members))
                for t in (1, 3, 4):
                    for word in words:
                        k = len(word)
                        direct = sum(
                            (
                                space_moment(sp, word, idx)
                                for idx in itertools.product(
                                    range(1, t + 1), repeat=k
                                )
                            ),
                            Fraction(0),
                        )
                        q = CharacterQuery(sp, t, as_word(word))
                        assert char_moment_exact(q) == direct, (cat, members, t, word)


class TestCharMomentAsymptotic:
    def test_semicircle_fourth(self):
        assert char_moment_asymptotic(["O+"], "oooo", Fraction(1)) == 2

    def test_poisson_fourth(self):
        assert char_moment_asymptotic(["S"], "oooo", Fraction(1)) == 15

    def test_intersection_collapses_to_free(self):
        for word in ("oo", "oooo", "oobbob"[:4]):
            both = char_moment_asymptotic(["O", "O+"], word, Fraction(2))
            free = char_moment_asymptotic(["O+"], word, Fraction(2))
            assert both == free

    def test_intersection_rule_set_equality(self):
        # computed intersection equals classical set filtered by noncrossing
        for cat in ("S", "O", "U"):
            free = cat + "+"
            for k in range(7):
                word = ("ob" * 4)[:k]
                classical = set(enumerate_partitions(cat, word))
                filtered = {p for p in classical if is_noncrossing(p)}
                assert set(enumerate_partitions(free, word)) == filtered

    def test_counts_at_t_one(self):
        for k in range(9):
            word = "o" * k
            assert char_moment_asymptotic(["S"], word, Fraction(1)) == bell_number(k)
            assert char_moment_asymptotic(["S+"], word, Fraction(1)) == catalan_number(k)
        for m in range(5):
            word = "o" * (2 * m)
            assert char_moment_asymptotic(["O"], word, Fraction(1)) == double_factorial_odd(m)
            assert char_moment_asymptotic(["O+"], word, Fraction(1)) == catalan_number(m)
            alt = "ob" * m
            assert char_moment_asymptotic(["U"], alt, Fraction(1)) == math.factorial(m)
            assert char_moment_asymptotic(["U+"], alt, Fraction(1)) == catalan_number(m)

    def test_t_validation(self):
        with pytest.raises(ValueError):
            char_moment_asymptotic(["S"], "oo", Fraction(0))
        with pytest.raises(ValueError):
            char_moment_asymptotic([], "oo", Fraction(1))


class TestLimitLaws:
    def test_poisson_bell(self):
        law = LimitLaw("poisson", Fraction(1))
        assert limit_law_moments(law, 6) == [1, 2, 5, 15, 52, 203]

    def test_free_poisson_catalan(self):
        law = LimitLaw("free-poisson", Fraction(1))
        assert limit_law_moments(law, 6) == [1, 2, 5, 14, 42, 132]

    def test_gaussian_vs_semicircle(self):
        gauss = limit_law_moments(LimitLaw("gaussian", Fraction(1)), 6)
        semi = limit_law_moments(LimitLaw("semicircle", Fraction(1)), 6)
        assert gauss[1::2] == [1, 3, 15]
        assert semi[1::2] == [1, 2, 5]
        assert gauss[0::2] == semi[0::2] == [0, 0, 0]

    def test_poisson_parameter_against_recurrence(self):
        for t in (Fraction(1), Fraction(2), Fraction(1, 2)):
            law = LimitLaw("poisson", t)
            assert limit_law_moments(law, 6) == poisson_moments(t, 6)

    def test_matching_laws_alternating_word(self):
        classical = limit_law_moments(LimitLaw("classical-matching", Fraction(1)), 6)
        free = limit_law_moments(LimitLaw("free-matching", Fraction(1)), 6)
        assert classical == [0, 1, 0, 2, 0, 6]
        assert free == [0, 1, 0, 2, 0, 5]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LimitLaw("cauchy", Fraction(1))
        with pytest.raises(ValueError):
            LimitLaw("poisson", Fraction(-1))


class TestBpCompare:
    def test_symmetric_table(self):
        rows = bp_compare("S", Fraction(1), 4)
        assert [(r.k, r.classical, r.free) for r in rows] == [
            (1, 1, 1),
            (2, 2, 2),
            (3, 5, 5),
            (4, 15, 14),
        ]

    def test_orthogonal_table(self):
        rows = bp_compare("O", Fraction(1), 4)
        assert [(r.k, r.classical, r.free) for r in rows] == [
            (1, 0, 0),
            (2, 1, 1),
            (3, 0, 0),
            (4, 3, 2),
        ]

    def test_first_moment_always_agrees(self):
        for cat in ("S", "O", "U"):
            row = bp_compare(cat, Fraction(3), 1)[0]
            assert row.classical == row.free

    def test_rejects_free_category(self):
        with pytest.raises(ValueError):
            bp_compare("O+", Fraction(1), 4)


class TestConvergenceProfile:
    def test_sphere_differences_shrink(self):
        entries = [(preset("free-real-sphere", n), n) for n in (8, 16, 32)]
        rows = convergence_profile(entries, "oooo")
        assert [r.asymptotic for r in rows] == [2, 2, 2]
        diffs = [r.difference for r in rows]
        assert diffs == [Fraction(2, 9), Fraction(2, 17), Fraction(2, 33)]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_second_moment_exact_at_finite_size(self):
        for n in (4, 8):
            entries = [(preset("free-real-sphere", n), n)]
            (row,) = convergence_profile(entries, "oo")
            assert row.difference == 0
            assert row.t == 1

    def test_symmetric_group_second_moment(self):
        # E fix^2 = 2 exactly for n >= 2, matching the Poisson(1) moment
        for n in (2, 4, 6):
            (row,) = convergence_profile([(preset("group-as-space", "S", n), n)], "oo")
            assert row.exact == 2 == row.asymptotic
            assert row.t == 1
        assert fix_moments(5, 2) == 2

    def test_t_rule(self):
        (row,) = convergence_profile([(preset("group-as-space", "O", 3), 2)], "oo")
        assert row.t == Fraction(2 * 3, 9)
