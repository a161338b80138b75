import functools
import itertools
from fractions import Fraction

import pytest

import easywg.exact_linalg as xl
import easywg.partitions as partitions
import easywg.spaces as spaces
from easywg.exact_linalg import get_weingarten
from easywg.integrator import GroupSpec, IndexSet, MomentQuery
from easywg.oracles import sn_exhaustive_moment, sn_exhaustive_space_moment
from easywg.partitions import CategoryId, SetPartition, as_word, enumerate_partitions
from easywg.spaces import (
    Relation,
    SpaceSpec,
    parse_space,
    preset,
    relation_set,
    space_moment,
    verify_relations,
)
from fraction_reference import clear_caches, join
from verify_reference import coordinates

ALL_CATEGORIES = ["S", "O", "U", "S+", "O+", "U+"]


class TestSpaceSpec:
    def test_single_factor_subset(self):
        sp = SpaceSpec((GroupSpec("O+", 5),), IndexSet((1, 3)))
        assert sp.m == 2 and sp.ambient_dimension == 5
        assert not sp.is_product
        assert parse_space("O+:5/I=1,3") == sp

    def test_product_diagonal(self):
        sp = SpaceSpec((GroupSpec("O", 4), GroupSpec("O", 2)), IndexSet((1, 2)))
        assert sp.is_product
        assert sp.ambient_dimension == 8 and sp.m == 2
        assert coordinates(sp)[:3] == [(1, 1), (1, 2), (2, 1)]

    def test_diagonal_bound_is_min_dimension(self):
        with pytest.raises(ValueError):
            SpaceSpec((GroupSpec("O", 4), GroupSpec("O", 2)), IndexSet((3,)))

    def test_subset_bound(self):
        with pytest.raises(ValueError):
            SpaceSpec((GroupSpec("O", 3),), IndexSet((4,)))


class TestPresets:
    def test_spheres(self):
        sp = preset("free-real-sphere", 5)
        assert sp.factors == (GroupSpec(CategoryId.O_PLUS, 5),)
        assert sp.index == IndexSet((1,))
        assert preset("free-complex-sphere", 3).factors[0].category is CategoryId.U_PLUS
        assert preset("classical-sphere", "U", 4).factors[0].category is CategoryId.U

    def test_classical_sphere_rejects_free_categories(self):
        with pytest.raises(ValueError):
            preset("classical-sphere", "O+", 4)

    def test_group_as_space(self):
        sp = preset("group-as-space", "O", 3)
        assert sp.factors == (GroupSpec(CategoryId.O, 3), GroupSpec(CategoryId.O, 3))
        assert sp.index == IndexSet((1, 2, 3))

    def test_column_space(self):
        sp = preset("column-space", "O+", 4, 2)
        assert sp.factors == (
            GroupSpec(CategoryId.O_PLUS, 4),
            GroupSpec(CategoryId.O_PLUS, 2),
        )
        assert sp.index == IndexSet((1, 2))
        with pytest.raises(ValueError):
            preset("column-space", "O+", 2, 4)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("mystery-space", 3)


class TestParseSpace:
    def test_grammar_roundtrip(self):
        specs = {
            "O+:5/I=1,2": SpaceSpec((GroupSpec("O+", 5),), IndexSet((1, 2))),
            "O:4xO:2/J=1,2": SpaceSpec((GroupSpec("O", 4), GroupSpec("O", 2)), IndexSet((1, 2))),
            "S:3/I=1,2,3": SpaceSpec((GroupSpec("S", 3),), IndexSet((1, 2, 3))),
        }
        for text, spec in specs.items():
            assert parse_space(text) == spec

    def test_presets_parse(self):
        assert parse_space("free-real-sphere:5") == preset("free-real-sphere", 5)
        assert parse_space("group-as-space:O:3") == preset("group-as-space", "O", 3)
        assert parse_space("column-space:O+:4:2") == preset("column-space", "O+", 4, 2)

    def test_rejects_subset_products(self):
        with pytest.raises(ValueError):
            parse_space("O:4xO:2/I=1,2")
        with pytest.raises(ValueError):
            parse_space("O:3/J=1")
        with pytest.raises(ValueError):
            parse_space("garbage")


class TestSpaceMoment:
    def test_sphere_second_moments(self):
        for n in (2, 4, 6):
            sp = preset("free-real-sphere", n)
            for i in range(1, n + 1):
                assert space_moment(sp, "oo", (i, i)) == Fraction(1, n)
            assert sum(space_moment(sp, "oo", (i, i)) for i in range(1, n + 1)) == 1

    def test_complex_sphere_normalization(self):
        for n in (2, 5):
            sp = preset("free-complex-sphere", n)
            assert sum(space_moment(sp, "ob", (i, i)) for i in range(1, n + 1)) == 1

    def test_classical_u_commutation_sum(self):
        # sum over ij of the rescaled oobb moment equals M^2
        sp = SpaceSpec((GroupSpec("U", 4),), IndexSet((1, 2)))
        total = sum(
            space_moment(sp, "oobb", (i, j, i, j))
            for i in range(1, 5)
            for j in range(1, 5)
        )
        assert total == sp.m**2

    def test_empty_word(self):
        sp = preset("free-real-sphere", 3)
        assert space_moment(sp, "", ()) == 1

    def test_matches_sn_space_oracle(self):
        for n in (3, 4):
            for members in ((1,), (1, 2)):
                sp = SpaceSpec((GroupSpec("S", n),), IndexSet(members))
                for k in range(4):
                    word = "o" * k
                    for idx in itertools.product((1, 2, 3), repeat=k):
                        assert space_moment(sp, word, idx) == sn_exhaustive_space_moment(
                            n, IndexSet(members), word, idx
                        )

    def test_only_index_set_size_matters(self):
        # the oracle works with the actual members; the kernel only sees M
        for members in ((2, 4), (1, 3)):
            sp = SpaceSpec((GroupSpec("S", 4),), IndexSet(members))
            for k in range(4):
                word = "o" * k
                for idx in itertools.product((1, 2, 3, 4), repeat=k):
                    assert space_moment(sp, word, idx) == sn_exhaustive_space_moment(
                        4, IndexSet(members), word, idx
                    )

    def test_group_as_space_matches_sn_matrix_moments(self):
        # the space with diagonal index over S_N x S_N is S_N itself
        for n in (3, 4):
            sp = preset("group-as-space", "S", n)
            for k in (1, 2, 3):
                for idx in itertools.product(
                    itertools.product((1, 2), repeat=2), repeat=k
                ):
                    rows = tuple(x[0] for x in idx)
                    cols = tuple(x[1] for x in idx)
                    assert space_moment(sp, "o" * k, idx) == sn_exhaustive_moment(
                        n, MomentQuery(as_word("o" * k), rows, cols)
                    )

    def test_column_space_matches_sn_truncated_moments(self):
        sp = preset("column-space", "S", 4, 2)
        for k in (1, 2, 3):
            for idx in itertools.product(
                itertools.product((1, 2, 3, 4), (1, 2)), repeat=k
            ):
                rows = tuple(x[0] for x in idx)
                cols = tuple(x[1] for x in idx)
                assert space_moment(sp, "o" * k, idx) == sn_exhaustive_moment(
                    4, MomentQuery(as_word("o" * k), rows, cols)
                )

    def test_index_validation(self):
        sp = preset("free-real-sphere", 3)
        with pytest.raises(ValueError):
            space_moment(sp, "oo", (1, 4))
        with pytest.raises(ValueError):
            space_moment(sp, "oo", ((1, 1), (1, 1)))
        prod = preset("group-as-space", "O", 3)
        with pytest.raises(ValueError):
            space_moment(prod, "oo", (1, 1))


class TestRelationSet:
    def test_sphere_degree_two(self):
        rels = relation_set(preset("free-real-sphere", 5), 2)
        # empty word plus the single pairing per length-2 word
        degree_two = [r for r in rels if r.k == 2]
        assert len(degree_two) == 4
        for r in degree_two:
            assert r.partitions == (SetPartition((0, 0)),)
            assert r.join_blocks == 1
            assert 2 * r.join_blocks - r.k == 0  # sum x_i^2 = 1

    def test_symmetric_mean_relation(self):
        sp = SpaceSpec((GroupSpec("S", 4),), IndexSet((1, 2)))
        rels = [r for r in relation_set(sp, 1) if r.k == 1]
        assert len(rels) == 2
        for r in rels:
            assert r.join_blocks == 1
            assert 2 * r.join_blocks - r.k == 1  # sum x_i = M^(1/2)

    def test_group_as_space_orthogonality_row(self):
        rels = relation_set(preset("group-as-space", "O", 3), 2)
        pair = SetPartition((0, 0))
        match = [
            r for r in rels if r.k == 2 and r.partitions == (pair, pair)
        ]
        assert match and all(r.join_blocks == 1 for r in match)

    def test_rhs_exponent_invariant_under_factor_swap(self):
        sp = preset("column-space", "O+", 4, 2)
        for r in relation_set(sp, 3):
            swapped = Relation(r.word, tuple(reversed(r.partitions)), r.join_blocks)
            j = swapped.partitions[0]
            for p in swapped.partitions[1:]:
                j = join(j, p)
            assert j.block_count == r.join_blocks

    def test_empty_category_words_have_no_relations(self):
        sp = preset("free-complex-sphere", 3)
        assert all(r.word.text != "oo" for r in relation_set(sp, 2))

    def test_colour_blind_words_share_their_joins(self, monkeypatch):
        # one join per pair of partitions per word length, sum_k Bell(k)^2 =
        # 2,960 for k <= 5, not one per coloured word (sum_k 2^k Bell(k)^2 = 90,347)
        sp = preset("group-as-space", "S", 3)
        fresh = functools.lru_cache(maxsize=None)(spaces._join_blocks.__wrapped__)
        monkeypatch.setattr(spaces, "_join_blocks", fresh)
        real = partitions._join_forest  # one union-find per tuple of partitions
        joins = []
        monkeypatch.setattr(partitions, "_join_forest",
                            lambda k, links: joins.append(1) or real(k, links))
        relation_set(sp, 5)
        assert len(joins) == 2_960

    @pytest.mark.parametrize("text", ["group-as-space:S:3", "O:2xU+:2/J=1,2"])
    def test_relations_equal_per_word_joins(self, text):
        sp = parse_space(text)
        expected = [
            Relation(w, combo, functools.reduce(join, combo).block_count)
            for k in range(5)
            for w in map(as_word, map("".join, itertools.product("ob", repeat=k)))
            for combo in itertools.product(
                *(enumerate_partitions(f.category, w) for f in sp.factors))
        ]
        assert relation_set(sp, 4) == expected


class TestVerifyRelations:
    def test_sphere_normalization_targets(self):
        report = verify_relations(preset("free-real-sphere", 4), 2, 0)
        assert report.all_passed
        assert len(report.checks) == 5  # empty word + four length-2 words

    def test_classical_u_prop_commutation_identity(self):
        # the crossing matching pairing relation on oobb must be checked and pass
        sp = preset("classical-sphere", "U", 3)
        report = verify_relations(sp, 4, 0)
        assert report.all_passed
        crossing = SetPartition((0, 1, 0, 1))
        hits = [
            c
            for c in report.checks
            if c.relation.word.text == "oobb" and c.relation.partitions == (crossing,)
        ]
        assert hits and all(c.ok for c in hits)

    def test_all_categories_small(self):
        for cat in ALL_CATEGORIES:
            sp = SpaceSpec((GroupSpec(cat, 4),), IndexSet((1, 2)))
            report = verify_relations(sp, 2, 1)
            assert report.all_passed, cat

    def test_product_spaces_small(self):
        for sp in (preset("group-as-space", "O", 3), preset("column-space", "O+", 3, 2)):
            report = verify_relations(sp, 2, 1)
            assert report.all_passed

    def test_degree_zero_monomial_is_bare_relation(self):
        sp = preset("free-real-sphere", 3)
        report = verify_relations(sp, 2, 0)
        for c in report.checks:
            assert c.monomial_word.text == ""
            assert c.monomial_indices == ()

    def test_check_counts(self):
        sp = preset("free-real-sphere", 3)
        report = verify_relations(sp, 2, 1)
        rels = relation_set(sp, 2)
        # each relation is paired with 1 empty monomial + 2 colors x 3 coordinates
        assert len(report.checks) == len(rels) * 7


def test_memo_keys_share_builds():
    # builds read from the memos' cache_info(): a kernel depends on the
    # factors, M and the word's key per factor, not on the index set, nor
    # on M when every partition tuple joins to one block count (an O word's
    # pairings all have k/2 blocks), and a Weingarten matrix on the
    # category's word key
    clear_caches()
    for text in ("O:3/I=1,2", "O:3/I=2,3", "O:3/I=1"):
        space_moment(parse_space(text), "oooo", (1, 1, 2, 2))
    assert spaces._space_kernel.cache_info().misses == 1
    for text, words, builds in [("U:2xS:3/J=1,2", ("ob", "bo"), 2),
                                ("O:2xS:3/J=1,2", ("ob", "bo", "oo"), 1)]:
        clear_caches()
        for word in words:
            space_moment(parse_space(text), word, ((1, 1), (2, 2)))
        assert spaces._space_kernel.cache_info().misses == builds, text
    clear_caches()
    for word in ("ob", "bo", "oo"):
        get_weingarten("S", word, 3)
    assert xl._weingarten.cache_info().misses == 1
    clear_caches()
    get_weingarten("U", "ob", 3)
    get_weingarten("U", "bo", 3)
    assert xl._weingarten.cache_info().misses == 2
