"""The contract of easywg's record types: construction, normalization,
validation, equality, hashing, immutability and repr."""

import pickle
from fractions import Fraction

import pytest

from easywg import (
    BpRow,
    CategoryId,
    CharacterQuery,
    ColoredWord,
    GramMatrix,
    GroupSpec,
    IndexSet,
    LimitLaw,
    MomentQuery,
    ProfileRow,
    Relation,
    RelationCheck,
    SampleReport,
    SetPartition,
    SpaceSpec,
    VerificationReport,
    WeingartenMatrix,
    parse_space,
    verify_relations,
)

_O3, _S3 = GroupSpec(CategoryId.O, 3), GroupSpec(CategoryId.S, 3)
_SPACE = SpaceSpec((_O3,), IndexSet((1, 2)))
_OTHER_SPACE = SpaceSpec((_S3,), IndexSet((1,)))
_OO, _OB = ColoredWord.parse("oo"), ColoredWord.parse("ob")
_PAIR, _SINGLETONS = SetPartition((0, 0)), SetPartition((0, 1))
_GRAM = GramMatrix(CategoryId.O, 2, 3, (_PAIR,), ((1,),))
_OTHER_GRAM = GramMatrix(CategoryId.S, 2, 4, (_SINGLETONS,), ((2,),))
_RELATION = Relation(_OO, (_PAIR,), 1)
_OTHER_RELATION = Relation(_OB, (_SINGLETONS,), 2)
_CHECKS = verify_relations(parse_space("O:2/I=1"), 1, 1).checks
_OTHER_CHECKS = verify_relations(parse_space("S:2/I=1"), 1, 0).checks

# type: field names, values, and other values valid one field at a time
_CASES = {
    GroupSpec: (("category", "dimension"), (CategoryId.O, 3), (CategoryId.S, 4)),
    IndexSet: (("members",), ((1, 2),), ((3,),)),
    MomentQuery: (("word", "rows", "cols"), (_OB, (1, 2), (2, 1)), (_OO, (2, 2), (1, 1))),
    SpaceSpec: (("factors", "index"), ((_O3,), IndexSet((1, 2))), ((_S3,), IndexSet((1,)))),
    CharacterQuery: (("space", "truncation", "word"), (_SPACE, 2, _OO), (_OTHER_SPACE, 1, _OB)),
    LimitLaw: (("kind", "t"), ("poisson", Fraction(1, 2)), ("gaussian", Fraction(3))),
    BpRow: (("k", "classical", "free"), (3, Fraction(5), Fraction(4)),
            (4, Fraction(15), Fraction(14))),
    ProfileRow: (("ambient_dimension", "truncation", "t", "exact", "asymptotic", "difference"),
                 (4, 2, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 12)),
                 (5, 3, Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(1, 12 * 7))),
    SampleReport: (("estimate", "standard_error", "samples", "seed"), (0.5, 0.01, 100, 7),
                   (0.25, 0.02, 200, 8)),
    GramMatrix: (("category", "legs", "dimension", "index", "counts"),
                 (CategoryId.O, 2, 3, (_PAIR,), ((1,),)),
                 (CategoryId.S, 3, 4, (_SINGLETONS,), ((2,),))),
    WeingartenMatrix: (("source", "basis", "denominator", "block"), (_GRAM, (0,), 3, ((1,),)),
                       (_OTHER_GRAM, (), 5, ())),
    Relation: (("word", "partitions", "join_blocks"), (_OO, (_PAIR,), 1),
               (_OB, (_SINGLETONS,), 2)),
    RelationCheck: (("relation", "monomial_word", "monomial_indices", "ok", "lhs", "rhs"),
                    (_RELATION, _OO, (1, 1), False, Fraction(1), Fraction(2)),
                    (_OTHER_RELATION, _OB, (2, 1), True, None, None)),
    VerificationReport: (("space", "max_k", "test_degree", "checks"), (_SPACE, 1, 1, _CHECKS),
                         (_OTHER_SPACE, 2, 0, _OTHER_CHECKS)),
}
_TYPES = list(_CASES)
_FROZEN = [t for t in _TYPES if t is not VerificationReport]
_HIDDEN = {GramMatrix: {"counts"}}


def _make(cls):
    _, values, _ = _CASES[cls]
    return cls(*values)


@pytest.mark.parametrize("cls", _TYPES, ids=lambda c: c.__name__)
class TestConstruction:
    def test_positional(self, cls):
        names, values, _ = _CASES[cls]
        r = cls(*values)
        assert [getattr(r, n) for n in names] == list(values)

    def test_keyword_and_mixed(self, cls):
        names, values, _ = _CASES[cls]
        r = cls(*values)
        assert cls(**dict(zip(names, values))) == r
        assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == r
        assert cls(**dict(reversed(list(zip(names, values))))) == r

    def test_wrong_arguments(self, cls):
        names, values, _ = _CASES[cls]
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values, no_such_field=1)
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})


def test_relation_check_defaults():
    check = RelationCheck(_RELATION, _OO, (1, 1), True)
    assert (check.lhs, check.rhs) == (None, None)
    assert check == RelationCheck(_RELATION, _OO, (1, 1), True, None, None)
    assert RelationCheck(_RELATION, _OO, (1, 1), False, rhs=Fraction(2)).lhs is None


@pytest.mark.parametrize("cls", _TYPES, ids=lambda c: c.__name__)
class TestEquality:
    def test_equal_by_fields(self, cls):
        a, b = _make(cls), _make(cls)
        assert a is not b and a == b and not a != b
        if cls in _FROZEN:
            assert hash(a) == hash(b)

    def test_each_field_counts(self, cls):
        names, values, others = _CASES[cls]
        r = cls(*values)
        for i, name in enumerate(names):
            changed = cls(*values[:i], others[i], *values[i + 1:])
            if name in _HIDDEN.get(cls, ()):
                assert changed == r and hash(changed) == hash(r)
            else:
                assert changed != r and not changed == r

    def test_unequal_across_types(self, cls):
        r = _make(cls)
        assert r != tuple(_CASES[cls][1])
        assert r.__eq__(object()) is NotImplemented
        assert all(r != _make(other) for other in _TYPES if other is not cls)


@pytest.mark.parametrize("cls", _FROZEN, ids=lambda c: c.__name__)
class TestFrozen:
    def test_assignment_raises(self, cls):
        names, values, others = _CASES[cls]
        r = cls(*values)
        for name, other in zip(names, others):
            with pytest.raises(AttributeError):
                setattr(r, name, other)
            with pytest.raises(AttributeError):
                delattr(r, name)
        with pytest.raises(AttributeError):
            r.no_such_field = 1
        assert r == cls(*values)

    def test_pickles(self, cls):
        r = _make(cls)
        assert pickle.loads(pickle.dumps(r)) == r


def test_verification_report_is_mutable_and_unhashable():
    report = _make(VerificationReport)
    report.max_k = 2
    assert report.max_k == 2
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("cls", _TYPES, ids=lambda c: c.__name__)
def test_repr(cls):
    names, values, _ = _CASES[cls]
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values)
                      if n not in _HIDDEN.get(cls, ()))
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


def test_gram_matrix_views_are_cached():
    g = GramMatrix(CategoryId.O, 2, 3, (_PAIR, _SINGLETONS), ((1, 1), (1, 2)))
    assert g.entries == ((3, 3), (3, 9)) and "entries" in g.__dict__
    w = WeingartenMatrix(g, (1,), 9, ((1,),))
    assert "numerators" not in w.__dict__
    assert w.numerators == ((0, 0), (0, 1)) and "numerators" in w.__dict__
    assert w.entries == [[0, 0], [0, Fraction(1, 9)]]


class TestNormalization:
    def test_group_spec_parses_its_category(self):
        assert GroupSpec("S", 4).category is CategoryId.S
        assert GroupSpec("O+", 2) == GroupSpec(CategoryId.O_PLUS, 2)

    def test_index_set_sorts_and_dedupes(self):
        assert IndexSet([3, 1, 3]).members == (1, 3)

    def test_moment_query_words_and_tuples(self):
        q = MomentQuery("ob", [1, 2], [2, 1])
        assert (q.word, q.rows, q.cols) == (_OB, (1, 2), (2, 1))
        assert type(q.rows) is tuple and type(q.cols) is tuple

    def test_space_spec_factors_become_a_tuple(self):
        assert SpaceSpec([_O3], IndexSet((1,))).factors == (_O3,)

    def test_character_query_word(self):
        assert CharacterQuery(_SPACE, 2, "oo").word == _OO

    def test_limit_law_t_becomes_a_fraction(self):
        law = LimitLaw("poisson", 1)
        assert type(law.t) is Fraction and law.t == 1
        assert LimitLaw("poisson", "3/2").t == Fraction(3, 2)


@pytest.mark.parametrize("build, message", [
    (lambda: GroupSpec("O", 0), "dimension must be >= 1"),
    (lambda: GroupSpec("X", 3), "unknown category 'X'"),
    (lambda: IndexSet(()), "index set must be nonempty"),
    (lambda: IndexSet((0, 1)), "index set entries must be >= 1"),
    (lambda: MomentQuery("oo", (1,), (1, 1)), "rows/cols length must equal word length"),
    (lambda: MomentQuery("ox", (1, 1), (1, 1)), "unknown color 'x'"),
    (lambda: SpaceSpec((), IndexSet((1,))), "a space needs at least one factor"),
    (lambda: SpaceSpec((_O3,), IndexSet((4,))), r"index set exceeds \{1,...,3\}"),
    (lambda: SpaceSpec((_O3, GroupSpec("S", 2)), IndexSet((3,))),
     r"index set exceeds \{1,...,2\}"),
    (lambda: CharacterQuery(_SPACE, 4, "o"), r"truncation must lie in 1\.\.3"),
    (lambda: CharacterQuery(_SPACE, 0, "o"), r"truncation must lie in 1\.\.3"),
    (lambda: LimitLaw("gamma", 1), "unknown law 'gamma'"),
    (lambda: LimitLaw("poisson", 0), "t must be > 0"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_validation_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()
