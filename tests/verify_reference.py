"""The eager relation-verification loop, kept as a reference for the tests.

This is the library's former `verify_relations`: it walks every test
tuple of `coordinates(space)^d`, computes each tuple's per-factor equality
pattern, decides each (relation word, test word, pattern) once, and
builds one `RelationCheck` per check, in the order relation word, test
word, test tuple, relation.  The library now decides each pattern once and
counts its tuples; `tests/test_verify_patterns.py` compares the two check
by check.  Every kernel here is contracted at the space's own M
(`_space_kernel` at M), never scaled from M = 1 as the library does for
words whose joins all have one block count.  `kernel_partition` gives a
tuple's equality pattern, and `force_false` makes every relation false
for the tests of failing checks.
Nothing in src imports this module.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from easywg import spaces
from easywg.integrator import _contract_each
from easywg.partitions import ColoredWord, SetPartition, enumerate_partitions
from easywg.spaces import RelationCheck, _exponent_rows, _factor_keys, _powers


def kernel_partition(values) -> SetPartition:
    """The partition of positions grouping equal values (kernel of a tuple)."""
    labels: dict[object, int] = {}
    rgs = []
    for v in values:
        if v not in labels:
            labels[v] = len(labels)
        rgs.append(labels[v])
    return SetPartition(rgs)


def force_false(monkeypatch) -> None:
    """One block too many on every right side, so that the relations are
    false for M > 1, through a `_verify_plan` memo of the test's own, which
    every outcome table and `relation_set` read; and an outcome-table memo
    of the test's own: plans and tables of the true relations must not
    answer, nor the false ones outlive the test."""
    build = spaces._verify_plan.__wrapped__

    def false_plan(categories, max_k, test_degree):
        plan = build(categories, max_k, test_degree)
        groups = tuple(
            (keys, tuple(spaces.Relation(r.word, r.partitions, r.join_blocks + 1) for r in rels))
            for keys, rels in plan.groups
        )
        return spaces._Plan(groups, plan.tests, plan.pairs)
    monkeypatch.setattr(spaces, "_verify_plan", functools.lru_cache(maxsize=None)(false_plan))
    monkeypatch.setattr(spaces, "_outcome_table",
                        functools.lru_cache(maxsize=None)(spaces._outcome_table.__wrapped__))


def coordinates(space) -> list:
    """All coordinate labels of the space: ints for one factor, tuples for
    products, in itertools.product order."""
    if not space.is_product:
        return list(range(1, space.factors[0].dimension + 1))
    return list(itertools.product(*(range(1, f.dimension + 1) for f in space.factors)))


def _count_matrix(heads, fulls, tail: tuple, n: int) -> list[list[tuple[int, int]]]:
    """Sparse rows, entry [h][w]: the number of head tuples in {1..n}^k
    fitting h whose concatenation with `tail` fits w on k+d legs."""
    rows = _powers(_exponent_rows(heads, fulls, kernel_partition(tail).rgs), n)
    return [list(row) for row in rows]


def _contract(flat, shape, row_sets):
    """The tensor with each axis r replaced by row_sets[r]."""
    return _contract_each(flat, shape, [[rows] for rows in row_sets])[0]


def _components(space, indices: tuple) -> list[tuple]:
    if not space.is_product:
        return [indices]
    return [tuple(x[r] for x in indices) for r in range(len(space.factors))]


def _moment(space, kern, indices: tuple) -> Fraction:
    if not kern.values:
        return Fraction(0)
    rows = [[[(j, 1) for j, p in enumerate(dlist) if p.delta(comp)]]
            for dlist, comp in zip(kern.dlists, _components(space, indices))]
    return Fraction(_contract(kern.values, kern.shape, rows)[0], kern.denominator)


def _kernel_at_m(space, word):
    """The space's kernel of the word, contracted at the space's M."""
    keys = _factor_keys([f.category for f in space.factors], word)
    return spaces._space_kernel(space.factors, space.m, keys)


def _outcomes(space, relations, f_word, j) -> list[tuple]:
    """(ok, lhs, rhs) for each relation of one word against f_word at j."""
    e_word = relations[0].word
    kern_w = _kernel_at_m(space, ColoredWord(e_word.colors + f_word.colors))
    m_j = _moment(space, _kernel_at_m(space, f_word), j)
    lvec = [0] * len(relations)
    if kern_w.values:
        lvec = _contract(kern_w.values, kern_w.shape, [
            _count_matrix(enumerate_partitions(f.category, e_word), fulls, comp, f.dimension)
            for f, fulls, comp in zip(space.factors, kern_w.dlists, _components(space, j))
        ])
    out = []
    for lhs, rel in zip(lvec, relations):
        scale = space.m**rel.join_blocks
        if lhs * m_j.denominator == scale * m_j.numerator * kern_w.denominator:
            out.append((True, None, None))
        else:
            out.append((False, Fraction(lhs, kern_w.denominator), scale * m_j))
    return out


def reference_checks(space, max_k: int, test_degree: int) -> list[RelationCheck]:
    """Every check of `verify_relations(space, max_k, test_degree)`, eagerly.

    Relations come from `spaces.relation_set`, looked up at call time, so a
    test that patches it changes both routes alike."""
    tuples = {
        d: [
            (j, tuple(kernel_partition(c).rgs for c in _components(space, j)))
            for j in itertools.product(coordinates(space), repeat=d)
        ]
        for d in range(test_degree + 1)
    }
    categories = [f.category for f in space.factors]
    tests = [(f, _factor_keys(categories, f)) for f in spaces._all_words(test_degree)]
    decided: dict = {}
    checks: list[RelationCheck] = []
    relations = spaces.relation_set(space, max_k)
    for e_word, group in itertools.groupby(relations, key=lambda r: r.word):
        rels = list(group)
        e_key = _factor_keys(categories, e_word)
        for f_word, f_key in tests:
            for j, pattern in tuples[len(f_word)]:
                key = (e_key, f_key, pattern)
                found = decided.get(key)
                if found is None:
                    found = decided[key] = _outcomes(space, rels, f_word, j)
                checks.extend(
                    RelationCheck(rel, f_word, j, *o) for rel, o in zip(rels, found)
                )
    return checks
