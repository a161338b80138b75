"""Acceptance suite: one test per criterion, each printing a pass line.

Every exact assertion is zero-tolerance rational equality; the only
statistical assertions are the Monte Carlo confirmations in criterion 3,
at four standard errors as stated.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from easywg.characters import CharacterQuery, char_moment_exact
from easywg.exact_linalg import get_weingarten, gram_matrix, weingarten_matrix
from easywg.integrator import GroupSpec, IndexSet, MomentQuery, group_moment
from easywg.oracles import (
    bell_number,
    catalan_number,
    double_factorial_odd,
    haar_mc_moment,
    sn_exhaustive_moment,
    sn_exhaustive_space_moment,
)
from easywg.characters import bp_compare
from easywg.partitions import SetPartition, as_word
from easywg.spaces import SpaceSpec, preset, space_moment, verify_relations

ALL_CATEGORIES = ["S", "O", "U", "S+", "O+", "U+"]


def all_words(max_k):
    for k in range(max_k + 1):
        for colors in itertools.product("ob", repeat=k):
            yield "".join(colors)


def report(n, label, started):
    print(f"criterion {n} ({label}): PASS in {time.time() - started:.1f}s")


def test_criterion_1_sn_exactness():
    started = time.time()
    checked = 0
    for n in (3, 4, 5):
        g = GroupSpec("S", n)
        for word in all_words(4):
            w = as_word(word)
            k = len(w)
            for rows in itertools.product((1, 2, 3), repeat=k):
                for cols in itertools.product((1, 2, 3), repeat=k):
                    q = MomentQuery(w, rows, cols)
                    assert group_moment(g, q) == sn_exhaustive_moment(n, q), (
                        n, word, rows, cols,
                    )
                    checked += 1
    # the N=3, k=4 block above exercises the singular-Gram regime
    assert len(get_weingarten("S", "oooo", 3).basis) == 14 < 15
    assert checked == 3 * sum((2 * 9) ** k for k in range(5))
    report(1, f"S_N exactness, {checked} moments", started)


def test_criterion_2_space_exactness():
    started = time.time()
    checked = 0
    for n in (3, 4, 5):
        for members in ((1,), (1, 2)):
            sp = SpaceSpec((GroupSpec("S", n),), IndexSet(members))
            for word in all_words(4):
                k = len(word)
                for idx in itertools.product((1, 2, 3), repeat=k):
                    assert space_moment(sp, word, idx) == sn_exhaustive_space_moment(
                        n, IndexSet(members), word, idx
                    ), (n, members, word, idx)
                    checked += 1
    report(2, f"space exactness, {checked} moments", started)


def test_criterion_3_classical_closed_forms():
    started = time.time()
    for n in range(2, 7):
        assert group_moment(
            GroupSpec("O", n), MomentQuery(as_word("oo"), (1, 1), (1, 1))
        ) == Fraction(1, n)
        assert group_moment(
            GroupSpec("U", n), MomentQuery(as_word("ob"), (1, 1), (1, 1))
        ) == Fraction(1, n)
        assert group_moment(
            GroupSpec("O", n), MomentQuery(as_word("oooo"), (1,) * 4, (1,) * 4)
        ) == Fraction(3, n * (n + 2))
        assert group_moment(
            GroupSpec("O+", n), MomentQuery(as_word("oooo"), (1,) * 4, (1,) * 4)
        ) == Fraction(2, n * (n + 1))
        assert group_moment(
            GroupSpec("U+", n), MomentQuery(as_word("obob"), (1,) * 4, (1,) * 4)
        ) == Fraction(2, n * (n + 1))
    # Monte Carlo confirmations at N = 4, 10^6 samples, three seeds, 4 s.e.
    # The 2/(N(N+1)) free fourth moment is confirmed through classical U_4,
    # whose matching-pairing Gram (word obob) is the same 2x2 matrix.
    checks = [
        ("O", "oo", (1, 1), (1, 1), Fraction(1, 4)),
        ("U", "ob", (1, 1), (1, 1), Fraction(1, 4)),
        ("O", "oooo", (1,) * 4, (1,) * 4, Fraction(1, 8)),
        ("U", "obob", (1,) * 4, (1,) * 4, Fraction(1, 10)),
    ]
    for kind, word, rows, cols, exact in checks:
        assert group_moment(GroupSpec(kind, 4), MomentQuery(as_word(word), rows, cols)) == exact
        for seed in (1, 2, 3):
            rep = haar_mc_moment(
                kind, 4, MomentQuery(as_word(word), rows, cols), 1_000_000, seed
            )
            assert abs(rep.estimate - float(exact)) <= 4 * rep.standard_error, (
                kind, word, seed, rep,
            )
    report(3, "classical closed forms + Monte Carlo", started)


def test_criterion_4_relation_verification():
    started = time.time()
    spaces = [
        SpaceSpec((GroupSpec(cat, 5),), IndexSet((1, 2))) for cat in ALL_CATEGORIES
    ]
    spaces.append(preset("group-as-space", "O", 3))
    spaces.append(preset("column-space", "O+", 4, 2))
    unit_pair = SetPartition((0, 0))
    crossing = SetPartition((0, 1, 0, 1))
    for sp in spaces:
        rep = verify_relations(sp, 4, 2)
        assert rep.all_passed, (repr(sp), rep.failures[:3])
        # the normalization identity sum_i x_i x_i^* = 1 is among the checks
        s = len(sp.factors)
        assert any(
            c.relation.word.text == "ob"
            and c.relation.partitions == (unit_pair,) * s
            for c in rep.checks
        ), repr(sp)
    # the commutation-consequence identity for the classical unitary space
    rep = verify_relations(SpaceSpec((GroupSpec("U", 5),), IndexSet((1, 2))), 4, 0)
    hits = [
        c for c in rep.checks
        if c.relation.word.text == "oobb" and c.relation.partitions == (crossing,)
    ]
    assert hits and all(c.ok for c in hits)
    report(4, "relation verification, 8 spaces", started)


def test_criterion_5_character_asymptotics():
    started = time.time()
    diffs = []
    for n in (8, 16, 32, 64):
        q = CharacterQuery(preset("free-real-sphere", n), n, as_word("oooo"))
        diffs.append(abs(char_moment_exact(q) - 2))
    for a, b in zip(diffs, diffs[1:]):
        assert a >= Fraction(3, 2) * b, diffs
    for n in range(2, 7):
        sp = preset("group-as-space", "S", n)
        assert char_moment_exact(CharacterQuery(sp, n, as_word("o"))) == 1
        assert char_moment_exact(CharacterQuery(sp, n, as_word("oo"))) == 2
    # exhaustive permutation oracle for the fixed-point count moments, n <= 6
    for n in (2, 4, 6):
        total1 = total2 = 0
        for perm in itertools.permutations(range(n)):
            fixed = sum(1 for i, x in enumerate(perm) if i == x)
            total1 += fixed
            total2 += fixed * fixed
        assert Fraction(total1, math.factorial(n)) == 1
        assert Fraction(total2, math.factorial(n)) == 2
    report(5, "character asymptotics", started)


def test_criterion_6_bercovici_pata_pairs():
    started = time.time()
    rows = bp_compare("S", Fraction(1), 6)
    assert [r.classical for r in rows] == [1, 2, 5, 15, 52, 203]
    assert [r.free for r in rows] == [1, 2, 5, 14, 42, 132]
    assert [r.classical for r in rows] == [bell_number(k) for k in range(1, 7)]
    assert [r.free for r in rows] == [catalan_number(k) for k in range(1, 7)]
    rows = bp_compare("O", Fraction(1), 6)
    assert [r.classical for r in rows] == [0, 1, 0, 3, 0, 15]
    assert [r.free for r in rows] == [0, 1, 0, 2, 0, 5]
    assert [r.classical for r in rows if r.k % 2 == 0] == [
        double_factorial_odd(m) for m in (1, 2, 3)
    ]
    assert [r.free for r in rows if r.k % 2 == 0] == [
        catalan_number(m) for m in (1, 2, 3)
    ]
    report(6, "Bercovici-Pata moment pairs", started)


def _check_materialized_projection(cat, word, n):
    wg = get_weingarten(cat, word, n)
    k = len(word)
    tuples = list(itertools.product(range(1, n + 1), repeat=k))
    if not wg.index:
        return
    xi = np.array(
        [[p.delta(t) for t in tuples] for p in wg.index], dtype=object
    )
    a = np.array(wg.numerators, dtype=object)
    d = wg.denominator
    p_num = xi.T @ a @ xi
    assert np.array_equal(p_num, p_num.T)  # self-adjoint (real symmetric)
    assert np.array_equal(p_num @ p_num, d * p_num)  # idempotent
    for row in xi:  # fixes every partition vector
        assert np.array_equal(p_num @ row, d * row)


def test_criterion_7_linear_algebra_laws():
    started = time.time()
    for cat in ALL_CATEGORIES:
        color_sensitive = cat in ("U", "U+")
        for k in range(5):
            words = all_words(k) if color_sensitive else ["o" * k]
            words = [w for w in words if len(w) == k]
            for word in words:
                for n in (2, 3, 4):
                    g = gram_matrix(cat, word, n)
                    w = weingarten_matrix(g)
                    ge = [list(r) for r in g.entries]
                    we = w.entries
                    m = len(ge)
                    gw = [
                        [sum(ge[i][x] * we[x][j] for x in range(m)) for j in range(m)]
                        for i in range(m)
                    ]
                    gwg = [
                        [sum(gw[i][x] * ge[x][j] for x in range(m)) for j in range(m)]
                        for i in range(m)
                    ]
                    assert gwg == ge
                    wgw = [
                        [sum(we[i][x] * gw[x][j] for x in range(m)) for j in range(m)]
                        for i in range(m)
                    ]
                    assert wgw == we
                    _check_materialized_projection(cat, word, n)
    report(7, "linear-algebra laws + materialized projection", started)
