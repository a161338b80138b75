import concurrent.futures
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from easywg.integrator import GroupSpec, IndexSet, MomentQuery, group_moment
from easywg.oracles import (
    SampleReport,
    bell_number,
    catalan_number,
    counting_oracle,
    double_factorial_odd,
    haar_mc_moment,
    poisson_moments,
    sn_exhaustive_moment,
    sn_exhaustive_space_moment,
)
from easywg.partitions import as_word


def q(word, rows, cols):
    return MomentQuery(as_word(word), rows, cols)


class TestSnExhaustive:
    def test_fixed_point_fraction(self):
        # 2 of the 6 permutations of 3 points fix the point 1
        assert sn_exhaustive_moment(3, q("o", (1,), (1,))) == Fraction(1, 3)

    def test_two_point_constraint(self):
        # (n-2)!/n! permutations send 1 -> 1 and 2 -> 2
        assert sn_exhaustive_moment(4, q("oo", (1, 2), (1, 2))) == Fraction(1, 12)

    def test_off_diagonal_entry(self):
        assert sn_exhaustive_moment(3, q("o", (1,), (2,))) == Fraction(1, 3)

    def test_colors_irrelevant(self):
        assert sn_exhaustive_moment(4, q("ob", (1, 2), (1, 2))) == sn_exhaustive_moment(
            4, q("oo", (1, 2), (1, 2))
        )

    def test_inconsistent_constraints_vanish(self):
        assert sn_exhaustive_moment(3, q("oo", (1, 2), (1, 1))) == 0

    def test_size_cap(self):
        with pytest.raises(ValueError):
            sn_exhaustive_moment(9, q("o", (1,), (1,)))


@pytest.mark.parametrize("n", [0, -1])
def test_exhaustive_oracles_reject_n_below_one(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        sn_exhaustive_moment(n, q("", (), ()))
    with pytest.raises(ValueError, match="n must be >= 1"):
        sn_exhaustive_space_moment(n, IndexSet((1,)), "", ())


class TestSnSpaceOracle:
    def test_single_point_index_set(self):
        got = sn_exhaustive_space_moment(3, IndexSet((1,)), "o", (1,))
        assert got == Fraction(1, 3) == sn_exhaustive_moment(3, q("o", (1,), (1,)))

    def test_full_index_set_row_sum(self):
        assert sn_exhaustive_space_moment(3, IndexSet((1, 2, 3)), "o", (1,)) == 1

    def test_two_column_second_moment(self):
        got = sn_exhaustive_space_moment(4, IndexSet((1, 2)), "oo", (1, 1))
        assert got == Fraction(1, 2)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            sn_exhaustive_space_moment(9, IndexSet((1,)), "o", (1,))


class TestHaarMc:
    def test_orthogonal_second_moment(self):
        rep = haar_mc_moment("O", 4, q("oo", (1, 1), (1, 1)), 100_000, 7)
        assert abs(rep.estimate - 0.25) <= 5 * rep.standard_error
        assert rep.standard_error > 0

    def test_unitary_second_moment(self):
        rep = haar_mc_moment("U", 4, q("ob", (1, 1), (1, 1)), 100_000, 7)
        assert abs(rep.estimate - 0.25) <= 5 * rep.standard_error

    def test_seed_determinism(self):
        a = haar_mc_moment("O", 3, q("oo", (1, 1), (1, 1)), 50_000, 11)
        b = haar_mc_moment("O", 3, q("oo", (1, 1), (1, 1)), 50_000, 11)
        assert a == b == SampleReport(a.estimate, a.standard_error, 50_000, 11)

    def test_distinct_seeds_differ(self):
        a = haar_mc_moment("O", 3, q("oo", (1, 1), (1, 1)), 50_000, 11)
        b = haar_mc_moment("O", 3, q("oo", (1, 1), (1, 1)), 50_000, 12)
        assert a.estimate != b.estimate

    def test_thread_count_does_not_change_result(self):
        a = haar_mc_moment("O", 4, q("oooo", (1,) * 4, (1,) * 4), 120_000, 5, threads=1)
        b = haar_mc_moment("O", 4, q("oooo", (1,) * 4, (1,) * 4), 120_000, 5, threads=4)
        assert a == b

    def test_pool_is_capped_by_blocks_and_cores(self, monkeypatch):
        asked = []

        class Inline:  # records the pool size and runs the blocks in this thread
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Inline)
        query = q("oo", (1, 1), (1, 1))
        expected = haar_mc_moment("O", 3, query, 120_000, 11)  # 3 blocks
        for cores in (2, 8, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            assert haar_mc_moment("O", 3, query, 120_000, 11, threads=64) == expected
        assert asked == [2, 3, 1]

    def test_rejects_quantum_groups_and_small_samples(self):
        with pytest.raises(ValueError):
            haar_mc_moment("O+", 4, q("oo", (1, 1), (1, 1)), 100_000, 1)
        with pytest.raises(ValueError):
            haar_mc_moment("O", 4, q("oo", (1, 1), (1, 1)), 100, 1)
        for threads in (0, -4):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                haar_mc_moment("O", 2, q("oo", (1, 1), (1, 1)), 10_000, 1, threads=threads)

    def test_sign_correction_is_mandatory(self):
        # The raw QR factor is not Haar: without the diagonal sign
        # correction the first moment of q11 is strongly negative, while
        # Haar symmetry forces it to vanish.
        n, samples = 4, 50_000
        rng = np.random.default_rng(np.random.SeedSequence(entropy=123, spawn_key=(0,)))
        a = rng.standard_normal((samples, n, n))
        raw_q, raw_r = np.linalg.qr(a)
        uncorrected = raw_q[:, 0, 0]
        d = np.einsum("...ii->...i", raw_r)
        corrected = (raw_q * np.sign(d)[:, None, :])[:, 0, 0]
        se = uncorrected.std() / math.sqrt(samples)
        assert abs(uncorrected.mean()) > 10 * se
        assert abs(corrected.mean()) <= 5 * se

    def test_corrected_sampler_matches_exact_fourth_moment(self):
        exact = group_moment(GroupSpec("U", 4), q("obob", (1,) * 4, (1,) * 4))
        rep = haar_mc_moment("U", 4, q("obob", (1,) * 4, (1,) * 4), 100_000, 2)
        assert abs(rep.estimate - float(exact)) <= 5 * rep.standard_error


class TestCountingOracles:
    def test_bell_triangle(self):
        assert [bell_number(k) for k in range(7)] == [1, 1, 2, 5, 15, 52, 203]

    def test_catalan(self):
        assert catalan_number(4) == 14
        assert [catalan_number(k) for k in range(1, 7)] == [1, 2, 5, 14, 42, 132]

    def test_double_factorial(self):
        assert [double_factorial_odd(m) for m in range(5)] == [1, 1, 3, 15, 105]

    def test_poisson_recurrence_matches_bell_at_t_one(self):
        assert poisson_moments(Fraction(1), 8) == [bell_number(k) for k in range(1, 9)]

    def test_dispatcher(self):
        assert counting_oracle("bell", 4) == 15
        assert counting_oracle("catalan", 4) == 14
        assert counting_oracle("poisson-recurrence", 4, Fraction(1)) == 15
        with pytest.raises(ValueError):
            counting_oracle("bell", 13)
        with pytest.raises(ValueError):
            counting_oracle("mystery", 3)
        for k, t in [(3, 0), (3, -2), (0, 0)]:
            with pytest.raises(ValueError, match="t must be > 0"):
                counting_oracle("poisson-recurrence", k, Fraction(t))
