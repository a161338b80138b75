import concurrent.futures
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from easywg import oracles
from easywg.integrator import GroupSpec, IndexSet, MomentQuery, group_moment
from easywg.oracles import (
    SampleReport,
    _haar_columns,
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

    def test_empty_word_draws_nothing(self, monkeypatch):
        # the empty monomial is 1 on every draw: the mean is 1 with standard
        # error 0, returned without a draw, and only after the argument checks
        def refuse(*args):
            raise AssertionError("drew matrices for the empty word")

        monkeypatch.setattr(oracles, "_haar_columns", refuse)
        for kind in ("O", "U"):
            for threads in (1, 4):
                got = haar_mc_moment(kind, 4, q("", (), ()), 123_457, 9, threads=threads)
                assert got == SampleReport(1.0, 0.0, 123_457, 9)
        for bad in (("O+", 10_000, 1, 1), ("O", 100, 1, 1), ("U", 10_000, -1, 1),
                    ("U", 10_000, 1, 0)):
            group, samples, seed, threads = bad
            with pytest.raises(ValueError):
                haar_mc_moment(group, 4, q("", (), ()), samples, seed, threads=threads)

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


def _columns(kind, n, width, size=5_000, seed=9):
    """The sampler's columns 1..width of block 0, as one (width, n, size) array."""
    chunks = [q for _, q in _haar_columns(kind, n, seed, 0, size, width)]
    return np.concatenate(chunks, axis=2)


class TestGramSchmidtSampler:
    @pytest.mark.parametrize("kind", ["O", "U"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_columns_match_sign_corrected_qr(self, kind, n):
        # The same draws, factored by LAPACK and given a positive R diagonal;
        # 5,000 matrices span two chunks.
        size, seed = 5_000, 9
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
        a = rng.standard_normal((size, n, n))
        if kind == "U":
            a = a + 1j * rng.standard_normal((size, n, n))
        ref, r = np.linalg.qr(a)
        d = np.einsum("...ii->...i", r)
        ref = ref * (d / np.abs(d))[:, None, :]
        for width in range(1, n + 1):
            got = _columns(kind, n, width, size, seed)
            assert got.shape == (width, n, size)
            assert np.abs(got - ref[:, :, :width].transpose(2, 1, 0)).max() <= 1e-12
            gram = np.einsum("jis,kis->sjk", got.conj(), got)
            assert np.abs(gram - np.eye(width)).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["O", "U"])
    def test_zero_column_gives_no_nan(self, kind, monkeypatch):
        real_rng = np.random.default_rng

        class ZeroColumns:  # real draws, but each call zeroes matrix 1 and matrix 0's column 2
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def standard_normal(self, shape):
                a = self.rng.standard_normal(shape)
                a[0, :, 1] = 0.0
                a[1] = 0.0
                return a

        monkeypatch.setattr(np.random, "default_rng", ZeroColumns)
        got = _columns(kind, 3, 3)
        assert np.isfinite(got).all()
        assert not got[1, :, 0].any() and not got[:, :, 1].any()
        assert np.abs(np.einsum("jc,kc->jk", got[[0, 2], :, 0].conj(), got[[0, 2], :, 0])
                      - np.eye(2)).max() <= 1e-12
        word = "oooo" if kind == "O" else "obob"
        rep = haar_mc_moment(kind, 3, q(word, (1, 2, 3, 1), (2, 2, 3, 3)), 10_000, 9)
        assert math.isfinite(rep.estimate) and math.isfinite(rep.standard_error)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    @pytest.mark.parametrize("group, word, width, bound_mib", [
        ("O:4", "oooo", 4, 20), ("U:4", "obob", 4, 32), ("U:10", "ob", 1, 32)])
    def test_sampler_runs_in_bounded_memory(self, group, word, width, bound_mib):
        # The child reads its own VmHWM around one 10^5-sample call that reads
        # columns 1..width.  Factoring whole blocks by QR grew it by about 32
        # MiB (O:4), 59 MiB (U:4) and 324 MiB (U:10).
        child = (
            "import sys\n"
            "import numpy\n"
            "from easywg.integrator import MomentQuery\n"
            "from easywg.oracles import haar_mc_moment\n"
            "from easywg.partitions import as_word\n"
            "def hwm():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return int(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
            "kind, n, word, width = sys.argv[1:]\n"
            "query = MomentQuery(as_word(word), range(1, len(word) + 1), (int(width),) * len(word))\n"
            "before = hwm()\n"
            "haar_mc_moment(kind, int(n), query, 100_000, 3)\n"
            "print(hwm() - before)\n"
        )
        src = str(pathlib.Path(oracles.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", child, *group.split(":"), word, str(width)],
                              env=env, capture_output=True, text=True, check=True)
        assert int(done.stdout) < bound_mib * 1024


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
