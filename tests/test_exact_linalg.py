import collections
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import easywg.exact_linalg as xl
from easywg.exact_linalg import (
    WeingartenMatrix,
    format_scalar,
    get_weingarten,
    gram_matrix,
    weingarten_matrix,
)
from easywg.partitions import (SetPartition, _enumerate, as_category, as_word,
                               enumerate_partitions, word_key)
import fraction_reference as fr
from fraction_reference import (
    SingularMatrixError,
    bordering_weingarten,
    clear_caches,
    solve_inverse,
)

ALL_CATEGORIES = ["S", "O", "U", "S+", "O+", "U+"]


def matmul(a, b):
    n, mid, m = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(mid)) for j in range(m)]
        for i in range(n)
    ]


def rank_oracle(rows):
    """Row rank by plain exact elimination, independent of the library path."""
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        for r in range(rank, len(work)):
            if work[r][col]:
                work[rank], work[r] = work[r], work[rank]
                piv = work[rank][col]
                work[rank] = [x / piv for x in work[rank]]
                for rr in range(len(work)):
                    if rr != rank and work[rr][col]:
                        f = work[rr][col]
                        work[rr] = [x - f * y for x, y in zip(work[rr], work[rank])]
                rank += 1
                break
    return rank


class TestScalars:
    def test_format_always_has_denominator(self):
        assert format_scalar(Fraction(3)) == "3/1"
        assert format_scalar(Fraction(-1, 2)) == "-1/2"


class TestSolveInverse:
    def test_identity(self):
        eye = [[1, 0], [0, 1]]
        assert solve_inverse(eye) == [[1, 0], [0, 1]]

    def test_det_one_example(self):
        assert solve_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]

    def test_hilbert_3(self):
        h = [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
        inv = solve_inverse(h)
        assert inv[0][:3] == [9, -36, 30]
        assert matmul(h, inv) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_needs_pivot_swap(self):
        m = [[0, 1], [1, 0]]
        assert solve_inverse(m) == [[0, 1], [1, 0]]

    def test_singular_names_first_dependent_row(self):
        with pytest.raises(SingularMatrixError) as err:
            solve_inverse([[1, 2], [2, 4]])
        assert err.value.row == 1
        with pytest.raises(SingularMatrixError) as err:
            solve_inverse([[0, 0], [0, 1]])
        assert err.value.row == 0
        with pytest.raises(SingularMatrixError) as err:
            solve_inverse([[1, 0, 0], [0, 1, 1], [1, 1, 1]])
        assert err.value.row == 2

    def test_empty(self):
        assert solve_inverse([]) == []

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.fractions(
                        min_value=-5, max_value=5, max_denominator=6
                    ),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_plain_elimination_oracle(self, rows):
        # dual route: plain normalized Gauss-Jordan in Fraction arithmetic
        n = len(rows)
        aug = [
            [Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
            for i, row in enumerate(rows)
        ]
        singular = False
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col]), None)
            if piv is None:
                singular = True
                break
            aug[col], aug[piv] = aug[piv], aug[col]
            p = aug[col][col]
            aug[col] = [x / p for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        if singular:
            with pytest.raises(SingularMatrixError):
                solve_inverse(rows)
        else:
            expected = [r[n:] for r in aug]
            assert solve_inverse(rows) == expected

    def test_duplicated_row_reported(self):
        rows = [[1, 2, 3], [4, 5, 6], [1, 2, 3]]
        with pytest.raises(SingularMatrixError) as err:
            solve_inverse(rows)
        assert err.value.row == 2


class TestGram:
    def test_single_matching_pairing(self):
        for n in (2, 5):
            g = gram_matrix("U", "ob", n)
            assert g.entries == ((n,),)
            assert g.index == (SetPartition((0, 0)),)

    def test_noncrossing_pairings_of_four(self):
        for n in (2, 3, 7):
            g = gram_matrix("O+", "oooo", n)
            assert g.entries == ((n * n, n), (n, n * n))

    def test_s_two_points_by_exhaustive_inner_products(self):
        # delta-vector inner products over {1,2,3}^2, computed from scratch
        g = gram_matrix("S", "oo", 3)
        tuples = list(itertools.product((1, 2, 3), repeat=2))
        for i, p in enumerate(g.index):
            for j, q in enumerate(g.index):
                dot = sum(p.delta(t) * q.delta(t) for t in tuples)
                assert g.entries[i][j] == dot
        assert [p.to_text() for p in g.index] == ["12", "1|2"]
        assert g.entries == ((3, 3), (3, 9))

    def test_symmetry_and_diagonal_law(self):
        for cat in ALL_CATEGORIES:
            for k in range(7):
                word = ("ob" * 3)[:k]
                for n in (2, 5, 8):
                    g = gram_matrix(cat, word, n)
                    for i, p in enumerate(g.index):
                        assert g.entries[i][i] == n**p.block_count
                        for j in range(len(g.index)):
                            assert g.entries[i][j] == g.entries[j][i]

    def test_empty_partition_set(self):
        g = gram_matrix("O", "ooo", 4)
        assert g.entries == ()

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            gram_matrix("S", "o", 0)


class TestWeingarten:
    def test_scalar_inverse(self):
        for n in (2, 6):
            w = weingarten_matrix(gram_matrix("U", "ob", n))
            assert w.entries == [[Fraction(1, n)]]
            assert w.basis == (0,)

    def test_free_pairings_closed_form(self):
        for n in range(2, 7):
            w = weingarten_matrix(gram_matrix("O+", "oooo", n))
            d = n * n * (n * n - 1)
            assert w.entries == [
                [Fraction(n * n, d), Fraction(-n, d)],
                [Fraction(-n, d), Fraction(n * n, d)],
            ]
            # cross-check W.G = identity
            assert matmul(w.entries, [list(r) for r in w.source.entries]) == [
                [1, 0],
                [0, 1],
            ]

    def test_singular_gram_small_n(self):
        g = gram_matrix("S", "ooo", 2)
        w = weingarten_matrix(g)
        assert len(w.basis) == rank_oracle(g.entries) == 4
        self._check_gwg(g, w)

    def test_matches_solve_inverse_when_invertible(self):
        g = gram_matrix("S", "ooo", 4)
        w = weingarten_matrix(g)
        assert w.basis == tuple(range(5))
        assert w.entries == solve_inverse(g.entries)

    @staticmethod
    def _check_gwg(g, w):
        ge = [list(r) for r in g.entries]
        we = w.entries
        assert matmul(matmul(ge, we), ge) == ge
        wgw = matmul(matmul(we, ge), we)
        assert wgw == we

    def test_gwg_and_wgw_laws(self):
        for cat in ALL_CATEGORIES:
            for k in range(5):
                word = ("ob" * 3)[:k]
                for n in (2, 3, 5, 8):
                    g = gram_matrix(cat, word, n)
                    self._check_gwg(g, weingarten_matrix(g))
        # a larger singular spot check: P(5) at N=3
        g = gram_matrix("S", "ooooo", 3)
        w = weingarten_matrix(g)
        assert len(w.basis) == rank_oracle(g.entries) < len(g.index)
        self._check_gwg(g, w)

    def test_projection_fixes_partition_vectors(self):
        # materialized reconstruction operator on small cases
        for cat, word, n in (("S", "ooo", 2), ("O+", "oooo", 3), ("U", "ob", 3)):
            w = get_weingarten(cat, word, n)
            k = len(word)
            tuples = list(itertools.product(range(1, n + 1), repeat=k))
            xi = [[p.delta(t) for t in tuples] for p in w.index]
            den = w.denominator
            m = len(w.index)
            dim = len(tuples)
            p_num = [
                [
                    sum(
                        xi[a][i] * w.numerators[a][b] * xi[b][j]
                        for a in range(m)
                        for b in range(m)
                    )
                    for j in range(dim)
                ]
                for i in range(dim)
            ]
            for row_i in range(dim):
                for col_j in range(dim):
                    assert p_num[row_i][col_j] == p_num[col_j][row_i]
            sq = matmul(p_num, p_num)
            for i in range(dim):
                for j in range(dim):
                    assert sq[i][j] == den * p_num[i][j]
            for vec in xi:
                out = [
                    sum(p_num[i][j] * vec[j] for j in range(dim)) for i in range(dim)
                ]
                assert out == [den * x for x in vec]

    def test_gram_invertible_for_large_n(self):
        # basis is the full index once the dimension reaches the word length
        for cat in ALL_CATEGORIES:
            for k in range(1, 5):
                word = ("ob" * 3)[:k]
                w = weingarten_matrix(gram_matrix(cat, word, max(k, 2)))
                assert w.basis == tuple(range(len(w.index)))
        # pairing categories stay cheap out to k = 6; partition types to k = 5
        for cat in ("O", "U", "O+", "U+"):
            for k in (5, 6):
                word = ("ob" * 3)[:k]
                w = weingarten_matrix(gram_matrix(cat, word, k))
                assert w.basis == tuple(range(len(w.index)))
        for cat in ("S", "S+"):
            w = weingarten_matrix(gram_matrix(cat, "ooooo", 5))
            assert w.basis == tuple(range(len(w.index)))


class TestMemoAndDiskCache:
    def setup_method(self):
        clear_caches()
        xl.set_disk_cache(None)

    def teardown_method(self):
        clear_caches()
        xl.set_disk_cache(None)

    def test_memo_identity_and_color_normalization(self):
        a = get_weingarten("S", "oo", 3)
        assert get_weingarten("S", "oo", 3) is a
        assert get_weingarten("S", "ob", 3) is a
        assert get_weingarten("U", "ob", 3) is not a

    def test_disk_roundtrip(self, tmp_path):
        xl.set_disk_cache(str(tmp_path))
        first = get_weingarten("O+", "oooo", 4)
        files = list(tmp_path.glob("wg_*.json"))
        assert len(files) == 1
        clear_caches()
        again = get_weingarten("O+", "oooo", 4)
        assert again.numerators == first.numerators
        assert again.denominator == first.denominator

    def test_disk_record_verified_before_use(self, tmp_path):
        xl.set_disk_cache(str(tmp_path))
        good = get_weingarten("O+", "oooo", 4)
        (path,) = tmp_path.glob("wg_*.json")
        record = json.loads(path.read_text())
        record["block"][0][0] += 7  # corrupt one entry
        path.write_text(json.dumps(record))
        clear_caches()
        rebuilt = get_weingarten("O+", "oooo", 4)
        assert rebuilt.entries == good.entries
        # and the bad record was replaced by a verified one
        clear_caches()
        assert get_weingarten("O+", "oooo", 4).entries == good.entries

    def test_record_format(self, tmp_path):
        xl.set_disk_cache(str(tmp_path))
        get_weingarten("U", "ob", 5)
        (path,) = tmp_path.glob("wg_*.json")
        assert json.loads(path.read_text()) == {
            "key": ["U", 0b101, 5], "basis": [0], "denominator": 5, "block": [[1]],
        }

    @pytest.mark.parametrize("cat,word,n", [("S", "oooo", 3), ("U", "obob", 5), ("O+", "oooooo", 10)])
    def test_record_bytes_and_no_cached_view(self, tmp_path, cat, word, n):
        # the file is json.dumps of the memoised matrix's own fields, and the
        # matrix keeps no n x n view
        xl.set_disk_cache(str(tmp_path))
        w = get_weingarten(cat, word, n)
        assert "numerators" not in w.__dict__
        (path,) = tmp_path.glob("wg_*.json")
        expected = json.dumps({
            "key": [cat, word_key(as_category(cat), as_word(word)), n], "basis": list(w.basis),
            "denominator": w.denominator, "block": [list(row) for row in w.block],
        })
        assert path.read_text() == expected

    def test_disk_read_parses_only_the_block(self, tmp_path, monkeypatch):
        # a singular key: the file holds the r x r block and nothing of the
        # n x n matrix, and a hit builds no matrix
        xl.set_disk_cache(str(tmp_path))
        good = get_weingarten("S", "ooooo", 2)
        r = len(good.basis)
        assert r < len(good.index)
        (path,) = tmp_path.glob("wg_*.json")
        assert [len(row) for row in json.loads(path.read_text())["block"]] == [r] * r
        clear_caches()
        monkeypatch.setattr(xl, "weingarten_matrix", _refuse)
        again = get_weingarten("S", "ooooo", 2)
        assert (again.basis, again.denominator, again.block) == (good.basis, good.denominator, good.block)

    def test_color_blind_words_share_one_record(self, tmp_path, monkeypatch):
        xl.set_disk_cache(str(tmp_path))
        good = get_weingarten("S", "ob", 3)
        clear_caches()
        monkeypatch.setattr(xl, "weingarten_matrix", _refuse)
        assert get_weingarten("S", "oo", 3).block == good.block
        assert len(list(tmp_path.glob("wg_*.json"))) == 1


def _refuse(*args):
    raise AssertionError("built a matrix where the record should have served")


def _words(cat, k):
    if cat not in ("U", "U+"):
        return ["o" * k]
    if k % 2:
        return []
    return sorted({"".join(w) for w in itertools.permutations("o" * (k // 2) + "b" * (k // 2))})


def _engine(g):
    w = weingarten_matrix(g)
    return w.basis, w.denominator, w.numerators


DIFFERENTIAL_KEYS = [
    (cat, word, n)
    for cat in ALL_CATEGORIES
    for k in range(7)
    for word in _words(cat, k)
    for n in (1, 2, 3, 4, 10)
]


class TestEngineAgainstFractionReference:
    @pytest.mark.parametrize("cat", ALL_CATEGORIES)
    def test_every_category_word_and_dimension(self, cat):
        digests = json.loads(fr.DIGESTS.read_text())
        for c, word, n in DIFFERENTIAL_KEYS:
            if c != cat:
                continue
            g = gram_matrix(cat, word, n)
            got = _engine(g)
            if (cat, word, n) in fr.HEAVY_KEYS:
                assert fr.digest(*got) == digests[f"{cat}:{word}:{n}"], (cat, word, n)
            else:
                assert got == bordering_weingarten(g.entries), (cat, word, n)

    def test_heavy_keys_are_recorded(self):
        assert set(json.loads(fr.DIGESTS.read_text())) == {
            f"{c}:{w}:{n}" for c, w, n in fr.HEAVY_KEYS
        }

    @pytest.mark.parametrize("which", [(0,), (1,), (0, 1)])
    def test_unlucky_primes(self, which):
        # N a product of the engine's own primes: G = 0 modulo each of them
        # (every entry is a positive power of N), so the profile and the
        # inverses must come from other primes.
        n = 1
        for i in which:
            n *= xl._prime(i)
        for cat, word in (("S", "oooo"), ("S+", "ooo"), ("O", "oooo"),
                          ("U", "obbo"), ("U+", "oobb"), ("O+", "")):
            g = gram_matrix(cat, word, n)
            if word:
                assert all(x % n == 0 for row in g.entries for x in row)
            assert _engine(g) == bordering_weingarten(g.entries), (cat, word, which)

    def test_primes_fit_the_int64_bound(self):
        # every prime splits into halves below 2**13, a float64 product of
        # a half and a residue sums 2**14 terms exactly, and an unreduced
        # pivot update col * row stays inside int64
        p = xl._prime(0)
        assert p < xl._PRIME_LIMIT == 2**26
        assert ((p - 1).bit_length() + 1) // 2 == 13
        assert 2**14 * (2**13 - 1) * (p - 1) <= xl._EXACT == 2**53
        assert (p - 1) ** 2 + p < 2**63
        assert len({xl._prime(i) for i in range(12)}) == 12


def test_exact_route_equals_the_modular_route():
    # every nonempty partition set of at most _SMALL partitions on at most
    # ten legs, where weingarten_matrix takes the Python-int route: the
    # multi-modular engine, called directly, gives the same matrix
    checked = collections.Counter()
    for cat in ALL_CATEGORIES:
        for k in range(11):
            sizes = {word: len(enumerate_partitions(cat, word)) for word in _words(cat, k)}
            if cat in ("S", "S+", "O", "O+") and sizes["o" * k] > xl._SMALL:
                break  # colour-blind counts grow with k
            for word, size in sizes.items():
                if not 0 < size <= xl._SMALL:
                    continue
                checked[cat] += 1
                for n in (1, 2, 3, 4, 10):
                    g = gram_matrix(cat, word, n)
                    exact, modular = xl._bareiss(g), xl._modular_weingarten(g)
                    assert (exact.basis, exact.denominator, exact.block) == (
                        modular.basis, modular.denominator, modular.block), (cat, word, n)
    assert checked == {"S": 4, "S+": 4, "O": 3, "O+": 4, "U": 29, "U+": 307}


# Two singular keys, one per route of the certificate: S on four legs at
# N = 3 (15 partitions), whose identities are checked modulo primes, and S
# on three legs at N = 2 (5 partitions, at most _SMALL), whose identities
# are checked in Python ints.
_BOTH_ROUTES = [("S", "oooo", 3), ("S", "ooo", 2)]


class TestCertificate:
    """Each variant is rejected by the check it targets: the structural
    checks (basis order, block shape, symmetry) before any identity is
    multiplied out, the identities only on well-formed r x r blocks.  Each
    test runs on both keys of _BOTH_ROUTES."""

    def _canonicals(self):
        grams = [gram_matrix(*key) for key in _BOTH_ROUTES]
        assert [len(g.index) > xl._SMALL for g in grams] == [True, False]
        return [weingarten_matrix(g) for g in grams]

    def _variant(self, w, basis=None, den=None, block=None):
        return WeingartenMatrix(
            w.source,
            w.basis if basis is None else basis,
            w.denominator if den is None else den,
            w.block if block is None else block,
        )

    def _rejected_unmultiplied(self, monkeypatch, v):
        def unreachable(*args):
            raise AssertionError("a structural defect reached the identities")

        monkeypatch.setattr(xl, "_residues", unreachable)
        monkeypatch.setattr(xl, "_exact_identities_hold", unreachable)
        return not xl._certify(v)

    def _rejected_well_formed(self, v):
        r = len(v.basis)
        assert list(v.basis) == sorted(set(v.basis))
        assert len(v.block) == r and all(len(row) == r for row in v.block)
        assert [list(row) for row in v.block] == [list(col) for col in zip(*v.block)]
        return not xl._certify(v)

    def test_accepts_canonical(self):
        for w in self._canonicals():
            assert len(w.block) == len(w.basis) < len(w.index)
            assert xl._certify(w)

    def test_rejects_foreign_basis_inverse(self):
        for w in self._canonicals():
            foreign, den, block = _foreign_inverse(w)
            assert foreign != w.basis
            v = self._variant(w, foreign, den, block)
            # (1) and (2) hold exactly, so only the greedy-profile check (3) is left
            g = [list(r) for r in w.source.entries]
            kept = [[g[i][j] for j in foreign] for i in foreign]
            assert matmul(kept, [list(r) for r in block]) == [
                [den * (a == b) for b in range(len(foreign))] for a in range(len(foreign))
            ]
            assert matmul(matmul(g, v.entries), g) == g
            assert self._rejected_well_formed(v)

    def test_rejects_perturbations(self):
        # a symmetric change of one entry, and a wrong denominator
        for w in self._canonicals():
            block = [list(r) for r in w.block]
            block[0][1] += 1
            block[1][0] += 1
            assert self._rejected_well_formed(self._variant(w, block=tuple(map(tuple, block))))
            assert self._rejected_well_formed(self._variant(w, den=w.denominator + 1))

    def test_numerators_beyond_int64(self):
        # the same W over a denominator scaled by 2**70 has numerators of
        # up to 70 + a few bits, negative ones included, so they reach the
        # modular products as two 62-bit limbs: accepted, and rejected once
        # moved
        for w in self._canonicals():
            scale = 2**70
            block = [[x * scale for x in row] for row in w.block]
            assert max(abs(x) for row in block for x in row) >= 2**70
            assert any(x < 0 for row in block for x in row)
            assert xl._certify(self._variant(w, den=w.denominator * scale,
                                             block=tuple(map(tuple, block))))
            block[0][0] += 1
            assert self._rejected_well_formed(self._variant(w, den=w.denominator * scale,
                                                            block=tuple(map(tuple, block))))

    def test_rejects_reversed_basis(self, monkeypatch):
        for w in self._canonicals():
            assert self._rejected_unmultiplied(monkeypatch, self._variant(w, basis=w.basis[::-1]))

    def test_rejects_asymmetric_block(self, monkeypatch):
        for w in self._canonicals():
            block = [list(r) for r in w.block]
            block[0][1] += 1
            asym = self._variant(w, block=tuple(map(tuple, block)))
            assert self._rejected_unmultiplied(monkeypatch, asym)

    def test_rejects_misshapen_blocks(self, monkeypatch):
        # the full n x n numerators in the block slot, a missing row, a short row
        for w in self._canonicals():
            short = (w.block[0][:-1],) + w.block[1:]
            for block in (w.numerators, w.block[:-1], short):
                assert self._rejected_unmultiplied(monkeypatch, self._variant(w, block=block))


def _foreign_inverse(w):
    """A g-inverse on a different basis: drop the first row instead of the
    canonical dependent one, and invert that block exactly."""
    g = w.source.entries
    n = len(g)
    foreign = tuple(range(1, n)) if w.basis == tuple(range(n - 1)) else None
    assert foreign is not None
    inv = solve_inverse([[g[i][j] for j in foreign] for i in foreign])
    den = math.lcm(*(x.denominator for row in inv for x in row))
    return foreign, den, tuple(tuple(int(x * den) for x in row) for row in inv)


def _outside_basis(record, value=1):
    """Take the first index outside the basis into it, with value on the
    diagonal and zeros elsewhere in its row and column: a nonzero entry
    there, or a zero row.  The block stays symmetric and in lowest terms."""
    basis, block = record["basis"], record["block"]
    i = next(i for i in itertools.count() if i not in basis)
    at = sum(b < i for b in basis)
    basis.insert(at, i)
    for row in block:
        row.insert(at, 0)
    block.insert(at, [0] * len(basis))
    block[at][at] = value


def _first_one(record, value):
    """Put value, equal to 1 but not a JSON integer, in place of the block's
    first entry 1: only the integer check tells the records apart."""
    row = next(row for row in record["block"] if 1 in row)
    row[row.index(1)] = value


def _past_the_end(record) -> int:
    """The number of partitions of the record's key: one past the last index."""
    category, wkey, _ = record["key"]
    return len(_enumerate(as_category(category), wkey))


class TestDiskRecordCertificate:
    """Each test runs on the records of both keys of _BOTH_ROUTES."""

    def setup_method(self):
        clear_caches()
        xl.set_disk_cache(None)

    def teardown_method(self):
        clear_caches()
        xl.set_disk_cache(None)

    def _records(self, tmp_path):
        """Per key: the key, its matrix, and its record's path and contents,
        in a directory of the key's own that stays configured."""
        for key in _BOTH_ROUTES:
            clear_caches()
            xl.set_disk_cache(str(tmp_path / key[1]))
            good = get_weingarten(*key)
            (path,) = (tmp_path / key[1]).glob("wg_*.json")
            clear_caches()
            yield key, good, path, json.loads(path.read_text())

    def test_foreign_g_inverse_rejected_and_rebuilt(self, tmp_path):
        for key, good, path, record in self._records(tmp_path):
            foreign, den, block = _foreign_inverse(good)
            # a genuine g-inverse: G.W.G = G holds for it
            ge = [list(r) for r in good.source.entries]
            wf = WeingartenMatrix(good.source, foreign, den, block).entries
            assert matmul(matmul(ge, wf), ge) == ge
            record.update(basis=list(foreign), denominator=den,
                          block=[list(row) for row in block])
            path.write_text(json.dumps(record))
            again = get_weingarten(*key)
            assert again.basis == good.basis
            assert again.numerators == good.numerators
            assert json.loads(path.read_text())["basis"] == list(good.basis)

    @pytest.mark.parametrize("field,value", [
        ("category", "S+"), ("word", 5), ("dimension", 4),
    ])
    def test_header_must_name_the_key(self, tmp_path, field, value):
        for key, good, path, record in self._records(tmp_path):
            at = ["category", "word", "dimension"].index(field)
            record["key"][at] = value
            path.write_text(json.dumps(record))
            assert get_weingarten(*key).numerators == good.numerators
            assert json.loads(path.read_text())["key"][at] != value

    @pytest.mark.parametrize("mutate", [
        lambda r: r.update(block="x"),
        lambda r: r.update(basis=[0, 0]),
        lambda r: r["block"][0].__setitem__(0, "1/0"),
        lambda r: r.pop("basis"),
        lambda r: r["block"].pop(),
        lambda r: r["basis"].__setitem__(-1, _past_the_end(r)),
        _outside_basis,
        lambda r: _outside_basis(r, 0),
        lambda r: _first_one(r, True),
        lambda r: _first_one(r, 1.0),
        lambda r: r["block"][0].__setitem__(0, "1/2"),
        lambda r: r.pop("denominator"),
        lambda r: r.update(denominator=0),
        # the same matrix over a negative denominator, and not in lowest terms
        lambda r: r.update(denominator=-r["denominator"],
                           block=[[-x for x in row] for row in r["block"]]),
        lambda r: r.update(denominator=2 * r["denominator"],
                           block=[[2 * x for x in row] for row in r["block"]]),
        lambda r: r["key"].__setitem__(2, 3.0),
        lambda r: r.pop("key"),
    ])
    def test_malformed_records_rebuilt(self, tmp_path, mutate):
        for key, good, path, record in self._records(tmp_path):
            original = path.read_text()
            mutate(record)
            path.write_text(json.dumps(record))
            assert get_weingarten(*key).numerators == good.numerators
            assert path.read_text() == original  # as text: true == 1 in Python

    def test_unreadable_record_rebuilt(self, tmp_path):
        for key, good, path, _ in self._records(tmp_path):
            path.write_text("[1, 2")
            assert get_weingarten(*key).numerators == good.numerators
            path.write_text("[1, 2]")
            clear_caches()
            assert get_weingarten(*key).numerators == good.numerators
            path.write_text("[" * 100000)  # json.load raises RecursionError
            clear_caches()
            assert get_weingarten(*key).numerators == good.numerators
            assert json.loads(path.read_text())["basis"] == list(good.basis)

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        xl.set_disk_cache(str(tmp_path))

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(xl.os, "replace", refuse)
        w = get_weingarten("O+", "oooo", 4)
        assert w.entries == weingarten_matrix(gram_matrix("O+", "oooo", 4)).entries
        assert list(tmp_path.iterdir()) == []

    def test_set_disk_cache_on_a_file_raises_and_keeps_state(self, tmp_path):
        target = tmp_path / "plain"
        target.write_text("")
        with pytest.raises(OSError):
            xl.set_disk_cache(str(target))
        assert xl._DISK_DIR is None


def test_consumers_never_build_the_full_views(monkeypatch):
    """The engine and every consumer work from the join counts and the kept
    block; the n x n views are built only when something asks for them,
    except the entries of a Gram matrix of at most _SMALL partitions, which
    the Python-int route reads."""
    from easywg import spaces
    from easywg.characters import CharacterQuery, char_moment_exact
    from easywg.integrator import GroupSpec, MomentQuery, group_moment

    def refuse(self):
        raise AssertionError("built a full n x n view")

    def small_entries(self):
        if len(self.index) > xl._SMALL:
            refuse(self)
        return entries(self)

    entries = xl.GramMatrix.entries.func
    monkeypatch.setattr(WeingartenMatrix, "numerators", property(refuse), raising=False)
    monkeypatch.setattr(xl.GramMatrix, "entries", property(small_entries), raising=False)
    monkeypatch.setattr(xl, "_DISK_DIR", None)
    clear_caches()
    w = get_weingarten("O+", "oooo", 4)
    assert len(w.basis) == len(w.index)
    w = get_weingarten("O", "oooooo", 4)  # 15 partitions: the modular engine
    assert len(w.index) > xl._SMALL and len(w.basis) == len(w.index)
    q = MomentQuery("oooo", (1, 1, 2, 2), (1, 2, 1, 2))
    assert group_moment(GroupSpec("O", 3), q) == Fraction(-1, 30)
    for text, value in (("O+:3/I=1,2", Fraction(2, 3)), ("U:2xO:2/J=1,2", Fraction(1, 3))):
        space = spaces.parse_space(text)
        word = "obob" if space.is_product else "oooo"
        one = (1, 1) if space.is_product else 1
        assert spaces.space_moment(space, word, (one,) * 4) == value
        assert char_moment_exact(CharacterQuery(space, 1, word)) == value
    report = spaces.verify_relations(spaces.parse_space("O:2/I=1"), 2, 2)
    assert len(report.checks) > 0 and report.all_passed
