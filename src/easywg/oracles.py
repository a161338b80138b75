"""Independent ground-truth generators.

Exhaustive integration over the permutation group, Monte Carlo sampling of
Haar-distributed orthogonal/unitary matrices (only the columns a query
reads, orthonormalized by Gram-Schmidt), and the standard counting
recurrences.  Nothing here touches the Weingarten machinery: these are the
brute-force sides of the dual-route checks.  numpy and the thread pool
are imported by the Monte Carlo functions when they run, so the exact
oracles never load them.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from functools import lru_cache

from .integrator import IndexSet, MomentQuery, _check_bounds
from .partitions import CategoryId, WordLike, as_category, as_word, record

_MAX_EXHAUSTIVE = 8
# Haar matrices sampled per block; each block has its own sub-seed.
_MC_BLOCK = 50_000
# Matrices drawn and orthonormalized at a time, their columns in one contiguous
# array (at N = 4: 0.5 MiB real, 1 MiB complex).
_CHUNK = 4096


def _check_exhaustive(n: int) -> None:
    """Reject an n that exhaustive enumeration does not take."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _MAX_EXHAUSTIVE:
        raise ValueError(f"exhaustive enumeration capped at n <= {_MAX_EXHAUSTIVE}")


@lru_cache(maxsize=None)
def _consistent_permutations(n: int, constraints: frozenset) -> int:
    """Count permutations g of {1..n} with g(j) = i for every (j, i) pair."""
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        if all(perm[j - 1] == i for j, i in constraints):
            count += 1
    return count


def sn_exhaustive_moment(n: int, query: MomentQuery) -> Fraction:
    """Average of the coordinate monomial over all n! permutation matrices.

    Entries are 0/1 reals, so colors are irrelevant; the monomial is 1
    exactly when the permutation maps every column index to its row index.
    """
    _check_exhaustive(n)
    _check_bounds(query.rows, n, "row")
    _check_bounds(query.cols, n, "column")
    constraints = frozenset(zip(query.cols, query.rows))
    return Fraction(
        _consistent_permutations(n, constraints), math.factorial(n)
    )


@lru_cache(maxsize=None)
def _image_hit_count(n: int, members: tuple, needed: frozenset) -> int:
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        image = {perm[b - 1] for b in members}
        if needed <= image:
            count += 1
    return count


def sn_exhaustive_space_moment(
    n: int, index_set: IndexSet, word: WordLike, indices
) -> Fraction:
    """Average over permutations of the rescaled-coordinate monomial.

    The rescaled coordinate h_i sums row i of the permutation matrix over
    the index-set columns, so it is the indicator that i lies in the image
    of the index set; the monomial is the indicator that all queried
    indices do.
    """
    _check_exhaustive(n)
    word = as_word(word)
    indices = tuple(indices)
    if len(indices) != len(word):
        raise ValueError("indices length must equal word length")
    _check_bounds(indices, n, "coordinate")
    if index_set.members[-1] > n:
        raise ValueError("index set exceeds the coordinate range")
    count = _image_hit_count(n, index_set.members, frozenset(indices))
    return Fraction(count, math.factorial(n))


@record
class SampleReport:
    """A Monte Carlo estimate with its standard error and provenance."""

    estimate: float
    standard_error: float
    samples: int
    seed: int


def _haar_columns(kind: str, n: int, seed: int, block_index: int, size: int, width: int):
    """Columns 1..width of one block of Haar matrices, deterministically
    derived from (seed, block), as (start, q) per chunk of matrices, where
    q[j, i, s] is entry (i+1, j+1) of matrix start+s."""
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_index,)))
    starts = range(0, size, _CHUNK)

    def draw(start):
        """The next chunk of the block's (size, n, n) draws, columns 1..width."""
        return (rng.standard_normal((min(_CHUNK, size - start), n, n))[:, :, :width]
                .transpose(2, 1, 0).copy())

    # The draws come chunk by chunk, each when it is used; U's stream holds the
    # whole real block first, so that block is drawn ahead of the imaginary one.
    reals = [draw(start) for start in starts] if kind == "U" else None
    for i, start in enumerate(starts):
        q = draw(start)
        if reals is not None:
            q, reals[i] = reals[i] + 1j * q, None
        # Gram-Schmidt gives the Q factor with a positive R diagonal, which makes the
        # law exactly Haar; raw QR output, with arbitrary diagonal signs, is not.
        for j in range(width):
            col, done = q[j], q[:j]
            for _ in range(2 if j else 0):  # twice: orthonormal to machine precision
                col -= np.einsum("kc,kic->ic", np.einsum("kic,ic->kc", done.conj(), col), done)
            norm = np.sqrt(np.einsum("ic,ic->c", col.conj(), col).real)
            norm[norm == 0.0] = 1.0  # an exactly zero column stays zero, not NaN
            col /= norm
        yield start, q


def haar_mc_moment(
    group: "CategoryId | str",
    n: int,
    query: MomentQuery,
    samples: int,
    seed: int,
    threads: int = 1,
) -> SampleReport:
    """Monte Carlo estimate of a classical O_N/U_N Haar moment.

    Matrices are sampled as the Q factor, with a positive R diagonal, of an
    i.i.d. real (orthogonal) or complex (unitary) Gaussian matrix: chunk
    by chunk, its columns up to max(cols) are kept and orthonormalized by
    Gram-Schmidt applied twice.  The monomial conjugates entries at black legs
    and the real part is averaged.  Per-block sub-seeds make the result
    deterministic for a given (seed, samples), independent of thread count.
    A word without legs is 1 on every draw, so it returns 1 with standard
    error 0, as the draws would, without drawing them.
    """
    kind = as_category(group)
    if kind is CategoryId.O:
        code = "O"
    elif kind is CategoryId.U:
        code = "U"
    else:
        raise ValueError("Monte Carlo sampling is available for O and U only")
    if samples < 10_000:
        raise ValueError("at least 10^4 samples are required")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    _check_bounds(query.rows, n, "row")
    _check_bounds(query.cols, n, "column")
    if not query.word:  # the empty monomial is 1 on every draw
        return SampleReport(1.0, 0.0, samples, seed)
    blocks = [(i, min(_MC_BLOCK, samples - start))
              for i, start in enumerate(range(0, samples, _MC_BLOCK))]

    import numpy as np

    legs = list(zip(query.word, query.rows, query.cols))
    width = max(query.cols, default=0)

    def run_block(block) -> tuple[float, float]:
        block_index, size = block
        re = np.empty(size)
        for start, q in _haar_columns(code, n, seed, block_index, size, width):
            vals = 1.0
            for color, i, j in legs:
                entry = q[j - 1, i - 1]
                if color.value == "b":
                    entry = np.conjugate(entry)
                vals = vals * entry
            re[start:start + q.shape[2]] = np.real(vals)
        return float(np.sum(re)), float(np.sum(re * re))

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        # each running block holds _MC_BLOCK matrices, so no more workers
        # than blocks or cores
        workers = min(threads, len(blocks), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_block, blocks))
    else:
        results = [run_block(b) for b in blocks]
    total = math.fsum(r[0] for r in results)
    total_sq = math.fsum(r[1] for r in results)
    estimate = total / samples
    if samples > 1:
        var = max(total_sq - samples * estimate * estimate, 0.0) / (samples - 1)
    else:
        var = 0.0
    return SampleReport(estimate, math.sqrt(var / samples), samples, seed)


def bell_number(k: int) -> int:
    """Bell number via the Bell triangle."""
    if k < 0:
        raise ValueError("k must be >= 0")
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def catalan_number(k: int) -> int:
    """Catalan number from the binomial closed form."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.comb(2 * k, k) // (k + 1)


def double_factorial_odd(m: int) -> int:
    """(2m - 1)!!, the number of pairings of 2m points."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = 1
    for x in range(1, 2 * m, 2):
        out *= x
    return out


def poisson_moments(t: Fraction, max_k: int) -> list[Fraction]:
    """Moments m_1 .. m_max_k of a Poisson(t) variable via the binomial
    recurrence m_{k+1} = t * sum_j C(k, j) m_j."""
    t = Fraction(t)
    ms = [Fraction(1)]
    for k in range(max_k):
        ms.append(t * sum(math.comb(k, j) * ms[j] for j in range(k + 1)))
    return ms[1:]


def counting_oracle(kind: str, k: int, t: Fraction = Fraction(1)) -> Fraction:
    """Dispatcher used by the command line: one named count or moment."""
    if k > 12 or k < 0:
        raise ValueError("k must lie in 0..12")
    if kind == "bell":
        return Fraction(bell_number(k))
    if kind == "catalan":
        return Fraction(catalan_number(k))
    if kind == "double-factorial":
        return Fraction(double_factorial_odd(k))
    if kind == "poisson-recurrence":
        if t <= 0:
            raise ValueError("t must be > 0")
        if k == 0:
            return Fraction(1)
        return poisson_moments(Fraction(t), k)[-1]
    raise ValueError(
        "unknown counting oracle; expected bell, catalan, double-factorial "
        "or poisson-recurrence"
    )
