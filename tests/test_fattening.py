"""The fattening oracle between the two free categories S+ and O+.

Each block {i_1 < ... < i_s} of a noncrossing partition pi of k points
becomes pairs on the 2k legs 1-, 1+, 2-, 2+, ...: i_1- with i_s+, and each
i_j+ with i_{j+1}-.  The result pi~ is a noncrossing pairing, and
|pi~ v sigma~| = 2|pi v sigma| + k - |pi| - |sigma|, so the O+ Gram matrix
on 2k legs at n is n^k D G_{S+}(k; n^2) D with D = diag(n^-|pi|), and the
Weingarten matrices agree entry for entry up to that scaling (Banica and
Curran, "Decomposition results for Gram matrices and the Weingarten
function").  The engine builds the two sides independently.
"""

from fractions import Fraction

import pytest

from easywg.exact_linalg import get_weingarten
from easywg.partitions import SetPartition, enumerate_partitions
from fraction_reference import join


def _fatten(p: SetPartition) -> SetPartition:
    """pi~ on 2k legs, point i's legs i- and i+ at 2i - 2 and 2i - 1."""
    mate: dict[int, int] = {}
    for block in p.blocks:
        # i_1- with i_s+, and i_j+ with i_{j+1}-
        pairs = [(2 * block[0] - 2, 2 * block[-1] - 1)]
        pairs += [(2 * a - 1, 2 * b - 2) for a, b in zip(block, block[1:])]
        for a, b in pairs:
            mate[a], mate[b] = b, a
    labels: dict[int, int] = {}  # a pair's first leg -> its label, in order of first use
    return SetPartition([labels.setdefault(min(leg, mate[leg]), len(labels))
                         for leg in range(2 * len(p.rgs))])


@pytest.mark.parametrize("k", range(7))
def test_fattening_maps_noncrossing_partitions_onto_noncrossing_pairings(k):
    nc = enumerate_partitions("S+", "o" * k)
    images = [_fatten(p) for p in nc]
    assert sorted(q.rgs for q in images) == sorted(q.rgs for q in enumerate_partitions("O+", "o" * 2 * k))


@pytest.mark.parametrize("k", range(7))
def test_fattened_joins_count_blocks(k):
    nc = enumerate_partitions("S+", "o" * k)
    fat = [_fatten(p) for p in nc]
    for p, pf in zip(nc, fat):
        for q, qf in zip(nc, fat):
            assert join(pf, qf).block_count == (
                2 * join(p, q).block_count + k - p.block_count - q.block_count)


@pytest.mark.parametrize("k, n", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)])
def test_free_weingarten_matrices_agree_under_fattening(k, n):
    # W_{S+}(k; n^2)[pi, sigma] = n^(k - |pi| - |sigma|) W_{O+}(2k; n)[pi~, sigma~]
    small = get_weingarten("S+", "o" * k, n * n)
    large = get_weingarten("O+", "o" * 2 * k, n)
    where = {q.rgs: i for i, q in enumerate(large.index)}
    fat = [where[_fatten(p).rgs] for p in small.index]
    w_small, w_large = small.entries, large.entries
    for a, p in enumerate(small.index):
        for b, q in enumerate(small.index):
            scale = Fraction(n) ** (k - p.block_count - q.block_count)
            assert w_small[a][b] == scale * w_large[fat[a]][fat[b]], (p, q)
