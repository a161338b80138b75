"""Record the golden CLI corpus: `python tests/make_golden_corpus.py`.

Runs every invocation in CASES through `easywg.cli.main` with empty
memos and no disk cache, and writes argv and stdout to
`tests/golden_corpus.json`.  `tests/test_golden_corpus.py` replays the
file and requires byte-identical stdout, so regenerate it only when an
output change is intended.  No case passes `--timing`, so no
`timing_seconds` field is recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

CORPUS = pathlib.Path(__file__).with_name("golden_corpus.json")

_WEINGARTEN_KEYS = [
    # (category, word, N): singular and nonsingular N for every category,
    # coloured words for U and U+, the empty word and empty partition sets
    ("S", "oooo", 3),  # 14 < 15: the singular basis of criterion 1
    ("S", "oooo", 4),
    ("S", "ooooo", 2),
    ("S", "ooo", 1),
    ("S", "", 3),
    ("S+", "oooo", 2),
    ("S+", "ooooo", 3),
    ("S+", "oooo", 10),
    ("O", "oooooo", 2),
    ("O", "oooooo", 6),
    ("O", "ooo", 3),
    ("O", "oooo", 1),
    ("O+", "oooooooo", 2),
    ("O+", "oooooooo", 10),
    ("O+", "", 1),
    ("U", "obob", 1),
    ("U", "oobb", 2),
    ("U", "obobob", 2),
    ("U", "ooobbb", 3),
    ("U", "oob", 3),
    ("U+", "obob", 2),
    ("U+", "obbo", 4),
    ("U+", "oobbob", 3),
    ("U+", "obobob", 1),
    ("U+", "", 2),
]

CASES: list[list[str]] = [
    ["weingarten", "--category", c, "--word", w, "--n", str(n)]
    for c, w, n in _WEINGARTEN_KEYS
] + [
    ["gram", "--category", "S+", "--word", "oooo", "--n", "3"],
    ["partitions", "--category", "O+", "--word", "oooooooooo"],
    ["partitions", "--category", "U+", "--word", "obbobo"],
    ["partitions", "--category", "S", "--word", "ooooo"],
    ["group-moment", "--group", "S:3", "--word", "oooo",
     "--rows", "1,1,2,2", "--cols", "1,2,1,2"],
    ["group-moment", "--group", "O:2", "--word", "oooooo",
     "--rows", "1,1,1,1,2,2", "--cols", "1,1,2,2,1,1"],
    ["group-moment", "--group", "U:2", "--word", "obob",
     "--rows", "1,1,1,1", "--cols", "1,1,1,1"],
    ["group-moment", "--group", "O+:3", "--word", "oooo",
     "--rows", "1,1,1,1", "--cols", "1,1,1,1"],
    ["group-moment", "--group", "U+:2", "--word", "oobb",
     "--rows", "1,2,1,2", "--cols", "1,1,1,1"],
    ["group-moment", "--group", "S+:4", "--word", "",
     "--rows", "", "--cols", ""],
    ["group-moment", "--group", "S:2", "--group", "O+:3", "--word", "oo",
     "--rows", "1,1", "--cols", "1,1", "--rows", "1,2", "--cols", "1,2"],
    ["space-moment", "--space", "O+:5/I=1,2", "--word", "ob", "--indices", "1,1"],
    ["space-moment", "--space", "group-as-space:S:3", "--word", "oo",
     "--indices", "1.1,2.2"],
    ["space-moment", "--space", "free-complex-sphere:3", "--word", "oobb",
     "--indices", "1,2,1,2"],
    ["char-exact", "--space", "free-real-sphere:8", "--truncation", "8",
     "--word", "oooo"],
    ["char-exact", "--space", "group-as-space:S:5", "--truncation", "5",
     "--word", "ooo"],
    ["convergence", "--family", "group-as-space", "--category", "U+",
     "--word", "obob", "--sizes", "2,3,4"],
    ["verify", "--space", "column-space:S:3:2", "--max-k", "3",
     "--test-degree", "1"],
    ["relations", "--space", "O:2xO+:2/J=1,2", "--max-k", "4"],
    ["verify", "--space", "O:2xO+:2/J=1,2", "--max-k", "2", "--test-degree", "1",
     "--full"],
    ["space-moment", "--space", "U:2xU+:3/J=1,2", "--word", "obob",
     "--indices", "1.1,1.1,2.2,2.2"],
    ["space-moment", "--space", "O+:5/I=1,2", "--word", "ooo",  # no O+ partitions
     "--indices", "1,1,1"],
    ["char-exact", "--space", "O:3xO+:3/J=1,2", "--truncation", "2",
     "--word", "oooo"],
    ["group-moment", "--group", "S:3", "--group", "O:2", "--word", "oo",  # S factor is 0
     "--rows", "1,2", "--cols", "1,1", "--rows", "1,1", "--cols", "1,1"],
    ["char-asymptotic", "--categories", "O,O+", "--word", "oooooo", "--t", "3/2"],
    ["limit-moments", "--law", "free-poisson", "--t", "2", "--max-k", "6"],
    ["limit-moments", "--law", "classical-matching", "--t", "1/3", "--max-k", "4",
     "--format", "csv"],
    ["bp-compare", "--category", "O", "--t", "1/2", "--max-k", "6",
     "--format", "csv"],
    ["convergence", "--family", "classical-sphere", "--category", "O",
     "--word", "oooo", "--sizes", "2,3,5", "--format", "csv"],
    ["oracle", "counting", "--kind", "catalan", "--k", "7"],
    ["oracle", "sn-moment", "--n", "4", "--word", "ooo",
     "--rows", "1,1,2", "--cols", "3,3,4"],
    ["oracle", "sn-space-moment", "--n", "4", "--index-set", "1,3", "--word", "oo",
     "--indices", "1,1"],
    # colour-sensitive factors: verify's outcomes are keyed by word text
    ["verify", "--space", "U:2/I=1", "--max-k", "2", "--test-degree", "1", "--full"],
    ["verify", "--space", "O:2xU+:2/J=1,2", "--max-k", "2", "--test-degree", "1",
     "--full"],
    # verify by equality pattern: large check counts, and the order of a
    # product's checks at test degree 2
    ["verify", "--space", "group-as-space:O:3", "--max-k", "4", "--test-degree", "3"],
    ["verify", "--space", "O:3xO+:3/J=1,2", "--max-k", "4", "--test-degree", "3"],
    ["verify", "--space", "O:2xU+:2/J=1,2", "--max-k", "2", "--test-degree", "2",
     "--full"],
    # S spaces, recorded from the Weingarten engine: the kernels of S factors
    # come from the partition lattice and must reproduce these bytes; N < k
    # is singular
    ["space-moment", "--space", "S:2/I=1,2", "--word", "oooo", "--indices", "1,2,1,2"],
    ["space-moment", "--space", "S:3/I=1,2", "--word", "ooooo", "--indices", "1,1,2,2,1"],
    ["char-exact", "--space", "group-as-space:S:2", "--truncation", "2", "--word", "oooo"],
    ["char-exact", "--space", "group-as-space:S:2", "--truncation", "1", "--word", "oooo"],
    ["space-moment", "--space", "S:3xO:3/J=1,2", "--word", "oooo",
     "--indices", "1.1,1.1,2.2,2.2"],
    ["space-moment", "--space", "S:2xS+:3/J=1,2", "--word", "ooo",
     "--indices", "1.1,2.2,1.1"],
    ["char-exact", "--space", "S:2xU:2/J=1,2", "--truncation", "2", "--word", "obob"],
    ["space-moment", "--space", "column-space:S:3:2", "--word", "oooo",
     "--indices", "1.1,2.2,1.1,2.2"],
    ["convergence", "--family", "group-as-space", "--category", "S",
     "--word", "ooooo", "--sizes", "2,3,4"],
    ["verify", "--space", "S:3/I=1,2", "--max-k", "3", "--test-degree", "2"],
    ["verify", "--space", "S:2xO:2/J=1,2", "--max-k", "2", "--test-degree", "2",
     "--full"],
    # S factors with N < k on six to eight legs: the lattice operator keeps
    # only the partitions with at most N blocks
    ["space-moment", "--space", "S:3/I=1,2", "--word", "oooooooo",
     "--indices", "1,2,1,2,1,2,1,2"],
    ["char-exact", "--space", "group-as-space:S:2", "--truncation", "2",
     "--word", "oooooo"],
    ["group-moment", "--group", "S:3", "--word", "ooooooo",
     "--rows", "1,2,1,3,2,1,1", "--cols", "2,3,2,1,3,2,2"],
    ["convergence", "--family", "group-as-space", "--category", "S",
     "--word", "oooooo", "--sizes", "2,3,7"],
    # single O, O+, U and U+ factors at M > 1: every partition has k/2
    # blocks, so these kernels are M^(k/2) times those at M = 1
    ["verify", "--space", "O:3/I=1,2,3", "--max-k", "4", "--test-degree", "3"],
    ["verify", "--space", "O+:3/I=1,2", "--max-k", "4", "--test-degree", "3"],
    ["verify", "--space", "U:3/I=1,2", "--max-k", "4", "--test-degree", "3"],
    ["verify", "--space", "U+:3/I=2,3", "--max-k", "4", "--test-degree", "3"],
    ["verify", "--space", "U:2/I=1,2", "--max-k", "2", "--test-degree", "1", "--full"],
    ["space-moment", "--space", "O:4/I=1,2,3", "--word", "oooooo",
     "--indices", "1,2,1,2,3,3"],
    # every counting kind, law and family, and words without partitions
    ["oracle", "counting", "--kind", "bell", "--k", "9"],
    ["oracle", "counting", "--kind", "double-factorial", "--k", "6"],
    ["oracle", "counting", "--kind", "poisson-recurrence", "--k", "7", "--t", "3/2"],
    ["oracle", "counting", "--kind", "poisson-recurrence", "--k", "0"],
    ["limit-moments", "--law", "poisson", "--t", "3/2", "--max-k", "6"],
    ["limit-moments", "--law", "gaussian", "--t", "2", "--max-k", "8"],
    ["limit-moments", "--law", "semicircle", "--t", "1/2", "--max-k", "8",
     "--format", "csv"],
    ["limit-moments", "--law", "free-matching", "--t", "3", "--max-k", "6"],
    ["convergence", "--family", "free-real-sphere", "--word", "oooo",
     "--sizes", "2,3,6"],
    ["convergence", "--family", "free-complex-sphere", "--word", "obob",
     "--sizes", "2,4", "--format", "csv"],
    ["group-moment", "--group", "O:3", "--word", "ooo",
     "--rows", "1,1,1", "--cols", "1,1,1"],
    ["group-moment", "--group", "U+:2", "--word", "oob",
     "--rows", "1,1,1", "--cols", "1,1,1"],
    ["partitions", "--category", "O", "--word", "ooo"],
    ["partitions", "--category", "U", "--word", "obo"],
    # a word without legs draws no matrix, so its estimate is exact on any host
    ["oracle", "haar-mc", "--group", "U:3", "--word", "", "--rows", "", "--cols", "",
     "--samples", "10000", "--seed", "1"],
    # U words whose colours are not sorted, at a singular N (3 whites, N = 2),
    # and U+ words that are rotations or colour swaps of others
    ["group-moment", "--group", "U:2", "--word", "obbobo",
     "--rows", "1,1,2,2,1,1", "--cols", "1,2,1,1,1,2"],
    ["group-moment", "--group", "U:2", "--word", "obbobo",
     "--rows", "1,1,1,1,1,1", "--cols", "1,1,1,1,1,1"],
    ["group-moment", "--group", "U+:2", "--word", "boob",
     "--rows", "1,1,2,2", "--cols", "1,1,2,2"],
    ["group-moment", "--group", "U+:2", "--word", "bobobo",
     "--rows", "1,1,2,2,1,1", "--cols", "1,2,2,1,1,1"],
    ["group-moment", "--group", "U+:3", "--word", "oobbob",
     "--rows", "1,2,2,1,3,3", "--cols", "1,1,1,1,2,2"],
    ["space-moment", "--space", "U+:3/I=1,2", "--word", "obbobo",
     "--indices", "1,1,2,2,1,1"],
    ["space-moment", "--space", "group-as-space:U+:2", "--word", "boob",
     "--indices", "1.2,1.2,1.2,1.2"],
    ["verify", "--space", "U+:3/I=1,2", "--max-k", "4", "--test-degree", "3"],
    ["verify", "--space", "group-as-space:U+:2", "--max-k", "4", "--test-degree", "3"],
    ["verify", "--space", "group-as-space:U+:2", "--max-k", "2", "--test-degree", "1",
     "--full"],
    # S factors at the largest words that finish in well under a second: the
    # products with O, U+ and S, char-exact, N < k, and several N >= k in one
    # process
    ["space-moment", "--space", "S:3xO:3/J=1,2", "--word", "oooooo",
     "--indices", "1.1,2.2,1.1,2.2,1.2,1.2"],
    ["space-moment", "--space", "S:3xU+:3/J=1,2", "--word", "obobobob",
     "--indices", "1.1,1.1,2.2,2.2,1.1,1.1,2.1,2.1"],
    ["space-moment", "--space", "S:2xS:3xS:4/J=1,2", "--word", "ooooo",
     "--indices", "1.1.1,2.2.2,1.1.1,2.2.2,1.1.1"],
    ["char-exact", "--space", "S:5/I=1,2", "--truncation", "3", "--word", "oooooooo"],
    ["char-exact", "--space", "group-as-space:S:4", "--truncation", "3",
     "--word", "oooooo"],
    ["space-moment", "--space", "S:2/I=1", "--word", "oooooooo",
     "--indices", "1,1,1,1,1,1,1,1"],
    ["convergence", "--family", "group-as-space", "--category", "S",
     "--word", "oooooo", "--sizes", "4,6,8,10"],
    # O and U: o^10 at a singular and a nonsingular N, o^6 b^6 with shuffled
    # colours, U at N < a, and single-factor spaces
    ["group-moment", "--group", "O:3", "--word", "oooooooooo",
     "--rows", "1,1,2,2,3,3,1,1,2,2", "--cols", "1,2,1,2,3,3,3,3,1,1"],
    ["group-moment", "--group", "O:10", "--word", "oooooooooo",
     "--rows", "1,1,2,2,3,3,1,1,2,2", "--cols", "1,2,1,2,3,3,3,3,1,1"],
    ["group-moment", "--group", "U:10", "--word", "obbooboboobb",
     "--rows", "1,2,3,1,2,1,2,3,3,3,2,1", "--cols", "1,3,3,2,3,1,1,2,2,3,2,1"],
    ["group-moment", "--group", "U:2", "--word", "bboobobo",
     "--rows", "1,1,1,2,2,1,2,2", "--cols", "1,2,2,1,1,1,2,2"],
    ["space-moment", "--space", "O:5/I=1,2", "--word", "oooooooo",
     "--indices", "1,2,1,2,1,1,2,2"],
    ["space-moment", "--space", "classical-sphere:U:4", "--word", "obbobo",
     "--indices", "1,2,1,2,3,3"],
    ["char-exact", "--space", "O:4/I=1,2", "--truncation", "2", "--word", "oooooo"],
    ["char-exact", "--space", "U:3/I=1,2", "--truncation", "2", "--word", "obbobo"],
    # verify and char-exact on S factors, alone and in products, N < k among
    # the count tables of S:2/I=1,2
    ["verify", "--space", "group-as-space:S:3", "--max-k", "4", "--test-degree", "2"],
    ["verify", "--space", "S:3xO:3/J=1,2", "--max-k", "4", "--test-degree", "2"],
    ["verify", "--space", "S:2xU+:2/J=1,2", "--max-k", "4", "--test-degree", "2"],
    ["verify", "--space", "S:2/I=1,2", "--max-k", "5", "--test-degree", "2"],
    ["char-exact", "--space", "S:3xO:3/J=1,2", "--truncation", "2", "--word", "oooooo"],
]


def record() -> list[dict]:
    from easywg import cli, exact_linalg
    from fraction_reference import clear_caches

    out = []
    for argv in CASES:
        clear_caches()
        exact_linalg.set_disk_cache(None)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        out.append({"argv": argv, "exit": code, "stdout": buf.getvalue()})
    return out


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {CORPUS}")
