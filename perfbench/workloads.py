"""Seeded inputs for the three workloads, with their expected outputs.

Everything here is plain data: the program receives only what these
functions generate, and each expectation comes from checks.py.  The
per-round cost of every workload is fixed by its slot list; the seed draws
coloured words, index tuples, index sets, small sizes, table parameters and
the session order, chosen so that they barely change the size of the work.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks

MAX_K, TEST_DEGREE = 4, 3


def _balanced_word(rng: random.Random, k: int) -> str:
    legs = list("o" * (k // 2) + "b" * (k // 2))
    rng.shuffle(legs)
    return "".join(legs)


# ---------------------------------------------------------------------------
# wg-build: cold get_weingarten over a fixed key list.

# Large keys: nonsingular at N=10, singular (basis smaller than the index)
# at N=2.  They keep a round near 9 s, so that three rounds fit in a run:
# S at k=6, N=10 takes about 30 s today, S+ at k=6, N=10 about 10 s and O at
# k=8, N=10 about 6 s, so those keys enter at N=2, where the basis is small.
LARGE_KEYS = [
    ("O+", "oooooooooo", 10),
    ("U+", "obobobobob", 10),
    ("O", "oooooooo", 2),
    ("S", "oooooo", 2),
    ("S+", "oooooo", 2),
    ("U", "ooooobbbbb", 2),
]
GRID_N = (2, 3, 4, 10)
# Two word lengths per category, so the median task falls among many
# mid-size keys (5-50 ms) rather than in a gap between small and large.
GRID_LENGTHS = {"S": (4, 5), "S+": (4, 5), "O": (4, 6), "O+": (6, 8),
                "U": (6, 8), "U+": (6, 8)}


def _grid_word(rng: random.Random, cat: str, k: int) -> str:
    """One word per category and length.  Any balanced word gives U an
    isomorphic partition set; U+ takes an alternating word, the only kind
    with the full Catalan count, so the drawn word never changes the work."""
    if cat == "U":
        return _balanced_word(rng, k)
    if cat == "U+":
        return ("ob" if rng.random() < 0.5 else "bo") * (k // 2)
    return "o" * k


def wg_build(rng: random.Random, smoke: bool = False) -> dict:
    """The grid runs N by N, with a large key after every eighth grid key:
    the machine's speed drifts within seconds, and spreading each size band
    over the whole round keeps task_p50_ms from resting on one short window."""
    words = {(cat, k): _grid_word(rng, cat, k)
             for cat, lengths in GRID_LENGTHS.items() for k in lengths[:1 if smoke else 2]}
    grid = [(cat, word, n) for n in (GRID_N[:2] if smoke else GRID_N)
            for (cat, _), word in words.items()]
    keys = []
    for i in range(0, len(grid), 8):
        keys += grid[i:i + 8]
        if not smoke:
            keys.append(LARGE_KEYS[i // 8])
    return {"keys": keys}


# ---------------------------------------------------------------------------
# verify: verify_relations at max_k 4, test degree 3 on small-matrix spaces.

# (category, N, |I|) slots of the single-factor spaces; a repeated slot
# reuses the kernels of its first occurrence, whatever subset is drawn.
# With the four product spaces they make 40 verify_relations calls and about
# 0.75 million checks, near 9 s today, so that three rounds fit in a run.
_SMALL_SLOTS = [(2, 1), (2, 1), (2, 2), (3, 1), (3, 1), (3, 2), (3, 2), (3, 3), (3, 3)]


def verify(rng: random.Random, smoke: bool = False) -> dict:
    if smoke:
        texts = [f"{cat}:2/I={rng.randint(1, 2)}" for cat in ("O", "O+", "U")]
        max_k, degree = 2, 1
    else:
        j = [sorted(rng.sample(range(1, 3), rng.randint(1, 2))) for _ in range(2)]
        texts = ["group-as-space:U:3", "column-space:O+:4:2",
                 f"O:2xO+:2/J={_ints(j[0])}", f"U:2xU+:2/J={_ints(j[1])}"]
        for cat in ("O", "O+", "U", "U+"):
            for n, m in _SMALL_SLOTS:
                members = sorted(rng.sample(range(1, n + 1), m))
                texts.append(f"{cat}:{n}/I=" + ",".join(map(str, members)))
        max_k, degree = MAX_K, TEST_DEGREE
    spaces = [
        {"space": t, "checked": checks.verify_check_count(_factors(t), max_k, degree)}
        for t in texts
    ]
    return {"max_k": max_k, "test_degree": degree, "spaces": spaces}


def _factors(space: str) -> list[tuple[str, int]]:
    """(category, N) per factor of the space texts this module writes."""
    parts = space.split(":")
    if parts[0] == "group-as-space":
        return [(parts[1], int(parts[2]))] * 2
    if parts[0] == "column-space":
        return [(parts[1], int(parts[2])), (parts[1], int(parts[3]))]
    body = space.split("/")[0]
    return [(f.split(":")[0], int(f.split(":")[1])) for f in body.split("x")]


# ---------------------------------------------------------------------------
# cli: one easywg process per operation, against a filled --cache-dir.


def _ints(xs) -> str:
    return ",".join(map(str, xs))


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _op(kind: str, params: dict, argv: list, expect: dict) -> dict:
    return {"kind": kind, "params": params, "argv": argv, "expect": expect}


def _group_moment(rng, cat: str, word: str, n: int) -> dict:
    if cat == "S":
        cols = [rng.randint(1, n) for _ in word]
        if rng.random() < 0.5:
            perm = rng.sample(range(1, n + 1), n)
            rows = [perm[c - 1] for c in cols]
        else:
            rows = [rng.randint(1, n) for _ in word]
        value = checks.sn_group_moment(n, rows, cols)
    else:
        i, j = rng.randint(1, n), rng.randint(1, n)
        rows, cols = [i] * len(word), [j] * len(word)
        value = _SINGLE_ENTRY[(cat, word)](n)
    params = {"group": f"{cat}:{n}", "word": word, "rows": rows, "cols": cols}
    argv = ["group-moment", "--group", params["group"], "--word", word,
            "--rows", _ints(rows), "--cols", _ints(cols)]
    return _op("group-moment", params, argv, {"value": _frac(value)})


# Moments of one matrix entry u_ij: closed forms for the classical groups
# and the free orthogonal group.
_SINGLE_ENTRY = {
    ("O", "oo"): lambda n: Fraction(1, n),
    ("O+", "oo"): lambda n: Fraction(1, n),
    ("U", "ob"): lambda n: Fraction(1, n),
    ("O", "oooo"): lambda n: Fraction(3, n * (n + 2)),
    ("O+", "oooo"): lambda n: Fraction(2, n * (n + 1)),
    ("U", "obob"): lambda n: Fraction(2, n * (n + 1)),
}


def _space_moment(rng, cat: str, word: str, n: int) -> dict:
    if cat == "S":
        m = rng.randint(1, n)
        members = sorted(rng.sample(range(1, n + 1), m))
        indices = [rng.randint(1, n) for _ in word]
        value = checks.sn_space_moment(n, m, indices)
    else:
        # A single-factor space with I = {1} is the first column, a sphere.
        members = [1]
        indices = [rng.randint(1, n)] * len(word)
        value = _SINGLE_ENTRY[(cat, word)](n)
    space = f"{cat}:{n}/I={_ints(members)}"
    params = {"space": space, "word": word, "indices": indices}
    argv = ["space-moment", "--space", space, "--word", word, "--indices", _ints(indices)]
    return _op("space-moment", params, argv, {"value": _frac(value)})


def _char_exact(k: int, n: int) -> dict:
    space, word = f"group-as-space:S:{n}", "o" * k
    params = {"space": space, "truncation": n, "word": word}
    argv = ["char-exact", "--space", space, "--truncation", str(n), "--word", word]
    return _op("char-exact", params, argv, {"value": _frac(checks.fixed_point_moment(k, n))})


def _weingarten(rng, cat: str, k: int) -> dict:
    n = rng.randint(2, 5)
    word = _balanced_word(rng, k) if cat in ("U", "U+") else "o" * k
    params = {"category": cat, "word": word, "n": n}
    argv = ["weingarten", "--category", cat, "--word", word, "--n", str(n)]
    return _op("weingarten", params, argv, {"weingarten": [cat, word, n]})


def _relations(rng, cat: str, max_k: int) -> dict:
    n = rng.randint(2, 4)
    space = f"group-as-space:{cat}:{n}"
    params = {"space": space, "max_k": max_k}
    argv = ["relations", "--space", space, "--max-k", str(max_k)]
    count = checks.relation_count(_factors(space), max_k)
    return _op("relations", params, argv, {"relations": count, "factors": _factors(space)})


def _verify(rng, cat: str) -> dict:
    n = 4  # the number of checks grows with N
    members = sorted(rng.sample(range(1, n + 1), rng.randint(1, 2)))
    space = f"{cat}:{n}/I={_ints(members)}"
    params = {"space": space, "max_k": 2, "test_degree": 2}
    argv = ["verify", "--space", space, "--max-k", "2", "--test-degree", "2"]
    return _op("verify", params, argv,
               {"checked": checks.verify_check_count(_factors(space), 2, 2)})


def _char_asymptotic(rng, cats: tuple) -> dict:
    k, t = rng.randint(2, 6), rng.choice(["1", "2", "1/2"])
    word = "o" * k
    value = checks.block_sum(checks.intersection_category(cats), k, Fraction(t))
    params = {"categories": list(cats), "word": word, "t": t}
    argv = ["char-asymptotic", "--categories", ",".join(cats), "--word", word, "--t", t]
    return _op("char-asymptotic", params, argv, {"value": _frac(value)})


_LAWS = {"poisson": "S", "free-poisson": "S+", "gaussian": "O", "semicircle": "O+",
         "classical-matching": "U", "free-matching": "U+"}


# Table lengths stay fixed: enumeration cost grows like Bell(k).
TABLE_K = 6


def _limit_moments(rng, law: str) -> dict:
    max_k, t = TABLE_K, rng.choice(["1", "2", "1/2"])
    rows = [_frac(checks.block_sum(_LAWS[law], k, Fraction(t))) for k in range(1, max_k + 1)]
    params = {"law": law, "t": t, "max_k": max_k}
    argv = ["limit-moments", "--law", law, "--t", t, "--max-k", str(max_k)]
    return _op("limit-moments", params, argv, {"moments": rows})


def _bp_compare(rng, cat: str) -> dict:
    max_k, t = TABLE_K, rng.choice(["1", "2", "1/2"])
    free = {"S": "S+", "O": "O+", "U": "U+"}[cat]
    rows = [[_frac(checks.block_sum(c, k, Fraction(t))) for c in (cat, free)]
            for k in range(1, max_k + 1)]
    params = {"category": cat, "t": t, "max_k": max_k}
    argv = ["bp-compare", "--category", cat, "--t", t, "--max-k", str(max_k)]
    return _op("bp-compare", params, argv, {"bp": rows})


def _convergence(rng, k: int) -> dict:
    sizes = sorted(rng.sample(range(2, 6), 3))
    word = "o" * k
    bell = Fraction(checks.bell(k))
    rows = [[n * n, n, "1/1", _frac(checks.fixed_point_moment(k, n)), _frac(bell),
             _frac(abs(checks.fixed_point_moment(k, n) - bell))] for n in sizes]
    params = {"category": "S", "word": word, "sizes": sizes}
    argv = ["convergence", "--family", "group-as-space", "--category", "S",
            "--word", word, "--sizes", _ints(sizes)]
    return _op("convergence", params, argv, {"convergence": rows})


def _sn_moment(rng, k: int) -> dict:
    n = rng.randint(3, 5)
    op = _group_moment(rng, "S", "o" * k, n)
    p = dict(op["params"], n=n)
    del p["group"]
    argv = ["oracle", "sn-moment", "--n", str(n), "--word", p["word"],
            "--rows", _ints(p["rows"]), "--cols", _ints(p["cols"])]
    return _op("sn-moment", p, argv, op["expect"])


_COUNTS = {"bell": checks.bell, "catalan": checks.catalan,
           "double-factorial": checks.odd_double_factorial}


def _counting(rng, kind: str) -> dict:
    k = rng.randint(0, 12)
    params = {"kind": kind, "k": k}
    argv = ["oracle", "counting", "--kind", kind, "--k", str(k)]
    return _op("counting", params, argv, {"value": _frac(Fraction(_COUNTS[kind](k)))})


def _haar_mc(rng, cat: str, word: str, samples: int) -> dict:
    n = 4  # the sample arrays, and so peak memory, grow with N^2
    i, j = rng.randint(1, n), rng.randint(1, n)
    rows, cols = [i] * len(word), [j] * len(word)
    params = {"group": f"{cat}:{n}", "word": word, "rows": rows, "cols": cols,
              "samples": samples, "seed": rng.randrange(2**31)}
    argv = ["oracle", "haar-mc", "--group", params["group"], "--word", word,
            "--rows", _ints(rows), "--cols", _ints(cols), "--samples", str(samples),
            "--seed", str(params["seed"]), "--threads", "1"]
    return _op("haar-mc", params, argv, {"haar": _frac(_SINGLE_ENTRY[(cat, word)](n))})


def cli_session(rng: random.Random, mini: bool = False) -> list[dict]:
    """The session's operations in the order they run.

    The full session has 48 operations, so a run has at least forty tasks
    and task_tail_ms is a true tail; the mini session holds one operation
    of each kind and serves the traced runs of the other workloads.
    """
    n = lambda: rng.randint(3, 5)  # noqa: E731
    ops = [
        _group_moment(rng, "S", "ooo", n()),
        _group_moment(rng, "O", "oooo", n()),
        _space_moment(rng, "S", "oob", n()),
        _char_exact(4, 3),
        _weingarten(rng, "S+", 4),
        _relations(rng, "O", 4),
        _verify(rng, "O+"),
        _char_asymptotic(rng, ("O", "O+")),
        _limit_moments(rng, "poisson"),
        _bp_compare(rng, "S"),
        _convergence(rng, 4),
        _sn_moment(rng, 3),
        _counting(rng, "bell"),
        _haar_mc(rng, "O", "oooo", 100_000),
    ]
    if not mini:
        ops += [
            _group_moment(rng, "S", "oobo", n()),
            _group_moment(rng, "S", "obo", n()),
            _group_moment(rng, "O", "oo", n()),
            _group_moment(rng, "U", "ob", n()),
            _group_moment(rng, "U", "obob", n()),
            _group_moment(rng, "O+", "oooo", n()),
            _group_moment(rng, "O+", "oo", n()),
            _space_moment(rng, "S", "ooo", n()),
            _space_moment(rng, "S", "obob", n()),
            _space_moment(rng, "O", "oooo", n()),
            _space_moment(rng, "O+", "oooo", n()),
            _space_moment(rng, "U", "ob", n()),
            _char_exact(3, 4),
            _char_exact(4, 5),
            _char_exact(5, 4),
            _weingarten(rng, "O", 6),
            _weingarten(rng, "U", 6),
            _weingarten(rng, "O+", 6),
            _relations(rng, "U", 4),
            _verify(rng, "U"),
            _char_asymptotic(rng, ("S", "S+")),
            _char_asymptotic(rng, ("S",)),
            _limit_moments(rng, "free-poisson"),
            _limit_moments(rng, "gaussian"),
            _limit_moments(rng, "free-matching"),
            _bp_compare(rng, "O"),
            _bp_compare(rng, "U"),
            _convergence(rng, 3),
            _sn_moment(rng, 2),
            _sn_moment(rng, 4),
            _counting(rng, "catalan"),
            _counting(rng, "double-factorial"),
            _counting(rng, "bell"),
            _counting(rng, "catalan"),
        ]
    rng.shuffle(ops)
    return ops
