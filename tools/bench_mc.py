#!/usr/bin/env python3
"""The Monte Carlo oracle on its own, for two checkouts.

    python3 tools/bench_mc.py --parent DIR [--out BENCH_mc.json]

DIR is a checkout of the commit to compare against, for example a `git
clone` of this repository at that commit.  Each measurement is one
`haar_mc_moment` call at N = 4 with 10^5 samples, one BLAS thread and
one sampling thread, in a fresh process that has imported numpy before
the clock starts.  It records the call's wall time, the growth of the
process's VmHWM (peak resident set) across the call, the peak itself and
the report.  The cases are `O:4` on `oooo` and `U:4` on `obob`, rows
1,2,3,4, with every column index 1 (width 1) or 4 (width 4): the width
is how many columns of each matrix the query reads.  For each seed of
SEEDS the two sides alternate which runs first.  The record, with each
checkout's commit (marked when its tree has uncommitted changes), the
medians per side and case, and the largest relative difference between
the two sides' estimates and standard errors, goes to --out as JSON.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import harness

SEEDS = (1, 2, 3, 4, 5)
SAMPLES = 100_000
CASES = {"O:4 width 1": ("O", "oooo", 1), "O:4 width 4": ("O", "oooo", 4),
         "U:4 width 1": ("U", "obob", 1), "U:4 width 4": ("U", "obob", 4)}


def hwm_kib() -> int:
    with open("/proc/self/status") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))


def child(src: str, case: str, seed: str) -> dict:
    sys.path.insert(0, str(Path(src) / "src"))
    import numpy  # noqa: F401  (loaded before the clock starts)
    from easywg.integrator import MomentQuery
    from easywg.oracles import haar_mc_moment
    from easywg.partitions import as_word

    kind, word, width = CASES[case]
    query = MomentQuery(as_word(word), (1, 2, 3, 4), (width,) * 4)
    before = hwm_kib()
    t0 = time.perf_counter()
    rep = haar_mc_moment(kind, 4, query, SAMPLES, int(seed))
    wall = time.perf_counter() - t0
    after = hwm_kib()
    return {"wall_s": round(wall, 4), "hwm_growth_mib": round((after - before) / 1024, 2),
            "peak_mib": round(after / 1024, 2),
            "estimate": rep.estimate, "standard_error": rep.standard_error}


def main() -> int:
    args, sides, record = harness.start(
        __file__, child, ("SRC", "CASE", "SEED"),
        f"one haar_mc_moment call at N = 4, {SAMPLES} samples, one process per "
        "side, case and seed")
    record["seeds"] = {}
    for i, seed in enumerate(SEEDS):
        row: dict = {case: {} for case in CASES}
        order = list(sides.items()) if i % 2 == 0 else list(sides.items())[::-1]
        for side, src in order:
            for case in CASES:
                row[case][side] = harness.run(__file__, src, case, seed)
                print(seed, case, side, json.dumps(row[case][side]), file=sys.stderr)
        record["seeds"][str(seed)] = {case: {side: row[case][side] for side in sides}
                                      for case in CASES}
    runs = record["seeds"].values()
    record["median"] = {
        case: {side: {field: statistics.median(r[case][side][field] for r in runs)
                      for field in ("wall_s", "hwm_growth_mib", "peak_mib")}
               for side in sides}
        for case in CASES
    }
    record["max_relative_difference"] = {
        field: max(abs(r[case]["change"][field] - r[case]["parent"][field])
                   / abs(r[case]["parent"][field])
                   for r in runs for case in CASES if r[case]["parent"][field])
        for field in ("estimate", "standard_error")
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
