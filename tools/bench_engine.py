#!/usr/bin/env python3
"""Cold Weingarten builds, layer by layer, for two checkouts: three large
keys, and two of at most exact_linalg._SMALL partitions, which take the
Python-int route, so the record shows both sides of the size choice.

    python3 tools/bench_engine.py --parent DIR [--out BENCH_engine.json]

DIR is a checkout of the commit to compare against, for example a `git
clone` of this repository at that commit.  Every key is built cold in a
fresh process with one BLAS thread, in two modes: plain, for the wall time
and the peak RSS, and with each engine function wrapped by a timer, for
the self seconds per layer (a wrapped call's time minus that of the
wrapped calls inside it, so the layers do not overlap and sum to at most
the build: `sweep` and `certificate` exclude the `products` they run).
Each side runs PROCESSES processes per key and mode, and the sides
alternate which runs first from process to process and from key to key.
A key's wall time is the least of its processes' (all of them are kept
under `wall_s_processes`), and its peak RSS and layers are their medians.
A function that a checkout lacks is not timed, and the record lists it
under `missing_layers` for that side.  Reconstruction includes building the
combined values from the CRT digits where the engine does that lazily.
The record, with each checkout's commit (marked when its tree has
uncommitted changes), goes to --out as JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import harness

PROCESSES = 3
KEYS = [("O", "o" * 10, 10), ("S", "o" * 7, 10), ("S+", "o" * 8, 10),
        ("O+", "o" * 6, 10), ("U", "ooobbb", 10)]
LAYERS = {"_sweep": "sweep", "_matmul_mod": "products", "add": "crt",
          "_reconstruct": "reconstruction", "_certify": "certificate",
          "_join_block_counts": "gram", "_join_blocks": "gram", "_bareiss": "elimination"}


def child(src: str, cat: str, word: str, n: str, layered: bool) -> dict:
    sys.path.insert(0, str(Path(src) / "src"))
    import numpy  # noqa: F401  (loaded before the clock starts)
    from easywg import exact_linalg as xl

    owners = [owner for owner in (xl, getattr(xl, "_Garner", None)) if owner is not None]
    seconds, missing = harness.time_layers(LAYERS, owners, layered)
    t0 = time.perf_counter()
    w = xl.get_weingarten(cat, word, int(n))
    wall = time.perf_counter() - t0
    return {"n": len(w.index), "basis": len(w.basis), "wall_s": round(wall, 5),
            "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
            "layers_s": {k: round(v, 5) for k, v in sorted(seconds.items())},
            "missing_layers": missing}


def main() -> int:
    args, sides, record = harness.start(
        __file__, child, ("SRC", "CAT", "WORD", "N"),
        f"cold get_weingarten at N=10; per key and side, the least wall of {PROCESSES} "
        "alternating processes and the median of their other figures", layered=True)
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record.update(numpy=numpy.__version__, blas=blas.get("version"), missing_layers={}, keys={})
    for i, key in enumerate(KEYS):
        def measure(side, src):
            out = (harness.run(__file__, src, *key), harness.run(__file__, src, *key, layered=True))
            print(" ".join(map(str, key)), side, json.dumps(out), file=sys.stderr)
            return out
        row = {}
        for side, done in harness.alternate(sides, measure, PROCESSES, i).items():
            plains, layereds = zip(*done)
            record["missing_layers"][side] = layereds[0]["missing_layers"]
            row[side] = {"n": plains[0]["n"], "basis": plains[0]["basis"],
                         **harness.best(plains, layereds)}
        record["keys"][" ".join(map(str, key))] = row
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
