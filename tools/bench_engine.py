#!/usr/bin/env python3
"""Cold Weingarten builds, layer by layer, for two checkouts: three large
keys, and two of at most exact_linalg._SMALL partitions, which take the
Python-int route, so the record shows both sides of the size choice.

    python3 tools/bench_engine.py --parent DIR [--out BENCH_engine.json]

DIR is a checkout of the commit to compare against, for example a `git
clone` of this repository at that commit.  Every key is built cold in a
fresh process with one BLAS thread, twice per checkout: once plain, for the
wall time and the peak RSS, and once with each engine function wrapped by a
timer, for the seconds per layer.  A function that a checkout lacks is not
timed, and the record lists it under `missing_layers` for that side.
Products run inside the sweep and the certificate, so `products` overlaps
both; reconstruction includes building the combined values from the CRT
digits where the engine does that lazily.
The record, with each checkout's commit (marked when its tree has
uncommitted changes), goes to --out as JSON.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

from checkout import commit

ROOT = Path(__file__).resolve().parent.parent
KEYS = [("O", "o" * 10, 10), ("S", "o" * 7, 10), ("S+", "o" * 8, 10),
        ("O+", "o" * 6, 10), ("U", "ooobbb", 10)]
LAYERS = {"_sweep": "sweep", "_matmul_mod": "products", "add": "crt",
          "_reconstruct": "reconstruction", "_certify": "certificate",
          "_join_block_counts": "gram", "_join_blocks": "gram", "_bareiss": "elimination"}
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def child(src: str, cat: str, word: str, n: int, layered: bool) -> dict:
    sys.path.insert(0, str(Path(src) / "src"))
    import numpy  # noqa: F401  (loaded before the clock starts)
    from easywg import exact_linalg as xl

    seconds: collections.Counter = collections.Counter()

    def timed(owner, name):
        f = getattr(owner, name)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                seconds[LAYERS[name]] += time.perf_counter() - t0
        setattr(owner, name, wrapper)

    owners = [owner for owner in (xl, getattr(xl, "_Garner", None)) if owner is not None]
    missing = [name for name in LAYERS if not any(hasattr(owner, name) for owner in owners)]
    if layered:
        for owner in owners:
            for name in LAYERS:
                if hasattr(owner, name):
                    timed(owner, name)
    t0 = time.perf_counter()
    w = xl.get_weingarten(cat, word, n)
    wall = time.perf_counter() - t0
    return {"n": len(w.index), "basis": len(w.basis), "wall_s": round(wall, 5),
            "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
            "layers_s": {k: round(v, 5) for k, v in sorted(seconds.items())},
            "missing_layers": missing}


def run(src: Path, key, layered: bool) -> dict:
    argv = [sys.executable, __file__, "--child", str(src), *map(str, key)]
    out = subprocess.run(argv + (["--layered"] if layered else []), env=ENV,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent")
    ap.add_argument("--out", default=str(ROOT / "BENCH_engine.json"))
    ap.add_argument("--child", nargs=4, metavar=("SRC", "CAT", "WORD", "N"))
    ap.add_argument("--layered", action="store_true")
    args = ap.parse_args()
    if args.child:
        src, cat, word, n = args.child
        print(json.dumps(child(src, cat, word, int(n), args.layered)))
        return 0
    if not args.parent:
        ap.error("--parent is required")
    import numpy

    sides = {"parent": Path(args.parent).resolve(), "change": ROOT}
    record = {
        "what": "cold get_weingarten at N=10, one process per key and run",
        "command": "python3 tools/bench_engine.py --parent DIR",
        "commits": {side: commit(src) for side, src in sides.items()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "env": {"OPENBLAS_NUM_THREADS": "1"},
        "cpus": os.cpu_count(),
        "missing_layers": {},
        "keys": {},
    }
    for key in KEYS:
        row = {}
        for side, src in sides.items():
            plain, layered = run(src, key, False), run(src, key, True)
            row[side] = {"n": plain["n"], "basis": plain["basis"], "wall_s": plain["wall_s"],
                         "peak_rss_mib": plain["peak_rss_mib"], "layers_s": layered["layers_s"]}
            record["missing_layers"][side] = layered["missing_layers"]
            print(" ".join(map(str, key)), side, json.dumps(row[side]), file=sys.stderr)
        record["keys"][" ".join(map(str, key))] = row
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
