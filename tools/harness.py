"""What the `tools/bench_*.py` scripts share: their command line, the child
process each measurement runs in, the alternation of the two sides over
those processes and the figures kept from them, the record's header and a
layer timer.

A script is run as `python3 tools/bench_X.py --parent DIR [--out FILE]`,
where DIR is a checkout of the commit to compare against; the record goes to
FILE, by default BENCH_X.json at the root of this checkout.  Every
measurement runs in a fresh process, the script itself with `--child` and
the child's arguments, whose one line of JSON is the result.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one BLAS thread; each child puts its checkout's src on sys.path itself
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
ENV.pop("PYTHONPATH", None)


def commit(src: Path) -> str:
    """The commit at HEAD of the git checkout src, marked when its tree
    has uncommitted changes."""
    try:
        head, dirty = (subprocess.run(["git", "-C", str(src), *argv], capture_output=True,
                                      text=True, check=True).stdout.strip()
                       for argv in (["rev-parse", "HEAD"], ["status", "--porcelain"]))
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return head + (" with uncommitted changes" if dirty else "")


def start(script: str, child, metavar: tuple[str, ...], what: str, layered: bool = False
          ) -> tuple[argparse.Namespace, dict[str, Path], dict]:
    """Parse the script's command line.  With --child, print what child
    returns for the child's arguments (and --layered, when the script takes
    it) as JSON and exit.  Otherwise return the arguments, the two sides
    (the parent checkout and this one) and the record's header: what is
    measured, the command, each side's commit, the Python version, the
    thread setting and the CPU count."""
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent")
    out = ROOT / (Path(script).stem.replace("bench_", "BENCH_") + ".json")
    ap.add_argument("--out", default=str(out))
    ap.add_argument("--child", nargs=len(metavar), metavar=metavar)
    if layered:
        ap.add_argument("--layered", action="store_true")
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(*args.child, *([args.layered] if layered else []))))
        raise SystemExit(0)
    if not args.parent:
        ap.error("--parent is required")
    sides = {"parent": Path(args.parent).resolve(), "change": ROOT}
    return args, sides, {
        "what": what,
        "command": f"python3 tools/{Path(script).name} --parent DIR",
        "commits": {side: commit(src) for side, src in sides.items()},
        "python": platform.python_version(),
        "env": {"OPENBLAS_NUM_THREADS": "1"},
        "cpus": os.cpu_count(),
    }


def run(script: str, *args, layered: bool = False) -> dict:
    """The result of the script's child on args, in a fresh process with
    one BLAS thread."""
    argv = [sys.executable, script, "--child", *map(str, args)]
    out = subprocess.run(argv + (["--layered"] if layered else []), env=ENV,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def alternate(sides: dict[str, Path], measure, processes: int, first: int = 0
              ) -> dict[str, list]:
    """measure(side, src) for each side, `processes` times per side; the
    sides alternate which runs first from process to process, the parent
    first in the first process when `first` is even."""
    runs: dict[str, list] = {side: [] for side in sides}
    for p in range(processes):
        order = list(sides.items())
        if (first + p) % 2:
            order.reverse()
        for side, src in order:
            runs[side].append(measure(side, src))
    return runs


def best(plains: list[dict], layereds: list[dict]) -> dict:
    """One side's figures from its processes: the least wall time (every
    process's kept under `wall_s_processes`), since a whole process can run
    1.5x slower than another doing the same work, and the medians of the
    peak RSS and of each layer's seconds."""
    return {
        "wall_s": min(r["wall_s"] for r in plains),
        "wall_s_processes": [r["wall_s"] for r in plains],
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plains),
        "layers_s": {layer: round(statistics.median(r["layers_s"].get(layer, 0.0)
                                                    for r in layereds), 5)
                     for layer in sorted(set().union(*(r["layers_s"] for r in layereds)))},
    }


def time_layers(layers: dict[str, str], owners: list, wrap: bool
                ) -> tuple[collections.Counter, list[str]]:
    """The names of `layers` that no owner has, and, when wrap is set, every
    function that the names of `layers` find on an owner (a module or a
    class) wrapped by a timer of self time: a call's seconds less those of
    the wrapped calls inside it go to its layer, so the layers never
    overlap.  Returns the seconds per layer, which the timers add to, and
    the missing names."""
    seconds: collections.Counter = collections.Counter()
    inside = [0.0]  # per open wrapped call: seconds spent in wrapped calls below it

    def timed(owner, name):
        f = getattr(owner, name)

        def wrapper(*args, **kwargs):
            inside.append(0.0)
            t0 = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                seconds[layers[name]] += spent - inside.pop()
                inside[-1] += spent
        setattr(owner, name, wrapper)

    missing = [name for name in layers if not any(hasattr(owner, name) for owner in owners)]
    if wrap:
        for owner in owners:
            for name in layers:
                if hasattr(owner, name):
                    timed(owner, name)
    return seconds, missing
