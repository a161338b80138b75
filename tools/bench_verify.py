#!/usr/bin/env python3
"""One verify round of the benchmark, layer by layer, for two checkouts.

    python3 tools/bench_verify.py --parent DIR [--out BENCH_verify.json]

DIR is a checkout of the commit to compare against, for example a `git
clone` of this repository at that commit.  For each seed of SEEDS, the
inputs are those of the benchmark's `verify` workload
(`perfbench/workloads.py` of this checkout, read only, so both sides get
the same inputs): 40 `verify_relations` calls at max_k 4, test degree 3.  A
fresh process with one BLAS thread runs ROUNDS rounds, each cold (every
memo of the package is emptied before it), in two modes: plain, for the
median wall time of a round and the peak RSS, and with the functions of
each layer wrapped by a timer, for the median self seconds per layer (a
wrapped call's time minus that of the wrapped calls inside it):

    count tables          _count_table, _count_rows, _powers
    joins                 _join_blocks
    relations             relation_set and _verify_plan, less their joins
    kernels               _space_kernel, less its joins and inverses
    inverses              _inverse_rows, as called by the spaces module:
                          each factor's generalized inverse, the S lattice
                          operator or the engine's Weingarten block
    contraction           _contract_each and _moment_from_kernel
    cross-multiplication  verify_relations and _outcome_table, less
                          everything above (the zero-pair test included)

A name that a checkout lacks is not timed, and the record lists it under
`missing_layers` for that side.  The layered run also counts the round's
work: the outcome tables built and those read again (misses and hits of
the `_outcome_table` memo; on a checkout without it, every call builds
one), the relation sets built (misses of the `_verify_plan` memo; on a
checkout without it, one per outcome table built) and the `Relation`
records made, the (relation word key, test word key) pairs of the tables built,
those computed (one `lhs_vectors` call each, less the one call per
distinct test word key that takes its moments from the empty relation
word), those decided wholesale as zero pairs (the rest), the kernels
built (misses of the `_space_kernel` memo), the equality patterns built
(`_Patterns` objects made), the left sides served without contraction
(`lhs_vectors` calls answered from the left sides a `_Patterns` keeps at
M = 1; 0 on a checkout without them) and the outcome tables built
without any contraction (no `_contract_axis` or `_contract_each` call);
every round of a process must do the same work, and so must every
process of a side and seed.

Each side runs PROCESSES processes per seed and mode, and the record holds
their medians: a whole process can run 1.5x slower than another doing the
same work.  The sides alternate which runs first from process to process
and from seed to seed.  The record, with each checkout's commit (marked
when its tree has uncommitted changes), goes to --out as JSON.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
ROUNDS = 7
PROCESSES = 3
LAYERS = {
    "_count_table": "count tables", "_count_rows": "count tables",
    "_powers": "count tables",
    "_join_blocks": "joins",
    "relation_set": "relations", "_verify_plan": "relations",
    "_space_kernel": "kernels",
    "_inverse_rows": "inverses",
    "_contract_each": "contraction", "_moment_from_kernel": "contraction",
    "verify_relations": "cross-multiplication",
    "_outcome_table": "cross-multiplication",
}
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
ENV.pop("PYTHONPATH", None)


def _memos() -> list:
    """Every lru_cache of the loaded easywg modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "easywg":
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    found[id(obj)] = obj
    return list(found.values())


def child(src: str, seed: int, layered: bool) -> dict:
    sys.path[:0] = [str(Path(src) / "src"), str(ROOT / "perfbench")]
    import numpy  # noqa: F401  (loaded before the clock starts)
    import workloads
    from easywg import spaces

    memos = _memos()  # before any timer wraps them
    kernels = spaces._space_kernel
    outcomes = getattr(spaces, "_outcome_table", None)
    plans = getattr(spaces, "_verify_plan", None)
    inputs = workloads.verify(random.Random(seed))
    seconds: collections.Counter = collections.Counter()
    inside = [0.0]  # per open wrapped call: seconds spent in wrapped calls below it

    def timed(name):
        f = getattr(spaces, name)

        def wrapper(*args, **kwargs):
            inside.append(0.0)
            t0 = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                seconds[LAYERS[name]] += spent - inside.pop()
                inside[-1] += spent
        setattr(spaces, name, wrapper)

    counts = collections.Counter()
    missing = [name for name in LAYERS if not hasattr(spaces, name)]
    if layered:
        for name in LAYERS:
            if name not in missing:
                timed(name)
        lhs_vectors, patterns = spaces._Patterns.lhs_vectors, spaces._Patterns.__init__

        def counted(self, *args):  # args end with the heads, the fulls and the size
            counts["computed"] += 1
            counts["kept"] += args[-2] in getattr(self, "_unit", ())
            return lhs_vectors(self, *args)
        spaces._Patterns.lhs_vectors = counted

        def built(*args):
            counts["patterns"] += 1
            patterns(*args)
        spaces._Patterns.__init__ = built
        relation = spaces.Relation

        def made(*args):
            counts["relations"] += 1
            return relation(*args)
        spaces.Relation = made
        for name in ("_contract_axis", "_contract_each"):
            contract = getattr(spaces, name)

            def contracting(*args, contract=contract):
                counts["contractions"] += 1
                return contract(*args)
            setattr(spaces, name, contracting)
        table = spaces._outcome_table

        def tabled(*args):
            before = (outcomes.cache_info().misses if outcomes else 0, counts["contractions"])
            try:
                return table(*args)
            finally:
                fresh = not outcomes or outcomes.cache_info().misses > before[0]
                counts["uncontracted"] += fresh and counts["contractions"] == before[1]
        spaces._outcome_table = tabled
    walls, layers, works = [], [], []
    for _ in range(ROUNDS):
        for memo in memos:
            memo.cache_clear()
        seconds.clear()
        counts.clear()
        reports = []
        t0 = time.perf_counter()
        for item in inputs["spaces"]:
            space = spaces.parse_space(item["space"])
            reports.append(spaces.verify_relations(space, inputs["max_k"], inputs["test_degree"]))
        walls.append(time.perf_counter() - t0)
        layers.append(dict(seconds))
        for item, report in zip(inputs["spaces"], reports):
            if (len(report.checks), report.all_passed) != (item["checked"], True):
                raise SystemExit(f"{item['space']}: wrong verify result")
        if layered:
            tables = list({id(r.checks): r.checks for r in reports}.values())  # those built
            pairs = sum(len(t._table) for t in tables)
            # the test words' moments are lhs_vectors calls too, one per distinct key
            computed = counts["computed"] - sum(len({t_[1] for t_ in t._tests}) for t in tables)
            info = outcomes.cache_info() if outcomes else None
            outcome_builds = info.misses if info else len(reports)
            works.append({"outcome_builds": outcome_builds,
                          "outcome_hits": info.hits if info else 0,
                          "relation_builds": plans.cache_info().misses if plans
                          else outcome_builds,
                          "relations_made": counts["relations"],
                          "pairs": pairs, "pairs_wholesale": pairs - computed,
                          "pairs_computed": computed,
                          "kernel_builds": kernels.cache_info().misses,
                          "pattern_builds": counts["patterns"],
                          "left_sides_kept": counts["kept"],
                          "outcome_builds_uncontracted": counts["uncontracted"]})
    out = {"wall_s": round(statistics.median(walls), 4),
           "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
           "layers_s": {name: round(statistics.median(r.get(name, 0.0) for r in layers), 4)
                        for name in sorted(set().union(*layers))}}
    if layered:
        if any(w != works[0] for w in works):
            raise SystemExit(f"rounds did different work: {works}")
        out["work"] = works[0]
        out["missing_layers"] = missing
    return out


def run(src: Path, seed: int, layered: bool) -> dict:
    argv = [sys.executable, __file__, "--child", str(src), str(seed)]
    out = subprocess.run(argv + (["--layered"] if layered else []), env=ENV,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def commit(src: Path) -> str:
    try:
        head, dirty = (subprocess.run(["git", "-C", str(src), *argv], capture_output=True,
                                      text=True, check=True).stdout.strip()
                       for argv in (["rev-parse", "HEAD"], ["status", "--porcelain"]))
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return head + (" with uncommitted changes" if dirty else "")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent")
    ap.add_argument("--out", default=str(ROOT / "BENCH_verify.json"))
    ap.add_argument("--child", nargs=2, metavar=("SRC", "SEED"))
    ap.add_argument("--layered", action="store_true")
    args = ap.parse_args()
    if args.child:
        src, seed = args.child
        print(json.dumps(child(src, int(seed), args.layered)))
        return 0
    if not args.parent:
        ap.error("--parent is required")
    sides = {"parent": Path(args.parent).resolve(), "change": ROOT}
    record = {
        "what": "cold rounds of the verify workload (40 verify_relations calls), "
                f"the median of {ROUNDS} per process, and of {PROCESSES} alternating "
                "processes per side, seed and mode",
        "command": "python3 tools/bench_verify.py --parent DIR",
        "commits": {side: commit(src) for side, src in sides.items()},
        "python": platform.python_version(),
        "env": {"OPENBLAS_NUM_THREADS": "1"},
        "cpus": os.cpu_count(),
        "missing_layers": {},
        "seeds": {},
    }
    for i, seed in enumerate(SEEDS):
        runs: dict = {side: [] for side in sides}  # (plain, layered) per process
        for p in range(PROCESSES):
            order = list(sides.items()) if (i + p) % 2 == 0 else list(sides.items())[::-1]
            for side, src in order:
                runs[side].append((run(src, seed, False), run(src, seed, True)))
                print(seed, side, json.dumps(runs[side][-1]), file=sys.stderr)
        row = {}
        for side, done in runs.items():
            plains, layereds = zip(*done)
            if any(r["work"] != layereds[0]["work"] for r in layereds):
                raise SystemExit(f"{side}, seed {seed}: processes did different work")
            record["missing_layers"][side] = layereds[0]["missing_layers"]
            row[side] = {
                "wall_s": statistics.median(r["wall_s"] for r in plains),
                "wall_s_processes": [r["wall_s"] for r in plains],
                "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plains),
                "layers_s": {layer: round(statistics.median(
                    r["layers_s"].get(layer, 0.0) for r in layereds), 4)
                    for layer in sorted(set().union(*(r["layers_s"] for r in layereds)))},
                "work": layereds[0]["work"],
            }
        record["seeds"][str(seed)] = row
    record["median"] = {
        side: {
            "wall_s": statistics.median(r[side]["wall_s"] for r in record["seeds"].values()),
            "peak_rss_mib": statistics.median(
                r[side]["peak_rss_mib"] for r in record["seeds"].values()),
            "layers_s": {
                layer: round(statistics.median(
                    r[side]["layers_s"].get(layer, 0.0) for r in record["seeds"].values()), 4)
                for layer in sorted(set(LAYERS.values()))
            },
        }
        for side in sides
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
