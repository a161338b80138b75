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

    count tables          _count_table
    joins                 _join_blocks
    relations             relation_set and _verify_plan, less their joins
    kernels               _space_kernel, less its joins and inverses
    inverses              _inverse_rows, as called by the spaces module:
                          each factor's generalized inverse, the S lattice
                          operator or the engine's Weingarten block
    contraction           _contract_each
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
built (misses of the `_space_kernel` memo), the count tables built and
looked up (misses, and misses plus hits, of the `_count_table` memo; on a
checkout that raises the tables to N in a memo of their own, only that
memo's misses look a table up), the equality patterns built (misses of
the `_Patterns` memo), the left sides served without contraction
(`lhs_vectors` calls answered from the left sides a `_Patterns` keeps at
M = 1; 0 on a checkout without them) and the outcome tables built
without any contraction (no `_contract_axis` or `_contract_each` call),
and the Weingarten matrices built per category (`weingarten_builds`:
misses of the `exact_linalg._weingarten` memo, each counted by the
category of the Gram matrix it inverts); every round of a process must do
the same work, and so must every process of a side and seed.

Each side runs PROCESSES processes per seed and mode.  A seed's wall time
is the least of its processes' (all of them are kept under
`wall_s_processes`), and its other figures are their medians: a whole
process can run 1.5x slower than another doing the same work.  The sides
alternate which runs first from process to process and from seed to seed.
The record, with each checkout's commit (marked when its tree has
uncommitted changes), goes to --out as JSON.
"""

from __future__ import annotations

import collections
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import harness

SEEDS = (1, 2, 3, 4, 5)
ROUNDS = 7
PROCESSES = 3
LAYERS = {
    "_count_table": "count tables",
    "_join_blocks": "joins",
    "relation_set": "relations", "_verify_plan": "relations",
    "_space_kernel": "kernels",
    "_inverse_rows": "inverses",
    "_contract_each": "contraction",
    "verify_relations": "cross-multiplication",
    "_outcome_table": "cross-multiplication",
}


def _memos() -> list:
    """Every lru_cache of the loaded easywg modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "easywg":
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    found[id(obj)] = obj
    return list(found.values())


def child(src: str, seed: str, layered: bool) -> dict:
    sys.path[:0] = [str(Path(src) / "src"), str(harness.ROOT / "perfbench")]
    import numpy  # noqa: F401  (loaded before the clock starts)
    import workloads
    from easywg import exact_linalg, spaces

    memos = _memos()  # before any timer wraps them
    kernels, count_tables = spaces._space_kernel, spaces._count_table
    outcomes = getattr(spaces, "_outcome_table", None)
    plans = getattr(spaces, "_verify_plan", None)
    inputs = workloads.verify(random.Random(int(seed)))
    seconds, missing = harness.time_layers(LAYERS, [spaces], layered)
    counts = collections.Counter()
    builds = collections.Counter()  # Weingarten matrices built, per category
    if layered:
        cls = spaces._Patterns.__wrapped__  # the class its memo wraps
        lhs_vectors = cls.lhs_vectors

        def counted(self, *args):  # args end with the heads, the fulls and the size
            counts["computed"] += 1
            counts["kept"] += args[-2] in getattr(self, "_unit", ())
            return lhs_vectors(self, *args)
        cls.lhs_vectors = counted
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
        invert = exact_linalg.weingarten_matrix

        def inverting(gram):  # one call per miss of _weingarten, with no disk cache
            builds[gram.category.value] += 1
            return invert(gram)
        exact_linalg.weingarten_matrix = inverting
    walls, layers, works = [], [], []
    for _ in range(ROUNDS):
        for memo in memos:
            memo.cache_clear()
        seconds.clear()
        counts.clear()
        builds.clear()
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
            if sum(builds.values()) != exact_linalg._weingarten.cache_info().misses:
                raise SystemExit("Weingarten builds outside the _weingarten memo")
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
                          "count_table_builds": count_tables.cache_info().misses,
                          "count_table_lookups": count_tables.cache_info().misses
                          + count_tables.cache_info().hits,
                          "pattern_builds": spaces._Patterns.cache_info().misses,
                          "left_sides_kept": counts["kept"],
                          "outcome_builds_uncontracted": counts["uncontracted"],
                          "weingarten_builds": dict(sorted(builds.items()))})
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


def main() -> int:
    args, sides, record = harness.start(
        __file__, child, ("SRC", "SEED"),
        "cold rounds of the verify workload (40 verify_relations calls), "
        f"the median of {ROUNDS} per process; per side and seed, the least wall "
        f"of {PROCESSES} alternating processes and the median of their other figures",
        layered=True)
    record.update(missing_layers={}, seeds={})
    for i, seed in enumerate(SEEDS):
        def measure(side, src):
            out = (harness.run(__file__, src, seed), harness.run(__file__, src, seed, layered=True))
            print(seed, side, json.dumps(out), file=sys.stderr)
            return out
        row = {}
        for side, done in harness.alternate(sides, measure, PROCESSES, i).items():
            plains, layereds = zip(*done)
            if any(r["work"] != layereds[0]["work"] for r in layereds):
                raise SystemExit(f"{side}, seed {seed}: processes did different work")
            record["missing_layers"][side] = layereds[0]["missing_layers"]
            row[side] = {**harness.best(plains, layereds), "work": layereds[0]["work"]}
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
