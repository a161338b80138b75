#!/usr/bin/env python3
"""Benchmark for easywg: cold Weingarten builds, relation verification and a
sequential command-line session.

    python3 perfbench/run.py --workload {wg-build,verify,cli} [--seed 1] \
        [--seconds 32] [--trace 0|1] [--smoke]

Run from anywhere inside a checkout; the program under test is the
checkout's own src/easywg.  Each timed round runs in fresh Python
processes, so every memo starts cold.  With --trace 0 the last stdout line
is a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run.  A human-readable summary goes to
stderr, and the full record (per-round figures, probe samples, spans) to
perfbench/.work/results/.  --smoke shrinks every input for the tests.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
WORKLOADS = ("wg-build", "verify", "cli")
SETUP_REPEATS = 5  # set-up is short and noisy: report the median of five
RUN_LIMIT_S = 170  # every run ends, children included, within 180 s
TAIL_BEYOND = 10   # task_tail_ms: ten tasks per round above it
CLI = "from easywg.cli import entry; entry()"

# One thread per process and one process at a time: the machine has two
# cores, and the program's Monte Carlo oracle would otherwise start BLAS
# threads of its own.
ENV = {k: v for k, v in os.environ.items() if k not in ("WG_CACHE_DIR", "PYTHONPATH")}
ENV.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
           OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


class Run:
    """One benchmark run: its scratch directory, deadline and child processes."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.dir = WORK / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self._n = 0

    def path(self, stem: str) -> Path:
        self._n += 1
        return self.dir / f"{self._n:04d}-{stem}"

    def inputs(self, mini: bool = False) -> tuple[Path, dict]:
        """Generate the workload's inputs from the seed and write them down."""
        rng = random.Random(self.seed)
        if self.workload == "cli" or mini:
            data = {"ops": workloads.cli_session(rng, mini=mini or self.smoke)}
        else:
            gen = workloads.wg_build if self.workload == "wg-build" else workloads.verify
            data = dict(gen(rng, self.smoke), workload=self.workload)
        path = self.path("inputs.json")
        path.write_text(json.dumps(data))
        return path, data

    def spawn(self, argv: list[str], stem: str) -> dict:
        """Run one child to its end; wall time, CPU time and peak RSS from wait4."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")
        out, err = self.path(stem + ".out"), self.path(stem + ".err")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=ENV, cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return {"code": code, "wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
                "rss_kib": ru.ru_maxrss, "out": out, "err": err}

    def worker(self, mode: str, inputs: Path, *extra: str) -> dict:
        out = self.path(mode + ".json")
        child = self.spawn([sys.executable, str(BENCH / "worker.py"), mode, str(inputs),
                            str(out), *extra], mode)
        if child["code"] != 0:
            raise RuntimeError(f"worker {mode} exited {child['code']}: "
                               + child["err"].read_text()[-2000:])
        result = json.loads(out.read_text()) if out.exists() else {}
        return dict(result, child=child)

    def import_seconds(self) -> float:
        child = self.spawn([sys.executable, str(BENCH / "worker.py"), "import"], "import")
        if child["code"] != 0:
            raise RuntimeError(f"worker import exited {child['code']}")
        return float(child["out"].read_text())


# ---------------------------------------------------------------------------
# Measurements.


def probe(reps: int = 5) -> list[float]:
    """A fixed pure-Python loop, in ms: machine drift, not the program."""
    out = []
    for _ in range(reps):
        t0, acc = time.perf_counter(), 0
        for i in range(200_000):
            acc += i * i % 7
        out.append((time.perf_counter() - t0) * 1000)
    return out


def setup(run: Run) -> tuple[float, Path, dict, Path | None]:
    """Input generation, interpreter start and import easywg in a fresh
    process, and for cli the filling of a fresh disk cache.  Returns the
    seconds taken, the inputs and the cache directory."""
    t0 = time.perf_counter()
    path, data = run.inputs()
    cache = run.path("cache") if run.workload == "cli" else None
    run.worker("setup", path, *([str(cache)] if cache else []))
    return time.perf_counter() - t0, path, data, cache


def worker_round(run: Run, inputs: Path, mode: str = "round") -> dict:
    res = run.worker(mode, inputs)
    return {"tasks": res["tasks"], "wall": sum(res["tasks"]), "cpu": sum(res["cpu"]),
            "rss_kib": res["rss_kib"], "errors": res["errors"], "spans": res["spans"]}


def cli_round(run: Run, ops: list, cache: Path) -> dict:
    """The session, one easywg process per operation; outputs are read and
    checked after the last one."""
    children = [
        run.spawn([sys.executable, "-c", CLI, *op["argv"], "--timing",
                   "--cache-dir", str(cache)], "cli")
        for op in ops
    ]
    errors, handler = [], []
    for op, child in zip(ops, children):
        if child["code"] != 0:
            errors.append([f"exit {child['code']}: " + child["err"].read_text()[-500:]])
            handler.append(0.0)
            continue
        payload = json.loads(child["out"].read_text())
        handler.append(payload["timing_seconds"])
        errors.append(checks.check_payload(op["expect"], payload))
    tasks = [c["wall"] for c in children]
    return {"tasks": tasks, "wall": sum(tasks), "cpu": sum(c["cpu"] for c in children),
            "rss_kib": max(c["rss_kib"] for c in children), "errors": errors,
            "handler": handler}


def timed_rounds(run: Run, seconds: float, inputs: Path, data: dict, cache: Path | None):
    """Whole rounds of the same work; another starts only while it is
    expected to end within the run's seconds."""
    rounds, lengths = [], []
    start = time.monotonic()
    while not rounds or time.monotonic() - start + statistics.median(lengths) <= seconds:
        t0 = time.monotonic()
        rounds.append(cli_round(run, data["ops"], cache) if cache else worker_round(run, inputs))
        lengths.append(time.monotonic() - t0)
    return rounds


def end_to_end(setups: list[float], rounds: list[dict]) -> dict:
    """Round figures reduce by their median.  Task quantiles pool the tasks
    of all rounds, which averages over the host's swings in speed; the tail
    keeps ten tasks per round above it, so its percentile does not depend on
    how many rounds fit in the run."""
    med = statistics.median
    tasks = sorted(t for r in rounds for t in r["tasks"])
    tail = tasks[max(len(tasks) - TAIL_BEYOND * len(rounds) - 1, 0)]
    return {
        "setup_s": (med(setups), "s"),
        "wall_s": (med(r["wall"] for r in rounds), "s"),
        "cpu_s": (med(r["cpu"] for r in rounds), "s"),
        "task_p50_ms": (med(tasks) * 1000, "ms"),
        "task_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mib": (med(r["rss_kib"] / 1024 for r in rounds), "MiB"),
    }


# ---------------------------------------------------------------------------
# Traced runs.

# metric -> (span name, what): self time in ms, the span count, or the sum
# of the work counts the spans carry.
SPAN_METRICS = {
    "partitions.enumerate_ms": ("partitions.enumerate", "ms"),
    "partitions.count": ("partitions.enumerate", "n"),
    "exact_linalg.gram_ms": ("exact_linalg.gram", "ms"),
    "exact_linalg.gram_entries": ("exact_linalg.gram", "n"),
    "exact_linalg.weingarten_ms": ("exact_linalg.weingarten", "ms"),
    "exact_linalg.weingarten_builds": ("exact_linalg.weingarten", "calls"),
    "exact_linalg.singular_builds": ("exact_linalg.weingarten", "n"),
    "exact_linalg.disk_read_ms": ("exact_linalg.disk_read", "ms"),
    "integrator.group_moment_ms": ("integrator.group_moment", "ms"),
    "spaces.kernel_ms": ("spaces.kernel", "ms"),
    "spaces.verify_ms": ("spaces.verify", "ms"),
    "spaces.checks": ("spaces.verify", "n"),
    "characters.char_exact_ms": ("characters.char_exact", "ms"),
    "characters.tables_ms": ("characters.tables", "ms"),
    "oracles.haar_mc_ms": ("oracles.haar_mc", "ms"),
}


def layer_summary(spans: list[dict]) -> dict:
    """Per span name: calls, summed work counts, and self time in ms (a span's
    duration less the time its child spans cover)."""
    child_time: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "n": 0, "ms": 0.0})
        row["calls"] += 1
        row["n"] += s["n"]
        row["ms"] += (s["end"] - s["start"] - child_time.get(s["id"], 0.0)) * 1000
    return out


def session(run: Run, mini: bool) -> dict:
    """Fill a cache, run the session's invocations, then replay its library
    calls untraced and traced, each in a fresh process."""
    path, data = run.inputs(mini=mini)
    cache = run.path("cache")
    run.worker("setup", path, str(cache))
    rnd = cli_round(run, data["ops"], cache)
    base = run.worker("replay", path, str(cache))
    traced = run.worker("replay-traced", path, str(cache))
    return {"round": rnd, "base": base, "traced": traced,
            "disk_bytes": sum(f.stat().st_size for f in cache.iterdir())}


def traced_run(run: Run) -> tuple[dict, list[dict], dict]:
    """Per-layer metrics.  Layers the workload itself never reaches come from
    the traced replay of the mini session (one operation of each kind)."""
    own_session = run.workload == "cli"
    if own_session:
        sess = session(run, mini=False)
        untraced_wall, traced = sess["base"]["wall"], sess["traced"]
        traced_wall, spans = traced["wall"], traced["spans"]
        checked = [sess["round"]["errors"], sess["base"]["errors"], traced["errors"]]
    else:
        path, _ = run.inputs()
        base, traced = worker_round(run, path), worker_round(run, path, "traced")
        untraced_wall, traced_wall, spans = base["wall"], traced["wall"], traced["spans"]
        sess = session(run, mini=True)
        checked = [base["errors"], traced["errors"], sess["round"]["errors"],
                   sess["base"]["errors"], sess["traced"]["errors"]]
    own, fallback = layer_summary(spans), layer_summary(sess["traced"]["spans"])
    metrics = {}
    for name, (span, what) in SPAN_METRICS.items():
        row = own.get(span) or fallback.get(span) or {"calls": 0, "n": 0, "ms": 0.0}
        metrics[name] = (row[what], "ms" if what == "ms" else "count")
    imports = [run.import_seconds() for _ in range(5)]
    rnd = sess["round"]
    metrics.update({
        "exact_linalg.disk_bytes": (sess["disk_bytes"], "B"),
        "cli.import_ms": (statistics.median(imports) * 1000, "ms"),
        "cli.handler_ms": (sum(rnd["handler"]) * 1000, "ms"),
        "cli.overhead_ms": ((rnd["wall"] - sum(rnd["handler"])) * 1000, "ms"),
        "bench.trace_overhead_s": (traced_wall - untraced_wall, "s"),
    })
    spans_out = {"own": spans, "mini": None if own_session else sess["traced"]["spans"]}
    return metrics, [e for errs in checked for e in errs], spans_out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "easywg" / "__init__.py").is_file():
        print(f"error: no easywg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.smoke)
    try:
        probes = probe()
        if args.trace:
            metrics, errors, spans = traced_run(run)
            record: dict = {"spans": spans}
        else:
            setups = [setup(run) for _ in range(SETUP_REPEATS)]
            _, inputs, data, cache = setups[-1]
            rounds = timed_rounds(run, args.seconds, inputs, data, cache)
            metrics = end_to_end([s[0] for s in setups], rounds)
            errors = [e for r in rounds for e in r["errors"]]
            record = {"setups": [s[0] for s in setups], "rounds": [
                {k: v for k, v in r.items() if k != "spans"} for r in rounds]}
        probes += probe()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    if args.trace:
        metrics["bench.probe_ms"] = (statistics.median(probes), "ms")
    failed = sum(1 for e in errors if e)
    wrong = [e for e in errors if e and not e[0].startswith("exit ")]
    result = {
        "correct": not wrong,
        "attempted": len(errors),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(args=vars(args), probe_ms=probes, errors=[e for e in errors if e],
                  result=result)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, default=str))
    for e in record["errors"][:5]:
        print("check failed:", "; ".join(e), file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"{k:34s} {v:14.4f} {u}", file=sys.stderr)
    print(f"probe_ms median {statistics.median(probes):.2f}  attempted {len(errors)}"
          f"  failed {failed}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
