"""One fresh Python process of the benchmark: every easywg memo starts cold.

Usage: worker.py MODE INPUTS OUT [CACHE_DIR]

  setup   import easywg and read the inputs; for a cli session, also fill
          CACHE_DIR by running the session's library calls
  round   the timed work of wg-build or verify, then its output checks
  traced  the same work split into per-layer calls, each inside a span
  replay  a cli session's library calls against CACHE_DIR, split by layer;
          traced when MODE is replay-traced
  import  the time of a fresh `import easywg`

It reaches easywg only through public names that stay stable across the
planned refactors, and writes one JSON object to OUT.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the run ends.

    A span's ``n`` carries the work count of its layer; when tracing is off
    the spans are still handed out so the code path is the same, but nothing
    is recorded.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "n": 0}
        if not self.enabled:
            yield rec
            return
        rec["id"] = len(self.spans)
        rec["parent"] = self._stack[-1]["id"] if self._stack else None
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _words(max_len: int):
    for k in range(max_len + 1):
        for legs in itertools.product("ob", repeat=k):
            yield "".join(legs)


def _wg_errors(cat: str, word: str, n: int, wg) -> list[str]:
    return checks.check_weingarten(cat, word, n, [p.rgs for p in wg.index], wg.basis,
                                   wg.denominator, wg.numerators)


class Layers:
    """Per-layer calls into easywg, shared by the traced runs."""

    def __init__(self, tracer: Tracer, disk: bool):
        self.tracer = tracer
        self.disk = disk
        self.enumerated: set = set()
        self.warm: set = set()
        self.kernels: set = set()

    def weingarten(self, cat: str, word: str, n: int, memo: bool = True):
        """Enumeration (first use of the word), Gram construction and inversion
        in turn.  With memo, get_weingarten then stores the matrix for the
        later calls: served from the disk cache when there is one, else
        built again and timed as the inversion."""
        wkey = word if cat in ("U", "U+") else len(word)
        if memo and (cat, wkey, n) in self.warm:
            return None
        self.warm.add((cat, wkey, n))
        if (cat, wkey) not in self.enumerated:
            self.enumerated.add((cat, wkey))
            with self.tracer.span("partitions.enumerate") as s:
                s["n"] = len(easywg.enumerate_partitions(cat, word))
        with self.tracer.span("exact_linalg.gram") as s:
            gram = easywg.gram_matrix(cat, word, n)
            s["n"] = len(gram.index) ** 2
        if memo and not self.disk:
            with self.tracer.span("exact_linalg.weingarten") as s:
                wg = easywg.get_weingarten(cat, word, n)
                s["n"] = len(wg.basis) < len(wg.index)
            return wg
        with self.tracer.span("exact_linalg.weingarten") as s:
            wg = easywg.weingarten_matrix(gram)
            s["n"] = len(wg.basis) < len(wg.index)
        if memo:
            with self.tracer.span("exact_linalg.disk_read"):
                wg = easywg.get_weingarten(cat, word, n)
        return wg

    def space(self, text: str, words):
        """Warm the factors' matrices, then build each word's kernel through
        its first space_moment."""
        space = easywg.parse_space(text)
        factors = [(f.category.value, f.dimension) for f in space.factors]
        coloured = any(c in ("U", "U+") for c, _ in factors)
        one = (1,) * len(factors) if space.is_product else 1
        for word in words:
            for cat, n in factors:
                self.weingarten(cat, word, n)
            wkey = word if coloured else len(word)
            if (text, wkey) not in self.kernels:
                self.kernels.add((text, wkey))
                with self.tracer.span("spaces.kernel"):
                    easywg.space_moment(space, word, [one] * len(word))
        return space


# ---------------------------------------------------------------------------
# wg-build and verify.


def _verify_errors(report, expected: int) -> list[str]:
    got = (len(report.checks), report.all_passed)
    return [] if got == (expected, True) else [f"verify gave {got}, expected ({expected}, True)"]


def run_round(workload: str, inputs: dict, tracer: Tracer | None) -> dict:
    """Time each task of one round; check outputs once the timed work is done
    (wg-build) or after each task's timing (verify, whose reports are large)."""
    layers = Layers(tracer, disk=False) if tracer else None
    tasks, cpu, errors, built = [], [], [], []
    if workload == "wg-build":
        items = inputs["keys"]
    else:
        items = inputs["spaces"]
        max_k, degree = inputs["max_k"], inputs["test_degree"]
    with tracer.span("bench.round") if tracer else nullcontext():
        for item in items:
            c0, t0 = time.process_time(), time.perf_counter()
            if workload == "wg-build":
                cat, word, n = item
                wg = (layers.weingarten(cat, word, n, memo=False) if layers
                      else easywg.get_weingarten(cat, word, n))
            else:
                if layers:
                    space = layers.space(item["space"], _words(max_k + degree))
                    with tracer.span("spaces.verify") as s:
                        report = easywg.verify_relations(space, max_k, degree)
                        s["n"] = len(report.checks)
                else:
                    report = easywg.verify_relations(
                        easywg.parse_space(item["space"]), max_k, degree)
            tasks.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
            if workload == "wg-build":
                built.append(wg)
            else:
                errors.append(_verify_errors(report, item["checked"]))
                del report
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "wg-build":
        errors = [_wg_errors(*key, wg) for key, wg in zip(items, built)]
    return {"tasks": tasks, "cpu": cpu, "rss_kib": rss, "errors": errors}


# ---------------------------------------------------------------------------
# cli sessions, replayed as library calls in one process.


def _call(op: dict, layers: Layers, tracer: Tracer):
    """Run one session operation as library calls; return a payload shaped
    like the command's JSON for the output checks."""
    kind, p = op["kind"], op["params"]
    decompose = layers is not None
    if kind == "group-moment":
        group = easywg.GroupSpec.parse(p["group"])
        if decompose:
            layers.weingarten(group.category.value, p["word"], group.dimension)
        with tracer.span("integrator.group_moment"):
            value = easywg.group_moment(
                group, easywg.MomentQuery(easywg.as_word(p["word"]), p["rows"], p["cols"]))
        return {"value": str(value)}
    if kind == "space-moment":
        space = (layers.space(p["space"], [p["word"]]) if decompose
                 else easywg.parse_space(p["space"]))
        value = easywg.space_moment(space, p["word"], p["indices"])
        return {"value": str(value)}
    if kind == "char-exact":
        space = (layers.space(p["space"], [p["word"]]) if decompose
                 else easywg.parse_space(p["space"]))
        with tracer.span("characters.char_exact"):
            value = easywg.char_moment_exact(
                easywg.CharacterQuery(space, p["truncation"], easywg.as_word(p["word"])))
        return {"value": str(value)}
    if kind == "weingarten":
        if decompose:
            layers.weingarten(p["category"], p["word"], p["n"])
        wg = easywg.get_weingarten(p["category"], p["word"], p["n"])
        return {"wg": wg}
    if kind == "relations":
        rels = easywg.relation_set(easywg.parse_space(p["space"]), p["max_k"])
        return {"count": len(rels), "relations": [
            {"word": r.word.text, "partitions": [q.to_text() for q in r.partitions],
             "join_blocks": r.join_blocks, "rhs_exponent_halves": 2 * r.join_blocks - r.k}
            for r in rels]}
    if kind == "verify":
        space = easywg.parse_space(p["space"])
        if decompose:
            layers.space(p["space"], _words(p["max_k"] + p["test_degree"]))
        with tracer.span("spaces.verify") as s:
            report = easywg.verify_relations(space, p["max_k"], p["test_degree"])
            s["n"] = len(report.checks)
        return {"checked": len(report.checks), "failed": len(report.failures),
                "all_passed": report.all_passed}
    if kind == "haar-mc":
        group = easywg.GroupSpec.parse(p["group"])
        query = easywg.MomentQuery(easywg.as_word(p["word"]), p["rows"], p["cols"])
        with tracer.span("oracles.haar_mc"):
            rep = easywg.haar_mc_moment(group.category, group.dimension, query,
                                        p["samples"], p["seed"], threads=1)
        return {"estimate": rep.estimate, "standard_error": rep.standard_error}
    if kind == "sn-moment":
        value = easywg.sn_exhaustive_moment(
            p["n"], easywg.MomentQuery(easywg.as_word(p["word"]), p["rows"], p["cols"]))
        return {"value": str(value)}
    if kind == "counting":
        return {"value": str(easywg.counting_oracle(p["kind"], p["k"]))}
    with tracer.span("characters.tables"):
        return _table(kind, p)


def _table(kind: str, p: dict) -> dict:
    t = Fraction(p.get("t", 1))
    if kind == "char-asymptotic":
        return {"value": str(easywg.char_moment_asymptotic(p["categories"], p["word"], t))}
    if kind == "limit-moments":
        ms = easywg.limit_law_moments(easywg.LimitLaw(p["law"], t), p["max_k"])
        return {"moments": [{"k": k, "value": str(m)} for k, m in enumerate(ms, 1)]}
    if kind == "bp-compare":
        rows = easywg.bp_compare(p["category"], t, p["max_k"])
        return {"rows": [{"classical": str(r.classical), "free": str(r.free)} for r in rows]}
    if kind == "convergence":
        entries = [(easywg.preset("group-as-space", p["category"], n), n) for n in p["sizes"]]
        rows = easywg.convergence_profile(entries, p["word"])
        return {"rows": [
            {"ambient_dimension": r.ambient_dimension, "truncation": r.truncation,
             "t": str(r.t), "exact": str(r.exact), "asymptotic": str(r.asymptotic),
             "difference": str(r.difference)} for r in rows]}
    raise ValueError(f"unknown operation {kind!r}")


def _op_errors(op: dict, payload: dict) -> list[str]:
    if "wg" in payload:
        return _wg_errors(*op["expect"]["weingarten"], payload["wg"])
    return checks.check_payload(op["expect"], payload)


def replay(ops: list, cache_dir: str, tracer: Tracer | None, decompose: bool) -> dict:
    """The session's library calls in order, against the disk cache; outputs
    are checked after the timed loop."""
    easywg.set_disk_cache(cache_dir)
    tracer = tracer or Tracer(False)
    layers = Layers(tracer, disk=True) if decompose else None
    payloads = []
    t0 = time.perf_counter()
    with tracer.span("bench.round"):
        for op in ops:
            payloads.append(_call(op, layers, tracer))
    wall = time.perf_counter() - t0
    return {"wall": wall, "errors": [_op_errors(op, pl) for op, pl in zip(ops, payloads)]}


def main(argv: list[str]) -> int:
    global checks, easywg
    mode = argv[0]
    t0 = time.perf_counter()
    import easywg
    import_s = time.perf_counter() - t0
    import checks  # after the timed import: it loads numpy too
    if not Path(easywg.__file__).resolve().is_relative_to(SRC):
        print(f"error: easywg imported from {easywg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if mode == "import":
        print(import_s)
        return 0
    inputs = json.loads(Path(argv[1]).read_text())
    out: dict = {"import_s": import_s}
    tracer = Tracer(mode in ("traced", "replay-traced"))
    if mode == "setup":
        if "ops" in inputs:
            out = replay(inputs["ops"], argv[3], None, decompose=False)
    elif mode in ("round", "traced"):
        out = run_round(inputs["workload"], inputs, tracer if tracer.enabled else None)
    elif mode in ("replay", "replay-traced"):
        out = replay(inputs["ops"], argv[3], tracer, decompose=True)
    else:
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 2
    out["spans"] = tracer.spans
    Path(argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
