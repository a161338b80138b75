"""Tests of the benchmark itself: smoke runs and fault injection.

    python3 -m pytest perfbench

The smoke runs use tiny inputs; the fault-injection tests show that each
output check rejects a corrupted result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from easywg import get_weingarten  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_run_fails_without_the_program():
    bare = BENCH / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "cli", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""


def test_inputs_follow_the_seed():
    for gen in (workloads.wg_build, workloads.verify, workloads.cli_session):
        assert gen(random.Random(5)) == gen(random.Random(5))
    assert workloads.cli_session(random.Random(5)) != workloads.cli_session(random.Random(6))


def test_every_round_has_a_true_tail():
    rng = random.Random(5)
    sizes = [len(workloads.wg_build(rng)["keys"]), len(workloads.verify(rng)["spaces"]),
             len(workloads.cli_session(rng))]
    assert min(sizes) >= 40, sizes


@pytest.mark.parametrize("key", [("S", "oooo", 3), ("O+", "oooooo", 10), ("U", "oobobb", 2)])
def test_weingarten_check_rejects_one_changed_entry(key):
    wg = get_weingarten(*key)
    args = [[p.rgs for p in wg.index], list(wg.basis), wg.denominator]
    numerators = [list(r) for r in wg.numerators]
    assert checks.check_weingarten(*key, *args, numerators) == []
    i, j = wg.basis[0], wg.basis[-1]
    for a, b in ((i, j), (j, i), (i, i)):
        bad = [list(r) for r in numerators]
        bad[a][b] += 1
        assert checks.check_weingarten(*key, *args, bad)


def test_weingarten_check_rejects_wrong_basis_and_index():
    key = ("S", "oooo", 3)  # singular: 14 of 15 partitions in the basis
    wg = get_weingarten(*key)
    index = [p.rgs for p in wg.index]
    numerators = [list(r) for r in wg.numerators]
    assert checks.check_weingarten(*key, index, wg.basis[:-1], wg.denominator, numerators)
    swapped = index[1:2] + index[:1] + index[2:]
    assert checks.check_weingarten(*key, swapped, wg.basis, wg.denominator, numerators)
    assert checks.check_weingarten("S+", "oooo", 3, index, wg.basis, wg.denominator,
                                   numerators)


def _expect(op_kind: str, seed: int = 2):
    ops = workloads.cli_session(random.Random(seed))
    return [op for op in ops if op["kind"] == op_kind]


def test_sn_moment_off_by_one_part_in_n_factorial():
    for op in _expect("group-moment") + _expect("sn-moment"):
        n = int(op["params"].get("n") or op["params"]["group"].split(":")[1])
        right = Fraction(op["expect"]["value"])
        assert checks.check_payload(op["expect"], {"value": str(right)}) == []
        nudged = right + Fraction(1, checks.falling(n, n))
        assert checks.check_payload(op["expect"], {"value": str(nudged)})


def test_verify_check_rejects_wrong_checked_count():
    assert checks.verify_check_count([("O", 3), ("O", 3)], 4, 3) == 149 * 6175
    (op,) = _expect("verify")[:1]
    good = {"checked": op["expect"]["checked"], "failed": 0, "all_passed": True}
    assert checks.check_payload(op["expect"], good) == []
    assert checks.check_payload(op["expect"], dict(good, checked=good["checked"] + 1))
    assert checks.check_payload(op["expect"], dict(good, failed=1, all_passed=False))


def test_table_checks_reject_one_changed_row():
    for kind in ("limit-moments", "bp-compare", "convergence"):
        op = _expect(kind)[0]
        exp = op["expect"]
        if kind == "limit-moments":
            rows = [{"k": k, "value": v} for k, v in enumerate(exp["moments"], 1)]
            good, bad = {"moments": rows}, {"moments": rows[:-1] + [dict(rows[-1], value="0/1")]}
        elif kind == "bp-compare":
            rows = [{"classical": c, "free": f} for c, f in exp["bp"]]
            good, bad = {"rows": rows}, {"rows": [dict(rows[0], free="-1/1")] + rows[1:]}
        else:
            fields = ("ambient_dimension", "truncation", "t", "exact", "asymptotic",
                      "difference")
            rows = [dict(zip(fields, r)) for r in exp["convergence"]]
            good, bad = {"rows": rows}, {"rows": rows[:-1] + [dict(rows[-1], exact="0/1")]}
        assert checks.check_payload(exp, good) == []
        assert checks.check_payload(exp, bad)


def test_relations_check_rejects_wrong_join():
    op = _expect("relations")[0]
    factors = op["expect"]["factors"]
    rels = []
    for k in range(op["params"]["max_k"] + 1):
        for bits in range(2**k):
            word = "".join("b" if bits >> i & 1 else "o" for i in range(k))
            parts = [[p for p in _all_rgs(k) if checks.is_member(c, word, p)] for c, _ in factors]
            for a in parts[0]:
                for b in parts[1]:
                    jb = checks.join_blocks(a, b)
                    rels.append({"word": word, "partitions": [_text(a), _text(b)],
                                 "join_blocks": jb, "rhs_exponent_halves": 2 * jb - k})
    good = {"count": len(rels), "relations": rels}
    assert checks.check_payload(op["expect"], good) == []
    rels[-1] = dict(rels[-1], join_blocks=rels[-1]["join_blocks"] + 1)
    assert checks.check_payload(op["expect"], good)


def test_haar_check_rejects_estimate_six_errors_away():
    op = _expect("haar-mc")[0]
    exact = float(Fraction(op["expect"]["haar"]))
    assert checks.check_payload(op["expect"], {"estimate": exact + 1e-4,
                                               "standard_error": 1e-3}) == []
    assert checks.check_payload(op["expect"], {"estimate": exact + 6e-3,
                                               "standard_error": 1e-3})


def test_closed_forms_match_counting():
    assert [checks.bell(k) for k in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    assert [checks.partition_count("O+", "o" * 10)] == [checks.catalan(5)]
    assert checks.partition_count("U+", "obobobobob") == 42
    assert checks.partition_count("U+", "ooooobbbbb") == 1
    assert checks.fixed_point_moment(4, 3) == 14
    assert checks.intersection_category(("S+", "O")) == "O+"
    assert checks.parse_partition("1|2|3|4|5|6|7|8|9|10", 10) == tuple(range(10))


def _all_rgs(k: int):
    def rec(prefix, top):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for a in range(top + 1):
            yield from rec(prefix + [a], top + (a == top))
    return list(rec([], 0))


def _text(rgs) -> str:
    return "|".join("".join(str(x + 1) for x in b) for b in checks.blocks_of(rgs))
