"""The benchmark scripts under tools/, each run as a child on this checkout
with a small input: the keys of its JSON record, and that the layered runs
find every function they time, so that a rename in src fails here rather
than showing up as `missing_layers` in the next BENCH_*.json."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
sys.path.insert(0, str(TOOLS))

import bench_engine  # noqa: E402
import bench_verify  # noqa: E402
import harness  # noqa: E402


def test_engine_child_times_every_layer_once():
    out = harness.run(str(TOOLS / "bench_engine.py"), ROOT, "O", "o" * 8, 10, layered=True)
    assert set(out) == {"n", "basis", "wall_s", "peak_rss_mib", "layers_s", "missing_layers"}
    assert (out["n"], out["basis"]) == (105, 105)
    assert out["missing_layers"] == []
    assert set(out["layers_s"]) <= set(bench_engine.LAYERS.values())
    # self times: the products inside the sweep and the certificate count once
    assert sum(out["layers_s"].values()) <= out["wall_s"] + 1e-4


def test_mc_child():
    out = harness.run(str(TOOLS / "bench_mc.py"), ROOT, "O:4 width 1", 1)
    assert set(out) == {"wall_s", "hwm_growth_mib", "peak_mib", "estimate", "standard_error"}
    assert out["standard_error"] > 0


def test_verify_child_times_every_layer():
    out = harness.run(str(TOOLS / "bench_verify.py"), ROOT, 1, layered=True)
    assert set(out) == {"wall_s", "peak_rss_mib", "layers_s", "work", "missing_layers"}
    assert out["missing_layers"] == []
    assert set(out["layers_s"]) <= set(bench_verify.LAYERS.values())
    assert set(out["work"]) == {
        "outcome_builds", "outcome_hits", "relation_builds", "relations_made", "pairs",
        "pairs_wholesale", "pairs_computed", "kernel_builds", "count_table_builds",
        "count_table_lookups", "pattern_builds", "left_sides_kept",
        "outcome_builds_uncontracted", "weingarten_builds"}
    assert out["work"]["pattern_builds"] > 0
    # one Weingarten build per symmetry class of U and U+ words, and per N
    assert out["work"]["weingarten_builds"] == {"O": 8, "O+": 12, "U": 8, "U+": 14}


def test_sides_alternate_and_keep_the_least_wall():
    order = []
    runs = harness.alternate({"parent": "P", "change": "C"},
                             lambda side, src: order.append(src) or len(order), 3, first=1)
    assert order == ["C", "P", "P", "C", "C", "P"]
    assert runs == {"parent": [2, 3, 6], "change": [1, 4, 5]}
    plains = [{"wall_s": w, "peak_rss_mib": m} for w, m in [(0.3, 30), (0.1, 32), (0.2, 31)]]
    layereds = [{"layers_s": {"a": 0.1}}, {"layers_s": {"a": 0.3, "b": 0.2}},
                {"layers_s": {"a": 0.2}}]
    assert harness.best(plains, layereds) == {
        "wall_s": 0.1, "wall_s_processes": [0.3, 0.1, 0.2], "peak_rss_mib": 31,
        "layers_s": {"a": 0.2, "b": 0.0}}


@pytest.mark.parametrize("script", ["bench_engine.py", "bench_mc.py", "bench_verify.py"])
def test_parent_is_required(script):
    done = subprocess.run([sys.executable, str(TOOLS / script)], env=harness.ENV,
                          capture_output=True, text=True)
    assert done.returncode == 2 and "--parent is required" in done.stderr
