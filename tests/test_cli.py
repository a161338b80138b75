import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import easywg.exact_linalg as xl
import easywg.cli as cli
from easywg.exact_linalg import format_scalar
from easywg.integrator import GroupSpec, IndexSet
from easywg.partitions import as_category, as_word
from easywg.spaces import SpaceSpec, parse_space
from fraction_reference import clear_caches
from verify_reference import force_false


@pytest.fixture(autouse=True)
def reset_caches():
    clear_caches()
    xl.set_disk_cache(None)
    yield
    clear_caches()
    xl.set_disk_cache(None)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter on this checkout's easywg, with argv
    as sys.argv[1:]."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)


GOLDEN_GROUP_MOMENT = """{
  "command": "group-moment",
  "inputs": {
    "group": [
      "O+:4"
    ],
    "word": "oooo",
    "rows": [
      "1,1,1,1"
    ],
    "cols": [
      "1,1,1,1"
    ]
  },
  "value": "1/10",
  "value_float": 0.1
}
"""


class TestGolden:
    def test_group_moment_golden(self, capsys):
        code, out, _ = run(
            capsys, "group-moment", "--group", "O+:4", "--word", "oooo",
            "--rows", "1,1,1,1", "--cols", "1,1,1,1",
        )
        assert code == 0
        assert out == GOLDEN_GROUP_MOMENT
        assert json.loads(out)["value"] == "1/10"

    def test_byte_determinism(self, capsys):
        argv = ["bp-compare", "--category", "S", "--t", "1", "--max-k", "4"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        rows = json.loads(out1)["rows"]
        assert rows[-1] == {"k": 4, "classical": "15/1", "free": "14/1"}

    def test_bp_compare_csv_golden(self, capsys):
        code, out, _ = run(
            capsys, "bp-compare", "--category", "S", "--t", "1", "--max-k", "4",
            "--format", "csv",
        )
        assert code == 0
        assert out == (
            "k,classical,free\n"
            "1,1/1,1/1\n"
            "2,2/1,2/1\n"
            "3,5/1,5/1\n"
            "4,15/1,14/1\n"
        )

    def test_partitions_output(self, capsys):
        code, out, _ = run(capsys, "partitions", "--category", "O+", "--word", "oooo")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 2
        assert doc["partitions"] == ["12|34", "14|23"]

    def test_seeded_monte_carlo_is_byte_deterministic(self, capsys):
        argv = [
            "oracle", "haar-mc", "--group", "O:3", "--word", "oo",
            "--rows", "1,1", "--cols", "1,1", "--samples", "20000", "--seed", "4",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_empty_word_degree_zero(self, capsys):
        code, out, _ = run(
            capsys, "space-moment", "--space", "free-real-sphere:3", "--word", "",
            "--indices", "",
        )
        assert code == 0
        assert json.loads(out)["value"] == "1/1"


class TestCommands:
    def test_gram_and_weingarten(self, capsys):
        code, out, _ = run(capsys, "gram", "--category", "O+", "--word", "oooo", "--n", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"] == [["16/1", "4/1"], ["4/1", "16/1"]]
        code, out, _ = run(
            capsys, "weingarten", "--category", "O+", "--word", "oooo", "--n", "4"
        )
        doc = json.loads(out)
        assert doc["basis"] == [0, 1]
        assert doc["entries"][0][0] == "1/15"

    def test_space_moment_unscaled_pair(self, capsys):
        code, out, _ = run(
            capsys, "space-moment", "--space", "S:4/I=1,2", "--word", "oo",
            "--indices", "1,1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["unscaled"]["m"] == 2
        assert doc["unscaled"]["exponent_halves"] == -2

    def test_product_space_moment_indices(self, capsys):
        code, out, _ = run(
            capsys, "space-moment", "--space", "group-as-space:S:3", "--word", "o",
            "--indices", "1.1",
        )
        assert code == 0
        assert json.loads(out)["value"] == "1/3"

    def test_product_group_moment(self, capsys):
        code, out, _ = run(
            capsys, "group-moment",
            "--group", "O:3", "--group", "O:4", "--word", "oo",
            "--rows", "1,1", "--rows", "1,1", "--cols", "1,1", "--cols", "1,1",
        )
        assert code == 0
        assert json.loads(out)["value"] == "1/12"

    def test_relations(self, capsys):
        code, out, _ = run(
            capsys, "relations", "--space", "free-real-sphere:4", "--max-k", "2"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["count"] == 5
        degree_two = [r for r in doc["relations"] if r["word"] == "oo"]
        assert degree_two[0]["rhs_exponent_halves"] == 0

    def test_char_and_limit_commands(self, capsys):
        code, out, _ = run(
            capsys, "char-exact", "--space", "free-real-sphere:8",
            "--truncation", "8", "--word", "oooo",
        )
        assert json.loads(out)["value"] == "16/9"
        code, out, _ = run(
            capsys, "char-asymptotic", "--categories", "O+", "--word", "oooo", "--t", "1"
        )
        assert json.loads(out)["value"] == "2/1"
        code, out, _ = run(
            capsys, "limit-moments", "--law", "poisson", "--t", "1", "--max-k", "4"
        )
        assert [r["value"] for r in json.loads(out)["moments"]] == [
            "1/1", "2/1", "5/1", "15/1",
        ]

    def test_convergence(self, capsys):
        code, out, _ = run(
            capsys, "convergence", "--family", "free-real-sphere", "--word", "oooo",
            "--sizes", "8,16",
        )
        doc = json.loads(out)
        assert [r["difference"] for r in doc["rows"]] == ["2/9", "2/17"]

    def test_oracle_commands(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "sn-moment", "--n", "3", "--word", "o",
            "--rows", "1", "--cols", "1",
        )
        assert json.loads(out)["value"] == "1/3"
        code, out, _ = run(
            capsys, "oracle", "counting", "--kind", "bell", "--k", "4"
        )
        assert json.loads(out)["value"] == "15/1"
        code, out, _ = run(
            capsys, "oracle", "haar-mc", "--group", "O:3", "--word", "oo",
            "--rows", "1,1", "--cols", "1,1", "--samples", "20000", "--seed", "9",
        )
        doc = json.loads(out)
        assert doc["samples"] == 20000 and doc["seed"] == 9
        assert abs(doc["estimate"] - 1 / 3) < 6 * doc["standard_error"]


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--space", "free-real-sphere:4", "--max-k", "2",
            "--test-degree", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True and doc["failed"] == 0

    def test_verify_sphere_full_depth(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--space", "free-real-sphere:5", "--max-k", "4",
            "--test-degree", "2",
        )
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_verify_failure_exits_two(self, capsys, monkeypatch):
        # No valid space produces a failing verification, so one block too
        # many on every right side makes the relations false (M = 2 > 1).
        force_false(monkeypatch)
        code, out, _ = run(
            capsys, "verify", "--space", "O+:4/I=1,2", "--max-k", "2",
            "--test-degree", "0",
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["failed"] == doc["checked"] == 5
        assert doc["failures"][0]["lhs"] == "1/1"
        assert doc["failures"][0]["rhs"] == "2/1"


class TestErrorsAndFlags:
    def test_unknown_subcommand_exits_one(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 1 and out == "" and "error" in err

    def test_bad_flag_value_exits_one(self, capsys):
        code, _, err = run(
            capsys, "group-moment", "--group", "NOPE", "--word", "o",
            "--rows", "1", "--cols", "1",
        )
        assert code == 1 and "error" in err

    def test_csv_rejected_for_non_tables(self, capsys):
        code, _, err = run(
            capsys, "partitions", "--category", "S", "--word", "oo",
            "--format", "csv",
        )
        assert code == 1 and "csv" in err

    def test_timing_flag_adds_field(self, capsys):
        argv = ["partitions", "--category", "S", "--word", "oo"]
        _, out_plain, _ = run(capsys, *argv)
        _, out_timed, _ = run(capsys, *argv, "--timing")
        assert "timing_seconds" not in out_plain
        assert "timing_seconds" in out_timed

    def test_cache_dir_flag_writes_records(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "weingarten", "--category", "U", "--word", "ob", "--n", "3",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert list(tmp_path.glob("wg_*.json"))

    def test_cache_dir_naming_a_file_exits_one(self, capsys, tmp_path):
        target = tmp_path / "plain-file"
        target.write_text("not a directory")
        code, out, err = run(
            capsys, "weingarten", "--category", "U", "--word", "ob", "--n", "3",
            "--cache-dir", str(target),
        )
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert target.read_text() == "not a directory"

    def test_cache_dir_under_a_file_exits_one(self, capsys, tmp_path):
        target = tmp_path / "plain-file"
        target.write_text("")
        code, _, err = run(
            capsys, "weingarten", "--category", "U", "--word", "ob", "--n", "3",
            "--cache-dir", str(target / "sub"),
        )
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_huge_asymptotic_moment_renders_null_float(self, capsys):
        code, out, err = run(
            capsys, "char-asymptotic", "--categories", "S", "--word", "oooo",
            "--t", "1e400",
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["value_float"] is None
        assert '"value_float": null' in out
        t = Fraction(10) ** 400
        # fourth moment of Poisson(t): t^4 + 6t^3 + 7t^2 + t
        assert doc["value"] == format_scalar(t**4 + 6 * t**3 + 7 * t**2 + t)


_REJECTED = [
    ["verify", "--space", "O:2/I=1", "--max-k", "-1", "--test-degree", "1"],
    ["verify", "--space", "O:2/I=1", "--max-k", "1", "--test-degree", "-3"],
    ["limit-moments", "--law", "free-poisson", "--t", "1/0", "--max-k", "3"],
    ["char-asymptotic", "--categories", "O", "--word", "oo", "--t", "1/0"],
    ["bp-compare", "--category", "O", "--t", "1/0", "--max-k", "3"],
    ["bp-compare", "--category", "O", "--t", "0", "--max-k", "2"],
    ["bp-compare", "--category", "O", "--t", "-1", "--max-k", "2"],
    ["limit-moments", "--law", "poisson", "--t", "1", "--max-k", "-2"],
    ["bp-compare", "--category", "O", "--t", "1", "--max-k", "-1"],
    ["oracle", "counting", "--kind", "catalan", "--k", "3", "--t", "1/0"],
    ["space-moment", "--space", "O:2xO:2/J=1", "--word", "o", "--indices", "1.x"],
    ["space-moment", "--space", "O:2/I=1", "--word", "oz", "--indices", "1,1"],
    ["space-moment", "--space", "O:3/J=1", "--word", "oo", "--indices", "1,1"],
    ["weingarten", "--category", "O", "--word", "oo", "--n", "0"],
    ["oracle", "haar-mc", "--group", "O:2", "--word", "oo", "--rows", "1,1",
     "--cols", "1,1", "--samples", "10", "--seed", "1"],
    ["oracle", "counting", "--kind", "poisson-recurrence", "--k", "3", "--t", "0"],
    ["oracle", "counting", "--kind", "poisson-recurrence", "--k", "3", "--t", "-2"],
    ["oracle", "haar-mc", "--group", "O:2", "--word", "oo", "--rows", "1,1",
     "--cols", "1,1", "--samples", "10000", "--seed", "1", "--threads", "0"],
    ["oracle", "haar-mc", "--group", "O:2", "--word", "oo", "--rows", "1,1",
     "--cols", "1,1", "--samples", "10000", "--seed", "1", "--threads", "-4"],
    ["oracle", "sn-space-moment", "--n", "3", "--index-set", "x", "--word", "o",
     "--indices", "1"],
    ["convergence", "--family", "free-real-sphere", "--category", "S", "--word", "oooo",
     "--sizes", "2,3"],
    ["convergence", "--family", "free-complex-sphere", "--category", "U", "--word", "obob",
     "--sizes", "2"],
    ["oracle", "sn-moment", "--n", "-1", "--word", "", "--rows", "", "--cols", ""],
    ["convergence", "--family", "foo", "--word", "oo", "--sizes", ""],
    ["convergence", "--family", "classical-sphere", "--word", "oo", "--sizes", ""],
    ["convergence", "--family", "group-as-space", "--category", "Q", "--word", "oo",
     "--sizes", ""],
]

# Preset spaces with missing, extra or non-integer parameters.
_BAD_PRESETS = [
    "free-real-sphere", "group-as-space:O:3:4", "column-space:O:3", "classical-sphere:O",
    "group-as-space:O:x",
]
_REJECTED += [["space-moment", "--space", text, "--word", "o", "--indices", "1"]
              for text in _BAD_PRESETS]


@pytest.mark.parametrize("argv", _REJECTED, ids=[" ".join(a) for a in _REJECTED])
def test_rejected_input_prints_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("text", _BAD_PRESETS)
def test_preset_errors_name_the_preset(capsys, text):
    name = text.split(":")[0]
    code, _, err = run(capsys, "space-moment", "--space", text, "--word", "o", "--indices", "1")
    assert code == 1
    assert err.startswith(f"error: {name} takes "), err


def test_negative_seed_is_named(capsys):
    code, out, err = run(capsys, "oracle", "haar-mc", "--group", "O:2", "--word", "oo",
                         "--rows", "1,1", "--cols", "1,1", "--samples", "10000", "--seed", "-1")
    assert (code, out, err) == (1, "", "error: seed must be >= 0\n")


class TestVerifyFullStreaming:
    PAYLOADS = [
        {"command": "verify", "inputs": {"space": "O:2/I=1", "full": None},
         "failures": [], "checks": [{"word": "oo", "indices": [[1, 2], 3], "ok": True},
                                    {"word": "", "indices": [], "ok": False}],
         "timing_seconds": 0.25},
        {"command": "verify", "checks": [], "empty": {}, "nested": [[[]], {"a": [1]}]},
        {"command": "verify", "checks": [{"text": "line\nbreak \u00e9"}]},
    ]

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_streamed_rows_match_json_dumps(self, payload):
        buf = io.StringIO()
        cli._write_json(dict(payload, checks=iter(payload["checks"])), buf)
        assert buf.getvalue() == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_full_rows_stream_in_bounded_memory(self):
        # 59,085 checks; building the whole document took about 3 KiB per check.
        # The child reads its own VmHWM: ru_maxrss would carry over the
        # pytest process's size from before the exec.
        argv = ["verify", "--space", "O:2xO+:2/J=1,2", "--max-k", "4",
                "--test-degree", "3", "--full"]
        child = (
            "import os, sys\n"
            "from easywg.cli import main\n"
            "sys.stdout = open(os.devnull, 'w')\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as fh:\n"
            "    hwm = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
            "print(code, hwm, file=sys.stderr)\n"
        )
        done = run_child(child, *argv)
        code, rss_kib = done.stderr.splitlines()[-1].split()
        assert code == "0"
        assert int(rss_kib) < 64 * 1024


_DEEP = [  # more legs than the recursion limit, and no partitions
    (["partitions", "--category", "O+", "--word", "o" * 995], "count", 0),
    (["partitions", "--category", "O+", "--word", "o" * 1001], "count", 0),
    (["partitions", "--category", "U", "--word", "ob" * 500 + "o"], "count", 0),
    (["space-moment", "--space", "O:3/I=1", "--word", "o" * 1001,
      "--indices", ",".join(["1"] * 1001)], "value", "0/1"),
    (["char-asymptotic", "--categories", "O", "--word", "o" * 1001, "--t", "1"], "value", "0/1"),
]


@pytest.mark.parametrize("argv,field,value", _DEEP,
                         ids=[f"{a[0]} {a[2]} {len(a[4])} legs" for a, *_ in _DEEP])
def test_deep_words_without_partitions_print_one_document(capsys, argv, field, value):
    code, out, err = run(capsys, *argv)
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)[field] == value


_NESTED = "o" * 500 + "b" * 500  # more legs than the recursion limit, one U+ partition
_ONES = ",".join(["1"] * 1000)


@pytest.mark.parametrize("argv,field,value", [
    (["partitions", "--category", "U+", "--word", _NESTED], "count", 1),
    (["group-moment", "--group", "U+:2", "--word", _NESTED, "--rows", _ONES, "--cols", _ONES],
     "value", f"1/{2**500}"),
    (["space-moment", "--space", "free-complex-sphere:2", "--word", _NESTED,
      "--indices", _ONES], "value", f"1/{2**500}"),
], ids=["partitions", "group-moment", "space-moment"])
def test_deep_words_with_partitions_print_one_document(capsys, argv, field, value):
    code, out, err = run(capsys, *argv)
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)[field] == value


class TestRoundTrip:
    def test_echoed_inputs_parse_back(self, capsys):
        _, out, _ = run(
            capsys, "space-moment", "--space", "O+:5/I=1,2", "--word", "ob",
            "--indices", "1,2",
        )
        doc = json.loads(out)
        sp = parse_space(doc["inputs"]["space"])
        assert sp == SpaceSpec((GroupSpec("O+", 5),), IndexSet((1, 2)))
        assert as_word(doc["inputs"]["word"]).text == "ob"

    def test_group_echo_parses_back(self, capsys):
        _, out, _ = run(
            capsys, "group-moment", "--group", "U+:4", "--word", "ob",
            "--rows", "1,1", "--cols", "1,1",
        )
        doc = json.loads(out)
        assert GroupSpec.parse(doc["inputs"]["group"][0]) == GroupSpec("U+", 4)


# Modules that only the matrix engine, the Monte Carlo oracle, its thread
# pool, the disk-record writer and --format csv use; each is imported where
# it is used.  No command needs dataclasses or inspect, but numpy loads
# inspect.
_DEFERRED = ("numpy", "concurrent.futures", "tempfile", "dataclasses", "inspect", "csv")

# Prints the exit code and the deferred modules that easywg loaded.  Modules
# present before easywg is imported are left out: site hooks of some
# installations load tempfile at interpreter start.
_IMPORT_PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "if sys.argv[1:]:\n"
    "    from easywg.cli import main\n"
    "    code = main(sys.argv[1:])\n"
    "else:\n"
    "    import easywg\n"
    "    code = 0\n"
    f"print(code, *(m for m in {_DEFERRED!r} if m in sys.modules and m not in before),\n"
    "      file=sys.stderr)\n"
)

_NUMPY_FREE = [
    [],  # a bare import easywg
    ["partitions", "--category", "O", "--word", "oooo"],
    ["relations", "--space", "free-real-sphere:4", "--max-k", "2"],
    ["char-asymptotic", "--categories", "O+", "--word", "oooo", "--t", "1"],
    ["limit-moments", "--law", "poisson", "--t", "1", "--max-k", "4"],
    ["bp-compare", "--category", "S", "--t", "1", "--max-k", "4"],
    ["oracle", "sn-moment", "--n", "3", "--word", "o", "--rows", "1", "--cols", "1"],
    ["oracle", "sn-space-moment", "--n", "3", "--index-set", "1,2", "--word", "o",
     "--indices", "1"],
    ["oracle", "counting", "--kind", "poisson-recurrence", "--k", "4", "--t", "2"],
    # S space kernels come from the partition lattice, not the engine
    ["space-moment", "--space", "S:3/I=1,2", "--word", "oooo", "--indices", "1,2,1,2"],
    ["char-exact", "--space", "group-as-space:S:3", "--truncation", "2", "--word", "ooo"],
    ["convergence", "--family", "group-as-space", "--category", "S", "--word", "ooo",
     "--sizes", "2,3"],
    ["verify", "--space", "column-space:S:3:2", "--max-k", "2", "--test-degree", "1"],
    # and so do S group moments, a product of S factors included
    ["group-moment", "--group", "S:3", "--word", "ooo", "--rows", "1,2,1", "--cols", "3,1,3"],
    ["group-moment", "--group", "S:3", "--group", "S:2", "--word", "oo", "--rows", "1,2",
     "--cols", "2,1", "--rows", "1,1", "--cols", "2,2"],
    # matrices of at most exact_linalg._SMALL partitions are built, inverted
    # and certified in Python ints, and a word without partitions needs none
    ["group-moment", "--group", "O:3", "--word", "ooo", "--rows", "1,1,1", "--cols", "1,1,1"],
    ["gram", "--category", "U", "--word", "oobbob", "--n", "2"],
    ["weingarten", "--category", "O", "--word", "oooo", "--n", "3"],
    ["group-moment", "--group", "O+:3", "--word", "oo", "--rows", "1,1", "--cols", "1,1"],
    ["group-moment", "--group", "S:3", "--group", "O:2", "--word", "oo", "--rows", "1,1",
     "--cols", "1,1", "--rows", "1,1", "--cols", "2,2"],
    pytest.param(["space-moment", "--space", "S:3xO:3/J=1", "--word", "oo",
                  "--indices", "1.1,1.1"], id="space-moment SxO"),
    pytest.param(["verify", "--space", "O:2/I=1", "--max-k", "2", "--test-degree", "2"],
                 id="verify O"),
    # the empty monomial is 1 on every draw, so no matrix is drawn
    pytest.param(["oracle", "haar-mc", "--group", "U:4", "--word", "", "--rows", "",
                  "--cols", "", "--samples", "100000", "--seed", "1"],
                 id="haar-mc empty word"),
]

_HAAR = ["oracle", "haar-mc", "--group", "O:2", "--word", "oo", "--rows", "1,1",
         "--cols", "1,1", "--samples", "10000", "--seed", "1"]

# argv and the deferred modules it loads, tempfile left aside: a cache write
# loads it, and interpreter start may have loaded it already.
# The engine keys have more than exact_linalg._SMALL partitions: 15 for O
# on six legs, 14 for O+ on eight.
_LOADS_NUMPY = [
    (["weingarten", "--category", "O", "--word", "oooooo", "--n", "3"], ["numpy", "inspect"]),
    (["group-moment", "--group", "O+:3", "--word", "oooooooo", "--rows", "1,1,1,1,1,1,1,1",
      "--cols", "1,1,1,1,1,1,1,1"], ["numpy", "inspect"]),
    (_HAAR + ["--threads", "1"], ["numpy", "inspect"]),
    (_HAAR + ["--threads", "2"], ["numpy", "concurrent.futures", "inspect"]),
    (["space-moment", "--space", "S:3xO:3/J=1", "--word", "oooooo",
      "--indices", "1.1,1.1,1.1,1.1,1.1,1.1"],
     ["numpy", "inspect"]),  # the O factor keeps the engine
    (["group-moment", "--group", "S:3", "--group", "O:2", "--word", "oooooo",
      "--rows", "1,1,1,1,1,1", "--cols", "1,1,1,1,1,1", "--rows", "1,1,1,1,1,1",
      "--cols", "2,2,2,2,2,2"], ["numpy", "inspect"]),
]


def _command(argv: list[str]) -> str:
    if not argv:
        return "import"
    return " ".join(argv[:2] if argv[0] == "oracle" else argv[:1])


def _loaded(argv: list[str], cache_dir) -> list[str]:
    if argv:
        argv = argv + ["--cache-dir", str(cache_dir)]
    code, *loaded = run_child(_IMPORT_PROBE, *argv).stderr.splitlines()[-1].split()
    assert code == "0"
    return loaded


class TestDeferredImports:
    @pytest.mark.parametrize("argv", _NUMPY_FREE, ids=_command)
    def test_command_loads_none(self, argv, tmp_path):
        # a cold cache directory, where writing a record loads tempfile,
        # then the same directory holding the records
        assert [m for m in _loaded(argv, tmp_path) if m != "tempfile"] == []
        assert _loaded(argv, tmp_path) == []

    @pytest.mark.parametrize("argv, expected", _LOADS_NUMPY,
                             ids=["weingarten", "group-moment", "haar-mc 1 thread",
                                  "haar-mc 2 threads", "space-moment SxO",
                                  "group-moment SxO"])
    def test_engine_command_loads_numpy(self, argv, expected, tmp_path):
        assert [m for m in _loaded(argv, tmp_path) if m != "tempfile"] == expected

    def test_csv_output_loads_csv(self, tmp_path):
        argv = ["bp-compare", "--category", "S", "--t", "1", "--max-k", "4", "--format", "csv"]
        assert _loaded(argv, tmp_path) == ["csv"]


# ---------------------------------------------------------------------------
# Fuzzed round trip of the "inputs" echo.

_CATEGORIES = ("S", "S+", "O", "O+", "U", "U+")
_WORD = st.text("ob", max_size=3)
_T = st.one_of(
    st.builds("{}/{}".format, st.integers(1, 12), st.integers(1, 12)),
    st.decimals("0.05", "4", places=2).map(str),
)


def _spelt(lo: int, hi: int):
    """An integer in lo..hi, written in one of the ways int() reads."""
    return st.builds(str.format, st.sampled_from(["{}", "+{}", "0{}"]), st.integers(lo, hi))


def _ints(lo: int, hi: int, size: int):
    return st.lists(_spelt(lo, hi), min_size=size, max_size=size).map(",".join)


@st.composite
def _space(draw):
    """A space text and the coordinate range of each factor."""
    if draw(st.booleans()):
        cat, n = draw(st.sampled_from(_CATEGORIES)), draw(st.integers(1, 3))
        members = draw(st.lists(_spelt(1, n), min_size=1, max_size=n))
        return f"{cat}:{n}/I={','.join(members)}", (n,)
    cats = draw(st.lists(st.sampled_from(_CATEGORIES), min_size=2, max_size=2))
    ns = draw(st.lists(st.integers(1, 2), min_size=2, max_size=2))
    members = draw(st.lists(_spelt(1, min(ns)), min_size=1, max_size=2))
    body = "x".join(f"{c}:{n}" for c, n in zip(cats, ns))
    return f"{body}/J={','.join(members)}", tuple(ns)


@st.composite
def _group_moment(draw):
    word = draw(_WORD)
    argv = ["group-moment", "--word", word]
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 3))
        argv += ["--group", f"{draw(st.sampled_from(_CATEGORIES))}:{draw(_spelt(n, n))}",
                 "--rows", draw(_ints(1, n, len(word))),
                 "--cols", draw(_ints(1, n, len(word)))]
    return argv


@st.composite
def _space_moment(draw):
    space, ranges = draw(_space())
    word = draw(_WORD)
    legs = [".".join(draw(_spelt(1, n)) for n in ranges) for _ in word]
    return ["space-moment", "--space", space, "--word", word, "--indices", ",".join(legs)]


@st.composite
def _sn_moment(draw):
    n, word = draw(st.integers(1, 4)), draw(_WORD)
    return ["oracle", "sn-moment", "--n", draw(_spelt(n, n)), "--word", word,
            "--rows", draw(_ints(1, n, len(word))), "--cols", draw(_ints(1, n, len(word)))]


@st.composite
def _sn_space_moment(draw):
    n, word = draw(st.integers(1, 4)), draw(_WORD)
    members = draw(st.lists(_spelt(1, n), min_size=1, max_size=n))
    return ["oracle", "sn-space-moment", "--n", draw(_spelt(n, n)),
            "--index-set", ",".join(members), "--word", word,
            "--indices", draw(_ints(1, n, len(word)))]


_ARGVS = {
    "group-moment": _group_moment(),
    "space-moment": _space_moment(),
    "relations": st.tuples(_space(), _spelt(0, 2)).map(
        lambda a: ["relations", "--space", a[0][0], "--max-k", a[1]]),
    "char-asymptotic": st.tuples(
        st.lists(st.sampled_from(_CATEGORIES), min_size=1, max_size=2), _WORD, _T).map(
        lambda a: ["char-asymptotic", "--categories", ",".join(a[0]), "--word", a[1],
                   "--t", a[2]]),
    "limit-moments": st.tuples(
        st.sampled_from(["poisson", "free-poisson", "gaussian", "semicircle",
                         "classical-matching", "free-matching"]), _T, _spelt(0, 4)).map(
        lambda a: ["limit-moments", "--law", a[0], "--t", a[1], "--max-k", a[2]]),
    "bp-compare": st.tuples(st.sampled_from(["S", "O", "U"]), _T, _spelt(0, 4)).map(
        lambda a: ["bp-compare", "--category", a[0], "--t", a[1], "--max-k", a[2]]),
    "oracle counting": st.tuples(
        st.sampled_from(["bell", "catalan", "double-factorial", "poisson-recurrence"]),
        _spelt(0, 6), _T).map(
        lambda a: ["oracle", "counting", "--kind", a[0], "--k", a[1], "--t", a[2]]),
    "oracle sn-moment": _sn_moment(),
    "oracle sn-space-moment": _sn_space_moment(),
}

# How an echoed input and its argv text are read; options not listed are
# plain names, compared as strings.
_READERS = {
    "space": parse_space,
    "group": GroupSpec.parse,
    "word": as_word,
    "t": Fraction,
    "rows": cli._parse_ints,
    "cols": cli._parse_ints,
    "indices": lambda text: cli._parse_indices(text, product=True),  # plain or product
    "index_set": IndexSet.parse,
    "categories": lambda text: [as_category(c) for c in text.split(",")],
    "category": as_category,
    "n": int,
    "k": int,
    "max_k": int,
}


@pytest.mark.parametrize("command", list(_ARGVS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_echoed_inputs_parse_back_to_the_argv(command, data):
    argv = data.draw(_ARGVS[command], label="argv")
    options = argv[len(command.split()):]
    given_values: dict = {}
    for flag, value in zip(options[::2], options[1::2]):
        given_values.setdefault(flag[2:].replace("-", "_"), []).append(value)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0, err.getvalue()
    inputs = json.loads(out.getvalue())["inputs"]
    assert set(inputs) == set(given_values)
    for name, values in given_values.items():
        read = _READERS.get(name, str)
        echo = inputs[name]
        if isinstance(echo, list):  # a repeated option
            assert [read(e) for e in echo] == [read(v) for v in values], name
        else:
            assert len(values) == 1 and read(echo) == read(values[0]), name
            assert type(echo) is (int if read is int else str), name
