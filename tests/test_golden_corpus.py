"""Byte-for-byte replay of the recorded CLI corpus (see make_golden_corpus.py)."""

import json
import pathlib

import pytest

import easywg.cli as cli
import easywg.exact_linalg as xl
from easywg.characters import _LAW_KINDS
from fraction_reference import clear_caches

CORPUS = json.loads(
    pathlib.Path(__file__).with_name("golden_corpus.json").read_text()
)


@pytest.mark.parametrize(
    "case", CORPUS, ids=[" ".join(c["argv"]) for c in CORPUS]
)
def test_stdout_is_byte_identical(case, capsys):
    clear_caches()
    xl.set_disk_cache(None)
    code = cli.main(list(case["argv"]))
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def test_corpus_covers_every_category_and_the_empty_word():
    wg = [c["argv"] for c in CORPUS if c["argv"][0] == "weingarten"]
    assert {a[2] for a in wg} == {"S", "O", "U", "S+", "O+", "U+"}
    assert any(a[4] == "" for a in wg)
    assert any("b" in a[4] for a in wg)
    # singular keys: a basis smaller than the index
    singular = [
        c for c in CORPUS if c["argv"][0] == "weingarten"
        and len(json.loads(c["stdout"])["basis"]) < len(json.loads(c["stdout"])["index"])
    ]
    assert len(singular) >= 6


def _choices(option: str) -> set[str]:
    return {a[a.index(option) + 1] for a in (c["argv"] for c in CORPUS) if option in a}


def test_corpus_covers_every_command_and_choice():
    ran = {" ".join(a[:2]) if a[0] == "oracle" else a[0] for a in (c["argv"] for c in CORPUS)}
    assert ran == set(cli._COMMANDS)
    assert _choices("--kind") == {"bell", "catalan", "double-factorial", "poisson-recurrence"}
    assert _choices("--law") == set(_LAW_KINDS)
    assert _choices("--family") == set(cli._FAMILIES)
    assert _choices("--format") == {"csv"}
