"""Batch command-line surface with exact JSON output.

One command per invocation; the result is a single JSON document on
stdout (diagnostics on stderr), with every exact value rendered as a
fraction string "p/q" and floats clearly marked as renderings.  Exit
codes: 0 success, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections.abc import Iterator
from fractions import Fraction

from . import exact_linalg, oracles
from .characters import (
    CharacterQuery,
    LimitLaw,
    bp_compare,
    char_moment_asymptotic,
    char_moment_exact,
    convergence_profile,
    limit_law_moments,
)
from .exact_linalg import format_scalar, get_weingarten, gram_matrix
from .integrator import GroupSpec, IndexSet, MomentQuery, group_moment
from .partitions import as_category, as_word, enumerate_partitions
from .spaces import parse_space, preset, relation_set, space_moment, verify_relations


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise CliError(message)


def _parse_ints(text: str) -> tuple[int, ...]:
    if text == "":
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"cannot parse integer list {text!r}") from None


def _parse_indices(text: str, product: bool) -> tuple:
    if text == "":
        return ()
    parts = text.split(",")
    if not product:
        return _parse_ints(text)
    out = []
    for p in parts:
        try:
            out.append(tuple(int(x) for x in p.split(".")))
        except ValueError:
            raise CliError(f"cannot parse product index {p!r}") from None
    return tuple(out)


def _parse_t(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot parse --t {text!r} as a fraction") from None


def _float(x: Fraction) -> "float | None":
    """Float rendering of an exact value; None (JSON null) beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return None


def _value(x: Fraction) -> dict:
    """An exact value as its fraction string and its float rendering."""
    return {"value": format_scalar(x), "value_float": _float(x)}


def _matrix_strings(rows) -> list[list[str]]:
    return [[format_scalar(x) for x in row] for row in rows]


def _cmd_partitions(args):
    parts = enumerate_partitions(args.category, args.word)
    return {"count": len(parts), "partitions": [p.to_text() for p in parts]}


def _cmd_gram(args):
    g = gram_matrix(args.category, args.word, args.n)
    return {
        "index": [p.to_text() for p in g.index],
        "entries": _matrix_strings(g.entries),
    }


def _cmd_weingarten(args):
    wg = get_weingarten(args.category, args.word, args.n)
    return {
        "index": [p.to_text() for p in wg.index],
        "basis": list(wg.basis),
        "entries": _matrix_strings(wg.entries),
    }


def _cmd_group_moment(args):
    groups = [GroupSpec.parse(g) for g in args.group]
    if not (len(groups) == len(args.rows) == len(args.cols)):
        raise CliError("--group, --rows and --cols must be repeated in step")
    word = as_word(args.word)
    queries = [
        MomentQuery(word, _parse_ints(r), _parse_ints(c))
        for r, c in zip(args.rows, args.cols)
    ]
    # the Haar measure of a product group is the product of the factors' measures
    value = math.prod((group_moment(g, q) for g, q in zip(groups, queries)), start=Fraction(1))
    return _value(value)


def _cmd_space_moment(args):
    space = parse_space(args.space)
    word = as_word(args.word)
    indices = _parse_indices(args.indices, space.is_product)
    value = space_moment(space, word, indices)
    k = len(word)
    fields = _value(value)
    value_float = fields["value_float"]
    unscaled = None if value_float is None else value_float / (space.m ** (k / 2.0))
    return {
        **fields,
        "unscaled": {
            "coefficient": format_scalar(value),
            "m": space.m,
            "exponent_halves": -k,
            "float": unscaled,
        },
    }


def _cmd_relations(args):
    rels = relation_set(parse_space(args.space), args.max_k)
    return {
        "count": len(rels),
        "relations": [
            {
                "word": r.word.text,
                "partitions": [p.to_text() for p in r.partitions],
                "join_blocks": r.join_blocks,
                "rhs_exponent_halves": 2 * r.join_blocks - r.k,
            }
            for r in rels
        ],
    }


def _check_row(c) -> dict:
    return {
        "word": c.relation.word.text,
        "partitions": [p.to_text() for p in c.relation.partitions],
        "monomial_word": c.monomial_word.text,
        "monomial_indices": [list(x) if isinstance(x, tuple) else x
                             for x in c.monomial_indices],
    }


def _cmd_verify(args):
    report = verify_relations(parse_space(args.space), args.max_k, args.test_degree)
    failures = [
        dict(_check_row(c), lhs=format_scalar(c.lhs), rhs=format_scalar(c.rhs))
        for c in report.failures
    ]
    fields = {
        "checked": len(report.checks),
        "failed": len(failures),
        "all_passed": not failures,
        "failures": failures,
    }
    if args.full:  # written row by row as report.checks yields them
        fields["checks"] = (dict(_check_row(c), ok=c.ok) for c in report.checks)
    return fields


def _cmd_char_exact(args):
    space = parse_space(args.space)
    value = char_moment_exact(CharacterQuery(space, args.truncation, as_word(args.word)))
    return _value(value)


def _cmd_char_asymptotic(args):
    cats = [as_category(c) for c in args.categories.split(",")]
    value = char_moment_asymptotic(cats, args.word, _parse_t(args.t))
    return _value(value)


def _cmd_limit_moments(args):
    moments = limit_law_moments(LimitLaw(args.law, _parse_t(args.t)), args.max_k)
    return {"moments": [{"k": k, "value": format_scalar(v)} for k, v in enumerate(moments, 1)]}


def _cmd_bp_compare(args):
    rows = bp_compare(args.category, _parse_t(args.t), args.max_k)
    return {"rows": [
        {"k": r.k, "classical": format_scalar(r.classical), "free": format_scalar(r.free)}
        for r in rows
    ]}


_FIXED_FAMILIES = ("free-real-sphere", "free-complex-sphere")  # their category is fixed
_FAMILIES = _FIXED_FAMILIES + ("classical-sphere", "group-as-space")


def _cmd_convergence(args):
    sizes = _parse_ints(args.sizes)
    if args.family not in _FAMILIES:
        raise CliError(f"unknown family {args.family!r}")
    if args.family in _FIXED_FAMILIES:
        if args.category:
            raise CliError(f"{args.family} family takes no --category")
        params = ()
    elif args.category:
        params = (args.category,)
    else:
        raise CliError(f"{args.family} family needs --category")
    preset(args.family, *params, 1)  # rejects a category the family does not take
    entries = [(preset(args.family, *params, n), n) for n in sizes]  # truncation rule: T = N
    rows = convergence_profile(entries, args.word)
    return {"rows": [
        {
            "ambient_dimension": r.ambient_dimension,
            "truncation": r.truncation,
            "t": format_scalar(r.t),
            "exact": format_scalar(r.exact),
            "asymptotic": format_scalar(r.asymptotic),
            "difference": format_scalar(r.difference),
            "difference_float": _float(r.difference),
        }
        for r in rows
    ]}


def _cmd_sn_moment(args):
    q = MomentQuery(as_word(args.word), _parse_ints(args.rows), _parse_ints(args.cols))
    value = oracles.sn_exhaustive_moment(args.n, q)
    return _value(value)


def _cmd_sn_space_moment(args):
    value = oracles.sn_exhaustive_space_moment(
        args.n, IndexSet.parse(args.index_set), as_word(args.word),
        _parse_ints(args.indices),
    )
    return _value(value)


def _cmd_haar_mc(args):
    g = GroupSpec.parse(args.group)
    q = MomentQuery(as_word(args.word), _parse_ints(args.rows), _parse_ints(args.cols))
    report = oracles.haar_mc_moment(
        g.category, g.dimension, q, args.samples, args.seed, threads=args.threads
    )
    return {
        "estimate": report.estimate,
        "standard_error": report.standard_error,
        "samples": report.samples,
        "seed": report.seed,
    }


def _cmd_counting(args):
    value = oracles.counting_oracle(args.kind, args.k, _parse_t(args.t))
    return {"value": format_scalar(value)}


_STR = {"required": True}
_INT = {"type": int, "required": True}
_EACH = {"action": "append", "required": True}

# command: (handler, help, options).  Every option listed here except a
# store_true flag is echoed under "inputs", in this order.
_COMMANDS = {
    "partitions": (_cmd_partitions, "enumerate a category's partition set",
                   [("--category", _STR), ("--word", _STR)]),
    "gram": (_cmd_gram, "exact Gram matrix",
             [("--category", _STR), ("--word", _STR), ("--n", _INT)]),
    "weingarten": (_cmd_weingarten, "exact (generalized) inverse Gram matrix",
                   [("--category", _STR), ("--word", _STR), ("--n", _INT)]),
    "group-moment": (_cmd_group_moment, "Haar moment of an easy quantum group", [
        ("--group", dict(_EACH, help="CATEGORY:N; repeat for product groups")),
        ("--word", _STR), ("--rows", _EACH), ("--cols", _EACH),
    ]),
    "space-moment": (_cmd_space_moment, "rescaled moment of a homogeneous space", [
        ("--space", _STR), ("--word", _STR),
        ("--indices", dict(_STR, help="comma list; product coordinates join "
                                      "components with '.'")),
    ]),
    "relations": (_cmd_relations, "defining relation family of a space",
                  [("--space", _STR), ("--max-k", _INT)]),
    "verify": (_cmd_verify, "verify relations in expectation", [
        ("--space", _STR), ("--max-k", _INT), ("--test-degree", _INT),
        ("--full", {"action": "store_true",
                    "help": "include every (relation, monomial) row in the output"}),
    ]),
    "char-exact": (_cmd_char_exact, "exact truncated-character moment",
                   [("--space", _STR), ("--truncation", _INT), ("--word", _STR)]),
    "char-asymptotic": (_cmd_char_asymptotic, "limit character moment", [
        ("--categories", dict(_STR, help="comma list of categories")),
        ("--word", _STR), ("--t", _STR),
    ]),
    "limit-moments": (_cmd_limit_moments, "moment sequence of a limit law",
                      [("--law", _STR), ("--t", _STR), ("--max-k", _INT)]),
    "bp-compare": (_cmd_bp_compare, "classical vs free moment table",
                   [("--category", _STR), ("--t", _STR), ("--max-k", _INT)]),
    "convergence": (_cmd_convergence, "exact vs asymptotic character moments", [
        ("--family", dict(_STR, help=", ".join(_FAMILIES))),
        ("--category", {"default": None}), ("--word", _STR),
        ("--sizes", dict(_STR, help="comma list of sizes, truncation T = N")),
    ]),
    "oracle sn-moment": (_cmd_sn_moment, None, [
        ("--n", _INT), ("--word", _STR), ("--rows", _STR), ("--cols", _STR),
    ]),
    "oracle sn-space-moment": (_cmd_sn_space_moment, None, [
        ("--n", _INT), ("--index-set", _STR), ("--word", _STR), ("--indices", _STR),
    ]),
    "oracle haar-mc": (_cmd_haar_mc, None, [
        ("--group", dict(_STR, help="O:N or U:N")), ("--word", _STR),
        ("--rows", _STR), ("--cols", _STR), ("--samples", _INT), ("--seed", _INT),
    ]),
    "oracle counting": (_cmd_counting, None,
                        [("--kind", _STR), ("--k", _INT), ("--t", {"default": "1"})]),
}

# table commands: the JSON field holding the rows, and the csv columns
_TABLES = {
    "limit-moments": ("moments", ("k", "value")),
    "bp-compare": ("rows", ("k", "classical", "free")),
    "convergence": ("rows", ("ambient_dimension", "truncation", "t", "exact",
                             "asymptotic", "difference")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="easywg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    oracle = sub.add_parser("oracle", help="independent ground-truth computations")
    oracle_sub = oracle.add_subparsers(dest="oracle_cmd", required=True)
    for name, (handler, help_text, options) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        p = (oracle_sub if group else sub).add_parser(leaf, help=help_text)
        inputs = []
        for flag, kwargs in options:
            dest = p.add_argument(flag, **kwargs).dest
            if kwargs.get("action") != "store_true":
                inputs.append(dest)
        if name in _TABLES:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--timing", action="store_true")
        p.add_argument("--cache-dir", default=None)
        if name == "oracle haar-mc":  # sub-seeded blocks: results never depend on it
            p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        p.set_defaults(handler=handler, command_name=name, input_names=inputs)
    return parser


def _write_json(payload: dict, out) -> None:
    """Write json.dumps(payload, indent=2) and a newline.  A top-level value
    that is an iterator is written item by item as it yields, so a long row
    list is never held in memory."""
    sep = "{"
    for key, value in payload.items():
        out.write(f"{sep}\n  {json.dumps(key)}: ")
        sep = ","
        if isinstance(value, Iterator):
            head = "["
            for item in value:
                out.write(f"{head}\n    " + json.dumps(item, indent=2).replace("\n", "\n    "))
                head = ","
            out.write("[]" if head == "[" else "\n  ]")
        else:
            out.write(json.dumps(value, indent=2).replace("\n", "\n  "))
    out.write("\n}\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.cache_dir:
        try:
            exact_linalg.set_disk_cache(args.cache_dir)
        except OSError as err:
            print(f"error: cannot use cache directory {args.cache_dir!r}: "
                  f"{err.strerror or err}", file=sys.stderr)
            return 1
    started = time.perf_counter()
    try:
        fields = args.handler(args)
    except (CliError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    if getattr(args, "format", "json") == "csv":
        import csv  # only --format csv needs it

        key, columns = _TABLES[args.command_name]
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([str(row[c]) for c in columns] for row in fields[key])
    else:
        payload = {
            "command": args.command_name,
            "inputs": {name: getattr(args, name) for name in args.input_names},
            **fields,
        }
        if args.timing:
            payload["timing_seconds"] = elapsed
        _write_json(payload, sys.stdout)
    # measured again after the output: --full rows are generated while it is written
    elapsed = time.perf_counter() - started
    print(f"easywg: {args.command_name} finished in {elapsed:.3f}s", file=sys.stderr)
    return 0 if fields.get("all_passed", True) else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
