"""Batch command-line surface with exact JSON output.

One command per invocation; the result is a single JSON document on
stdout (diagnostics on stderr), with every exact value rendered as a
fraction string "p/q" and floats clearly marked as renderings.  Exit
codes: 0 success, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
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
from .integrator import GroupSpec, IndexSet, MomentQuery, group_moment, product_group_moment
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


def _float(x: Fraction) -> "float | None":
    """Float rendering of an exact value; None (JSON null) beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return None


def _matrix_strings(rows) -> list[list[str]]:
    return [[format_scalar(x) for x in row] for row in rows]


def _common(parser: _Parser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--timing", action="store_true")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1)


def _cmd_partitions(args):
    parts = enumerate_partitions(args.category, args.word)
    payload = {
        "command": "partitions",
        "inputs": {"category": args.category, "word": args.word},
        "count": len(parts),
        "partitions": [p.to_text() for p in parts],
    }
    return payload, None, 0


def _cmd_gram(args):
    g = gram_matrix(args.category, args.word, args.n)
    payload = {
        "command": "gram",
        "inputs": {"category": args.category, "word": args.word, "n": args.n},
        "index": [p.to_text() for p in g.index],
        "entries": _matrix_strings(g.entries),
    }
    return payload, None, 0


def _cmd_weingarten(args):
    wg = get_weingarten(args.category, args.word, args.n)
    payload = {
        "command": "weingarten",
        "inputs": {"category": args.category, "word": args.word, "n": args.n},
        "index": [p.to_text() for p in wg.index],
        "basis": list(wg.basis),
        "entries": _matrix_strings(wg.entries),
    }
    return payload, None, 0


def _cmd_group_moment(args):
    groups = [GroupSpec.parse(g) for g in args.group]
    if not (len(groups) == len(args.rows) == len(args.cols)):
        raise CliError("--group, --rows and --cols must be repeated in step")
    word = as_word(args.word)
    queries = [
        MomentQuery(word, _parse_ints(r), _parse_ints(c))
        for r, c in zip(args.rows, args.cols)
    ]
    if len(groups) == 1:
        value = group_moment(groups[0], queries[0])
    else:
        value = product_group_moment(groups, queries)
    payload = {
        "command": "group-moment",
        "inputs": {
            "group": list(args.group),
            "word": args.word,
            "rows": list(args.rows),
            "cols": list(args.cols),
        },
        "value": format_scalar(value),
        "value_float": _float(value),
    }
    return payload, None, 0


def _cmd_space_moment(args):
    space = parse_space(args.space)
    word = as_word(args.word)
    indices = _parse_indices(args.indices, space.is_product)
    value = space_moment(space, word, indices)
    k = len(word)
    value_float = _float(value)
    unscaled = None if value_float is None else value_float / (space.m ** (k / 2.0))
    payload = {
        "command": "space-moment",
        "inputs": {"space": args.space, "word": args.word, "indices": args.indices},
        "value": format_scalar(value),
        "value_float": value_float,
        "unscaled": {
            "coefficient": format_scalar(value),
            "m": space.m,
            "exponent_halves": -k,
            "float": unscaled,
        },
    }
    return payload, None, 0


def _cmd_relations(args):
    space = parse_space(args.space)
    rels = relation_set(space, args.max_k)
    payload = {
        "command": "relations",
        "inputs": {"space": args.space, "max_k": args.max_k},
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
    return payload, None, 0


def _cmd_verify(args):
    space = parse_space(args.space)
    report = verify_relations(space, args.max_k, args.test_degree)
    failures = [
        {
            "word": c.relation.word.text,
            "partitions": [p.to_text() for p in c.relation.partitions],
            "monomial_word": c.monomial_word.text,
            "monomial_indices": [list(x) if isinstance(x, tuple) else x
                                 for x in c.monomial_indices],
            "lhs": format_scalar(c.lhs),
            "rhs": format_scalar(c.rhs),
        }
        for c in report.failures
    ]
    payload = {
        "command": "verify",
        "inputs": {
            "space": args.space,
            "max_k": args.max_k,
            "test_degree": args.test_degree,
        },
        "checked": len(report.checks),
        "failed": len(failures),
        "all_passed": report.all_passed,
        "failures": failures,
    }
    if args.full:
        payload["checks"] = [
            {
                "word": c.relation.word.text,
                "partitions": [p.to_text() for p in c.relation.partitions],
                "monomial_word": c.monomial_word.text,
                "monomial_indices": [list(x) if isinstance(x, tuple) else x
                                     for x in c.monomial_indices],
                "ok": c.ok,
            }
            for c in report.checks
        ]
    return payload, None, 0 if report.all_passed else 2


def _cmd_char_exact(args):
    space = parse_space(args.space)
    query = CharacterQuery(space, args.truncation, as_word(args.word))
    value = char_moment_exact(query)
    payload = {
        "command": "char-exact",
        "inputs": {
            "space": args.space,
            "truncation": args.truncation,
            "word": args.word,
        },
        "value": format_scalar(value),
        "value_float": _float(value),
    }
    return payload, None, 0


def _cmd_char_asymptotic(args):
    cats = [as_category(c) for c in args.categories.split(",")]
    t = Fraction(args.t)
    value = char_moment_asymptotic(cats, args.word, t)
    payload = {
        "command": "char-asymptotic",
        "inputs": {"categories": args.categories, "word": args.word, "t": args.t},
        "value": format_scalar(value),
        "value_float": _float(value),
    }
    return payload, None, 0


def _cmd_limit_moments(args):
    law = LimitLaw(args.law, Fraction(args.t))
    moments = limit_law_moments(law, args.max_k)
    rows = [{"k": k, "value": format_scalar(v)} for k, v in enumerate(moments, 1)]
    payload = {
        "command": "limit-moments",
        "inputs": {"law": args.law, "t": args.t, "max_k": args.max_k},
        "moments": rows,
    }
    table = [("k", "value")] + [(str(r["k"]), r["value"]) for r in rows]
    return payload, table, 0


def _cmd_bp_compare(args):
    rows = bp_compare(args.category, Fraction(args.t), args.max_k)
    body = [
        {"k": r.k, "classical": format_scalar(r.classical), "free": format_scalar(r.free)}
        for r in rows
    ]
    payload = {
        "command": "bp-compare",
        "inputs": {"category": args.category, "t": args.t, "max_k": args.max_k},
        "rows": body,
    }
    table = [("k", "classical", "free")] + [
        (str(r["k"]), r["classical"], r["free"]) for r in body
    ]
    return payload, table, 0


_FAMILIES = ("free-real-sphere", "free-complex-sphere", "classical-sphere", "group-as-space")


def _cmd_convergence(args):
    sizes = _parse_ints(args.sizes)
    entries = []
    for n in sizes:
        if args.family == "free-real-sphere":
            space = preset("free-real-sphere", n)
        elif args.family == "free-complex-sphere":
            space = preset("free-complex-sphere", n)
        elif args.family == "classical-sphere":
            if not args.category:
                raise CliError("classical-sphere family needs --category O or U")
            space = preset("classical-sphere", args.category, n)
        elif args.family == "group-as-space":
            if not args.category:
                raise CliError("group-as-space family needs --category")
            space = preset("group-as-space", args.category, n)
        else:
            raise CliError(f"unknown family {args.family!r}")
        entries.append((space, n))  # truncation rule: T = N
    rows = convergence_profile(entries, args.word)
    body = [
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
    ]
    payload = {
        "command": "convergence",
        "inputs": {
            "family": args.family,
            "category": args.category,
            "word": args.word,
            "sizes": args.sizes,
        },
        "rows": body,
    }
    table = [
        ("ambient_dimension", "truncation", "t", "exact", "asymptotic", "difference")
    ] + [
        (str(r["ambient_dimension"]), str(r["truncation"]), r["t"], r["exact"],
         r["asymptotic"], r["difference"])
        for r in body
    ]
    return payload, table, 0


def _cmd_oracle(args):
    if args.oracle_cmd == "sn-moment":
        q = MomentQuery(as_word(args.word), _parse_ints(args.rows), _parse_ints(args.cols))
        value = oracles.sn_exhaustive_moment(args.n, q)
        payload = {
            "command": "oracle sn-moment",
            "inputs": {"n": args.n, "word": args.word, "rows": args.rows, "cols": args.cols},
            "value": format_scalar(value),
            "value_float": _float(value),
        }
        return payload, None, 0
    if args.oracle_cmd == "sn-space-moment":
        value = oracles.sn_exhaustive_space_moment(
            args.n, IndexSet.parse(args.index_set), as_word(args.word),
            _parse_ints(args.indices),
        )
        payload = {
            "command": "oracle sn-space-moment",
            "inputs": {
                "n": args.n, "index_set": args.index_set,
                "word": args.word, "indices": args.indices,
            },
            "value": format_scalar(value),
            "value_float": _float(value),
        }
        return payload, None, 0
    if args.oracle_cmd == "haar-mc":
        g = GroupSpec.parse(args.group)
        q = MomentQuery(as_word(args.word), _parse_ints(args.rows), _parse_ints(args.cols))
        report = oracles.haar_mc_moment(
            g.category, g.dimension, q, args.samples, args.seed, threads=args.threads
        )
        payload = {
            "command": "oracle haar-mc",
            "inputs": {
                "group": args.group, "word": args.word, "rows": args.rows,
                "cols": args.cols, "samples": args.samples, "seed": args.seed,
            },
            "estimate": report.estimate,
            "standard_error": report.standard_error,
            "samples": report.samples,
            "seed": report.seed,
        }
        return payload, None, 0
    if args.oracle_cmd == "counting":
        value = oracles.counting_oracle(args.kind, args.k, Fraction(args.t))
        payload = {
            "command": "oracle counting",
            "inputs": {"kind": args.kind, "k": args.k, "t": args.t},
            "value": format_scalar(value),
        }
        return payload, None, 0
    raise CliError("unknown oracle subcommand")


def build_parser() -> _Parser:
    parser = _Parser(prog="easywg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", help="enumerate a category's partition set")
    p.add_argument("--category", required=True)
    p.add_argument("--word", required=True)
    _common(p)
    p.set_defaults(handler=_cmd_partitions)

    p = sub.add_parser("gram", help="exact Gram matrix")
    p.add_argument("--category", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, required=True)
    _common(p)
    p.set_defaults(handler=_cmd_gram)

    p = sub.add_parser("weingarten", help="exact (generalized) inverse Gram matrix")
    p.add_argument("--category", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, required=True)
    _common(p)
    p.set_defaults(handler=_cmd_weingarten)

    p = sub.add_parser("group-moment", help="Haar moment of an easy quantum group")
    p.add_argument("--group", action="append", required=True,
                   help="CATEGORY:N; repeat for product groups")
    p.add_argument("--word", required=True)
    p.add_argument("--rows", action="append", required=True)
    p.add_argument("--cols", action="append", required=True)
    _common(p)
    p.set_defaults(handler=_cmd_group_moment)

    p = sub.add_parser("space-moment", help="rescaled moment of a homogeneous space")
    p.add_argument("--space", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--indices", required=True,
                   help="comma list; product coordinates join components with '.'")
    _common(p)
    p.set_defaults(handler=_cmd_space_moment)

    p = sub.add_parser("relations", help="defining relation family of a space")
    p.add_argument("--space", required=True)
    p.add_argument("--max-k", type=int, required=True)
    _common(p)
    p.set_defaults(handler=_cmd_relations)

    p = sub.add_parser("verify", help="verify relations in expectation")
    p.add_argument("--space", required=True)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--test-degree", type=int, required=True)
    p.add_argument("--full", action="store_true",
                   help="include every (relation, monomial) row in the output")
    _common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("char-exact", help="exact truncated-character moment")
    p.add_argument("--space", required=True)
    p.add_argument("--truncation", type=int, required=True)
    p.add_argument("--word", required=True)
    _common(p)
    p.set_defaults(handler=_cmd_char_exact)

    p = sub.add_parser("char-asymptotic", help="limit character moment")
    p.add_argument("--categories", required=True, help="comma list of categories")
    p.add_argument("--word", required=True)
    p.add_argument("--t", required=True)
    _common(p)
    p.set_defaults(handler=_cmd_char_asymptotic)

    p = sub.add_parser("limit-moments", help="moment sequence of a limit law")
    p.add_argument("--law", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--max-k", type=int, required=True)
    _common(p)
    p.set_defaults(handler=_cmd_limit_moments)

    p = sub.add_parser("bp-compare", help="classical vs free moment table")
    p.add_argument("--category", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--max-k", type=int, required=True)
    _common(p)
    p.set_defaults(handler=_cmd_bp_compare)

    p = sub.add_parser("convergence", help="exact vs asymptotic character moments")
    p.add_argument("--family", required=True, help=", ".join(_FAMILIES))
    p.add_argument("--category", default=None)
    p.add_argument("--word", required=True)
    p.add_argument("--sizes", required=True, help="comma list of sizes, truncation T = N")
    _common(p)
    p.set_defaults(handler=_cmd_convergence)

    p = sub.add_parser("oracle", help="independent ground-truth computations")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)

    q = osub.add_parser("sn-moment")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--word", required=True)
    q.add_argument("--rows", required=True)
    q.add_argument("--cols", required=True)
    _common(q)
    q.set_defaults(handler=_cmd_oracle)

    q = osub.add_parser("sn-space-moment")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--index-set", required=True)
    q.add_argument("--word", required=True)
    q.add_argument("--indices", required=True)
    _common(q)
    q.set_defaults(handler=_cmd_oracle)

    q = osub.add_parser("haar-mc")
    q.add_argument("--group", required=True, help="O:N or U:N")
    q.add_argument("--word", required=True)
    q.add_argument("--rows", required=True)
    q.add_argument("--cols", required=True)
    q.add_argument("--samples", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    _common(q)
    q.set_defaults(handler=_cmd_oracle)

    q = osub.add_parser("counting")
    q.add_argument("--kind", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--t", default="1")
    _common(q)
    q.set_defaults(handler=_cmd_oracle)

    return parser


def _emit_csv(table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in table:
        writer.writerow(row)
    return buf.getvalue()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    cache_dir = getattr(args, "cache_dir", None) or os.environ.get("WG_CACHE_DIR")
    if cache_dir:
        try:
            exact_linalg.set_disk_cache(cache_dir)
        except OSError as err:
            print(f"error: cannot use cache directory {cache_dir!r}: "
                  f"{err.strerror or err}", file=sys.stderr)
            return 1
    started = time.perf_counter()
    try:
        payload, table, code = args.handler(args)
    except (CliError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    if args.format == "csv":
        if table is None:
            print("error: csv output is only available for table commands",
                  file=sys.stderr)
            return 1
        sys.stdout.write(_emit_csv(table))
    else:
        if args.timing:
            payload["timing_seconds"] = elapsed
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    print(f"easywg: {payload['command']} finished in {elapsed:.3f}s", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
