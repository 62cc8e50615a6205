"""Command line front end.

Four subcommands:

* ``check``     verify table documents and report diagnostics
* ``eval``      apply a table to one input configuration
* ``generate``  emit a synthetic table document, optionally with defects
* ``bench``     time the sweeps over a suite of generated tables

Exit codes: 0 when every checked table is correct (or evaluation found
a result or legitimately none), 1 when a table is incorrect or a hit
policy was violated, 2 for unusable input such as malformed JSON,
schema errors, or bad condition syntax.

Structured output is JSON with sorted keys and stable list orders, so
identical invocations produce byte-identical reports.  Diagnostics are
sorted by code, then rule ids, then columns.  Reports for multiple
``check`` files are buffered and emitted in argument order.

Every structured document is written by ``_dump_json``, whose text
equals ``json.dumps(doc, indent=2, sort_keys=True)``.  On CPython 3.12
and older, ``json`` encodes with ``indent`` in pure Python, a generator
per container; the writer builds each container's text by joining its
items' texts, encodes strings with json's C ``encode_basestring_ascii``
and leaves other scalars to json's C encoder, and takes about half the
time on a check report.  CPython 3.13 encodes ``indent`` in C, and the
writer gives the same bytes there.

The argument parser is built on the first call to ``main`` and reused
by every later call in the process, so a caller that runs ``main``
many times (a test suite, a benchmark, an editor or service that
embeds the checker) pays for it once; a one-shot ``dmncheck`` process
builds it once either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .correctness import (CorrectnessReport, check_correct,
                          located_conditions)
from .errors import DecisionTableError, echo
from .model import (Diagnostic, DecisionTable, decode_json, dump_table,
                    load_table)
from .semantics import Outcome, evaluate
from .sfeel import format_literal
from .synth import (GenSpec, bench_columns, benchmark_grid, generate_table,
                    inject_noise, run_benchmark)


def _read_document(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise DecisionTableError(f"{path}: not UTF-8 text: {exc}") from exc


def _write_output(text: str, path: Optional[str]) -> None:
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# json's compact C encoder: a scalar's text is the same with or without
# indent.
_scalar_json = json.JSONEncoder().encode


def _dump_json(doc, indent: str = "\n") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` for str-keyed
    dicts, lists, tuples, str, bool, None, int and float; any other
    value raises TypeError, as json does.  ``indent`` is the newline
    and indentation that precede the closing bracket."""
    inner = indent + "  "
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = []
        for key in sorted(doc):
            value = doc[key]
            items.append(encode_basestring_ascii(key) + ": " + (
                encode_basestring_ascii(value) if type(value) is str
                else _dump_json(value, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        try:  # most lists hold only strings
            items = list(map(encode_basestring_ascii, doc))
        except TypeError:
            items = [encode_basestring_ascii(item) if type(item) is str
                     else _dump_json(item, inner) for item in doc]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    return _scalar_json(doc)


def _diagnostic_sort_key(diag: Diagnostic):
    return (diag.code, diag.rule_ids, diag.columns, diag.detail)


def _sorted_diagnostics(report: CorrectnessReport) -> list[Diagnostic]:
    return sorted(report.all_diagnostics(), key=_diagnostic_sort_key)


def _check_text(table: DecisionTable, report: CorrectnessReport) -> str:
    # A half that was not swept reports nothing: no groups under
    # --only missing, and no completeness verdict under --only overlap.
    lines = []
    for diag in _sorted_diagnostics(report):
        if diag.rule_ids:
            subject = " rules " + ", ".join(diag.rule_ids) + ":"
        elif diag.columns:
            subject = " columns " + ", ".join(diag.columns) + ":"
        else:
            subject = ""
        lines.append(f"{diag.severity} {diag.code}:{subject} {diag.detail}")
    if report.overlap_groups:
        lines.append("overlapping groups:")
        for group in report.overlap_groups:
            where = located_conditions(table, group.conditions)
            lines.append("  " + ", ".join(group.sorted_ids())
                         + f" at ({where})")
    if report.missing_regions:
        lines.append("missing regions:")
        for region in report.missing_regions:
            lines.append(
                f"  ({located_conditions(table, region.conditions)})")
    verdict = "correct" if report.correct else "not correct"
    lines.append(f"table {table.name!r}: {verdict}")
    return "\n".join(lines)


def _check_doc(table: DecisionTable, report: CorrectnessReport,
               only: str) -> dict:
    doc = {
        "table": table.name,
        "inputColumns": list(table.input_names()),
        "correct": report.correct,
        "diagnostics": [
            {
                "severity": diag.severity,
                "code": diag.code,
                "rules": list(diag.rule_ids),
                "columns": list(diag.columns),
                "detail": diag.detail,
            }
            for diag in _sorted_diagnostics(report)
        ],
    }
    if report.completeness is not None:
        doc["completeness"] = {
            "declared": report.completeness.declared,
            "actual": report.completeness.actual,
        }
    if only != "missing":
        doc["overlaps"] = [
            {
                "rules": list(group.sorted_ids()),
                "witness": list(group.conditions),
            }
            for group in report.overlap_groups
        ]
    if only != "overlap":
        doc["missing"] = [
            {"conditions": list(region.conditions)}
            for region in report.missing_regions
        ]
    return doc


def _cmd_check(args) -> int:
    all_correct = True
    texts = []
    docs = []
    for path in args.tables:
        table = load_table(_read_document(path))
        report = check_correct(table, only=args.only)
        all_correct = all_correct and report.correct
        if args.format == "structured":
            docs.append(_check_doc(table, report, args.only))
        else:
            texts.append(_check_text(table, report))
    if args.format == "structured":
        _write_output(_dump_json(docs[0] if len(docs) == 1 else docs), None)
    else:
        _write_output("\n\n".join(texts), None)
    return 0 if all_correct else 1


def _parse_value(text: str):
    # Text that is not JSON is a plain string, but JSON nested too deep
    # or with too long an integer to decode is an error.
    try:
        return decode_json(text, "bad input value")
    except DecisionTableError as exc:
        if isinstance(exc.__cause__, json.JSONDecodeError):
            return text.strip()
        raise


def _parse_config(args) -> dict:
    """Input configurations arrive as "Name=Value,Name2=Value2" (values
    parsed as JSON literals with a plain-string fallback) or, when the
    text starts with ``{``, as one JSON object."""
    config = {}
    if args.input:
        text = args.input.strip()
        if text.startswith("{"):
            doc = decode_json(text, "bad --input JSON")
            if not isinstance(doc, dict):
                raise DecisionTableError("--input must be a JSON object")
            config.update(doc)
        else:
            for pair in text.split(","):
                name, sep, value = pair.partition("=")
                if not sep:
                    raise DecisionTableError(
                        f"--input needs name=value pairs, got {echo(pair)}")
                config[name.strip()] = _parse_value(value)
    for pair in args.set or ():
        name, sep, value = pair.partition("=")
        if not sep:
            raise DecisionTableError(f"--set needs name=value, got "
                                     f"{echo(pair)}")
        config[name.strip()] = _parse_value(value)
    if not config:
        raise DecisionTableError("no input configuration; use --input or "
                                 "--set")
    return config


def _cmd_eval(args) -> int:
    table = load_table(_read_document(args.table))
    config = _parse_config(args)
    result = evaluate(table, config)
    if args.format == "structured":
        doc = {
            "outcome": result.outcome.value,
            "rule": result.rule.id if result.rule else None,
            "outputs": {name: value
                        for name, value in result.outputs.items()},
            "triggered": list(result.triggered),
            "detail": result.detail,
        }
        _write_output(_dump_json(doc), None)
        return 1 if result.outcome is Outcome.VIOLATION else 0
    if result.outcome is Outcome.MATCHED:
        shown = ", ".join(
            f"{attr.name}={format_literal(result.outputs[attr.name])}"
            for attr in table.outputs)
        _write_output(f"Matched rule {result.rule.id}: {shown}", None)
        return 0
    if result.outcome is Outcome.NO_MATCH:
        _write_output("No rule matches", None)
        return 0
    _write_output(f"Hit policy violation: {result.detail}", None)
    return 1


def _cmd_generate(args) -> int:
    columns = bench_columns(args.columns, args.numeric_range, args.arity)
    table = generate_table(GenSpec(
        columns=columns, target_rules=args.rules, seed=args.seed,
        table_name=args.name))
    if args.inject in ("overlap", "both"):
        table = inject_noise(table, columns, "overlap", args.fraction,
                             args.seed + 1)
    if args.inject in ("missing", "both"):
        table = inject_noise(table, columns, "missing", args.fraction,
                             args.seed + 2)
    _write_output(_dump_json(dump_table(table)), args.out)
    return 0


def _parse_int_list(value) -> tuple[int, ...]:
    if isinstance(value, list):
        return tuple(value)
    try:
        return tuple(int(part) for part in str(value).split(","))
    except ValueError as exc:
        raise DecisionTableError(f"expected comma-separated integers, "
                                 f"got {echo(value)}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_COUNTS = ("a non-empty list of integers or comma-separated text",
           lambda v: isinstance(v, str)
           or isinstance(v, list) and v and all(map(_is_int, v)))
_INTEGER = ("an integer", _is_int)
# Every suite key, with what its value must be.
_SUITE_KEYS = {
    "columnCounts": _COUNTS, "ruleCounts": _COUNTS, "runs": _INTEGER,
    "seed": _INTEGER, "numericRange": _INTEGER, "arity": _INTEGER,
    "noiseFraction": ("a number",
                      lambda v: _is_int(v) or isinstance(v, float)),
}


def _load_suite(path: str) -> dict:
    doc = decode_json(_read_document(path), "bad suite document")
    if not isinstance(doc, dict):
        raise DecisionTableError("suite document must be a JSON object")
    extra = set(doc) - set(_SUITE_KEYS)
    if extra:
        raise DecisionTableError(
            f"unknown suite keys: {', '.join(sorted(extra))}")
    for key, value in doc.items():
        expected, accepts = _SUITE_KEYS[key]
        if not accepts(value):
            raise DecisionTableError(
                f"suite key {key} must be {expected}, got {echo(value)}")
    return doc


def _cmd_bench(args) -> int:
    suite = _load_suite(args.suite) if args.suite else {}

    def pick(flag, key, fallback):
        if flag is not None:
            return flag
        return suite.get(key, fallback)

    specs = benchmark_grid(
        column_counts=_parse_int_list(pick(args.columns, "columnCounts",
                                           "3,5,7")),
        rule_counts=_parse_int_list(pick(args.rules, "ruleCounts",
                                         "500,1000,1500")),
        seed=pick(args.seed, "seed", 1),
        numeric_range=pick(args.numeric_range, "numericRange", 1000),
        arity=pick(args.arity, "arity", 4))
    report = run_benchmark(
        specs,
        runs=pick(args.runs, "runs", 5),
        noise_fraction=float(pick(args.fraction, "noiseFraction", 0.1)))
    if args.format == "structured":
        _write_output(_dump_json(report.to_doc()), args.out)
    else:
        _write_output(report.to_text(), args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process and shared by every call to main (see the
    # module docstring), so no action may take a mutable default.
    parser = argparse.ArgumentParser(
        prog="dmncheck",
        description="Verify, evaluate, generate, and benchmark decision "
                    "tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify table documents")
    check.add_argument("tables", nargs="+", metavar="table",
                       help="path to a table JSON document, or -")
    check.add_argument("--format", choices=("text", "structured"),
                       default="text")
    check.add_argument("--only", choices=("all", "overlap", "missing"),
                       default="all",
                       help="restrict to one analysis")
    check.set_defaults(func=_cmd_check)

    ev = sub.add_parser("eval", help="apply a table to one input")
    ev.add_argument("table", help="path to a table JSON document, or -")
    ev.add_argument("--input", metavar='"NAME=VALUE,..."',
                    help="input configuration; also accepts a JSON object")
    ev.add_argument("--set", action="append", metavar="NAME=VALUE",
                    help="set one input value (repeatable)")
    ev.add_argument("--format", choices=("text", "structured"),
                    default="text")
    ev.set_defaults(func=_cmd_eval)

    gen = sub.add_parser("generate", help="emit a synthetic table")
    gen.add_argument("--columns", type=int, default=3,
                     help="number of input columns")
    gen.add_argument("--rules", type=int, default=20,
                     help="number of rules to generate")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--numeric-range", type=int, default=1000,
                     help="numeric columns span 0..N")
    gen.add_argument("--arity", type=int, default=4,
                     help="categories per categorical column")
    gen.add_argument("--name", default="generated")
    gen.add_argument("--inject",
                     choices=("none", "overlap", "missing", "both"),
                     default="none", help="plant defects after generating")
    gen.add_argument("--fraction", type=float, default=0.1,
                     help="fraction of rules to noise")
    gen.add_argument("-o", "--out", help="write the document here instead "
                                         "of stdout")
    gen.set_defaults(func=_cmd_generate)

    bench = sub.add_parser("bench", help="time the sweeps on generated "
                                         "tables")
    bench.add_argument("--suite", help="JSON file with suite parameters")
    bench.add_argument("--columns", help="comma-separated column counts")
    bench.add_argument("--rules", help="comma-separated rule counts")
    bench.add_argument("--runs", type=int)
    bench.add_argument("--seed", type=int)
    bench.add_argument("--fraction", type=float,
                       help="fraction of rules to noise")
    bench.add_argument("--numeric-range", type=int)
    bench.add_argument("--arity", type=int)
    bench.add_argument("--format", choices=("text", "structured"),
                       default="text")
    bench.add_argument("-o", "--out", help="write the report here instead "
                                           "of stdout")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 after a usage error and 0 after --help.
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except DecisionTableError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
