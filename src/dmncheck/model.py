"""Decision-table model and the JSON interchange format.

A table couples typed input/output attributes (each with an optional
facet restricting its legal values) with an ordered list of rules, a
priority ranking, a completeness declaration (``c`` complete / ``i``
incomplete), and a hit policy (``u`` unique / ``a`` any / ``p``
priority / ``f`` first).

The interchange document is JSON::

    {
      "name": "Loan Grade",
      "hitPolicy": "U",
      "completeness": "C",
      "inputs":  [{"name": "Annual Income", "type": "real", "facet": ">=0"}],
      "outputs": [{"name": "Grade", "type": "string", "facet": "VG,G,F,P"}],
      "rules":   [{"id": "A", "in": ["[0..1000]"], "out": ["VG"]}]
    }

Rules may carry an optional integer ``priority``; larger rank means
higher priority.  When no rule declares one, ranks are derived from
display order with the first row ranked highest, which is what the
first-hit policy expects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Optional, Union

from .errors import (DecisionTableError, EvalError, SchemaError,
                     SFeelSyntaxError, SFeelTypeError, echo)
from .sfeel import (ANY, AnyValue, Condition, Kind, Match, format_literal,
                    is_finite_number, kind_of, lower_to_intervals,
                    parse_condition, render_condition, satisfies)

if TYPE_CHECKING:  # pragma: no cover
    from .analysis import TableGeometry

Literal = Union[bool, int, float, str]

# Diagnostic codes shared by structural validation and correctness checks.
FACET_INCOMPAT = "FACET_INCOMPAT"
OVERLAP = "OVERLAP"
OUTPUT_DISAGREEMENT = "OUTPUT_DISAGREEMENT"
MASKED_RULE = "MASKED_RULE"
MISSING_RULE = "MISSING_RULE"
COMPLETENESS_MISMATCH = "COMPLETENESS_MISMATCH"
PRIORITY_ERROR = "PRIORITY_ERROR"


@dataclass(frozen=True)
class Diagnostic:
    """One finding about a table, suitable for text or JSON reports."""

    severity: str  # "error" or "warning"
    code: str
    rule_ids: tuple[str, ...] = ()
    columns: tuple[str, ...] = ()
    detail: str = ""


@dataclass(frozen=True)
class Attribute:
    """A typed input or output column with a facet over its values."""

    name: str
    kind: Kind
    facet: Condition = ANY


@dataclass(frozen=True)
class Rule:
    """One row: a condition per input column, a literal per output."""

    id: str
    input_entries: tuple[Condition, ...]
    output_entries: tuple[Literal, ...]


@dataclass(frozen=True)
class DecisionTable:
    name: str
    inputs: tuple[Attribute, ...]
    outputs: tuple[Attribute, ...]
    rules: tuple[Rule, ...]
    priority: dict[str, int] = field(default_factory=dict)
    completeness: str = "c"  # "c" or "i"
    hit_policy: str = "u"  # "u", "a", "p", or "f"

    def input_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.inputs)

    @cached_property
    def geometry(self) -> "TableGeometry":
        """The table's geometry, built on first use.
        The table is frozen, so the cached value cannot go stale."""
        from .analysis import table_rects

        return table_rects(self)


_HIT_POLICIES = {"U": "u", "A": "a", "P": "p", "F": "f"}
_COMPLETENESS = {"C": "c", "I": "i"}


# What parsing one condition or literal can raise; re-raised with the
# cell's location.
_CONDITION_ERRORS = (SFeelSyntaxError, SFeelTypeError, EvalError)


def _located(exc: Exception, where: str):
    return type(exc)(f"{where}: {exc}")


def _parse_attribute(entry, index: int, role: str) -> Attribute:
    if not isinstance(entry, dict):
        raise SchemaError(f"{role} column {index} must be an object")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{role} column {index} needs a non-empty name")
    type_text = entry.get("type")
    try:
        kind = Kind(type_text)
    except ValueError:
        raise SchemaError(f"{role} column {echo(name)} has unknown type "
                          f"{echo(type_text)}") from None
    facet_text = entry.get("facet")
    if facet_text is None:
        return Attribute(name, kind)
    try:
        facet = parse_condition(facet_text, kind)
    except _CONDITION_ERRORS as exc:
        raise _located(exc, f"facet of {role} column {echo(name)}") from exc
    if kind.is_numeric and not lower_to_intervals(facet, kind):
        raise SchemaError(f"facet of {role} column {echo(name)} permits no "
                          f"value")
    return Attribute(name, kind, facet)


def _parse_cell(memo: dict, text, kind: Kind) -> Condition:
    """``parse_condition`` through a memo of one document's successful
    parses, so equal texts of one kind share one frozen Condition."""
    if not isinstance(text, str):
        return parse_condition(text, kind)  # raises: cells must be text
    key = (text, kind)
    cond = memo.get(key)
    if cond is None:
        cond = memo[key] = parse_condition(text, kind)
    return cond


def _parse_output_literal(text, attr: Attribute, memo: dict) -> Literal:
    """The literal of one output cell; errors name no location."""
    if isinstance(text, bool):
        value: Literal = text
    elif isinstance(text, (int, float)):
        if not is_finite_number(text):
            raise SFeelTypeError("output literal is not a finite number")
        # As in a text cell, an integer in a real column is a real.
        value = float(text) if attr.kind is Kind.REAL else text
    elif isinstance(text, str):
        cond = _parse_cell(memo, text, attr.kind)
        if not isinstance(cond, Match):
            raise SchemaError(f"output entry must be a single literal, got "
                              f"{echo(text)}")
        value = cond.value
    else:
        raise SchemaError("output entry must be a literal text")
    if kind_of(value) != attr.kind:
        raise SFeelTypeError(f"{kind_of(value).value} literal in "
                             f"{attr.kind.article} column")
    return value


def _parse_column(texts: tuple, parse) -> list:
    """Each cell of one column through ``parse``, called once per
    distinct text; equal texts share one result.  Other cells, which
    only outputs accept, are parsed one by one, since ``1``, ``1.0``
    and ``True`` are equal keys."""
    memo = {text: parse(text) for text in dict.fromkeys(texts)
            if type(text) is str}
    return [memo[text] if type(text) is str else parse(text)
            for text in texts]


def _parse_cells(rule_ids: list, inputs: tuple, in_rows: list,
                 outputs: tuple, out_rows: list) -> tuple[list, list]:
    """Each rule's input conditions and output literals, parsed column
    by column.  A bad cell raises with the location of the first one in
    row order."""
    parsed: dict[tuple[str, Kind], Condition] = {}
    try:
        entries = zip(*[
            _parse_column(texts, partial(_parse_cell, parsed, kind=a.kind))
            for a, texts in zip(inputs, zip(*in_rows))])
        out_values = zip(*[
            _parse_column(texts, partial(_parse_output_literal, attr=a,
                                         memo=parsed))
            for a, texts in zip(outputs, zip(*out_rows))])
        return list(entries), list(out_values)
    except _CONDITION_ERRORS + (SchemaError, TypeError):  # TypeError:
        # an unhashable cell.  Parse again cell by cell, in row order,
        # to name the first bad one.
        for rule_id, in_texts, out_texts in zip(rule_ids, in_rows,
                                                out_rows):
            for attr, text in zip(inputs, in_texts):
                try:
                    _parse_cell(parsed, text, attr.kind)
                except _CONDITION_ERRORS as exc:
                    raise _located(exc, f"rule {echo(rule_id)}, column "
                                        f"{echo(attr.name)}") from exc
            for attr, text in zip(outputs, out_texts):
                try:
                    _parse_output_literal(text, attr, parsed)
                except _CONDITION_ERRORS + (SchemaError,) as exc:
                    raise _located(
                        exc, f"rule {echo(rule_id)}, output column "
                             f"{echo(attr.name)}") from exc
        raise


def decode_json(text, what: str,
                error: type[DecisionTableError] = DecisionTableError):
    """Decode a JSON text, or raise ``error`` naming ``what``.

    Besides bad syntax, ``json.loads`` raises ValueError for an integer
    of more digits than ``int()`` takes and RecursionError for nesting
    deeper than the interpreter's recursion limit; all three become
    ``error``, chained to the decoder's exception.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what}: {exc}") from exc


def load_table(document) -> DecisionTable:
    """Build a DecisionTable from an interchange document.

    Accepts a JSON text or an already-decoded dict.  Schema problems
    raise SchemaError; condition problems re-raise the parser's error
    with a (rule id, column name) location prefix.

    The rule loop only checks each rule's shape.  Then each column's
    text cells are parsed once per distinct text, so equal cells of one
    column share one frozen Condition or output literal; behind the
    column memos, one memo per call parses each distinct (text, column
    kind) once.  The memos hold only successful parses and are dropped
    on return, so nothing is shared between documents.  A bad cell
    raises naming the first one in row order, and a schema error in a
    later rule comes after it.
    """
    if isinstance(document, (str, bytes)):
        document = decode_json(document, "document is not valid JSON",
                               SchemaError)
    if not isinstance(document, dict):
        raise SchemaError("document root must be an object")

    name = document.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError("table needs a non-empty name")

    hit_text = document.get("hitPolicy", "U")
    if not isinstance(hit_text, str) or hit_text not in _HIT_POLICIES:
        raise SchemaError(f"unknown hit policy {echo(hit_text)}")
    completeness_text = document.get("completeness", "C")
    if not isinstance(completeness_text, str) \
            or completeness_text not in _COMPLETENESS:
        raise SchemaError(
            f"unknown completeness flag {echo(completeness_text)}")

    raw_inputs = document.get("inputs")
    raw_outputs = document.get("outputs")
    if not isinstance(raw_inputs, list) or not raw_inputs:
        raise SchemaError("table needs at least one input column")
    if not isinstance(raw_outputs, list) or not raw_outputs:
        raise SchemaError("table needs at least one output column")
    inputs = tuple(_parse_attribute(e, i, "input")
                   for i, e in enumerate(raw_inputs))
    outputs = tuple(_parse_attribute(e, i, "output")
                    for i, e in enumerate(raw_outputs))
    names = [a.name for a in inputs + outputs]
    if len(set(names)) != len(names):
        raise SchemaError("column names must be unique across inputs "
                          "and outputs")

    raw_rules = document.get("rules")
    if not isinstance(raw_rules, list):
        raise SchemaError("rules must be a list")
    rule_ids: list[str] = []
    seen_ids: set[str] = set()
    in_rows: list[list] = []
    out_rows: list[list] = []
    explicit: dict[str, int] = {}
    try:
        for index, raw in enumerate(raw_rules):
            if not isinstance(raw, dict):
                raise SchemaError(f"rule {index} must be an object")
            rule_id = raw.get("id")
            if not isinstance(rule_id, str) or not rule_id:
                raise SchemaError(f"rule {index} needs a non-empty id")
            if rule_id in seen_ids:
                raise SchemaError(f"duplicate rule id {echo(rule_id)}")
            seen_ids.add(rule_id)
            in_texts = raw.get("in")
            out_texts = raw.get("out")
            if not isinstance(in_texts, list) \
                    or len(in_texts) != len(inputs):
                raise SchemaError(f"rule {echo(rule_id)} needs "
                                  f"{len(inputs)} input entries")
            if not isinstance(out_texts, list) \
                    or len(out_texts) != len(outputs):
                raise SchemaError(f"rule {echo(rule_id)} needs "
                                  f"{len(outputs)} output entries")
            rule_ids.append(rule_id)
            in_rows.append(in_texts)
            out_rows.append(out_texts)
            if "priority" in raw:
                rank = raw["priority"]
                if not isinstance(rank, int) or isinstance(rank, bool):
                    raise SchemaError(f"rule {echo(rule_id)} priority must "
                                      f"be an integer")
                explicit[rule_id] = rank
    except SchemaError:
        # A bad cell in an earlier row, or in this row before its
        # priority, comes first.
        _parse_cells(rule_ids, inputs, in_rows, outputs, out_rows)
        raise
    rules = list(map(Rule, rule_ids, *_parse_cells(
        rule_ids, inputs, in_rows, outputs, out_rows)))

    if explicit and len(explicit) != len(rules):
        raise SchemaError("either every rule or no rule may declare an "
                          "explicit priority")
    if explicit:
        priority = dict(explicit)
    else:
        # First display row gets the highest rank.
        count = len(rules)
        priority = {rule.id: count - i for i, rule in enumerate(rules)}

    return DecisionTable(
        name=name,
        inputs=inputs,
        outputs=outputs,
        rules=tuple(rules),
        priority=priority,
        completeness=_COMPLETENESS[completeness_text],
        hit_policy=_HIT_POLICIES[hit_text],
    )


def dump_table(table: DecisionTable) -> dict:
    """Interchange document for a table; inverse of load_table up to
    canonical condition rendering."""

    def attr_doc(attr: Attribute) -> dict:
        doc = {"name": attr.name, "type": attr.kind.value}
        if not isinstance(attr.facet, AnyValue):
            doc["facet"] = render_condition(attr.facet)
        return doc

    return {
        "name": table.name,
        "hitPolicy": table.hit_policy.upper(),
        "completeness": table.completeness.upper(),
        "inputs": [attr_doc(a) for a in table.inputs],
        "outputs": [attr_doc(a) for a in table.outputs],
        "rules": [
            {
                "id": rule.id,
                "priority": table.priority[rule.id],
                "in": [render_condition(c) for c in rule.input_entries],
                "out": [format_literal(v) for v in rule.output_entries],
            }
            for rule in table.rules
        ],
    }


def validate_structure(table: DecisionTable) -> list[Diagnostic]:
    """Structural diagnostics: facet-incompatible cells and broken
    priority rankings.

    An input cell is incompatible when no value satisfies both its
    condition and the column facet: its set in the table's geometry is
    empty.  Each column's empty set, if any, has one set id, so only the
    columns that hold one are walked.  Outputs are not geometry: an output cell is incompatible
    when its literal does not satisfy the facet, decided once per
    distinct (output column, literal) within one call.  Every literal
    of a loaded column has the column's kind, so equal keys mean equal
    literals.
    """
    geometry = table.geometry
    # Each input column that holds an empty set, with that set's id.
    empty = [(d, column_sets.index(()))
             for d, column_sets in enumerate(geometry.sets)
             if () in column_sets]
    violates: dict[tuple[int, Literal], bool] = {}
    diagnostics: list[Diagnostic] = []
    for rule in table.rules:
        for d, sid in empty:
            if geometry.set_ids_of[rule.id][d] == sid:
                attr, cond = table.inputs[d], rule.input_entries[d]
                diagnostics.append(Diagnostic(
                    severity="error",
                    code=FACET_INCOMPAT,
                    rule_ids=(rule.id,),
                    columns=(attr.name,),
                    detail=f"entry {render_condition(cond)!r} admits no value "
                           f"under facet "
                           f"{render_condition(attr.facet)!r}",
                ))
        for o, (attr, value) in enumerate(zip(table.outputs,
                                              rule.output_entries)):
            bad = violates.get((o, value))
            if bad is None:
                bad = violates[o, value] = not satisfies(attr.facet, value)
            if bad:
                diagnostics.append(Diagnostic(
                    severity="error",
                    code=FACET_INCOMPAT,
                    rule_ids=(rule.id,),
                    columns=(attr.name,),
                    detail=f"output {format_literal(value)!r} violates facet "
                           f"{render_condition(attr.facet)!r}",
                ))

    ranks = sorted(table.priority.get(rule.id) for rule in table.rules)
    if ranks != list(range(1, len(table.rules) + 1)):
        diagnostics.append(Diagnostic(
            severity="error",
            code=PRIORITY_ERROR,
            rule_ids=tuple(r.id for r in table.rules),
            detail=f"priority ranks must be a bijection onto "
                   f"1..{len(table.rules)}, got {ranks}",
        ))
    return diagnostics
