"""Decision table evaluation under the four single-hit policies.

A value matches a cell when it is legal for the column (satisfies the
facet) and satisfies the cell's condition.  Each input is checked once
per call, before any rule's cells are tested: its presence, its kind,
its range (a real column takes finite numbers only) and its column
facet.  A value outside its facet triggers no rule.  A rule is then
triggered when its own cells all hold the checked values.  The hit
policy determines the verdict:

* unique: at most one rule may trigger; two triggered rules are a fault.
* any: several rules may trigger only if they agree on every output.
* priority: the triggered rule with the highest priority rank wins.
* first: the triggered rule given first in the table wins, which is the
  priority policy under the implicit top-to-bottom ranking.

Evaluation reports faults instead of picking an arbitrary winner: a
unique-policy table with two triggered rules yields a violation, not a
result.  ``masked_by`` decides whether one rule can never win because
a higher-priority rule covers its whole region, by testing containment
column by column on the rules' canonical column sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import SchemaError, SFeelTypeError, echo
from .model import DecisionTable, Rule
from .sfeel import Kind, is_finite_number, kind_of, satisfies
from .analysis import columns_contained


class Outcome(Enum):
    """How an evaluation ended."""

    MATCHED = "matched"
    NO_MATCH = "no-match"
    VIOLATION = "violation"


@dataclass(frozen=True)
class EvalResult:
    outcome: Outcome
    rule: Optional[Rule] = None
    outputs: dict = field(default_factory=dict)
    triggered: tuple[str, ...] = ()
    detail: str = ""


def _point(table: DecisionTable, config: dict) -> Optional[tuple]:
    """The configuration's values in input-column order, or None when
    some value lies outside its column facet, where no rule fires."""
    values = []
    for attr in table.inputs:
        if attr.name not in config:
            raise SchemaError(f"missing input value for {echo(attr.name)}")
        value = config[attr.name]
        got = kind_of(value)
        # Integral literals are legal real values.
        if got is not attr.kind and not (attr.kind is Kind.REAL
                                         and got is Kind.INTEGER):
            raise SFeelTypeError(
                f"input {echo(attr.name)} expects {attr.kind.value}, "
                f"got {got.value}")
        if attr.kind is Kind.REAL:
            # No rule region holds NaN, an infinity or a number beyond
            # float range, so the evaluator must not match them either.
            if not is_finite_number(value):
                raise SFeelTypeError(
                    f"input {echo(attr.name)} must be a finite number within "
                    f"float range")
            value = float(value)
        values.append(value)
    extra = set(config) - {attr.name for attr in table.inputs}
    if extra:
        raise SchemaError(f"unknown input columns: {echo(sorted(extra))}")
    if all(satisfies(attr.facet, value)
           for attr, value in zip(table.inputs, values)):
        return tuple(values)
    return None


def _fires(rule: Rule, point: tuple) -> bool:
    return all(satisfies(cond, value)
               for cond, value in zip(rule.input_entries, point))


def triggered_by(rule: Rule, table: DecisionTable, config: dict) -> bool:
    """True when every input cell of the rule matches the configuration."""
    point = _point(table, config)
    return point is not None and _fires(rule, point)


def evaluate(table: DecisionTable, config: dict) -> EvalResult:
    """Apply the table to one input configuration."""
    point = _point(table, config)
    hits = ([] if point is None
            else [rule for rule in table.rules if _fires(rule, point)])
    ids = tuple(rule.id for rule in hits)
    if not hits:
        return EvalResult(Outcome.NO_MATCH, triggered=ids,
                          detail="no rule matches")
    policy = table.hit_policy
    if policy == "u":
        if len(hits) > 1:
            return EvalResult(
                Outcome.VIOLATION, triggered=ids,
                detail="unique hit policy, but rules "
                       + ", ".join(sorted(ids)) + " all match")
        winner = hits[0]
    elif policy == "a":
        if any(other.output_entries != hits[0].output_entries
               for other in hits[1:]):
            return EvalResult(
                Outcome.VIOLATION, triggered=ids,
                detail="any hit policy, but rules "
                       + ", ".join(sorted(ids))
                       + " disagree on outputs")
        winner = hits[0]
    elif policy in ("p", "f"):
        # First is priority under the implicit ranking, which load_table
        # already assigned; both reduce to the highest rank.
        winner = max(hits, key=lambda rule: table.priority[rule.id])
    else:  # pragma: no cover - load_table rejects other policies
        raise SchemaError(f"unsupported hit policy '{policy}'")
    outputs = {attr.name: value
               for attr, value in zip(table.outputs, winner.output_entries)}
    return EvalResult(Outcome.MATCHED, rule=winner, outputs=outputs,
                      triggered=ids)


def masked_by(r1: Rule, r2: Rule, table: DecisionTable) -> bool:
    """True when ``r1`` can never win under the priority policy because
    ``r2`` outranks it and covers its whole region.

    A rule's region is the product of its ``entry ∩ facet`` sets, one
    per input column, so containment is decided column by column.  A
    rule with an empty cell admits no input and is covered by every
    rule that outranks it.
    """
    if table.priority[r2.id] <= table.priority[r1.id]:
        return False
    columns_of = table.geometry.columns_of
    return columns_contained(columns_of[r1.id], columns_of[r2.id])
