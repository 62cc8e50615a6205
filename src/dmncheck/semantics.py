"""Decision table evaluation under the four single-hit policies.

A value matches a cell when it is legal for the column (satisfies the
facet) and satisfies the cell's condition.  A rule is triggered by an
input configuration when every input cell matches.  The hit policy
then determines the verdict:

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
from .model import Attribute, DecisionTable, Rule
from .sfeel import Condition, Kind, is_finite_number, kind_of, satisfies
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


def _check_config(table: DecisionTable, config: dict) -> dict:
    clean = {}
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
        clean[attr.name] = value
    extra = set(config) - {attr.name for attr in table.inputs}
    if extra:
        raise SchemaError(f"unknown input columns: {echo(sorted(extra))}")
    return clean


def matches_value(attr: Attribute, cond: Condition, value) -> bool:
    """Legal-and-satisfies: the value meets both the column facet and
    the cell condition."""
    return (satisfies(attr.facet, value, attr.kind)
            and satisfies(cond, value, attr.kind))


def triggered_by(rule: Rule, table: DecisionTable, config: dict) -> bool:
    """True when every input cell of the rule matches the configuration."""
    clean = _check_config(table, config)
    return all(matches_value(attr, cond, clean[attr.name])
               for attr, cond in zip(table.inputs, rule.input_entries))


def _triggered_rules(table: DecisionTable, clean: dict) -> list[Rule]:
    hits = []
    for rule in table.rules:
        if all(matches_value(attr, cond, clean[attr.name])
               for attr, cond in zip(table.inputs, rule.input_entries)):
            hits.append(rule)
    return hits


def _outputs_of(table: DecisionTable, rule: Rule) -> dict:
    return {attr.name: value
            for attr, value in zip(table.outputs, rule.output_entries)}


def evaluate(table: DecisionTable, config: dict) -> EvalResult:
    """Apply the table to one input configuration."""
    clean = _check_config(table, config)
    hits = _triggered_rules(table, clean)
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
        first = _outputs_of(table, hits[0])
        for other in hits[1:]:
            if _outputs_of(table, other) != first:
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
    return EvalResult(Outcome.MATCHED, rule=winner,
                      outputs=_outputs_of(table, winner), triggered=ids)


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
