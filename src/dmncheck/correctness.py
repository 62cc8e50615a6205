"""Whole-table correctness verdicts.

A table is correct when three independent checks all come back clean:

* structure: every rule condition fits its column facet and explicit
  priorities form a permutation;
* completeness: the declared flag matches the actual coverage in both
  directions, so a complete table leaves no gaps and an incomplete one
  really has some;
* hit policy: no input can trigger a violation.  Unique forbids any
  overlap, any forbids overlaps that disagree on outputs, and priority
  or first tolerate overlaps but reject rules that can never win
  because a higher-priority rule covers them entirely.  That masking
  check reuses the overlap groups: it tests each rule against the
  members of one group that holds it, and a rule that admits no input
  against every rule.

Each diagnostic names the rules or columns involved and carries the
offending region rendered as condition texts, so a missing-rule finding
can be pasted back into the table as a new row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# render_box is not called here any more, but perfbench's tracer test
# looks the name up in this module, so the binding stays until that
# test is re-recorded.
from .analysis import (MissingRegion, OverlapGroup, render_box,  # noqa: F401
                       sweep_table)
from .model import (COMPLETENESS_MISMATCH, MASKED_RULE, MISSING_RULE,
                    OUTPUT_DISAGREEMENT, OVERLAP, DecisionTable, Diagnostic,
                    validate_structure)
from .semantics import masked_by


@dataclass(frozen=True)
class CompletenessVerdict:
    """Declared completeness flag vs. what the sweep actually found."""

    declared: str
    actual: bool
    missing: tuple[MissingRegion, ...]

    def consistent(self) -> bool:
        return (self.declared == "c") == self.actual


@dataclass(frozen=True)
class CorrectnessReport:
    table: str
    facet_diagnostics: tuple[Diagnostic, ...]
    completeness: CompletenessVerdict | None
    completeness_diagnostics: tuple[Diagnostic, ...]
    overlap_groups: tuple[OverlapGroup, ...]
    hit_policy_diagnostics: tuple[Diagnostic, ...]
    correct: bool

    @property
    def missing_regions(self) -> tuple[MissingRegion, ...]:
        return self.completeness.missing if self.completeness else ()

    def all_diagnostics(self) -> tuple[Diagnostic, ...]:
        return (self.facet_diagnostics + self.completeness_diagnostics
                + self.hit_policy_diagnostics)


def located_conditions(table: DecisionTable,
                       conditions: Sequence[str]) -> str:
    """``name: text`` for each input column, comma-separated."""
    return ", ".join(f"{name}: {text}"
                     for name, text in zip(table.input_names(), conditions))


def _overlap_diagnostics(table: DecisionTable,
                         groups: list[OverlapGroup]) -> list[Diagnostic]:
    """Violations the hit policy cannot absorb.

    Priority-style policies resolve overlaps by rank, so groups alone
    are no defect there and produce nothing here.
    """
    out = []
    policy = table.hit_policy
    outputs_of = {rule.id: rule.output_entries for rule in table.rules}
    for group in groups:
        ids = group.sorted_ids()
        listing = ", ".join(ids)
        where = located_conditions(table, group.conditions)
        if policy == "u":
            out.append(Diagnostic(
                "error", OVERLAP, rule_ids=ids,
                detail=f"rules {listing} overlap under the unique policy "
                       f"at {where}"))
        elif policy == "a":
            outputs = {outputs_of[rid] for rid in ids}
            if len(outputs) > 1:
                out.append(Diagnostic(
                    "error", OUTPUT_DISAGREEMENT, rule_ids=ids,
                    detail=f"overlapping rules {listing} disagree on "
                           f"outputs at {where}"))
    return out


def _masked_diagnostics(table: DecisionTable,
                        groups: list[OverlapGroup]) -> list[Diagnostic]:
    """One violation per ordered pair (shadowed, shadowing), ordered by
    the shadowed rule and then the shadowing one, both in table order.

    A non-empty rule inside another shares each of its points with it,
    so every maximal overlap group that holds the first rule also holds
    the second: the first group that holds a rule lists every rule that
    can cover it.  A rule with an empty cell lies inside every rule.
    """
    rules = table.rules
    index = {rule.id: i for i, rule in enumerate(rules)}
    group_of: dict[str, frozenset[str]] = {}
    for group in groups:
        for rid in group.rule_ids:
            group_of.setdefault(rid, group.rule_ids)
    columns_of = table.geometry.columns_of
    out = []
    for low in rules:
        if all(columns_of[low.id]):
            highs = [rules[i] for i in sorted(
                index[rid] for rid in group_of.get(low.id, ()))]
        else:
            highs = rules
        out += [Diagnostic(
                    "error", MASKED_RULE, rule_ids=(low.id, high.id),
                    detail=f"rule {low.id} can never win: rule {high.id} "
                           "has higher priority and covers it")
                for high in highs if masked_by(low, high, table)]
    return out


def check_correct(table: DecisionTable,
                  only: str = "all") -> CorrectnessReport:
    """Run the checks; ``correct`` is True only when nothing is wrong.

    ``only`` narrows the expensive part.  "all" finds the overlap groups
    and the missing regions in one sweep of the table.  "overlap" sweeps
    for overlaps alone and skips the completeness comparison; "missing"
    sweeps for gaps alone and skips the policy checks built on the
    overlap groups.  A skipped check cannot fail, so ``correct`` then
    reflects only what actually ran.
    """
    if only not in ("all", "overlap", "missing"):
        raise ValueError(f"unknown check selection {only!r}")
    facet = tuple(validate_structure(table))
    groups, missing = sweep_table(table, only)

    input_names = table.input_names()
    verdict: CompletenessVerdict | None = None
    completeness: list[Diagnostic] = []
    if only != "overlap":
        verdict = CompletenessVerdict(
            declared=table.completeness,
            actual=not missing,
            missing=tuple(missing))
        declared_complete = table.completeness == "c"
        severity = "error" if declared_complete else "warning"
        for region in missing:
            completeness.append(Diagnostic(
                severity, MISSING_RULE, columns=input_names,
                detail="no rule covers "
                       + located_conditions(table, region.conditions)))
        if missing and declared_complete:
            completeness.append(Diagnostic(
                "error", COMPLETENESS_MISMATCH, columns=input_names,
                detail=f"table is declared complete but leaves "
                       f"{len(missing)} region(s) uncovered"))
        elif not missing and not declared_complete:
            completeness.append(Diagnostic(
                "error", COMPLETENESS_MISMATCH, columns=input_names,
                detail="table is declared incomplete but covers every "
                       "legal input"))

    policy: list[Diagnostic] = []
    if only != "missing":
        policy.extend(_overlap_diagnostics(table, groups))
        if table.hit_policy in ("p", "f"):
            policy.extend(_masked_diagnostics(table, groups))

    correct = (not facet
               and (verdict is None or verdict.consistent())
               and not policy)
    return CorrectnessReport(
        table=table.name,
        facet_diagnostics=facet,
        completeness=verdict,
        completeness_diagnostics=tuple(completeness),
        overlap_groups=tuple(groups),
        hit_policy_diagnostics=tuple(policy),
        correct=correct)
