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
  check reuses the overlap groups: it tests only pairs of rules that
  share a group, plus every pair whose lower rule admits no input.

Each diagnostic names the rules or columns involved and carries the
offending region rendered as condition texts, so a missing-rule finding
can be pasted back into the table as a new row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

# render_box is not called here any more, but perfbench's tracer test
# looks the name up in this module, so the binding stays until that
# test is re-recorded.
from .analysis import (MissingRegion, OverlapGroup, find_missing_rules,
                       find_overlapping_rules, render_box)  # noqa: F401
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


def _witness_text(table: DecisionTable, group: OverlapGroup) -> str:
    return ", ".join(f"{attr.name}: {text}"
                     for attr, text in zip(table.inputs, group.conditions))


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
        where = _witness_text(table, group)
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

    A non-empty rule inside another overlaps it, so the two share some
    maximal overlap group; a rule with an empty cell lies inside every
    rule.  Only those pairs need the containment test.
    """
    rules = table.rules
    index = {rule.id: i for i, rule in enumerate(rules)}
    pairs: set[tuple[int, int]] = set()
    for group in groups:
        pairs.update(permutations([index[rid] for rid in group.rule_ids],
                                  2))
    for rid in {rid for rid, _ in table.geometry.empty_cells}:
        low = index[rid]
        pairs.update((low, high) for high in range(len(rules))
                     if high != low)
    out = []
    for i, j in sorted(pairs):
        low, high = rules[i], rules[j]
        if table.priority[high.id] <= table.priority[low.id]:
            continue
        if masked_by(low, high, table):
            out.append(Diagnostic(
                "error", MASKED_RULE, rule_ids=(low.id, high.id),
                detail=f"rule {low.id} can never win: rule {high.id} "
                       "has higher priority and covers it"))
    return out


def check_correct(table: DecisionTable,
                  only: str = "all") -> CorrectnessReport:
    """Run the checks; ``correct`` is True only when nothing is wrong.

    ``only`` narrows the expensive part: "overlap" skips the missing
    sweep and the completeness comparison, "missing" skips the overlap
    sweep and the policy checks built on it.  A skipped check cannot
    fail, so ``correct`` then reflects only what actually ran.
    """
    if only not in ("all", "overlap", "missing"):
        raise ValueError(f"unknown check selection {only!r}")
    facet = tuple(validate_structure(table))
    groups = find_overlapping_rules(table) if only != "missing" else []

    input_names = tuple(attr.name for attr in table.inputs)
    verdict: CompletenessVerdict | None = None
    completeness: list[Diagnostic] = []
    if only != "overlap":
        missing = find_missing_rules(table)
        verdict = CompletenessVerdict(
            declared=table.completeness,
            actual=not missing,
            missing=tuple(missing))
        declared_complete = table.completeness == "c"
        severity = "error" if declared_complete else "warning"
        for region in missing:
            completeness.append(Diagnostic(
                severity, MISSING_RULE, columns=input_names,
                detail="no rule covers " + ", ".join(
                    f"{attr.name}: {text}" for attr, text in
                    zip(table.inputs, region.conditions))))
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
