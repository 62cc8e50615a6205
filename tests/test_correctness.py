"""The whole-table verdict: structure, completeness biconditional, and
hit-policy conjuncts."""

import random

import pytest

from dmncheck import (COMPLETENESS_MISMATCH, MASKED_RULE, MISSING_RULE,
                      OUTPUT_DISAGREEMENT, OVERLAP, Outcome,
                      check_correct, evaluate, load_table, masked_by,
                      lower_to_intervals, parse_condition)
from dmncheck.analysis import build_grid
from dmncheck.intervals import canonical, intersect_sets

from conftest import (loan_doc, permuted_doc, random_table,
                      random_table_doc, region_contained, rule_boxes)


def one_column(rules, hit_policy="U", completeness="I", facet="[0..10]"):
    return load_table({
        "name": "t", "hitPolicy": hit_policy, "completeness": completeness,
        "inputs": [{"name": "x", "type": "integer", "facet": facet}],
        "outputs": [{"name": "y", "type": "string"}],
        "rules": rules,
    })


class TestReferenceTable:
    def test_incorrect_with_both_findings(self, table1):
        report = check_correct(table1)
        assert not report.correct
        codes = {d.code for d in report.all_diagnostics()}
        assert OVERLAP in codes
        assert COMPLETENESS_MISMATCH in codes
        assert MISSING_RULE in codes

    def test_verdict_fields(self, table1):
        report = check_correct(table1)
        assert report.completeness.declared == "c"
        assert report.completeness.actual is False
        assert len(report.completeness.missing) == 9
        assert not report.completeness.consistent()
        assert [g.sorted_ids() for g in report.overlap_groups] \
            == [("A", "C")]

    def test_every_diagnostic_has_a_location(self, table1):
        for diag in check_correct(table1).all_diagnostics():
            assert diag.rule_ids or diag.columns

    def test_missing_detail_is_a_candidate_row(self, table1):
        details = [d.detail for d in check_correct(table1).all_diagnostics()
                   if d.code == MISSING_RULE]
        assert any("Annual Income: [0..250), Loan Size: >1000" in d
                   for d in details)


class TestSingleRuleTable:
    def test_full_cover_correct(self, tiny_full_cover):
        report = check_correct(tiny_full_cover)
        assert report.correct
        assert report.all_diagnostics() == ()
        assert report.completeness.consistent()


class TestCompletenessBiconditional:
    def test_declared_complete_with_gap(self):
        table = one_column(
            [{"id": "r", "in": ["[0..4]"], "out": ["a"]}],
            completeness="C")
        report = check_correct(table)
        assert not report.correct
        codes = [d.code for d in report.completeness_diagnostics]
        assert codes.count(COMPLETENESS_MISMATCH) == 1
        assert all(d.severity == "error"
                   for d in report.completeness_diagnostics)

    def test_declared_incomplete_but_complete(self):
        # two identical full-cover rules with identical outputs under
        # "any": the only defect is the completeness declaration
        table = one_column(
            [{"id": "p", "in": ["-"], "out": ["a"]},
             {"id": "q", "in": ["-"], "out": ["a"]}],
            hit_policy="A", completeness="I")
        report = check_correct(table)
        assert not report.correct
        assert [d.code for d in report.all_diagnostics()] \
            == [COMPLETENESS_MISMATCH]
        assert not report.hit_policy_diagnostics
        assert report.completeness.declared == "i"
        assert report.completeness.actual is True

    def test_declared_incomplete_with_gap_is_fine(self):
        table = one_column(
            [{"id": "r", "in": ["[0..4]"], "out": ["a"]}],
            completeness="I")
        report = check_correct(table)
        assert report.correct
        assert all(d.severity == "warning"
                   for d in report.completeness_diagnostics)


class TestHitPolicyConjuncts:
    def test_unique_overlap_is_error(self):
        table = one_column(
            [{"id": "p", "in": ["[0..6]"], "out": ["a"]},
             {"id": "q", "in": ["[4..10]"], "out": ["b"]}],
            hit_policy="U", completeness="C")
        report = check_correct(table)
        assert not report.correct
        diags = [d for d in report.hit_policy_diagnostics
                 if d.code == OVERLAP]
        assert len(diags) == 1 and diags[0].rule_ids == ("p", "q")

    def test_any_disagreement_is_error(self):
        table = one_column(
            [{"id": "p", "in": ["[0..6]"], "out": ["a"]},
             {"id": "q", "in": ["[4..10]"], "out": ["b"]}],
            hit_policy="A", completeness="C")
        report = check_correct(table)
        assert not report.correct
        assert [d.code for d in report.hit_policy_diagnostics] \
            == [OUTPUT_DISAGREEMENT]

    def test_any_agreement_is_clean(self):
        table = one_column(
            [{"id": "p", "in": ["[0..6]"], "out": ["a"]},
             {"id": "q", "in": ["[4..10]"], "out": ["a"]}],
            hit_policy="A", completeness="C")
        report = check_correct(table)
        assert report.correct
        assert not report.hit_policy_diagnostics
        assert len(report.overlap_groups) == 1

    def test_priority_overlap_tolerated(self):
        table = one_column(
            [{"id": "p", "in": ["[0..6]"], "out": ["a"], "priority": 2},
             {"id": "q", "in": ["[4..10]"], "out": ["b"], "priority": 1}],
            hit_policy="P", completeness="C")
        report = check_correct(table)
        assert report.correct
        assert not report.hit_policy_diagnostics

    def test_priority_masked_rule_is_error(self):
        table = one_column(
            [{"id": "wide", "in": ["-"], "out": ["a"], "priority": 3},
             {"id": "inner", "in": ["[2..5]"], "out": ["b"],
              "priority": 1},
             {"id": "inner2", "in": ["[3..4]"], "out": ["c"],
              "priority": 2}],
            hit_policy="P", completeness="C")
        report = check_correct(table)
        assert not report.correct
        masked = {d.rule_ids for d in report.hit_policy_diagnostics
                  if d.code == MASKED_RULE}
        # every masking pair, not just one per shadowed rule
        assert masked == {("inner", "wide"), ("inner2", "wide")}

    def test_masking_not_checked_for_unique(self):
        table = one_column(
            [{"id": "wide", "in": ["-"], "out": ["a"]},
             {"id": "inner", "in": ["[2..5]"], "out": ["b"]}],
            hit_policy="U", completeness="C")
        report = check_correct(table)
        codes = {d.code for d in report.hit_policy_diagnostics}
        assert MASKED_RULE not in codes
        assert OVERLAP in codes


class TestOnlySelection:
    def test_overlap_only_skips_completeness(self, table1):
        report = check_correct(table1, only="overlap")
        assert report.completeness is None
        assert report.missing_regions == ()
        assert report.completeness_diagnostics == ()
        assert len(report.overlap_groups) == 1
        assert not report.correct  # the overlap alone sinks it

    def test_missing_only_skips_policy(self, table1):
        report = check_correct(table1, only="missing")
        assert report.overlap_groups == ()
        assert report.hit_policy_diagnostics == ()
        assert len(report.missing_regions) == 9
        assert not report.correct

    def test_unknown_selection(self, table1):
        with pytest.raises(ValueError):
            check_correct(table1, only="everything")


def test_removing_masked_rule_never_changes_results():
    table = one_column(
        [{"id": "wide", "in": ["[0..8]"], "out": ["a"], "priority": 2},
         {"id": "inner", "in": ["[2..5]"], "out": ["b"], "priority": 1},
         {"id": "edge", "in": ["[9..10]"], "out": ["c"], "priority": 3}],
        hit_policy="P", completeness="C")
    report = check_correct(table)
    assert {d.rule_ids for d in report.hit_policy_diagnostics} \
        == {("inner", "wide")}
    without = one_column(
        [{"id": "wide", "in": ["[0..8]"], "out": ["a"], "priority": 2},
         {"id": "edge", "in": ["[9..10]"], "out": ["c"], "priority": 3}],
        hit_policy="P", completeness="C")
    grid = build_grid(table)
    for piece, rep in zip(grid.pieces[0], grid.reps[0]):
        if not isinstance(rep, int):
            continue
        a = evaluate(table, {"x": rep})
        b = evaluate(without, {"x": rep})
        assert a.outcome == b.outcome
        assert a.outputs == b.outputs


def test_report_pure_and_deterministic(table1):
    first = check_correct(table1)
    second = check_correct(table1)
    assert first.all_diagnostics() == second.all_diagnostics()
    assert first.overlap_groups == second.overlap_groups
    assert first.completeness == second.completeness


def _all_pairs_masked(table):
    """The masked-rule check over every ordered rule pair, decided on
    the endpoint grid."""
    geometry = table.geometry
    return [(low.id, high.id)
            for low in table.rules for high in table.rules
            if table.priority[high.id] > table.priority[low.id]
            and region_contained(rule_boxes(geometry, low.id),
                                 rule_boxes(geometry, high.id),
                                 geometry.discrete)]


def test_masked_check_matches_all_pairs_oracle():
    rng = random.Random(828282)
    with_empty = 0
    for _ in range(300):
        doc = random_table_doc(rng, max_rules=10,
                               hit_policy=rng.choice("PF"))
        if doc["hitPolicy"] == "P" and rng.random() < 0.5:
            doc = permuted_doc(doc, rng)
        table = load_table(doc)
        with_empty += any(not all(sets)
                          for sets in table.geometry.columns_of.values())
        expected = _all_pairs_masked(table)
        for low in table.rules:
            for high in table.rules:
                assert masked_by(low, high, table) \
                    == ((low.id, high.id) in expected)
        report = check_correct(table)
        assert [d.rule_ids for d in report.hit_policy_diagnostics
                if d.code == MASKED_RULE] == expected
    assert with_empty >= 30


def test_findings_paste_back_as_rows():
    """Every condition text of a missing region or an overlap witness,
    parsed under its column's kind, covers exactly the box's interval
    within the column's legal values, so the texts form a pasteable row."""
    rng = random.Random(424242)
    checked = 0
    for _ in range(300):
        table = random_table(rng)
        geometry = table.geometry
        report = check_correct(table)
        found = ([(r.box, r.conditions) for r in report.missing_regions]
                 + [(g.witness, g.conditions)
                    for g in report.overlap_groups])
        for box, conditions in found:
            for d, (attr, text) in enumerate(zip(table.inputs, conditions)):
                universe = geometry.universe[d]
                pasted = lower_to_intervals(
                    parse_condition(text, attr.kind), attr.kind,
                    geometry.codes[d])
                assert intersect_sets(pasted, universe) == intersect_sets(
                    canonical([box[d]], geometry.discrete[d]), universe), \
                    (attr.name, text, box[d])
                checked += 1
    assert checked > 1000
