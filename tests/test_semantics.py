"""Matching, triggering, hit-policy evaluation, and masking."""

import random

import pytest

import dmncheck.semantics
from dmncheck import (CodecError, Outcome, SchemaError, SFeelTypeError,
                      encode_point, evaluate, load_table, masked_by,
                      triggered_by)
from dmncheck.sfeel import Kind

from conftest import (CATS, loan_doc, permuted_doc, random_input,
                      random_table, random_table_doc, rule_boxes)


def income_table(entry):
    """One real column with the facet ``>=0`` and one rule ``entry``."""
    return load_table({
        "name": "income", "hitPolicy": "U", "completeness": "I",
        "inputs": [{"name": "Annual Income", "type": "real",
                    "facet": ">=0"}],
        "outputs": [{"name": "y", "type": "boolean"}],
        "rules": [{"id": "r", "in": [entry], "out": ["true"]}],
    })


def fires(table, value):
    return triggered_by(table.rules[0], table, {"Annual Income": value})


class TestMatchesValue:
    def test_inside_entry_and_facet(self):
        assert fires(income_table("[250..750]"), 500.0)

    def test_facet_excludes_even_under_any(self):
        assert not fires(income_table("-"), -5.0)

    def test_closed_upper_bound(self):
        table = income_table("[250..750]")
        assert fires(table, 750.0)
        assert not fires(table, 751.0)


class TestTriggeredBy:
    def test_reference_pairs(self, table1):
        config = {"Annual Income": 500, "Loan Size": 4230}
        rules = {r.id: r for r in table1.rules}
        assert triggered_by(rules["B"], table1, config)
        assert not triggered_by(rules["A"], table1, config)

    def test_uncovered_point_triggers_nothing(self, table1):
        config = {"Annual Income": 200, "Loan Size": 2000}
        assert not any(triggered_by(rule, table1, config)
                       for rule in table1.rules)

    def test_incomplete_config_rejected(self, table1):
        with pytest.raises(SchemaError):
            triggered_by(table1.rules[0], table1, {"Annual Income": 500})

    def test_wrong_kind_rejected(self, table1):
        from dmncheck import SFeelTypeError
        with pytest.raises(SFeelTypeError):
            triggered_by(table1.rules[0], table1,
                         {"Annual Income": "lots", "Loan Size": 10})


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), 10 ** 400],
                             ids=["nan", "inf", "-inf", "huge"])
    def test_rejected(self, table1, value):
        with pytest.raises(SFeelTypeError):
            evaluate(table1, {"Annual Income": value, "Loan Size": 10})

    def test_large_finite_integer_accepted(self, table1):
        result = evaluate(table1, {"Annual Income": 10 ** 300,
                                   "Loan Size": 10})
        assert result.outcome is Outcome.NO_MATCH


class TestEvaluate:
    def test_unique_match(self, table1):
        result = evaluate(table1, {"Annual Income": 500,
                                   "Loan Size": 4230})
        assert result.outcome is Outcome.MATCHED
        assert result.rule.id == "B"
        assert result.outputs == {"Grade": "G"}
        assert result.triggered == ("B",)

    def test_no_match(self, table1):
        result = evaluate(table1, {"Annual Income": 200,
                                   "Loan Size": 2000})
        assert result.outcome is Outcome.NO_MATCH
        assert result.triggered == ()
        assert result.rule is None

    def test_unique_violation(self, table1):
        result = evaluate(table1, {"Annual Income": 600, "Loan Size": 600})
        assert result.outcome is Outcome.VIOLATION
        assert result.triggered == ("A", "C")

    def test_first_hit_takes_top_row(self, table1_doc):
        table1_doc["hitPolicy"] = "F"
        table = load_table(table1_doc)
        result = evaluate(table, {"Annual Income": 600, "Loan Size": 600})
        assert result.outcome is Outcome.MATCHED
        assert result.rule.id == "A"
        assert result.outputs == {"Grade": "VG"}
        assert result.triggered == ("A", "C")

    def test_priority_hit_takes_max_rank(self, table1_doc):
        table1_doc["hitPolicy"] = "P"
        ranks = {"A": 1, "B": 2, "C": 4, "D": 3}
        for rule in table1_doc["rules"]:
            rule["priority"] = ranks[rule["id"]]
        table = load_table(table1_doc)
        result = evaluate(table, {"Annual Income": 600, "Loan Size": 600})
        assert result.rule.id == "C"

    def test_any_agreeing_outputs(self, table1_doc):
        table1_doc["hitPolicy"] = "A"
        for rule in table1_doc["rules"]:
            rule["out"] = ["F"]
        table = load_table(table1_doc)
        result = evaluate(table, {"Annual Income": 600, "Loan Size": 600})
        assert result.outcome is Outcome.MATCHED
        assert result.outputs == {"Grade": "F"}

    def test_any_disagreeing_outputs(self, table1_doc):
        table1_doc["hitPolicy"] = "A"
        table = load_table(table1_doc)
        result = evaluate(table, {"Annual Income": 600, "Loan Size": 600})
        assert result.outcome is Outcome.VIOLATION


def test_each_facet_is_tested_once_per_evaluate(monkeypatch):
    # No cell repeats a facet text, so no cell shares a facet's parsed
    # condition and an identity test tells facet calls apart.
    table = load_table({
        "name": "f", "hitPolicy": "F", "completeness": "I",
        "inputs": [{"name": "x", "type": "integer", "facet": "[0..100]"},
                   {"name": "c", "type": "string", "facet": "a,b,c"}],
        "outputs": [{"name": "y", "type": "integer"}],
        "rules": [{"id": f"r{i}", "in": [entry, cat], "out": [str(i)]}
                  for i, (entry, cat) in enumerate([
                      ("[0..10]", "a"), (">=5", "-"), ("-", "not(c)"),
                      ("[20..30]", "a,b")])],
    })
    facets = [attr.facet for attr in table.inputs]
    calls = [0] * len(facets)
    satisfies = dmncheck.semantics.satisfies

    def counting(cond, value):
        for i, facet in enumerate(facets):
            calls[i] += cond is facet
        return satisfies(cond, value)

    monkeypatch.setattr(dmncheck.semantics, "satisfies", counting)
    result = evaluate(table, {"x": 7, "c": "a"})
    assert result.triggered == ("r0", "r1", "r2")
    assert calls == [1, 1]


class TestMaskedBy:
    def one_column(self, hit_policy="P"):
        return load_table({
            "name": "m", "hitPolicy": hit_policy, "completeness": "I",
            "inputs": [{"name": "x", "type": "integer",
                        "facet": "[0..10]"}],
            "outputs": [{"name": "y", "type": "string"}],
            "rules": [
                {"id": "lo", "in": ["[2..3]"], "out": ["a"],
                 "priority": 1},
                {"id": "hi", "in": ["[0..10]"], "out": ["b"],
                 "priority": 2},
            ],
        })

    def test_containment_with_higher_priority(self):
        table = self.one_column()
        rules = {r.id: r for r in table.rules}
        lo, hi = rules["lo"], rules["hi"]
        assert masked_by(lo, hi, table)

    def test_priority_direction(self):
        table = self.one_column()
        rules = {r.id: r for r in table.rules}
        lo, hi = rules["lo"], rules["hi"]
        assert not masked_by(hi, lo, table)

    def test_identical_entries_lower_priority_no_mask(self):
        doc = {
            "name": "m", "hitPolicy": "P", "completeness": "I",
            "inputs": [{"name": "x", "type": "integer",
                        "facet": "[0..10]"}],
            "outputs": [{"name": "y", "type": "string"}],
            "rules": [
                {"id": "p", "in": ["[2..3]"], "out": ["a"], "priority": 2},
                {"id": "q", "in": ["[2..3]"], "out": ["b"], "priority": 1},
            ],
        }
        table = load_table(doc)
        rules = {r.id: r for r in table.rules}
        assert masked_by(rules["q"], rules["p"], table)
        assert not masked_by(rules["p"], rules["q"], table)

    def test_reference_a_not_masked_by_c(self, table1):
        # [0..1000] is not contained in [500..1500]
        rules = {r.id: r for r in table1.rules}
        a, c = rules["A"], rules["C"]
        assert not masked_by(a, c, table1)
        assert not masked_by(c, a, table1)

    def test_multi_rect_containment(self):
        # r1's single block is covered by r2's two disjoint blocks
        table = load_table({
            "name": "m", "hitPolicy": "P", "completeness": "I",
            "inputs": [{"name": "x", "type": "integer",
                        "facet": "[0..10]"}],
            "outputs": [{"name": "y", "type": "string"}],
            "rules": [
                {"id": "r1", "in": ["[2..6]"], "out": ["a"],
                 "priority": 1},
                {"id": "r2", "in": ["[0..4],[5..8]"], "out": ["b"],
                 "priority": 2},
            ],
        })
        rules = {r.id: r for r in table.rules}
        assert masked_by(rules["r1"], rules["r2"], table)


# --- property tests --------------------------------------------------------


def test_unique_violation_iff_two_trigger():
    rng = random.Random(99)
    for _ in range(120):
        doc = random_table_doc(rng, hit_policy="U")
        table = load_table(doc)
        config = random_input(rng, table)
        result = evaluate(table, config)
        triggered = [rule.id for rule in table.rules
                     if triggered_by(rule, table, config)]
        assert result.triggered == tuple(triggered)
        assert (result.outcome is Outcome.VIOLATION) \
            == (len(triggered) >= 2)
        if len(triggered) == 1:
            assert result.rule.id == triggered[0]
        if not triggered:
            assert result.outcome is Outcome.NO_MATCH


def test_any_never_violates_on_shared_outputs():
    rng = random.Random(7)
    for _ in range(80):
        doc = random_table_doc(rng, hit_policy="A")
        shared = [rng.choice(("hi", "mid", "lo"))]
        for rule in doc["rules"]:
            rule["out"] = list(shared)
        table = load_table(doc)
        for _ in range(6):
            result = evaluate(table, random_input(rng, table))
            assert result.outcome is not Outcome.VIOLATION


def test_first_equals_priority_with_row_ranks():
    rng = random.Random(55)
    for _ in range(100):
        doc = random_table_doc(rng, hit_policy="F")
        table_f = load_table(doc)
        doc_p = dict(doc, hitPolicy="P")
        table_p = load_table(doc_p)
        for _ in range(6):
            config = random_input(rng, table_f)
            rf, rp = evaluate(table_f, config), evaluate(table_p, config)
            assert rf.outcome == rp.outcome
            assert (rf.rule.id if rf.rule else None) \
                == (rp.rule.id if rp.rule else None)
            assert rf.outputs == rp.outputs


def test_priority_invariant_under_storage_order():
    rng = random.Random(31)
    for _ in range(80):
        doc = random_table_doc(rng, hit_policy="P")
        table = load_table(doc)
        shuffled = load_table(permuted_doc(doc, rng))
        for _ in range(6):
            config = random_input(rng, table)
            a, b = evaluate(table, config), evaluate(shuffled, config)
            assert a.outcome == b.outcome
            assert (a.rule.id if a.rule else None) \
                == (b.rule.id if b.rule else None)
            assert a.outputs == b.outputs


def test_masked_implies_trigger_implication():
    rng = random.Random(13)
    checked = 0
    while checked < 25:
        doc = random_table_doc(rng, hit_policy="P", max_cols=2,
                               max_rules=4)
        table = load_table(doc)
        pairs = [(r1, r2) for r1 in table.rules for r2 in table.rules
                 if r1.id != r2.id and masked_by(r1, r2, table)]
        if not pairs:
            continue
        checked += 1
        for _ in range(40):
            config = random_input(rng, table)
            for r1, r2 in pairs:
                if triggered_by(r1, table, config):
                    assert triggered_by(r2, table, config)


def _all_boxes(geometry) -> list:
    """Every rule's boxes, rules in table order."""
    return [box for rid in geometry.columns_of
            for box in rule_boxes(geometry, rid)]


def _probe_values(table, d: int) -> list:
    """Values worth probing in input column ``d``: every finite box and
    universe endpoint and a value either side of it, or every category
    a configuration may name."""
    attr = table.inputs[d]
    if attr.kind is Kind.STRING:
        return list(CATS)
    if attr.kind is Kind.BOOLEAN:
        return [False, True]
    geometry = table.geometry
    ends = {end for box in _all_boxes(geometry)
            for end in (box[d].lo, box[d].hi)}
    ends.update(end for iv in geometry.universe[d]
                for end in (iv.lo, iv.hi))
    ends = {end for end in ends if abs(end) != float("inf")} or {0}
    step = 1 if attr.kind is Kind.INTEGER else 0.5
    return sorted({v + k * step for v in ends for k in (-1, 0, 1)})


def test_evaluator_fires_exactly_the_rules_whose_boxes_hold_the_point():
    """``evaluate`` and ``triggered_by`` fire a rule exactly when one of
    its boxes in the table geometry contains the encoded point, on
    points at and beside every interval endpoint."""
    rng = random.Random(979797)
    kinds_seen = set()
    on_endpoint = 0
    for _ in range(150):
        table = random_table(rng)
        geometry = table.geometry
        boxes = _all_boxes(geometry)
        probes = [_probe_values(table, d) for d in range(len(table.inputs))]
        kinds_seen.update(attr.kind for attr in table.inputs)
        for _ in range(20):
            config = {attr.name: rng.choice(values)
                      for attr, values in zip(table.inputs, probes)}
            try:
                point = encode_point(table, config)
            except CodecError:
                # a category the geometry has no code for fails the facet
                expected = set()
            else:
                expected = {
                    rule.id for rule in table.rules
                    if any(all(iv.contains(x) for iv, x in zip(box, point))
                           for box in rule_boxes(geometry, rule.id))}
                on_endpoint += any(
                    x in (box[d].lo, box[d].hi)
                    for box in boxes
                    for d, x in enumerate(point)
                    if not table.inputs[d].kind.is_categorical)
            assert set(evaluate(table, config).triggered) == expected
            for rule in table.rules:
                assert triggered_by(rule, table, config) \
                    == (rule.id in expected)
    assert kinds_seen == set(Kind)
    assert on_endpoint > 500
