"""Category codes and rule-to-box lowering in the table geometry."""

import random

import pytest

from dmncheck import (CodecError, Interval1D, encode_point, load_table,
                      render_box, triggered_by)
from dmncheck.intervals import intersect_sets

from conftest import loan_doc, random_input, random_table, rule_boxes


def iv(lo, lc, hi, hc):
    return Interval1D(lo, lc, hi, hc)


def categorical_doc(facet="Refinancing,CardPayoff,Leasing"):
    return {
        "name": "purposes", "hitPolicy": "U", "completeness": "I",
        "inputs": [{"name": "Purpose", "type": "string", "facet": facet}],
        "outputs": [{"name": "ok", "type": "boolean"}],
        "rules": [
            {"id": "r1", "in": ["Refinancing,Leasing"], "out": ["true"]},
            {"id": "r2", "in": ["CardPayoff"], "out": ["false"]},
        ],
    }


def grade_doc() -> dict:
    # The reference table with its output column turned into an input.
    doc = loan_doc()
    doc["inputs"].append(doc["outputs"].pop())
    doc["outputs"] = [{"name": "ok", "type": "boolean"}]
    for rule in doc["rules"]:
        rule["in"].append(rule.pop("out")[0])
        rule["out"] = ["true"]
    return doc


def encode(table, column, literal) -> int:
    # The code of one categorical value, through encode_point.
    names = table.input_names()
    d = names.index(column)
    config = {name: 0.0 for name in names}
    config[column] = literal
    return encode_point(table, config)[d]


class TestCodec:
    def test_facet_order(self):
        table = load_table(grade_doc())
        assert table.geometry.categories == ((), (), ("VG", "G", "F", "P"))
        assert table.geometry.codes[:2] == (None, None)
        assert encode(table, "Grade", "VG") == 0
        assert encode(table, "Grade", "G") == 1
        assert encode(table, "Grade", "P") == 3

    def test_boolean_false_before_true(self):
        doc = {
            "name": "b", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "flag", "type": "boolean"}],
            "outputs": [{"name": "o", "type": "integer"}],
            "rules": [{"id": "r", "in": ["true"], "out": ["1"]}],
        }
        table = load_table(doc)
        assert table.geometry.categories == ((False, True),)
        assert encode(table, "flag", False) == 0
        assert encode(table, "flag", True) == 1
        # Codes are type-exact: 1 is not the category True.  A value
        # that cannot be a key is no category either.
        for literal in (0, 1, 1.0, [True]):
            with pytest.raises(CodecError):
                encode(table, "flag", literal)

    def test_appearance_order_without_facet(self):
        doc = categorical_doc()
        doc["inputs"][0].pop("facet")
        # first appearance order across rules
        assert load_table(doc).geometry.categories \
            == (("Refinancing", "Leasing", "CardPayoff"),)

    def test_string_column_naming_no_category(self):
        # One representative keeps the column's geometry finite.
        doc = categorical_doc()
        doc["inputs"][0].pop("facet")
        for rule in doc["rules"]:
            rule["in"] = ["-"]
        table = load_table(doc)
        assert table.geometry.categories == (("<any>",),)
        assert table.geometry.universe == ((iv(0, True, 0, True),),)
        assert render_box(table, (iv(0, True, 0, True),)) == ("-",)

    def test_decode_subinterval(self):
        table = load_table(grade_doc())
        whole = iv(0, True, 1000, True)
        assert render_box(table, (whole, whole, iv(1, True, 1, True))) \
            == ("[0..1000]", "[0..1000]", "G")
        assert render_box(table, (whole, whole, iv(0, True, 2, True))) \
            == ("[0..1000]", "[0..1000]", "VG,G,F")

    def test_deterministic(self):
        doc = categorical_doc()
        assert load_table(doc).geometry.categories \
            == load_table(doc).geometry.categories

    @pytest.mark.parametrize("literal", ["zzz", "z" * 100_000])
    def test_unknown_category_error_is_short(self, literal):
        # The message gives the category count, not the category list.
        doc = categorical_doc(",".join(f"k{i}" for i in range(5000)))
        doc["rules"] = [{"id": "r", "in": ["k0"], "out": ["true"]}]
        table = load_table(doc)
        with pytest.raises(CodecError) as caught:
            encode_point(table, {"Purpose": literal})
        assert "5000 known categories" in str(caught.value)
        assert len(str(caught.value)) < 200


class TestRuleToRects:
    def test_reference_rule_a(self, table1):
        assert rule_boxes(table1.geometry, "A") \
            == ((iv(0, True, 1000, True), iv(0, True, 1000, True)),)

    def test_nonadjacent_categories_make_two_rects(self):
        table = load_table(categorical_doc())
        boxes = rule_boxes(table.geometry, "r1")
        assert len(boxes) == 2
        assert {box[0] for box in boxes} \
            == {iv(0, True, 0, True), iv(2, True, 2, True)}

    def test_adjacent_categories_merge(self):
        doc = categorical_doc()
        doc["rules"][0]["in"] = ["Refinancing,CardPayoff"]
        table = load_table(doc)
        assert [box[0] for box in rule_boxes(table.geometry, "r1")] \
            == [iv(0, True, 1, True)]

    def test_facet_incompatible_entry_is_empty(self):
        doc = loan_doc()
        doc["rules"][0]["in"][0] = "[-5..-1]"
        table = load_table(doc)
        assert rule_boxes(table.geometry, table.rules[0].id) == ()

    def test_entry_clipped_to_facet(self):
        doc = loan_doc()
        doc["rules"][0]["in"][0] = "<=1000"
        table = load_table(doc)
        box = rule_boxes(table.geometry, table.rules[0].id)[0]
        assert box[0] == iv(0, True, 1000, True)


class TestIntersect:
    @staticmethod
    def meet(table, a, b):
        # Per input column, the intersection of two rules' column sets.
        columns_of = table.geometry.columns_of
        return tuple(intersect_sets(x, y)
                     for x, y in zip(columns_of[a], columns_of[b]))

    def test_reference_a_c(self, table1):
        assert self.meet(table1, "A", "C") \
            == ((iv(500, True, 1000, True),), (iv(500, True, 1000, True),))

    def test_idempotent(self, table1):
        assert self.meet(table1, "A", "A") == table1.geometry.columns_of["A"]

    def test_disjoint_absent(self, table1):
        assert () in self.meet(table1, "B", "C")

    def test_commutative(self, table1):
        assert self.meet(table1, "A", "C") == self.meet(table1, "C", "A")


class TestUniverse:
    def test_facet_lowering(self, table1):
        universe = table1.geometry.universe
        assert universe[0] == (iv(0, True, float("inf"), False),)

    def test_categorical_component(self):
        table = load_table(categorical_doc())
        universe = table.geometry.universe
        assert universe[0] == (iv(0, True, 2, True),)


def test_categories_are_closed_integer_points():
    """Category k is the point [k..k]: a categorical column is discrete,
    and each member of its column sets is a closed integer interval
    inside [0..k-1]."""
    rng = random.Random(2024)
    for _ in range(300):
        table = random_table(rng)
        geometry = table.geometry
        for d, attr in enumerate(table.inputs):
            if not attr.kind.is_categorical:
                continue
            assert geometry.discrete[d]
            last = len(geometry.categories[d]) - 1
            sets = [geometry.universe[d]] + [
                row[d] for row in geometry.columns_of.values()]
            for member in (m for members in sets for m in members):
                assert member.lo_closed and member.hi_closed
                assert isinstance(member.lo, int)
                assert isinstance(member.hi, int)
                assert 0 <= member.lo <= member.hi <= last


def test_rects_semantically_faithful():
    """encode(input) lies in some rect of a rule iff the rule triggers."""
    rng = random.Random(1234)
    for _ in range(60):
        table = random_table(rng)
        geometry = table.geometry
        for _ in range(12):
            config = random_input(rng, table)
            try:
                point = encode_point(table, config)
            except CodecError:
                # a category the table never mentions fails its facet,
                # so it cannot trigger anything
                assert not any(triggered_by(rule, table, config)
                               for rule in table.rules)
                continue
            for rule in table.rules:
                in_rects = any(
                    all(box[d].contains(point[d])
                        for d in range(len(point)))
                    for box in rule_boxes(geometry, rule.id))
                assert in_rects == triggered_by(rule, table, config)
