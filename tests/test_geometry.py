"""Categorical encoding and rule-to-box lowering."""

import random

from dmncheck import (Interval1D, build_codec, build_universe, load_table,
                      triggered_by)
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


class TestCodec:
    def test_facet_order(self, table1):
        codec = build_codec(table1)
        assert codec.categories("Grade") == ("VG", "G", "F", "P")
        assert codec.encode("Grade", "VG") == 0
        assert codec.encode("Grade", "G") == 1
        assert codec.encode("Grade", "P") == 3

    def test_boolean_false_before_true(self):
        doc = {
            "name": "b", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "flag", "type": "boolean"}],
            "outputs": [{"name": "o", "type": "integer"}],
            "rules": [{"id": "r", "in": ["true"], "out": ["1"]}],
        }
        codec = build_codec(load_table(doc))
        assert codec.encode("flag", False) == 0
        assert codec.encode("flag", True) == 1

    def test_appearance_order_without_facet(self):
        doc = categorical_doc()
        doc["inputs"][0].pop("facet")
        codec = build_codec(load_table(doc))
        # first appearance order across rules
        assert codec.categories("Purpose") == ("Refinancing", "Leasing",
                                               "CardPayoff")

    def test_decode_subinterval(self, table1):
        codec = build_codec(table1)
        assert codec.decode("Grade", iv(1, True, 1, True)) == ("G",)
        assert codec.decode("Grade", iv(0, True, 2, True)) \
            == ("VG", "G", "F")

    def test_deterministic(self):
        doc = categorical_doc()
        assert build_codec(load_table(doc)).categories("Purpose") \
            == build_codec(load_table(doc)).categories("Purpose")


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
        universe = build_universe(table1, build_codec(table1))
        assert universe[0] == (iv(0, True, float("inf"), False),)

    def test_categorical_component(self):
        table = load_table(categorical_doc())
        universe = build_universe(table, build_codec(table))
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
            last = len(geometry.codec.categories(attr.name)) - 1
            sets = [geometry.universe[d]] + [
                row[d] for row in geometry.columns_of.values()]
            for member in (m for members in sets for m in members):
                assert member.lo_closed and member.hi_closed
                assert isinstance(member.lo, int)
                assert isinstance(member.hi, int)
                assert 0 <= member.lo <= member.hi <= last


def test_rects_semantically_faithful():
    """encode(input) lies in some rect of a rule iff the rule triggers."""
    from dmncheck import CodecError
    from dmncheck.geometry import encode_point
    rng = random.Random(1234)
    for _ in range(60):
        table = random_table(rng)
        codec = table.geometry.codec
        geometry = table.geometry
        for _ in range(12):
            config = random_input(rng, table)
            try:
                point = encode_point(table, codec, config)
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
