"""Table loading, the interchange round trip, and structural
validation."""

import copy
import json

import pytest

from dmncheck import (FACET_INCOMPAT, PRIORITY_ERROR, Kind, SchemaError,
                      SFeelTypeError, dump_table, load_table,
                      validate_structure)

from conftest import loan_doc


class TestLoad:
    def test_reference_table(self, table1):
        assert table1.name == "loan-grading"
        assert len(table1.rules) == 4
        assert table1.hit_policy == "u"
        assert table1.completeness == "c"
        assert table1.input_names() == ("Annual Income", "Loan Size")
        assert [r.id for r in table1.rules] == ["A", "B", "C", "D"]
        assert table1.inputs[0].kind is Kind.REAL

    def test_duplicate_rule_id(self, table1_doc):
        table1_doc["rules"][1]["id"] = "A"
        with pytest.raises(SchemaError):
            load_table(table1_doc)

    def test_entry_kind_mismatch_located(self):
        doc = loan_doc()
        doc["inputs"][0]["type"] = "string"
        doc["inputs"][0].pop("facet")
        with pytest.raises(SFeelTypeError) as err:
            load_table(doc)
        # the error names the offending cell
        assert "A" in str(err.value) and "Annual Income" in str(err.value)

    def test_implicit_priority_first_row_highest(self, table1):
        assert table1.priority == {"A": 4, "B": 3, "C": 2, "D": 1}

    def test_explicit_priorities_all_or_none(self, table1_doc):
        table1_doc["rules"][0]["priority"] = 2
        with pytest.raises(SchemaError):
            load_table(table1_doc)

    def test_explicit_priorities_respected(self, table1_doc):
        for i, rule in enumerate(table1_doc["rules"]):
            rule["priority"] = i + 1
        table = load_table(table1_doc)
        assert table.priority == {"A": 1, "B": 2, "C": 3, "D": 4}

    def test_entry_count_mismatch(self, table1_doc):
        table1_doc["rules"][0]["in"] = ["[0..1000]"]
        with pytest.raises(SchemaError):
            load_table(table1_doc)

    def test_unknown_hit_policy(self, table1_doc):
        table1_doc["hitPolicy"] = "X"
        with pytest.raises(SchemaError):
            load_table(table1_doc)

    def test_shared_input_output_name(self, table1_doc):
        table1_doc["outputs"][0]["name"] = "Loan Size"
        with pytest.raises(SchemaError):
            load_table(table1_doc)

    def test_document_from_json_text(self, table1_doc):
        import json
        table = load_table(json.dumps(table1_doc))
        assert table.name == "loan-grading"


    @pytest.mark.parametrize("literal", [float("nan"), float("inf"),
                                         float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_output_literal(self, table1_doc, literal):
        table1_doc["outputs"] = [{"name": "Rate", "type": "real"}]
        for rule in table1_doc["rules"]:
            rule["out"] = [1.5]
        table1_doc["rules"][2]["out"] = [literal]
        with pytest.raises(SFeelTypeError, match="rule 'C'"):
            load_table(table1_doc)

    def test_number_beyond_int_conversion(self, table1_doc):
        text = json.dumps(table1_doc).replace('"out": ["VG"]',
                            '"out": ["VG"], "priority": ' + "1" * 5000, 1)
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_table(text)


class TestRoundTrip:
    def test_load_dump_load(self, table1):
        again = load_table(dump_table(table1))
        assert again == table1

    def test_round_trip_preserves_priorities(self, table1_doc):
        for i, rule in enumerate(table1_doc["rules"]):
            rule["priority"] = 4 - i
        table = load_table(table1_doc)
        assert load_table(dump_table(table)) == table

    def test_round_trip_random_tables(self):
        import random
        from conftest import random_table_doc
        rng = random.Random(20240817)
        for _ in range(50):
            table = load_table(random_table_doc(rng))
            assert load_table(dump_table(table)) == table


class TestValidateStructure:
    def test_reference_table_clean(self, table1):
        assert validate_structure(table1) == []

    def test_entry_outside_facet(self):
        doc = loan_doc()
        doc["rules"][0]["in"][0] = "[-5..-1]"
        diags = validate_structure(load_table(doc))
        assert len(diags) == 1
        diag = diags[0]
        assert diag.code == FACET_INCOMPAT
        assert diag.rule_ids == ("A",)
        assert diag.columns == ("Annual Income",)

    def test_output_outside_facet(self):
        doc = loan_doc()
        doc["rules"][2]["out"] = ["X"]
        diags = validate_structure(load_table(doc))
        assert [d.code for d in diags] == [FACET_INCOMPAT]
        assert diags[0].rule_ids == ("C",)
        assert diags[0].columns == ("Grade",)

    def test_priority_not_bijection(self):
        doc = loan_doc()
        for rule in doc["rules"]:
            rule["priority"] = 7
        diags = validate_structure(load_table(doc))
        assert PRIORITY_ERROR in [d.code for d in diags]

    def test_flags_iff_no_witness_value(self):
        # brute-force check over a small discrete column
        import itertools
        from dmncheck import matches_value
        entries = ["[0..3]", "[4..6]", "not(2)", "<0", ">6", "-", "5"]
        for entry, facet in itertools.product(entries, ["[0..6]", "[1..2]"]):
            doc = {
                "name": "w", "hitPolicy": "U", "completeness": "I",
                "inputs": [{"name": "x", "type": "integer", "facet": facet}],
                "outputs": [{"name": "y", "type": "boolean"}],
                "rules": [{"id": "r", "in": [entry], "out": ["true"]}],
            }
            table = load_table(doc)
            flagged = any(d.code == FACET_INCOMPAT
                          for d in validate_structure(table))
            attr = table.inputs[0]
            cond = table.rules[0].input_entries[0]
            has_witness = any(matches_value(attr, cond, v)
                              for v in range(-3, 10))
            assert flagged == (not has_witness), (entry, facet)
