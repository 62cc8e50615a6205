"""Table loading, the interchange round trip, and structural
validation."""

import copy
import json

import pytest

import random

import dmncheck.model
from dmncheck import (FACET_INCOMPAT, PRIORITY_ERROR, EvalError, GenSpec,
                      Kind, Rule, SchemaError, SFeelSyntaxError, SFeelTypeError,
                      bench_columns, dump_table, generate_table, inject_noise,
                      load_table, parse_condition, validate_structure)

from conftest import loan_doc, random_table_doc


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

    def test_division_by_zero_in_facet_located(self):
        doc = loan_doc()
        doc["inputs"][1]["facet"] = "<1/0"
        with pytest.raises(EvalError, match="^facet of input column "
                                            "'Loan Size': division by zero$"):
            load_table(doc)

    def test_division_by_zero_in_output_literal_located(self):
        doc = loan_doc()
        doc["outputs"][0] = {"name": "Points", "type": "integer"}
        for rule in doc["rules"]:
            rule["out"] = ["1"]
        doc["rules"][2]["out"] = ["1/0"]
        with pytest.raises(EvalError, match="^rule 'C', output column "
                                            "'Points': division by zero$"):
            load_table(doc)

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


def _bench_doc() -> dict:
    columns = bench_columns(7)
    base = generate_table(GenSpec(columns=columns, target_rules=300, seed=1))
    return dump_table(inject_noise(base, columns, "overlap", 0.1, 2))


def _parsed_cell_by_cell(doc: dict) -> tuple[Rule, ...]:
    """The rules of a document with every cell parsed on its own."""
    in_kinds = [Kind(col["type"]) for col in doc["inputs"]]
    out_kinds = [Kind(col["type"]) for col in doc["outputs"]]
    return tuple(
        Rule(raw["id"],
             tuple(parse_condition(text, kind)
                   for text, kind in zip(raw["in"], in_kinds)),
             tuple(parse_condition(text, kind).value
                   if isinstance(text, str) else text
                   for text, kind in zip(raw["out"], out_kinds)))
        for raw in doc["rules"])


def _distinct_cells(doc: dict) -> set:
    keys = set()
    for raw in doc["rules"]:
        keys.update((text, Kind(col["type"]))
                    for text, col in zip(raw["in"], doc["inputs"]))
        keys.update((text, Kind(col["type"]))
                    for text, col in zip(raw["out"], doc["outputs"])
                    if isinstance(text, str))
    return keys


class TestParseOncePerText:
    def test_matches_cell_by_cell_parsing(self):
        rng = random.Random(7)
        docs = [random_table_doc(rng) for _ in range(300)] + [_bench_doc()]
        for doc in docs:
            # repr tells True, 1 and 1.0 apart, which == does not.
            assert repr(load_table(doc).rules) \
                == repr(_parsed_cell_by_cell(doc))

    def test_equal_texts_of_one_kind_share_one_condition(self):
        table = load_table({
            "name": "s", "hitPolicy": "A", "completeness": "I",
            "inputs": [{"name": "x", "type": "integer"},
                       {"name": "y", "type": "integer"},
                       {"name": "z", "type": "real"}],
            "outputs": [{"name": "o", "type": "string"}],
            "rules": [{"id": "p", "in": ["[1..5]", "[1..5]", "[1..5]"],
                       "out": ["a"]},
                      {"id": "q", "in": ["[1..5]", "-", "[1..5]"],
                       "out": ["a"]}],
        })
        p, q = (rule.input_entries for rule in table.rules)
        assert p[0] is p[1] is q[0]
        assert p[2] is q[2]
        assert p[2] is not p[0]
        assert p[2] == parse_condition("[1..5]", Kind.REAL)

    def test_one_parse_per_distinct_text_and_kind(self, monkeypatch):
        calls = []
        real = parse_condition

        def counting(text, kind):
            calls.append((text, kind))
            return real(text, kind)

        monkeypatch.setattr(dmncheck.model, "parse_condition", counting)
        rng = random.Random(8)
        for doc in [random_table_doc(rng) for _ in range(50)] \
                + [_bench_doc()]:
            calls.clear()
            load_table(doc)
            facets = sum("facet" in col
                         for col in doc["inputs"] + doc["outputs"])
            assert len(calls) == len(_distinct_cells(doc)) + facets

    def test_repeated_bad_cell_names_its_first_rule(self):
        cases = (
            ("in", 1, "[5..", SFeelSyntaxError,
             "rule 'B', column 'Loan Size': unexpected end of condition "
             "in '[5..'"),
            ("out", 0, "[1..2]", SFeelTypeError,
             "rule 'B', output column 'Grade': comparisons and intervals "
             "are not defined for string columns: '[1..2]'"),
        )
        for role, column, text, error, message in cases:
            doc = loan_doc()
            for rule in doc["rules"][1:]:
                rule[role][column] = text
            with pytest.raises(error) as err:
                load_table(doc)
            assert str(err.value) == message


def _one_output_doc(out_type: str, out, rule_id: str = "A",
                    column: str = "Points") -> dict:
    return {"name": "t", "inputs": [{"name": "x", "type": "integer"}],
            "outputs": [{"name": column, "type": out_type}],
            "rules": [{"id": rule_id, "in": ["-"], "out": [out]}]}


_WHERE = "rule 'A', output column 'Points': "


class TestOutputLiteralErrors:
    """The full message of every way an output cell is refused; each
    names its rule and column."""

    @pytest.mark.parametrize("out_type,out,error,detail", [
        # not a finite number
        ("real", float("nan"), SFeelTypeError,
         "output literal is not a finite number"),
        ("real", float("-inf"), SFeelTypeError,
         "output literal is not a finite number"),
        ("integer", 10 ** 400, SFeelTypeError,
         "output literal is not a finite number"),
        # the text does not parse
        ("integer", "[5..", SFeelSyntaxError,
         "unexpected end of condition in '[5..'"),
        ("integer", "1/0", EvalError, "division by zero"),
        ("integer", "1.5", SFeelTypeError,
         "real literal in integer condition '1.5'"),
        ("string", '"a', SFeelSyntaxError,
         "unterminated string literal in '\"a'"),
        # the text parses, but not to one literal
        ("integer", "[1..2]", SchemaError,
         "output entry must be a single literal, got '[1..2]'"),
        ("integer", "-", SchemaError,
         "output entry must be a single literal, got '-'"),
        ("boolean", "not(true)", SchemaError,
         "output entry must be a single literal, got 'not(true)'"),
        # neither a number, a boolean nor a text
        ("integer", [1], SchemaError, "output entry must be a literal text"),
        ("integer", None, SchemaError,
         "output entry must be a literal text"),
        # a literal of another kind than the column's
        ("integer", 1.5, SFeelTypeError,
         "real literal in a integer column"),
        ("string", True, SFeelTypeError,
         "boolean literal in a string column"),
        ("real", True, SFeelTypeError, "boolean literal in a real column"),
        ("real", 10 ** 400, SFeelTypeError,
         "output literal is not a finite number"),
    ], ids=["nan", "-inf", "huge-int", "syntax", "div-zero",
            "real-in-integer", "open-quote", "interval", "any", "not",
            "list", "null", "float-in-integer", "bool-in-string",
            "bool-in-real", "huge-int-in-real"])
    def test_message(self, out_type, out, error, detail):
        with pytest.raises(error) as err:
            load_table(_one_output_doc(out_type, out))
        assert type(err.value) is error
        assert str(err.value) == _WHERE + detail

    def test_long_names_are_cut_in_the_location(self):
        doc = _one_output_doc("integer", "<3", rule_id="r" * 100,
                              column="c" * 100)
        with pytest.raises(SchemaError) as err:
            load_table(doc)
        assert str(err.value) == (
            f"rule {'r' * 60!r}..., output column {'c' * 60!r}...: "
            "output entry must be a single literal, got '<3'")


def test_integer_in_real_output_loads_as_float():
    # A JSON integer loads as the text "2" does.
    for out in (2, "2"):
        table = load_table(_one_output_doc("real", out))
        assert table.rules[0].output_entries == (2.0,)
        assert type(table.rules[0].output_entries[0]) is float


class TestRoundTrip:
    def test_load_dump_load(self, table1):
        again = load_table(dump_table(table1))
        assert again == table1

    def test_round_trip_preserves_priorities(self, table1_doc):
        for i, rule in enumerate(table1_doc["rules"]):
            rule["priority"] = 4 - i
        table = load_table(table1_doc)
        assert load_table(dump_table(table)) == table

    def test_round_trip_keeps_trailing_space_in_facet(self):
        table = load_table({
            "name": "t", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "c", "type": "string", "facet": '"a ",b'}],
            "outputs": [{"name": "y", "type": "boolean"}],
            "rules": [{"id": "r", "in": ["-"], "out": ["true"]}],
        })
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

    def test_repeated_output_outside_facet_flags_every_rule(self):
        doc = loan_doc()
        for rule, grade in zip(doc["rules"], ("X", "VG", "X", "Y")):
            rule["out"] = [grade]
        diags = validate_structure(load_table(doc))
        assert [(d.rule_ids, d.detail.split()[1]) for d in diags] \
            == [(("A",), "'X'"), (("C",), "'X'"), (("D",), "'Y'")]

    def test_priority_not_bijection(self):
        doc = loan_doc()
        for rule in doc["rules"]:
            rule["priority"] = 7
        diags = validate_structure(load_table(doc))
        assert PRIORITY_ERROR in [d.code for d in diags]

    def test_flags_iff_no_witness_value(self):
        # brute-force check over a small discrete column
        import itertools
        from dmncheck import satisfies
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
            has_witness = any(satisfies(attr.facet, v) and satisfies(cond, v)
                              for v in range(-3, 10))
            assert flagged == (not has_witness), (entry, facet)
