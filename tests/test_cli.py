"""Exit codes, output formats, and determinism of the command line."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import dmncheck
from dmncheck import DecisionTableError, load_table
from dmncheck.cli import _build_parser, _dump_json, main

from conftest import loan_doc


@pytest.fixture
def table1_path(tmp_path):
    path = tmp_path / "table1.json"
    path.write_text(json.dumps(loan_doc()), encoding="utf-8")
    return str(path)


@pytest.fixture
def tiny_path(tmp_path):
    doc = {
        "name": "tiny", "hitPolicy": "U", "completeness": "C",
        "inputs": [{"name": "x", "type": "integer", "facet": "[0..5]"}],
        "outputs": [{"name": "y", "type": "boolean"}],
        "rules": [{"id": "only", "in": ["-"], "out": ["true"]}],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestCheck:
    def test_incorrect_table_exits_one(self, table1_path, capsys):
        assert main(["check", table1_path]) == 1
        out = capsys.readouterr().out
        assert "OVERLAP" in out and "MISSING_RULE" in out
        assert "not correct" in out

    def test_finding_contains_probe_region(self, table1_path, capsys):
        main(["check", table1_path])
        out = capsys.readouterr().out
        assert "Annual Income: [0..250), Loan Size: >1000" in out

    def test_correct_table_exits_zero(self, tiny_path, capsys):
        assert main(["check", tiny_path]) == 0
        assert "'tiny': correct" in capsys.readouterr().out

    def test_structured_deterministic(self, table1_path, capsys):
        main(["check", table1_path, "--format", "structured"])
        first = capsys.readouterr().out
        main(["check", table1_path, "--format", "structured"])
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert doc["correct"] is False
        assert doc["completeness"] == {"declared": "c", "actual": False}
        assert [o["rules"] for o in doc["overlaps"]] == [["A", "C"]]
        codes = [d["code"] for d in doc["diagnostics"]]
        assert codes == sorted(codes)

    def test_only_overlap(self, table1_path, capsys):
        main(["check", table1_path, "--only", "overlap",
              "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert "missing" not in doc
        assert [o["rules"] for o in doc["overlaps"]] == [["A", "C"]]
        assert doc["overlaps"][0]["witness"] \
            == ["[500..1000]", "[500..1000]"]

    def test_only_missing(self, table1_path, capsys):
        main(["check", table1_path, "--only", "missing",
              "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert "overlaps" not in doc
        assert len(doc["missing"]) == 9

    def test_multiple_files_in_order(self, table1_path, tiny_path,
                                     capsys):
        assert main(["check", tiny_path, table1_path]) == 1
        out = capsys.readouterr().out
        assert out.index("'tiny'") < out.index("'loan-grading'")
        assert main(["check", tiny_path, tiny_path]) == 0

    def test_malformed_document_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["check", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "/nonexistent/nowhere.json"]) == 2

    @pytest.mark.parametrize("field,value", [
        ("a", ">=1e400"),
        ("a", "[0..1e400]"),
        ("a", "1e200*1e200"),
        ("a", "1" * 400),
        ("n", "-" * 5000 + "1"),
        ("n", "(" * 3000 + "1" + ")" * 3000),
        ("n", "+".join(["1"] * 5000)),
        ("n", "1/0"),
        ("a", "1/0"),
        ("hitPolicy", [1]),
        ("completeness", {"a": 1}),
        ("n", "\u0663"),
        ("a", "[1..\uff12]"),
        ("s", "not(a,b)"),
        ("s", "not(<5)"),
        ("s", "not([1..2])"),
        ("s", "not(-)"),
        ("s", "not(not(a))"),
    ], ids=["ge-1e400", "interval-1e400", "product-overflow",
            "400-digits-real", "unary-minus", "parentheses", "long-sum",
            "integer-div-zero", "real-div-zero", "hit-policy-list",
            "completeness-object", "arabic-indic-digit", "fullwidth-digit",
            "not-two-values", "not-comparison", "not-interval", "not-any",
            "not-not"])
    def test_hostile_entry_exits_two(self, field, value, tmp_path, capsys):
        # Fields a, n and s are the rule's entries; others are table keys.
        doc = {
            "name": "hostile", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "a", "type": "real"},
                       {"name": "n", "type": "integer"},
                       {"name": "s", "type": "string", "facet": "a,b,c"}],
            "outputs": [{"name": "o", "type": "string"}],
            "rules": [{"id": "r", "in": ["-", "-", "-"], "out": ["x"]}],
        }
        if field in ("a", "n", "s"):
            doc["rules"][0]["in"]["ans".index(field)] = value
            where = "rule 'r'"
        else:
            doc[field] = value
            where = "unknown"
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {where}" in captured.err

    def test_long_entry_error_is_short(self, tmp_path, capsys):
        doc = {
            "name": "long", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "n", "type": "integer"}],
            "outputs": [{"name": "o", "type": "string"}],
            "rules": [{"id": "r", "in": ["+".join(["1"] * 5000)],
                       "out": ["x"]}],
        }
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "arithmetic operators" in err
        assert len(err) < 300

    def test_module_entry_point(self, table1_path):
        # python -m dmncheck and python -m dmncheck.cli run the command
        # line without warnings
        env = dict(os.environ)
        src = str(Path(dmncheck.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        for module in ("dmncheck", "dmncheck.cli"):
            done = subprocess.run(
                [sys.executable, "-m", module, "check", table1_path],
                capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 1, module
            assert done.stderr == "", module
            assert "table 'loan-grading': not correct" in done.stdout

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity",
                                         "1" + "0" * 400],
                             ids=["NaN", "Infinity", "-Infinity",
                                  "huge-integer"])
    def test_non_finite_output_literal_exits_two(self, literal, tmp_path,
                                                 capsys):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"name": "t", "hitPolicy": "U", "completeness": "I", '
            '"inputs": [{"name": "a", "type": "real"}], '
            '"outputs": [{"name": "o", "type": "real"}], '
            '"rules": [{"id": "r", "in": ["-"], "out": [' + literal + ']}]}',
            encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "not a finite number" in capsys.readouterr().err

    def test_undecodable_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["check", str(bad)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["U", "F"])
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_geometry_built_once_per_document(self, policy, fmt, tmp_path,
                                              capsys, monkeypatch):
        from dmncheck import analysis

        built = []
        table_rects = analysis.table_rects

        def counting(table):
            built.append(table.name)
            return table_rects(table)

        monkeypatch.setattr(analysis, "table_rects", counting)
        doc = loan_doc()
        doc["hitPolicy"] = policy
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", "--format", fmt, str(path), str(path)]) == 1
        assert built == ["loan-grading", "loan-grading"]


class TestEval:
    def test_match_text(self, table1_path, capsys):
        code = main(["eval", table1_path, "--input",
                     "Annual Income=500,Loan Size=4230"])
        assert code == 0
        assert capsys.readouterr().out == "Matched rule B: Grade=G\n"

    def test_no_match(self, table1_path, capsys):
        code = main(["eval", table1_path, "--input",
                     "Annual Income=200,Loan Size=2000"])
        assert code == 0
        assert capsys.readouterr().out == "No rule matches\n"

    def test_violation_exits_one(self, table1_path, capsys):
        code = main(["eval", table1_path, "--input",
                     "Annual Income=600,Loan Size=600"])
        assert code == 1
        assert "violation" in capsys.readouterr().out.lower()

    def test_json_object_input(self, table1_path, capsys):
        code = main(["eval", table1_path, "--input",
                     '{"Annual Income": 500, "Loan Size": 4230}'])
        assert code == 0
        assert "Matched rule B" in capsys.readouterr().out

    def test_set_pairs(self, table1_path, capsys):
        code = main(["eval", table1_path, "--set", "Annual Income=500",
                     "--set", "Loan Size=4230"])
        assert code == 0

    def test_structured(self, table1_path, capsys):
        main(["eval", table1_path, "--format", "structured", "--input",
              "Annual Income=500,Loan Size=4230"])
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"detail": "", "outcome": "matched",
                       "outputs": {"Grade": "G"}, "rule": "B",
                       "triggered": ["B"]}

    def test_incomplete_input_exits_two(self, table1_path, capsys):
        assert main(["eval", table1_path, "--input",
                     "Annual Income=500"]) == 2

    def test_no_input_exits_two(self, table1_path, capsys):
        assert main(["eval", table1_path]) == 2

    def test_bad_pair_exits_two(self, table1_path, capsys):
        assert main(["eval", table1_path, "--input", "no equals"]) == 2

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity",
                                       "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "huge"])
    def test_non_finite_input_exits_two(self, value, tmp_path, capsys):
        doc = {
            "name": "open", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "a", "type": "real"}],
            "outputs": [{"name": "o", "type": "string"}],
            "rules": [{"id": "r", "in": ["[0..10]"], "out": ["x"]}],
        }
        path = tmp_path / "open.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["eval", str(path), "--input", f"a={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestParserReuse:
    """main reuses one parser per process; no call may see another's
    arguments or change what a later call prints."""

    @staticmethod
    def run(capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_set_values_do_not_carry_over(self, table1_path, capsys):
        code, out, _ = self.run(capsys, [
            "eval", table1_path, "--format", "structured",
            "--set", "Annual Income=500", "--set", "Loan Size=4230"])
        assert (code, json.loads(out)["rule"]) == (0, "B")
        # Alone, one --set leaves Loan Size missing.
        code, out, err = self.run(capsys, [
            "eval", table1_path, "--set", "Annual Income=500"])
        assert code == 2 and out == "" and "Loan Size" in err

    def test_usage_errors_leave_the_next_call_unchanged(self, table1_path,
                                                        capsys):
        _build_parser.cache_clear()
        good = ["check", "--format", "structured", table1_path]
        fresh = self.run(capsys, good)
        for bad in (["check"], ["check", "--format", "xml", table1_path]):
            code, out, err = self.run(capsys, bad)
            assert (code, out) == (2, "")
            assert "usage: dmncheck check" in err
        assert self.run(capsys, good) == fresh
        assert fresh[0] == 1

    def test_help_prints_the_same_text_twice(self, capsys):
        texts = []
        for _ in range(2):
            code, out, _ = self.run(capsys, ["--help"])
            assert code == 0
            texts.append(out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: dmncheck")

    def test_interleaved_checks_repeat_their_first_bytes(
            self, table1_path, tiny_path, capsys):
        # Text is the default, so the text calls pass no --format.
        calls = [["check", table1_path],
                 ["check", "--format", "structured", tiny_path],
                 ["check", "--format", "structured", table1_path],
                 ["check", tiny_path]]
        first = [self.run(capsys, argv) for argv in calls]
        for _ in range(2):
            assert [self.run(capsys, argv) for argv in calls] == first
        assert [(code, out.startswith("{")) for code, out, _ in first] \
            == [(1, False), (0, True), (1, True), (0, False)]


# JSON that json.loads cannot decode: nesting past the recursion limit,
# and an integer of more digits than int() takes.  Both are far longer
# than a subprocess argument may be, so main() runs in-process.
DEEP = "[" * 100_000 + "]" * 100_000
LONG_INT = "1" * 5000


class TestUndecodableJson:
    @pytest.mark.parametrize("argv", [
        ["--input", '{"x": ' + DEEP + "}"],
        ["--input", '{"x": ' + LONG_INT + "}"],
        ["--set", "x=" + DEEP],
        ["--set", "x=" + LONG_INT],
    ], ids=["input-deep", "input-long-int", "set-deep", "set-long-int"])
    def test_eval_value_exits_two(self, argv, table1_path, capsys):
        assert main(["eval", table1_path] + argv) == 2
        self.assert_one_error_line(capsys)

    def test_check_deep_document_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"name": "deep", "inputs": ' + DEEP + "}",
                        encoding="utf-8")
        assert main(["check", str(path)]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("text", [
        '{"columnCounts": ' + DEEP + "}",
        '{"runs": ' + LONG_INT + "}",
    ], ids=["deep", "long-int"])
    def test_bench_suite_exits_two(self, text, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(text, encoding="utf-8")
        assert main(["bench", "--suite", str(suite)]) == 2
        self.assert_one_error_line(capsys)

    @staticmethod
    def assert_one_error_line(capsys, limit=300):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert len(captured.err) < limit


# A list nested 900 deep: JSON decodes it, and its repr is 1,800 long.
NESTED_900 = "[" * 900 + "]" * 900
LONG_NAME = "n" * 100_000


def _edited(doc: dict, edits: dict) -> dict:
    # Each key is a path of keys and indices into the document.
    for path, value in edits.items():
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return doc


class TestBoundedEcho:
    """A hostile value named in an error line is cut short."""

    @pytest.mark.parametrize("path,value", [
        (("completeness",), json.dumps("x" * 100_000)),
        (("hitPolicy",), NESTED_900),
        (("inputs", 0, "type"), NESTED_900),
        (("rules", 0, "out", 0),
         json.dumps(",".join(f'"v{i}"' for i in range(20_000)))),
    ], ids=["long-completeness", "nested-hit-policy", "nested-type",
            "long-output-entry"])
    def test_check_field(self, path, value, tmp_path, capsys):
        # The value goes in as raw JSON text, spliced over a placeholder.
        doc = loan_doc()
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = "<hostile>"
        text = json.dumps(doc).replace('"<hostile>"', value)
        doc_path = tmp_path / "hostile.json"
        doc_path.write_text(text, encoding="utf-8")
        assert main(["check", str(doc_path)]) == 2
        TestUndecodableJson.assert_one_error_line(capsys, limit=200)

    @pytest.mark.parametrize("edits", [
        {("rules", 0, "id"): LONG_NAME, ("rules", 1, "id"): LONG_NAME},
        {("rules", 0, "id"): LONG_NAME, ("rules", 0, "in"): ["-"]},
        {("rules", 0, "id"): LONG_NAME, ("rules", 0, "priority"): "high"},
        {("inputs", 0, "name"): LONG_NAME, ("inputs", 0, "type"): "decimal"},
        {("inputs", 0, "name"): LONG_NAME, ("inputs", 0, "facet"): "[["},
        {("inputs", 0, "name"): LONG_NAME, ("rules", 0, "in", 0): "[["},
        {("outputs", 0, "name"): LONG_NAME, ("rules", 0, "out", 0): "<1"},
    ], ids=["duplicate-rule-id", "entry-count", "priority", "column-type",
            "facet", "input-cell", "output-literal"])
    def test_check_long_name(self, edits, tmp_path, capsys):
        doc_path = tmp_path / "long.json"
        doc_path.write_text(json.dumps(_edited(loan_doc(), edits)),
                            encoding="utf-8")
        assert main(["check", str(doc_path)]) == 2
        TestUndecodableJson.assert_one_error_line(capsys, limit=200)

    @pytest.mark.parametrize("edits,argv", [
        ({("inputs", 0, "name"): LONG_NAME}, ["--set", "Loan Size=5"]),
        ({("inputs", 0, "name"): LONG_NAME},
         ["--set", LONG_NAME + "=high", "--set", "Loan Size=5"]),
        ({}, ["--input", json.dumps({"Annual Income": 1, "Loan Size": 2,
                                     LONG_NAME: 3})]),
        ({}, ["--set", LONG_NAME]),
        ({}, ["--input", "Loan Size=5," + LONG_NAME]),
    ], ids=["missing-input", "input-kind", "unknown-inputs", "set-pair",
            "input-pair"])
    def test_eval_long_name(self, edits, argv, tmp_path, capsys):
        doc_path = tmp_path / "long.json"
        doc_path.write_text(json.dumps(_edited(loan_doc(), edits)),
                            encoding="utf-8")
        assert main(["eval", str(doc_path)] + argv) == 2
        TestUndecodableJson.assert_one_error_line(capsys, limit=200)

    @pytest.mark.parametrize("text", [
        '{"columnCounts": [' + NESTED_900 + "]}",
        '{"runs": ' + json.dumps("y" * 50_000) + "}",
        '{"columnCounts": ' + json.dumps("z" * 50_000) + "}",
    ], ids=["nested-count", "long-runs", "long-counts"])
    def test_bench_suite(self, text, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(text, encoding="utf-8")
        assert main(["bench", "--suite", str(suite)]) == 2
        TestUndecodableJson.assert_one_error_line(capsys, limit=200)


class TestGenerate:
    def test_clean_table_checks_correct(self, tmp_path, capsys):
        out_path = str(tmp_path / "gen.json")
        assert main(["generate", "--columns", "3", "--rules", "40",
                     "--seed", "6", "-o", out_path]) == 0
        assert main(["check", out_path]) == 0

    def test_injected_overlap_fails_check(self, tmp_path, capsys):
        out_path = str(tmp_path / "noisy.json")
        assert main(["generate", "--columns", "3", "--rules", "40",
                     "--seed", "6", "--inject", "overlap",
                     "--fraction", "0.1", "-o", out_path]) == 0
        assert main(["check", out_path]) == 1
        assert "OVERLAP" in capsys.readouterr().out

    def test_injected_missing_fails_check(self, tmp_path, capsys):
        out_path = str(tmp_path / "gappy.json")
        assert main(["generate", "--columns", "3", "--rules", "40",
                     "--seed", "6", "--inject", "missing", "-o",
                     out_path]) == 0
        assert main(["check", out_path]) == 1
        assert "MISSING_RULE" in capsys.readouterr().out

    def test_inject_both(self, tmp_path, capsys):
        out_path = str(tmp_path / "both.json")
        assert main(["generate", "--columns", "3", "--rules", "40",
                     "--seed", "6", "--inject", "both", "-o",
                     out_path]) == 0
        assert main(["check", out_path]) == 1
        out = capsys.readouterr().out
        assert "OVERLAP" in out and "MISSING_RULE" in out

    def test_stdout_deterministic(self, capsys):
        args = ["generate", "--columns", "3", "--rules", "25", "--seed",
                "9"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert len(doc["rules"]) == 25


_JSON_TEXTS = ("", "plain", "é ñ 中文 😀", 'say "hi"', "back\\slash",
               "tab\tnew\nline\x00\x1f\x7f", "\u2028", "-", "[1..2)")
_JSON_SCALARS = (True, False, None, 0, -0.0, 0.1, 1e16, -1e-300, 2 ** 70,
                 -(10 ** 30), 17, 3.5, float("nan"), float("inf"),
                 float("-inf"))


def _random_json(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth > 4 or roll < 0.45:
        return rng.choice(_JSON_TEXTS + _JSON_SCALARS)
    size = rng.choice((0, 1, 2, 5))
    if roll < 0.7:
        items = [_random_json(rng, depth + 1) for _ in range(size)]
        return items if rng.random() < 0.8 else tuple(items)
    return {rng.choice(_JSON_TEXTS) + str(i): _random_json(rng, depth + 1)
            for i in range(size)}


def _as_json_writes(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestWriter:
    def test_equals_json_dumps(self):
        rng = random.Random(2024)
        for _ in range(3000):
            doc = _random_json(rng)
            assert _dump_json(doc) == json.dumps(doc, indent=2,
                                                 sort_keys=True)

    @pytest.mark.parametrize("doc", [{"a": {2}}, [b"x"], ["a", object()],
                                     {"a": ["b", 1j]}])
    def test_other_values_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _dump_json(doc)

    def test_keys_must_be_text(self):
        # json would write the key 1 as "1"; no report has such a key.
        with pytest.raises(TypeError):
            _dump_json({"a": {1: "b"}})

    @pytest.mark.parametrize("only", ["all", "overlap", "missing"])
    def test_check_reports(self, table1_path, tiny_path, only, capsys):
        for paths in ([table1_path], [table1_path, tiny_path]):
            main(["check", "--format", "structured", "--only", only,
                  *paths])
            out = capsys.readouterr().out
            assert out == _as_json_writes(out)

    def test_eval_generate_and_bench_reports(self, table1_path, tmp_path,
                                             capsys):
        runs = (
            ["eval", table1_path, "--format", "structured", "--input",
             "Annual Income=500,Loan Size=600"],
            ["eval", table1_path, "--format", "structured", "--input",
             "Annual Income=3000,Loan Size=600"],
            ["generate", "--columns", "3", "--rules", "12", "--inject",
             "both", "--seed", "5"],
            ["bench", "--columns", "2", "--rules", "12", "--runs", "1",
             "--format", "structured"],
        )
        for args in runs:
            main(args)
            out = capsys.readouterr().out
            assert out == _as_json_writes(out)
        written = tmp_path / "out.json"
        main(["generate", "--rules", "8", "-o", str(written)])
        text = written.read_text(encoding="utf-8")
        assert text == _as_json_writes(text)


class TestBench:
    def test_flags(self, capsys):
        code = main(["bench", "--columns", "2", "--rules", "15",
                     "--runs", "1", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "overlap ms" in out and " 15 " in out

    def test_suite_file(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({
            "columnCounts": [2], "ruleCounts": [12], "runs": 1,
            "noiseFraction": 0.2, "seed": 3,
        }), encoding="utf-8")
        report_path = tmp_path / "report.json"
        code = main(["bench", "--suite", str(suite), "--format",
                     "structured", "-o", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert doc["runs"] == 1 and doc["noiseFraction"] == 0.2
        assert len(doc["cells"]) == 1
        assert doc["cells"][0]["columns"] == 2
        assert doc["cells"][0]["rules"] == 12

    def test_flag_overrides_suite(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({
            "columnCounts": [2], "ruleCounts": [12], "runs": 3,
        }), encoding="utf-8")
        main(["bench", "--suite", str(suite), "--runs", "1",
              "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"] == 1

    def test_unknown_suite_key_exits_two(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"rows": [3]}), encoding="utf-8")
        assert main(["bench", "--suite", str(suite)]) == 2

    @pytest.mark.parametrize("key,value", [
        ("runs", "abc"), ("runs", 3.7), ("runs", True),
        ("columnCounts", ["a"]), ("ruleCounts", [2.5]),
        ("columnCounts", 3), ("ruleCounts", []), ("noiseFraction", "x"),
        ("noiseFraction", False), ("seed", [1]), ("numericRange", None),
        ("arity", "4"),
    ])
    def test_malformed_suite_value_exits_two(self, key, value, tmp_path,
                                             capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({key: value}), encoding="utf-8")
        assert main(["bench", "--suite", str(suite)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: suite key {key} must be" in captured.err


def _field_doc() -> dict:
    return {
        "name": "fields", "hitPolicy": "P", "completeness": "I",
        "inputs": [{"name": "x", "type": "integer", "facet": "[0..9]"},
                   {"name": "s", "type": "string", "facet": "red,blue"}],
        "outputs": [{"name": "o", "type": "string", "facet": "hi,lo"}],
        "rules": [{"id": "r1", "in": ["<5", "red"], "out": ["hi"],
                   "priority": 2},
                  {"id": "r2", "in": ["[3..9]", "-"], "out": ["lo"],
                   "priority": 1}],
    }


def _paths(node, prefix=()):
    # Every position in a JSON document, the root included.
    yield prefix
    items = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(path=st.sampled_from(list(_paths(_field_doc()))), value=json_values)
@example(path=("hitPolicy",), value=[1])
@example(path=("completeness",), value={"a": 1})
def test_any_field_value_loads_or_exits_cleanly(path, value, tmp_path_factory):
    """One field of a valid document replaced by arbitrary JSON either
    still loads or raises DecisionTableError, and the CLI answers with
    an exit code rather than a traceback."""
    doc = _field_doc()
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    text = json.dumps(doc)
    try:
        load_table(text)
    except DecisionTableError:
        pass
    target = tmp_path_factory.getbasetemp() / "field.json"
    target.write_text(text, encoding="utf-8")
    assert main(["check", str(target)]) in (0, 1, 2)
    assert main(["eval", str(target), "--input",
                 '{"x": 4, "s": "red"}']) in (0, 1, 2)
