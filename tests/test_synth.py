"""Generator, noise injection, the pairwise-fragment baseline, and the
benchmark driver."""

import hashlib
import random
from itertools import combinations

import pytest

from dmncheck import (GenSpec, Kind, SpecError, bench_columns,
                      benchmark_grid, check_correct, dump_table,
                      find_missing_rules, find_overlapping_rules,
                      generate_table, inject_noise, load_table,
                      pairwise_overlap_fragments, run_benchmark)
from dmncheck.cli import main
from dmncheck.intervals import canonical
from dmncheck.sfeel import parse_condition
from dmncheck.synth import ColumnSpec, _render_leaf_entry, _shrink, _widen

from conftest import loan_doc, random_table, rule_boxes

SMALL = (ColumnSpec("cat", Kind.STRING, categories=("K1", "K2", "K3")),
         ColumnSpec("num", Kind.INTEGER, lo=0, hi=40))


class TestGenerate:
    def test_exact_rule_count_and_clean(self):
        spec = GenSpec(columns=SMALL, target_rules=30, seed=5)
        table = generate_table(spec)
        assert len(table.rules) == 30
        assert find_overlapping_rules(table) == []
        assert find_missing_rules(table) == []

    def test_reference_cell_shape(self):
        spec = GenSpec(columns=bench_columns(3), target_rules=499, seed=42)
        table = generate_table(spec)
        assert len(table.rules) == 499
        assert find_overlapping_rules(table) == []
        assert find_missing_rules(table) == []

    def test_single_rule_covers_universe(self):
        table = generate_table(GenSpec(columns=SMALL, target_rules=1,
                                       seed=0))
        assert len(table.rules) == 1
        assert table.rules[0].id == "r1"
        assert find_missing_rules(table) == []

    def test_deterministic(self):
        spec = GenSpec(columns=SMALL, target_rules=25, seed=77)
        assert dump_table(generate_table(spec)) \
            == dump_table(generate_table(spec))

    def test_generated_table_checks_correct(self):
        table = generate_table(GenSpec(columns=SMALL, target_rules=20,
                                       seed=3))
        assert table.hit_policy == "u" and table.completeness == "c"
        assert check_correct(table).correct

    def test_capacity_rejected(self):
        cols = (ColumnSpec("cat", Kind.STRING, categories=("a", "b")),)
        with pytest.raises(SpecError):
            generate_table(GenSpec(columns=cols, target_rules=3, seed=0))

    def test_bad_specs_rejected(self):
        with pytest.raises(SpecError):
            generate_table(GenSpec(columns=SMALL, target_rules=0, seed=0))
        with pytest.raises(SpecError):
            generate_table(GenSpec(
                columns=(ColumnSpec("c", Kind.STRING, categories=()),),
                target_rules=1, seed=0))
        with pytest.raises(SpecError):
            generate_table(GenSpec(
                columns=(ColumnSpec("n", Kind.INTEGER, lo=5, hi=4),),
                target_rules=1, seed=0))

    # sha256 of ``dmncheck generate`` output with seed 1, recorded before
    # the generator kept its cuttable leaves in a list of their own.
    @pytest.mark.parametrize("args,digest", [
        ("--columns 3 --rules 20",
         "d666188db2fd843ab0f2bd003c27eac6ab84e8f7157e4dcf0ef84803086075f5"),
        ("--columns 5 --rules 200",
         "102222ee38715c165c757fb8c62a50018bf0896171bd33f5ea023fff129e82a5"),
        ("--columns 7 --rules 1500",
         "d3b0694f2c8e015927b03bfb706dc54eaaaaa62cd64d41b08c9563a79905dd22"),
        ("--columns 5 --rules 300 --inject both",
         "ca51b0b9a09ccd95a431740f7562ee5f02e4b58c1e4a2fc37fb9e192659930ca"),
    ], ids=["3x20", "5x200", "7x1500", "5x300-both"])
    def test_documents_pinned(self, capsys, args, digest):
        assert main(["generate", *args.split(), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def cell(text, column):
    return parse_condition(text, column.kind)


# Every cell form the generator and the noise edits write, over a small
# column: "-", "k" and "[a..b]"; "-" and any set of categories.
NUM = ColumnSpec("n", Kind.INTEGER, lo=0, hi=10)
CAT = ColumnSpec("c", Kind.STRING, categories=("K1", "K2", "K3"))
GENERATED_CELLS = (
    [(NUM, _render_leaf_entry(NUM, lo, hi))
     for lo in range(11) for hi in range(lo, 11)]
    + [(CAT, "-")]
    + [(CAT, ",".join(kept)) for k in (1, 2, 3)
       for kept in combinations(CAT.categories, k)])


class TestNoise:
    def test_widen_one_step_each_side(self):
        col = ColumnSpec("n", Kind.INTEGER, lo=0, hi=10)
        rng = random.Random(0)
        assert _widen(cell("[3..6]", col), col, rng) == "[2..7]"
        assert _widen(cell("[0..4]", col), col, rng) == "[0..5]"
        assert _widen(cell("[7..10]", col), col, rng) == "[6..10]"
        assert _widen(cell("5", col), col, rng) == "[4..6]"
        assert _widen(cell("-", col), col, rng) is None

    def test_widen_adds_absent_category(self):
        col = ColumnSpec("c", Kind.STRING, categories=("K1", "K2", "K3"))
        got = _widen(cell("K1", col), col, random.Random(1))
        assert got in ("K1,K2", "K1,K3")
        assert _widen(cell("K1,K2,K3", col), col, random.Random(1)) is None
        assert _widen(cell("K1,K2", col), col, random.Random(1)) == "-"

    def test_shrink(self):
        col = ColumnSpec("n", Kind.INTEGER, lo=0, hi=10)
        rng = random.Random(0)
        assert _shrink(cell("[3..6]", col), col, rng) == "[4..5]"
        assert _shrink(cell("[3..4]", col), col, rng) in ("3", "4")
        assert _shrink(cell("5", col), col, rng) is None
        cat = ColumnSpec("c", Kind.STRING, categories=("K1", "K2", "K3"))
        assert _shrink(cell("K1,K2", cat), cat, rng) in ("K1", "K2")
        assert _shrink(cell("K1", cat), cat, rng) is None

    @pytest.mark.parametrize("mutate", [_widen, _shrink])
    def test_editability_ignores_generator_state(self, mutate):
        # inject_noise probes every cell with one scratch generator, which
        # is exact only while an edit decides before its first draw.
        for column, text in GENERATED_CELLS:
            cond = cell(text, column)
            verdicts = {mutate(cond, column, random.Random(seed)) is None
                        for seed in range(20)}
            assert len(verdicts) == 1, text

    @pytest.mark.parametrize("column, text", [
        (CAT, "not(K1)"), (CAT, "K1,not(K2)"), (NUM, "(3..7]"),
        (NUM, "<5")])
    def test_other_forms_never_edited(self, column, text):
        cond = cell(text, column)
        for seed in range(10):
            assert _widen(cond, column, random.Random(seed)) is None
            assert _shrink(cond, column, random.Random(seed)) is None

    def test_edits_the_loaded_table(self):
        # The noised table is the one its own document loads back to.
        base = generate_table(GenSpec(columns=SMALL, target_rules=30,
                                      seed=3))
        for seed, modes in enumerate([("overlap",), ("missing",),
                                      ("overlap", "missing"),
                                      ("missing", "missing")]):
            table = base
            for mode in modes:
                table = inject_noise(table, SMALL, mode, 0.3, seed)
                again = load_table(dump_table(table))
                assert table.rules == again.rules
                assert table.priority == again.priority
                assert (table.inputs, table.outputs) \
                    == (again.inputs, again.outputs)

    def test_overlap_noise_effective(self):
        spec = GenSpec(columns=SMALL, target_rules=30, seed=11)
        base = generate_table(spec)
        noisy = inject_noise(base, SMALL, "overlap", 0.1, seed=1)
        assert find_overlapping_rules(noisy)
        # widening never uncovers anything
        assert find_missing_rules(noisy) == []

    def test_missing_noise_effective(self):
        spec = GenSpec(columns=SMALL, target_rules=30, seed=11)
        base = generate_table(spec)
        gappy = inject_noise(base, SMALL, "missing", 0.1, seed=2)
        assert find_missing_rules(gappy)
        # shrinking never creates overlap
        assert find_overlapping_rules(gappy) == []

    def test_noise_rule_count_sample_size(self):
        spec = GenSpec(columns=SMALL, target_rules=30, seed=11)
        base = generate_table(spec)
        noisy = inject_noise(base, SMALL, "overlap", 0.1, seed=1)
        changed = sum(
            1 for a, b in zip(base.rules, noisy.rules)
            if a.input_entries != b.input_entries)
        assert changed == 3  # ceil(0.1 * 30)

    def test_deterministic(self):
        base = generate_table(GenSpec(columns=SMALL, target_rules=20,
                                      seed=4))
        one = inject_noise(base, SMALL, "missing", 0.2, seed=9)
        two = inject_noise(base, SMALL, "missing", 0.2, seed=9)
        assert dump_table(one) == dump_table(two)

    def test_bad_fraction(self):
        base = generate_table(GenSpec(columns=SMALL, target_rules=5,
                                      seed=0))
        for fraction in (0, -0.5, 1.5):
            with pytest.raises(SpecError):
                inject_noise(base, SMALL, "overlap", fraction)
        with pytest.raises(SpecError):
            inject_noise(base, SMALL, "sideways", 0.1)


def _boxes_adjacent(a, b, discrete) -> bool:
    # Connected union: every column intersects or is contiguous, and at
    # most one column is merely contiguous.
    soft = 0
    for d, disc in enumerate(discrete):
        if a[d].intersect(b[d]) is not None:
            continue
        if len(canonical([a[d], b[d]], disc)) == 1:
            soft += 1
            if soft > 1:
                return False
        else:
            return False
    return True


def _component_count(pieces: list, discrete) -> int:
    # Connected components of a union of boxes, by union-find over
    # every adjacent pair.
    parent = list(range(len(pieces)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            ri, rj = find(i), find(j)
            if ri != rj and _boxes_adjacent(pieces[i], pieces[j], discrete):
                parent[ri] = rj
    return len({find(i) for i in range(len(pieces))})


class TestFragments:
    def test_reference_pair(self, table1):
        assert pairwise_overlap_fragments(
            table1, find_overlapping_rules(table1)) == 1

    def test_three_identical_rules(self):
        table = load_table({
            "name": "trio", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "x", "type": "integer",
                        "facet": "[0..9]"}],
            "outputs": [{"name": "y", "type": "string"}],
            "rules": [{"id": f"r{i}", "in": ["[2..5]"], "out": ["a"]}
                      for i in range(3)],
        })
        groups = find_overlapping_rules(table)
        assert pairwise_overlap_fragments(table, groups) == 3
        assert len(groups) == 1

    def test_disjoint_rules(self):
        # Apart, then contiguous but disjoint: no pair intersects.
        for kind, p, q in (("integer", "[0..3]", "[6..9]"),
                           ("integer", "[0..3]", "[4..9]"),
                           ("real", "[0..1)", "[1..2]")):
            table = load_table({
                "name": "d", "hitPolicy": "U", "completeness": "I",
                "inputs": [{"name": "x", "type": kind,
                            "facet": "[0..9]"}],
                "outputs": [{"name": "y", "type": "string"}],
                "rules": [{"id": "p", "in": [p], "out": ["a"]},
                          {"id": "q", "in": [q], "out": ["a"]}],
            })
            assert pairwise_overlap_fragments(
                table, find_overlapping_rules(table)) == 0, (p, q)

    def test_fragmented_pair_counted_per_component(self):
        # q's two disjoint blocks both meet p: one pair, two fragments
        table = load_table({
            "name": "f", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "x", "type": "integer",
                        "facet": "[0..9]"}],
            "outputs": [{"name": "y", "type": "string"}],
            "rules": [{"id": "p", "in": ["[0..9]"], "out": ["a"]},
                      {"id": "q", "in": ["[1..2],[6..7]"], "out": ["a"]}],
        })
        assert pairwise_overlap_fragments(
            table, find_overlapping_rules(table)) == 2

    def test_at_least_group_count_on_random_noise(self):
        rng = random.Random(2)
        for seed in range(5):
            base = generate_table(GenSpec(columns=SMALL, target_rules=25,
                                          seed=seed))
            noisy = inject_noise(base, SMALL, "overlap", 0.2,
                                 seed=seed + 100)
            groups = find_overlapping_rules(noisy)
            assert pairwise_overlap_fragments(noisy, groups) >= len(groups)

    def test_matches_all_pairs_brute_force(self):
        # Every rule pair, with no candidate filter, on mixed-kind tables;
        # each pair's intersection boxes are joined by union-find.
        rng = random.Random(11)
        overlapping = 0
        for _ in range(300):
            table = random_table(rng)
            geometry = table.geometry
            expected = 0
            for a, b in combinations(table.rules, 2):
                pieces = []
                for ra in rule_boxes(geometry, a.id):
                    for rb in rule_boxes(geometry, b.id):
                        got = tuple(x.intersect(y) for x, y in zip(ra, rb))
                        if None not in got:
                            pieces.append(got)
                expected += _component_count(pieces, geometry.discrete)
            overlapping += expected > 0
            assert pairwise_overlap_fragments(
                table, find_overlapping_rules(table)) == expected
        assert overlapping > 100


class TestBenchmark:
    def test_empty_suite(self):
        report = run_benchmark([])
        assert report.cells == ()
        assert report.to_doc()["cells"] == []

    def test_single_cell_consistent_with_direct_calls(self):
        spec = GenSpec(columns=SMALL, target_rules=20, seed=8)
        report = run_benchmark([spec], runs=1, noise_fraction=0.1)
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert cell.columns == 2 and cell.rules == 20

        base = generate_table(GenSpec(columns=SMALL, target_rules=20,
                                      seed=spec.seed))
        noisy = inject_noise(base, SMALL, "overlap", 0.1, spec.seed + 1)
        gappy = inject_noise(base, SMALL, "missing", 0.1, spec.seed + 2)
        groups = find_overlapping_rules(noisy)
        assert cell.overlap_groups == len(groups)
        assert cell.missing_regions == len(find_missing_rules(gappy))
        assert cell.pairwise_fragments \
            == pairwise_overlap_fragments(noisy, groups)
        assert cell.overlap_ms >= 0 and cell.missing_ms >= 0

    def test_grid_layout(self):
        specs = benchmark_grid()
        assert len(specs) == 9
        assert [len(s.columns) for s in specs] == [3, 3, 3, 5, 5, 5,
                                                   7, 7, 7]
        assert [s.target_rules for s in specs] \
            == [500, 1000, 1500] * 3
        kinds = [c.kind for c in specs[8].columns]
        assert kinds.count(Kind.STRING) == 2

    def test_report_document_schema(self):
        spec = GenSpec(columns=SMALL, target_rules=10, seed=2)
        doc = run_benchmark([spec], runs=1).to_doc()
        cell = doc["cells"][0]
        assert set(cell) == {"columns", "rules", "seed", "overlapMs",
                             "missingMs", "overlapGroups",
                             "missingRegions", "pairwiseFragments"}
        text = run_benchmark([spec], runs=1).to_text()
        assert "overlap ms" in text and "fragments" in text

    def test_runs_validated(self):
        with pytest.raises(SpecError):
            run_benchmark([], runs=0)
