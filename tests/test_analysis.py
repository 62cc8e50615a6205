"""The two sweep analyses against frozen expectations and the
brute-force grid oracles."""

import copy
import gc
import random
from functools import reduce

import pytest

from dmncheck import (FACET_INCOMPAT, CapacityError, Interval1D,
                      build_codec, check_correct, find_missing_rules,
                      find_overlapping_rules, load_table,
                      lower_to_intervals, oracle_missing, oracle_overlaps,
                      pairwise_overlap_fragments, validate_structure)
from dmncheck.analysis import (build_grid, grid_cells_of_boxes, render_box,
                               table_rects)
from dmncheck.intervals import canonical, intersect_sets
from dmncheck.sfeel import Kind
from dmncheck.synth import ColumnSpec, GenSpec, generate_table, inject_noise

from conftest import (loan_doc, random_table, random_table_doc,
                      region_contained, rule_boxes)

INF = float("inf")


def iv(lo, lc, hi, hc):
    return Interval1D(lo, lc, hi, hc)


# Frozen expectations for the loan-grading table, derived once by
# hand-partitioning the plane and confirmed by the grid oracle.
LOAN_MISSING_CONDITIONS = {
    ("[0..250)", ">1000"),
    ("[250..500)", "(1000..4000)"),
    ("[250..750]", ">5000"),
    ("[500..750]", "(3000..4000)"),
    ("(750..1500]", ">3000"),
    ("(1000..1500]", "[0..500)"),
    ("(1500..2000)", "-"),
    ("[2000..2500]", ">2000"),
    (">2500", "-"),
}


class TestOverlapReference:
    def test_single_group_a_c(self, table1):
        groups = find_overlapping_rules(table1)
        assert len(groups) == 1
        assert groups[0].rule_ids == frozenset({"A", "C"})

    def test_witness_exact(self, table1):
        witness = find_overlapping_rules(table1)[0].witness
        assert witness == (iv(500.0, True, 1000.0, True),
                           iv(500.0, True, 1000.0, True))

    def test_oracle_agrees(self, table1):
        assert [g.rule_ids for g in oracle_overlaps(table1)] \
            == [frozenset({"A", "C"})]


class TestMissingReference:
    def test_conditions_exact(self, table1):
        regions = find_missing_rules(table1)
        assert {r.conditions for r in regions} == LOAN_MISSING_CONDITIONS

    def test_cells_equal_oracle(self, table1):
        regions = find_missing_rules(table1)
        grid = build_grid(table1)
        assert grid_cells_of_boxes(grid, [r.box for r in regions]) \
            == oracle_missing(table1)

    def test_contains_uncovered_probe(self, table1):
        regions = find_missing_rules(table1)
        hit = [r for r in regions
               if r.box[0].contains(200.0)
               and r.box[1].contains(2000.0)]
        assert len(hit) == 1
        assert hit[0].conditions == ("[0..250)", ">1000")

    def test_narrative_boxes_present(self, table1):
        boxes = {r.box for r in find_missing_rules(table1)}
        assert (iv(0.0, True, 250.0, False),
                iv(1000.0, False, INF, False)) in boxes
        assert (iv(250.0, True, 500.0, False),
                iv(1000.0, False, 4000.0, False)) in boxes


class TestSmallCases:
    def test_zero_rules(self):
        table = load_table({
            "name": "empty", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "x", "type": "integer",
                        "facet": "[0..3]"}],
            "outputs": [{"name": "y", "type": "boolean"}],
            "rules": [],
        })
        assert find_overlapping_rules(table) == []
        regions = find_missing_rules(table)
        assert [r.conditions for r in regions] == [("-",)]

    def test_full_cover_no_missing(self, tiny_full_cover):
        assert find_missing_rules(tiny_full_cover) == []
        assert find_overlapping_rules(tiny_full_cover) == []

    def test_three_identical_rules_one_group(self):
        table = load_table({
            "name": "trio", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "x", "type": "integer",
                        "facet": "[0..9]"}],
            "outputs": [{"name": "y", "type": "string"}],
            "rules": [{"id": f"r{i}", "in": ["[2..5]"], "out": ["a"]}
                      for i in range(3)],
        })
        groups = find_overlapping_rules(table)
        assert [g.rule_ids for g in groups] \
            == [frozenset({"r0", "r1", "r2"})]

    def test_real_gap_between_closed_intervals(self):
        table = load_table({
            "name": "gap", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "x", "type": "real", "facet": "[0..10]"}],
            "outputs": [{"name": "y", "type": "boolean"}],
            "rules": [
                {"id": "lo", "in": ["[0..3]"], "out": ["true"]},
                {"id": "hi", "in": ["[7..10]"], "out": ["true"]},
            ],
        })
        regions = find_missing_rules(table)
        assert [r.box for r in regions] \
            == [(iv(3.0, False, 7.0, False),)]
        assert [r.conditions for r in regions] == [("(3..7)",)]

    def test_real_gap_merges_closed_point_with_open_stretch(self):
        # The gaps above b = 0.5 at a = 1 and at a in (1..2] are one
        # region: the closed point must sort before the open stretch.
        table = load_table({
            "name": "merge", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "a", "type": "real", "facet": "[0..2]"},
                       {"name": "b", "type": "real", "facet": "[0..1]"}],
            "outputs": [{"name": "y", "type": "boolean"}],
            "rules": [
                {"id": "r1", "in": ["[0..1)", "[0..1]"], "out": ["true"]},
                {"id": "r2", "in": ["1", "[0..0.5]"], "out": ["true"]},
                {"id": "r3", "in": ["(1..2]", "[0..0.5]"], "out": ["true"]},
            ],
        })
        regions = find_missing_rules(table)
        assert [r.box for r in regions] \
            == [(iv(1.0, True, 2.0, True), iv(0.5, False, 1.0, True))]
        assert [r.conditions for r in regions] == [("[1..2]", "(0.5..1]")]

    def test_gap_joins_across_two_sweep_levels(self):
        # z in [5..7] is uncovered everywhere.  Under x in [0..5) the
        # y-stretches of A and B each leave it, and one merge in column
        # y joins them; the x-stretches [0..5) and [5..10] then leave
        # the same rest, and one merge in column x joins those.
        table = load_table({
            "name": "two-levels", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "x", "type": "real", "facet": "[0..10]"},
                       {"name": "y", "type": "integer", "facet": "[0..9]"},
                       {"name": "z", "type": "integer", "facet": "[0..9]"}],
            "outputs": [{"name": "o", "type": "boolean"}],
            "rules": [
                {"id": "A", "in": ["[0..5)", "[0..4]", "[0..4]"],
                 "out": ["true"]},
                {"id": "B", "in": ["[0..5)", "[5..9]", "[0..4]"],
                 "out": ["true"]},
                {"id": "C", "in": ["[5..10]", "-", "[0..4]"],
                 "out": ["true"]},
                {"id": "D", "in": ["-", "-", "[8..9]"], "out": ["true"]},
            ],
        })
        regions = find_missing_rules(table)
        assert [r.box for r in regions] == [(iv(0.0, True, 10.0, True),
                                             iv(0, True, 9, True),
                                             iv(5, True, 7, True))]
        assert [r.conditions for r in regions] == [("-", "-", "[5..7]")]
        _assert_missing_matches_oracle(table)

    def test_nested_rules_overlap(self):
        table = load_table({
            "name": "nest", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "x", "type": "integer",
                        "facet": "[0..9]"}],
            "outputs": [{"name": "y", "type": "string"}],
            "rules": [
                {"id": "inner", "in": ["[3..4]"], "out": ["a"]},
                {"id": "outer", "in": ["[0..9]"], "out": ["b"]},
            ],
        })
        assert [g.rule_ids for g in find_overlapping_rules(table)] \
            == [frozenset({"inner", "outer"})]

    def test_closed_touch_is_an_overlap_point(self):
        table = load_table({
            "name": "touch", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "x", "type": "real", "facet": "[0..9]"}],
            "outputs": [{"name": "y", "type": "string"}],
            "rules": [
                {"id": "lo", "in": ["[0..5]"], "out": ["a"]},
                {"id": "hi", "in": ["[5..9]"], "out": ["b"]},
            ],
        })
        groups = find_overlapping_rules(table)
        assert len(groups) == 1
        assert groups[0].witness \
            == (iv(5.0, True, 5.0, True),)

    def test_open_touch_leaves_point_gap(self):
        table = load_table({
            "name": "touch", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "x", "type": "real", "facet": "[0..9]"}],
            "outputs": [{"name": "y", "type": "string"}],
            "rules": [
                {"id": "lo", "in": ["[0..5)"], "out": ["a"]},
                {"id": "hi", "in": ["(5..9]"], "out": ["b"]},
            ],
        })
        assert find_overlapping_rules(table) == []
        regions = find_missing_rules(table)
        assert [r.box for r in regions] \
            == [(iv(5.0, True, 5.0, True),)]
        assert [r.conditions for r in regions] == [("5",)]

    def test_multi_rect_rule_no_self_overlap(self):
        table = load_table({
            "name": "split", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "x", "type": "integer",
                        "facet": "[0..9]"}],
            "outputs": [{"name": "y", "type": "string"}],
            "rules": [{"id": "r", "in": ["[0..2],[5..7]"], "out": ["a"]}],
        })
        assert find_overlapping_rules(table) == []

    def test_rule_split_in_two_columns(self):
        # r holds two members in each column, so its region is four
        # disjoint blocks; a covering rule meets each block once.
        doc = {
            "name": "split2", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "x", "type": "integer",
                        "facet": "[0..9]"},
                       {"name": "c", "type": "string",
                        "facet": "a,b,c,d"}],
            "outputs": [{"name": "y", "type": "string"}],
            "rules": [{"id": "r", "in": ["[0..2],[5..7]", "a,c"],
                       "out": ["a"]}],
        }
        table = load_table(doc)
        assert len(rule_boxes(table.geometry, "r")) == 4
        assert find_overlapping_rules(table) == []
        grid = build_grid(table)
        assert grid_cells_of_boxes(
            grid, [r.box for r in find_missing_rules(table)]) \
            == oracle_missing(table)

        doc["rules"].append({"id": "all", "in": ["-", "-"], "out": ["b"]})
        table = load_table(doc)
        groups = find_overlapping_rules(table)
        assert [g.rule_ids for g in groups] == [frozenset({"r", "all"})]
        assert pairwise_overlap_fragments(table, groups) == 4

    def test_categorical_gap_decoded(self):
        table = load_table({
            "name": "cats", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "Purpose", "type": "string",
                        "facet": "Refinancing,CardPayoff,Leasing"}],
            "outputs": [{"name": "y", "type": "boolean"}],
            "rules": [{"id": "r", "in": ["CardPayoff"], "out": ["true"]}],
        })
        regions = find_missing_rules(table)
        assert {r.conditions for r in regions} \
            == {("Refinancing",), ("Leasing",)}

    def test_single_category_column_renders_any(self):
        # A column naming no category codes one placeholder.  The
        # oracle's witness there is a grid cell such as [0..0], not the
        # whole unit [0..1); a cell meeting every category renders "-".
        table = load_table({
            "name": "one-cat", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "s", "type": "string"},
                       {"name": "x", "type": "integer"}],
            "outputs": [{"name": "y", "type": "boolean"}],
            "rules": [{"id": "a", "in": ["-", "[0..5]"], "out": ["true"]},
                      {"id": "b", "in": ["-", "[3..9]"], "out": ["false"]}],
        })
        assert [g.conditions for g in find_overlapping_rules(table)] \
            == [("-", "[3..5]")]
        assert [g.conditions for g in oracle_overlaps(table)] \
            == [("-", "3")]

    def test_box_over_the_universe_renders_any(self):
        # The discrete (-1..1001) is [0..1000] once normalised; the real
        # [0..1000) misses the point 1000 of its universe.
        table = load_table({
            "name": "universe", "hitPolicy": "U", "completeness": "I",
            "inputs": [{"name": "n", "type": "integer", "facet": "[0..1000]"},
                       {"name": "x", "type": "real", "facet": "[0..1000]"}],
            "outputs": [{"name": "y", "type": "boolean"}],
            "rules": [{"id": "r", "in": ["-", "-"], "out": ["true"]}],
        })
        assert render_box(table, (iv(-1, False, 1001, False),
                                  iv(0, True, 1000, False))) \
            == ("-", "[0..1000)")
        assert render_box(table, (iv(0, True, 1000, True),
                                  iv(0, True, 1000, True))) == ("-", "-")

    def test_capacity_cap(self, table1):
        with pytest.raises(CapacityError):
            oracle_missing(table1, cell_cap=3)


class TestRegionContained:
    def test_basic(self):
        a = [(iv(2, True, 3, True),)]
        b = [(iv(0, True, 10, True),)]
        assert region_contained(a, b, (True,))
        assert not region_contained(b, a, (True,))

    def test_union_cover(self):
        a = [(iv(2, True, 6, True),)]
        b = [(iv(0, True, 4, True),), (iv(5, True, 8, True),)]
        assert region_contained(a, b, (True,))
        # with a genuine hole it fails
        c = [(iv(0, True, 4, True),), (iv(6, True, 8, True),)]
        assert not region_contained(a, c, (True,))


def _antichain(groups):
    families = [g.rule_ids for g in groups]
    for i, a in enumerate(families):
        for j, b in enumerate(families):
            if i != j and a <= b:
                return False
    return True


# Real columns whose intervals nest, stair-step and meet at 5 with every
# open/closed mix, and an outer [0..10] holding two disjoint inner rules:
# maximal cliques begin and end at shared endpoints.
SHARED_ENDPOINTS_DOC = {
    "name": "shared-endpoints", "hitPolicy": "U", "completeness": "I",
    "inputs": [{"name": "x", "type": "real"},
               {"name": "y", "type": "real", "facet": "[0..10]"}],
    "outputs": [{"name": "o", "type": "string"}],
    "rules": [{"id": f"r{k}", "in": [x, y], "out": ["a"]}
              for k, (x, y) in enumerate(zip(
                  ["<5", "<=5", "[5..5]", "(5..9]", ">=5", "[0..10]",
                   "[1..3]", "[6..8]", "[2..6]", "[4..8)", "(6..10]"],
                  ["[0..10]", ">=5", "<=5", "<5", "(5..9]", "[5..5]",
                   "[2..6]", "[6..8]", "[1..3]", "(6..10]", "[4..8)"]))],
}


def test_sweeps_match_oracles_on_random_tables():
    rng = random.Random(424242)
    tables = [random_table(rng) for _ in range(250)]
    tables += [random_table(rng, max_rules=14) for _ in range(250)]
    tables.append(load_table(SHARED_ENDPOINTS_DOC))
    for table in tables:
        groups = find_overlapping_rules(table)
        assert _antichain(groups)
        oracle = oracle_overlaps(table)
        assert {g.rule_ids for g in groups} == {g.rule_ids for g in oracle}
        # The oracle's witness is its first grid cell in walk order, and
        # the sweep's is the least corner of the group's region.
        witness_of = {g.rule_ids: g.witness for g in groups}
        for g in oracle:
            assert all(big.covers(small) for big, small
                       in zip(witness_of[g.rule_ids], g.witness))

        _assert_missing_matches_oracle(table)


def _assert_missing_matches_oracle(table, cell_cap: int = 10 ** 6):
    regions = find_missing_rules(table)
    grid = build_grid(table, cell_cap)
    cells = oracle_missing(table, cell_cap)
    assert grid_cells_of_boxes(grid, [r.box for r in regions]) == cells
    # pairwise disjoint boxes: per-box cell counts sum to the union
    total = sum(len(grid_cells_of_boxes(grid, [r.box])) for r in regions)
    assert total == len(cells)
    # merged to a fixpoint: no two regions differ in one column only,
    # where they are contiguous
    discrete = table.geometry.discrete
    boxes = [r.box for r in regions]
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            differ = [d for d in range(len(a)) if a[d] != b[d]]
            if len(differ) == 1:
                d, = differ
                assert not (a[d].intersect(b[d]) is None and len(
                    canonical([a[d], b[d]], discrete[d])) == 1)


def test_missing_regions_merged_on_noised_synth_tables():
    # Missing noise leaves gaps that span many slabs of each sweep
    # level, so every level's one merge in its own column has work.
    for n_cols, n_rules, hi, seed in ((3, 60, 20, 1), (3, 150, 30, 2),
                                      (4, 100, 20, 3), (4, 150, 20, 4)):
        columns = tuple(ColumnSpec(f"n{i}", Kind.INTEGER, lo=0, hi=hi)
                        for i in range(n_cols - 1))
        columns += (ColumnSpec("k", Kind.STRING, categories=("a", "b", "c")),)
        table = inject_noise(
            generate_table(GenSpec(columns, n_rules, seed=seed)), columns,
            "missing", 0.2, seed=seed)
        _assert_missing_matches_oracle(table, cell_cap=200_000)


def test_column_permutation_permutes_the_reports():
    # Permuting the input columns permutes each overlap witness and each
    # uncovered grid cell, and keeps the groups and the verdict.
    rng = random.Random(737373)
    for _ in range(300):
        doc = random_table_doc(rng)
        perm = list(range(len(doc["inputs"])))
        rng.shuffle(perm)
        moved = copy.deepcopy(doc)
        moved["inputs"] = [doc["inputs"][p] for p in perm]
        for rule, old in zip(moved["rules"], doc["rules"]):
            rule["in"] = [old["in"][p] for p in perm]
        table, permuted = load_table(doc), load_table(moved)

        expected = {g.rule_ids: tuple(g.conditions[p] for p in perm)
                    for g in find_overlapping_rules(table)}
        assert {g.rule_ids: g.conditions
                for g in find_overlapping_rules(permuted)} == expected
        assert oracle_missing(permuted) == {
            tuple(cell[p] for p in perm) for cell in oracle_missing(table)}
        assert check_correct(permuted).correct \
            == check_correct(table).correct


def test_sweeps_leave_no_reference_cycles():
    # A cycle would keep each sweep's memo alive after it returns, until
    # the cyclic collector runs.
    rng = random.Random(919191)
    tables = [load_table(loan_doc())] + [random_table(rng)
                                        for _ in range(20)]
    for table in tables:
        table.geometry
        for analyse in (find_missing_rules, find_overlapping_rules):
            gc.collect()
            gc.disable()
            try:
                analyse(table)
                assert gc.collect() == 0
            finally:
                gc.enable()


def test_witnesses_covered_by_all_members():
    rng = random.Random(515151)
    seen = 0
    while seen < 40:
        table = random_table(rng)
        groups = find_overlapping_rules(table)
        if not groups:
            continue
        seen += 1
        geometry = table_rects(table)
        for group in groups:
            for rid in group.rule_ids:
                assert region_contained(
                    [group.witness],
                    rule_boxes(geometry, rid), geometry.discrete)


def test_witness_is_the_fold_over_all_members_in_table_order():
    # The sweep folds each distinct column set once, in no fixed order.
    rng = random.Random(626262)
    seen = 0
    while seen < 60:
        table = random_table(rng)
        groups = find_overlapping_rules(table)
        if not groups:
            continue
        seen += 1
        columns_of = table.geometry.columns_of
        for group in groups:
            ids = [r.id for r in table.rules if r.id in group.rule_ids]
            assert group.witness == tuple(
                reduce(intersect_sets, (columns_of[rid][d] for rid in ids))[0]
                for d in range(len(table.inputs)))


def test_missing_regions_disjoint_from_rules():
    rng = random.Random(616161)
    for _ in range(60):
        table = random_table(rng)
        regions = find_missing_rules(table)
        grid = build_grid(table)
        covered = grid_cells_of_boxes(
            grid, [r.box for r in regions])
        assert covered == oracle_missing(table)


def _entry_in_facet(cond, attr, codec):
    # Per-cell lowering of entry and facet, with no memo: the reference
    # for the column sets and empty cells recorded in the table geometry.
    categories = codec.categories(attr.name) if attr.kind.is_categorical \
        else None
    entry = lower_to_intervals(cond, attr.kind, categories)
    facet = lower_to_intervals(attr.facet, attr.kind, categories)
    return intersect_sets(entry, facet)


def _incompatible(cond, attr, codec) -> bool:
    return not _entry_in_facet(cond, attr, codec)


def _rule_columns(rule, table, codec) -> tuple:
    # The rule's entry ∩ facet members, one tuple per input column.
    return tuple(_entry_in_facet(cond, attr, codec)
                 for attr, cond in zip(table.inputs, rule.input_entries))


def test_cached_geometry_matches_per_rule_lowering():
    rng = random.Random(737373)
    empty_seen = 0
    for _ in range(200):
        table = random_table(rng)
        geometry = table.geometry
        assert table.geometry is geometry
        codec = build_codec(table)
        assert geometry.codec == codec

        expected = {rule.id: _rule_columns(rule, table, codec)
                    for rule in table.rules}
        assert geometry.columns_of == expected
        assert list(geometry.columns_of) == [rule.id for rule in table.rules]
        # The overlap sweep's clique rule needs closed finite bounds in
        # discrete columns.
        for sets in geometry.columns_of.values():
            for members, discrete in zip(sets, geometry.discrete):
                if discrete:
                    assert all(m.lo_closed or m.lo == -INF for m in members)
                    assert all(m.hi_closed or m.hi == INF for m in members)

        cells = {(rule.id, d) for rule in table.rules
                 for d, (attr, cond) in enumerate(zip(table.inputs,
                                                      rule.input_entries))
                 if _incompatible(cond, attr, codec)}
        assert cells == {(rid, d)
                         for rid, sets in geometry.columns_of.items()
                         for d, members in enumerate(sets) if not members}
        input_names = table.input_names()
        flagged = {(diag.rule_ids[0], input_names.index(diag.columns[0]))
                   for diag in validate_structure(table)
                   if diag.code == FACET_INCOMPAT
                   and diag.columns[0] in input_names}
        assert flagged == cells
        empty_seen += len(cells)
    assert empty_seen > 0
