"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line on the real terminal (bypassing
capture) and then asserts, so a full run shows nine verdict lines:

1. Reference evaluation returns Grade=G via rule B and NoMatch, <10 ms.
2. Overlap analysis finds exactly {A, C} with the exact witness, <10 ms.
3. Missing analysis equals the grid oracle cell-for-cell, <10 ms.
4. 1,000 random tables: both sweeps match their oracles, <60 s.
5. All nine benchmark cells complete; each 7-column sweep <60 s.
6. Reported groups form a strict antichain; pairwise fragments
   dominate group counts with strict inequality somewhere.
7. Generated tables are clean pre-noise; each noise mode plants >=1
   defect at 10%.
8. 500 random (table, input) pairs: hit-policy semantics hold with
   zero counterexamples.
9. The whole-table verdict is false for the reference table and true
   for a single full-cover rule.
"""

import random
import time

import pytest

from dmncheck import (COMPLETENESS_MISMATCH, Interval1D, OVERLAP,
                      Outcome, benchmark_grid, check_correct, evaluate,
                      find_missing_rules, find_overlapping_rules,
                      generate_table, inject_noise, load_table,
                      oracle_missing, oracle_overlaps,
                      pairwise_overlap_fragments, triggered_by)
from dmncheck.analysis import build_grid, grid_cells_of_boxes

from conftest import loan_doc, random_input, random_table_doc


def iv(lo, lc, hi, hc):
    return Interval1D(lo, lc, hi, hc)


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def best_ms(fn, repeats=3):
    """Steady-state runtime: best of a few runs after one warm-up."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best


@pytest.fixture(scope="module")
def table1():
    return load_table(loan_doc())


@pytest.fixture(scope="module")
def bench_cells():
    """One pass over the nine-cell benchmark grid with both noise
    modes; shared by criteria 5, 6, and 7."""
    cells = []
    for spec in benchmark_grid():
        base = generate_table(spec)
        clean_overlaps = find_overlapping_rules(base)
        clean_missing = find_missing_rules(base)

        noisy = inject_noise(base, spec.columns, "overlap", 0.1,
                             spec.seed + 1)
        start = time.perf_counter()
        groups = find_overlapping_rules(noisy)
        overlap_s = time.perf_counter() - start
        fragments = pairwise_overlap_fragments(noisy, groups)

        gappy = inject_noise(base, spec.columns, "missing", 0.1,
                             spec.seed + 2)
        start = time.perf_counter()
        regions = find_missing_rules(gappy)
        missing_s = time.perf_counter() - start

        cells.append({
            "columns": len(spec.columns),
            "rules": spec.target_rules,
            "clean_overlaps": len(clean_overlaps),
            "clean_missing": len(clean_missing),
            "groups": groups,
            "regions": len(regions),
            "fragments": fragments,
            "overlap_s": overlap_s,
            "missing_s": missing_s,
        })
    return cells


def test_criterion_1_reference_evaluation(table1, capsys):
    hit = evaluate(table1, {"Annual Income": 500, "Loan Size": 4230})
    miss = evaluate(table1, {"Annual Income": 200, "Loan Size": 2000})
    exact = (hit.outcome is Outcome.MATCHED and hit.rule.id == "B"
             and hit.outputs == {"Grade": "G"}
             and miss.outcome is Outcome.NO_MATCH)
    ms = best_ms(lambda: (
        evaluate(table1, {"Annual Income": 500, "Loan Size": 4230}),
        evaluate(table1, {"Annual Income": 200, "Loan Size": 2000})))
    announce(capsys, 1, exact and ms < 10.0,
             f"eval yields Grade=G via B and NoMatch ({ms:.2f} ms < 10 ms)")


def test_criterion_2_reference_overlap(table1, capsys):
    groups = find_overlapping_rules(table1)
    expected_witness = (iv(500.0, True, 1000.0, True),
                        iv(500.0, True, 1000.0, True))
    exact = (len(groups) == 1
             and groups[0].rule_ids == frozenset({"A", "C"})
             and groups[0].witness == expected_witness)
    oracle = oracle_overlaps(table1)
    unique = (len(oracle) == 1
              and oracle[0].rule_ids == frozenset({"A", "C"}))
    ms = best_ms(lambda: find_overlapping_rules(table1))
    announce(capsys, 2, exact and unique and ms < 10.0,
             "one group {A,C}, witness [500..1000]x[500..1000], "
             f"oracle-confirmed ({ms:.2f} ms < 10 ms)")


def test_criterion_3_reference_missing(table1, capsys):
    regions = find_missing_rules(table1)
    grid = build_grid(table1)
    union = grid_cells_of_boxes(grid, [r.box for r in regions])
    cells_equal = union == oracle_missing(table1)
    probe_covered = any(
        r.box[0].contains(200.0)
        and r.box[1].contains(2000.0) for r in regions)
    ms = best_ms(lambda: find_missing_rules(table1))
    announce(capsys, 3, cells_equal and probe_covered and ms < 10.0,
             f"{len(regions)} regions match the oracle cell-for-cell and "
             f"cover (200, 2000) ({ms:.2f} ms < 10 ms)")


def test_criterion_4_oracle_equivalence(capsys):
    rng = random.Random(1000003)
    mismatches = 0
    start = time.perf_counter()
    for _ in range(1000):
        table = load_table(random_table_doc(rng))
        sweep = {g.rule_ids for g in find_overlapping_rules(table)}
        brute = {g.rule_ids for g in oracle_overlaps(table)}
        if sweep != brute:
            mismatches += 1
            continue
        regions = find_missing_rules(table)
        grid = build_grid(table)
        union = grid_cells_of_boxes(grid, [r.box for r in regions])
        if union != oracle_missing(table):
            mismatches += 1
    elapsed = time.perf_counter() - start
    announce(capsys, 4, mismatches == 0 and elapsed < 60.0,
             f"1,000 random tables, {mismatches} mismatches "
             f"({elapsed:.1f} s < 60 s)")


def test_criterion_5_scalability(bench_cells, capsys):
    wide = [c for c in bench_cells
            if c["columns"] == 7 and c["rules"] == 1500]
    within = all(c["overlap_s"] < 60.0 and c["missing_s"] < 60.0
                 for c in bench_cells)
    ok = len(bench_cells) == 9 and len(wide) == 1 and within
    announce(capsys, 5, ok,
             "nine cells completed; 7x1500 sweeps took "
             f"{wide[0]['overlap_s']:.2f} s / {wide[0]['missing_s']:.2f} s "
             "(< 60 s each)")


def test_criterion_6_non_redundancy(bench_cells, capsys):
    def strict_antichain(groups):
        fams = [g.rule_ids for g in groups]
        return all(not (a <= b)
                   for i, a in enumerate(fams)
                   for j, b in enumerate(fams) if i != j)

    antichains = all(strict_antichain(c["groups"]) for c in bench_cells)
    dominated = all(c["fragments"] >= len(c["groups"])
                    for c in bench_cells)
    strict = sum(1 for c in bench_cells
                 if c["fragments"] > len(c["groups"]))
    announce(capsys, 6, antichains and dominated and strict >= 1,
             f"antichains strict on all cells; fragments >= groups "
             f"everywhere, strictly greater on {strict}/9 cells")


def test_criterion_7_generator_soundness(bench_cells, capsys):
    clean = all(c["clean_overlaps"] == 0 and c["clean_missing"] == 0
                for c in bench_cells)
    noised = all(len(c["groups"]) >= 1 and c["regions"] >= 1
                 for c in bench_cells)
    announce(capsys, 7, clean and noised,
             "all nine cells clean pre-noise; 10% noise plants >=1 "
             "overlap group and >=1 missing region in every cell")


def test_criterion_8_semantics_properties(capsys):
    rng = random.Random(8675309)
    counterexamples = 0
    for _ in range(500):
        doc = random_table_doc(rng, hit_policy="U")
        table = load_table(doc)
        config = random_input(rng, table)

        triggered = [r.id for r in table.rules
                     if triggered_by(r, table, config)]
        unique = evaluate(table, config)
        if (unique.outcome is Outcome.VIOLATION) != (len(triggered) >= 2):
            counterexamples += 1

        first = evaluate(load_table(dict(doc, hitPolicy="F")), config)
        prio = evaluate(load_table(dict(doc, hitPolicy="P")), config)
        if (first.outcome != prio.outcome
                or first.outputs != prio.outputs
                or (first.rule.id if first.rule else None)
                != (prio.rule.id if prio.rule else None)):
            counterexamples += 1

        shared = dict(doc, hitPolicy="A")
        shared["rules"] = [dict(r, out=["mid"]) for r in doc["rules"]]
        if evaluate(load_table(shared),
                    config).outcome is Outcome.VIOLATION:
            counterexamples += 1
    announce(capsys, 8, counterexamples == 0,
             f"500 (table, input) pairs, {counterexamples} "
             "counterexamples across the three hit-policy properties")


def test_criterion_9_correctness_formula(table1, capsys):
    report = check_correct(table1)
    codes = {d.code for d in report.all_diagnostics()}
    reference_bad = (not report.correct and OVERLAP in codes
                     and COMPLETENESS_MISMATCH in codes)
    single = load_table({
        "name": "tiny", "hitPolicy": "U", "completeness": "C",
        "inputs": [{"name": "x", "type": "integer", "facet": "[0..5]"}],
        "outputs": [{"name": "y", "type": "boolean"}],
        "rules": [{"id": "only", "in": ["-"], "out": ["true"]}],
    })
    single_good = check_correct(single).correct
    announce(capsys, 9, reference_bad and single_good,
             "reference table incorrect with overlap and "
             "completeness-mismatch findings; full-cover table correct")
