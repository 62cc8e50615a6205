"""The benchmark's own tests.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import signal
import sys
from itertools import combinations

import pytest

import dmncheck
import docs
import oracle
import pace
import run
import tracer

TINY = {"overlap-unique": {"n_rules": 40}, "gaps-wide": {"n_rules": 60},
        "first-hit": {"n_rules": 20}, "eval-points": {"n_rules": 40}}


@pytest.mark.parametrize("workload", sorted(docs.BUILDERS))
def test_same_seed_gives_identical_documents(workload):
    build = docs.BUILDERS[workload]
    first = [doc.text for doc in build(5, **TINY[workload])]
    again = [doc.text for doc in build(5, **TINY[workload])]
    other = [doc.text for doc in build(6, **TINY[workload])]
    assert first == again
    assert first != other


def test_reference_matcher_agrees_with_evaluate_and_grid_oracle():
    doc = docs.eval_points(3, n_rules=20)[0]
    table = dmncheck.load_table(doc.text)
    rows = oracle.rows(doc.document)
    names = [column["name"] for column in doc.document["inputs"]]
    for point in oracle.random_points(doc.document, 400, seed=11):
        result = dmncheck.evaluate(table, dict(zip(names, point)))
        assert tuple(result.triggered) == oracle.triggered(rows, point)
    pairs = oracle.overlapping_pairs(rows)
    assert pairs, "overlap noise should create overlapping pairs"
    grid_pairs = {frozenset(pair)
                  for group in dmncheck.oracle_overlaps(table)
                  for pair in combinations(sorted(group.rule_ids), 2)}
    assert pairs == grid_pairs


def test_maximal_cliques_of_a_small_graph():
    pairs = {frozenset(p) for p in ("ab", "bc", "ac", "cd")}
    assert sorted(map(sorted, oracle.maximal_cliques(pairs))) == [
        ["a", "b", "c"], ["c", "d"]]


def _bindings():
    return {(name, key): value for name, module in list(sys.modules.items())
            if name == "dmncheck" or name.startswith("dmncheck.")
            for key, value in vars(module).items() if callable(value)}


def test_tracer_restores_what_it_wrapped_and_reports_absent():
    before = _bindings()
    spans = tracer.Tracer(run.TRACED + ("analysis.no_such_function",))
    table = dmncheck.load_table(docs.overlap_unique(2, n_rules=30)[0].text)
    with spans:
        assert dmncheck.correctness.render_box is not before[
            ("dmncheck.correctness", "render_box")]
        with spans.op(1):
            report = dmncheck.check_correct(table)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert spans.absent == ["analysis.no_such_function"]
    per_op = spans.summary()[1]
    groups = len(report.overlap_groups)
    assert per_op["analysis.render_box"]["calls"] == groups
    # find_* build the geometry once each, then one rebuild per witness.
    assert per_op["analysis.table_rects"]["calls"] == 2 + groups
    root = per_op[tracer.ROOT]
    assert root["self_s"] <= root["total_s"]


def test_pace_scales_its_own_loop_to_the_reference_and_restores():
    before = signal.getsignal(signal.SIGPROF)
    with pace.Pace() as clock:
        start = clock.mark()
        for _ in range(200):
            pace._calibration()
        stop = clock.mark()
        clock.settle()
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert clock.loops
    wall, ref = clock.scaled(start, stop)
    assert 0 < wall < stop[0] - start[0]
    # Run at the speed the samples measure, the loop takes REF_S each
    # time, up to the gap between a warm loop and one in the handler.
    assert 0.5 * 200 * pace.REF_S < ref < 2 * 200 * pace.REF_S


def test_refuses_documents_other_than_the_frozen_ones():
    built = docs.gaps_wide(docs.DEFAULT_SEED, n_rules=60)
    with pytest.raises(run.Refused):
        run.check_frozen("gaps-wide", docs.DEFAULT_SEED, built)


def _declared(kind):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload, trace):
    outcome = run.run_workload(workload, 2, 0.0, trace,
                               build_kwargs=TINY[workload], frozen=False)
    result = outcome["result"]
    assert result["correct"], outcome["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
