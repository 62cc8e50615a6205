"""Synthetic decision tables, defect injection, and benchmarks.

``generate_table`` partitions the whole input space into exactly the
requested number of rules by repeated guillotine cuts: pick a random
splittable leaf region, cut one of its columns, recurse.  The
splittable leaves are kept in a list of their own, in leaf order, so a
cut does not rescan every leaf.  The split
column rotates with the leaf's depth, so every column participates and
the cuts stay layered, which keeps the resulting tables friendly to
sweep analysis at benchmark sizes.  By construction the result has no
overlaps and no missing regions.

``inject_noise`` then plants defects: widening entries creates
overlaps without uncovering anything, shrinking entries creates
missing regions without introducing overlaps.  It edits the parsed
table it is given, reading each cell's bounds or categories from its
condition and parsing only the cells it changes; a cell of a form the
generator does not write, such as ``not(K1)`` or ``<5``, is never
edited.

``pairwise_overlap_fragments`` counts, summed over rule pairs, the
connected components of each pairwise intersection: per pair, the
product over columns of the member pairs of the two rules' column sets
that intersect.  Group reporting can be arbitrarily more compact: three
identical rules are one group but three pairwise fragments.  The pairs
come from the overlap sweep's maximal groups, passed in by the caller,
which is exact: two rules intersect exactly when some group holds
both, so no second sweep looks for candidates.

``run_benchmark`` drives generated-and-noised tables of increasing
width and height through both sweeps and reports wall-clock times.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional, Sequence

from .analysis import (OverlapGroup, find_missing_rules,
                       find_overlapping_rules)
from .errors import SpecError
from .intervals import Interval1D, intersect_sets
from .model import DecisionTable, load_table
from .sfeel import (Alternative, AnyValue, Condition, Kind, Match,
                    parse_condition)

GRADES = ("A", "B", "C", "D", "E", "F", "G")


@dataclass(frozen=True)
class ColumnSpec:
    """Shape of one generated input column.

    Numeric columns are integer-kind over the closed range lo..hi;
    categorical columns draw from the given category tuple.
    """

    name: str
    kind: Kind
    categories: tuple[str, ...] = ()
    lo: int = 0
    hi: int = 1000


@dataclass(frozen=True)
class GenSpec:
    columns: tuple[ColumnSpec, ...]
    target_rules: int
    seed: int = 0
    table_name: str = "generated"


def _column_span(column: ColumnSpec) -> tuple[int, int]:
    if column.kind.is_categorical:
        return (0, len(column.categories) - 1)
    return (column.lo, column.hi)


def _render_leaf_entry(column: ColumnSpec, lo: int, hi: int) -> str:
    full_lo, full_hi = _column_span(column)
    if (lo, hi) == (full_lo, full_hi):
        return "-"
    if column.kind.is_categorical:
        return ",".join(column.categories[lo:hi + 1])
    if lo == hi:
        return str(lo)
    return f"[{lo}..{hi}]"


def generate_table(spec: GenSpec) -> DecisionTable:
    """A complete, overlap-free table with exactly target_rules rules."""
    if spec.target_rules < 1:
        raise SpecError("target_rules must be at least 1")
    for column in spec.columns:
        if column.kind.is_categorical:
            if len(column.categories) < 1:
                raise SpecError(f"column {column.name!r} needs categories")
        elif column.kind is not Kind.INTEGER:
            raise SpecError(f"column {column.name!r} must be integer or "
                            "categorical")
        elif column.hi < column.lo:
            raise SpecError(f"column {column.name!r} has an empty range")
    rng = random.Random(spec.seed)
    n_cols = len(spec.columns)
    spans = [_column_span(c) for c in spec.columns]

    # A leaf is (path, ranges, column to cut): path is its 0/1 route
    # from the root, so its length is the leaf's depth and sorting paths
    # restores leaf order; ranges are inclusive integer bounds per
    # column (category indices for categorical columns).
    def leaf(path, ranges):
        for offset in range(n_cols):
            col = (len(path) + offset) % n_cols
            lo, hi = ranges[col]
            if hi > lo:
                return path, ranges, col
        return path, ranges, None

    # The draws pick among the leaves that can be cut, in leaf order, so
    # those are kept apart; a cut replaces its leaf in place by its
    # children that can be cut in turn.
    root = leaf((), tuple(spans))
    cuttable = [root] if root[2] is not None else []
    uncuttable = [root] if root[2] is None else []
    for count in range(1, spec.target_rules):
        if not cuttable:
            raise SpecError(
                f"input space holds only {count} distinct regions, "
                f"cannot make {spec.target_rules} rules")
        index = rng.randrange(len(cuttable))
        path, ranges, col = cuttable[index]
        lo, hi = ranges[col]
        cut = rng.randint(lo, hi - 1)
        before, after = ranges[:col], ranges[col + 1:]
        children = (leaf(path + (0,), before + ((lo, cut),) + after),
                    leaf(path + (1,), before + ((cut + 1, hi),) + after))
        cuttable[index:index + 1] = [c for c in children if c[2] is not None]
        uncuttable += [c for c in children if c[2] is None]
    leaves = sorted(cuttable + uncuttable)

    width = len(str(spec.target_rules))
    rules = []
    for i, (_, ranges, _) in enumerate(leaves):
        entries = [_render_leaf_entry(column, lo, hi)
                   for column, (lo, hi) in zip(spec.columns, ranges)]
        rules.append({
            "id": f"r{i + 1:0{width}d}",
            "in": entries,
            "out": [rng.choice(GRADES)],
        })

    def column_doc(column: ColumnSpec) -> dict:
        if column.kind.is_categorical:
            return {"name": column.name, "type": "string",
                    "facet": ",".join(column.categories)}
        return {"name": column.name, "type": "integer",
                "facet": f"[{column.lo}..{column.hi}]"}

    document = {
        "name": spec.table_name,
        "hitPolicy": "U",
        "completeness": "C",
        "inputs": [column_doc(c) for c in spec.columns],
        "outputs": [{"name": "Grade", "type": "string",
                     "facet": ",".join(GRADES)}],
        "rules": rules,
    }
    return load_table(document)


# ---------------------------------------------------------------------------
# Defect injection


def _entry_bounds(cond: Condition,
                  column: ColumnSpec) -> Optional[tuple[int, int]]:
    # The generator writes a numeric cell as "-", "k" or "[a..b]".
    if isinstance(cond, AnyValue):
        return _column_span(column)
    if isinstance(cond, Match):
        return (cond.value, cond.value)
    if isinstance(cond, Interval1D) and cond.lo_closed and cond.hi_closed:
        return (cond.lo, cond.hi)
    return None


def _entry_categories(cond: Condition,
                      column: ColumnSpec) -> Optional[tuple[str, ...]]:
    # The generator writes a categorical cell as "-" or "k1,k2,...".
    if isinstance(cond, AnyValue):
        return column.categories
    parts = cond.parts if isinstance(cond, Alternative) else (cond,)
    if not all(isinstance(part, Match) for part in parts):
        return None
    return tuple(part.value for part in parts)


def _widen(cond: Condition, column: ColumnSpec,
           rng: random.Random) -> Optional[str]:
    full_lo, full_hi = _column_span(column)
    if column.kind.is_categorical:
        present = _entry_categories(cond, column)
        if present is None:
            return None
        absent = [c for c in column.categories if c not in present]
        if not absent:
            return None
        added = {*present, rng.choice(absent)}
        kept = [c for c in column.categories if c in added]
        if len(kept) == len(column.categories):
            return "-"
        return ",".join(kept)
    bounds = _entry_bounds(cond, column)
    if bounds is None:
        return None
    lo, hi = bounds
    if lo == full_lo and hi == full_hi:
        return None
    # One step outward on each side, clamped to the facet: [3..6]
    # becomes [2..7].
    lo = max(lo - 1, full_lo)
    hi = min(hi + 1, full_hi)
    return _render_leaf_entry(column, lo, hi)


def _shrink(cond: Condition, column: ColumnSpec,
            rng: random.Random) -> Optional[str]:
    if column.kind.is_categorical:
        present = list(_entry_categories(cond, column) or ())
        if len(present) < 2:
            return None
        present.remove(rng.choice(present))
        kept = [c for c in column.categories if c in present]
        return ",".join(kept)
    bounds = _entry_bounds(cond, column)
    if bounds is None:
        return None
    lo, hi = bounds
    if hi == lo:
        return None
    if hi - lo == 1:
        lo = hi = rng.choice((lo, hi))
    else:
        lo += 1
        hi -= 1
    return _render_leaf_entry(column, lo, hi)


def inject_noise(table: DecisionTable, columns: Sequence[ColumnSpec],
                 mode: str, fraction: float, seed: int = 0) -> DecisionTable:
    """A copy of the table with defects planted into a random sample of
    ceil(fraction * rules) rules.

    Mode "overlap" widens one entry per sampled rule; mode "missing"
    shrinks one.  Raises SpecError when the fraction is out of (0, 1]
    or too few rules are mutable.
    """
    if mode not in ("overlap", "missing"):
        raise SpecError(f"unknown noise mode {mode!r}")
    if not 0 < fraction <= 1:
        raise SpecError(f"noise fraction must be in (0, 1], got {fraction}")
    mutate = _widen if mode == "overlap" else _shrink
    rng = random.Random(seed)
    wanted = math.ceil(fraction * len(table.rules))

    # Each edit returns None before its first draw, so whether a cell
    # takes one does not depend on the generator: one scratch generator
    # probes every cell, and rng stays untouched.
    probe = random.Random(0)
    pool = []
    for i, rule in enumerate(table.rules):
        options = [c for c, (cond, column)
                   in enumerate(zip(rule.input_entries, columns))
                   if mutate(cond, column, probe) is not None]
        if options:
            pool.append((i, options))
    if len(pool) < wanted:
        raise SpecError(f"only {len(pool)} rules can take {mode} noise, "
                        f"need {wanted}")
    rng.shuffle(pool)
    rules = list(table.rules)
    for i, options in sorted(pool[:wanted]):
        col = options[rng.randrange(len(options))]
        entries = list(rules[i].input_entries)
        entries[col] = parse_condition(
            mutate(entries[col], columns[col], rng), table.inputs[col].kind)
        rules[i] = replace(rules[i], input_entries=tuple(entries))
    return replace(table, rules=tuple(rules))


# ---------------------------------------------------------------------------
# Pairwise fragment counting


def pairwise_overlap_fragments(table: DecisionTable,
                               groups: Sequence[OverlapGroup]) -> int:
    """Total fragments a pair-at-a-time analysis would report: for each
    rule pair, the connected components of their intersection.

    ``groups`` are the table's maximal overlap groups, as
    ``find_overlapping_rules(table)`` returns them.  The pairs that
    intersect are exactly their 2-subsets: two rules with a common
    point are both active there, so some group holds both, and every
    rule of a group contains the group's witness.  Pairs that only
    touch have no intersection and count 0, so no other pair needs a
    look.

    In each column the two rules' canonical sets meet in a canonical
    set, one piece per intersecting member pair.  The intersection is
    the product of the columns' pieces, so its components number the
    product of the piece counts.
    """
    columns_of = table.geometry.columns_of
    pairs = {pair for group in groups
             for pair in combinations(group.sorted_ids(), 2)}
    total = 0
    for id_a, id_b in pairs:
        total += math.prod(
            len(intersect_sets(set_a, set_b))
            for set_a, set_b in zip(columns_of[id_a], columns_of[id_b]))
    return total


# ---------------------------------------------------------------------------
# Benchmarks


@dataclass(frozen=True)
class BenchCell:
    """Mean figures for one (columns, rules) grid point."""

    columns: int
    rules: int
    seed: int
    overlap_ms: float
    missing_ms: float
    overlap_groups: float
    missing_regions: float
    pairwise_fragments: float

    def to_doc(self) -> dict:
        return {
            "columns": self.columns,
            "rules": self.rules,
            "seed": self.seed,
            "overlapMs": round(self.overlap_ms, 3),
            "missingMs": round(self.missing_ms, 3),
            "overlapGroups": round(self.overlap_groups, 2),
            "missingRegions": round(self.missing_regions, 2),
            "pairwiseFragments": round(self.pairwise_fragments, 2),
        }


@dataclass(frozen=True)
class BenchReport:
    runs: int
    noise_fraction: float
    cells: tuple[BenchCell, ...]

    def to_doc(self) -> dict:
        return {
            "runs": self.runs,
            "noiseFraction": self.noise_fraction,
            "cells": [cell.to_doc() for cell in self.cells],
        }

    def to_text(self) -> str:
        header = (f"{'cols':>4} {'rules':>6} {'overlap ms':>11} "
                  f"{'missing ms':>11} {'groups':>8} {'regions':>8} "
                  f"{'fragments':>10}")
        lines = [header, "-" * len(header)]
        for cell in self.cells:
            lines.append(
                f"{cell.columns:>4} {cell.rules:>6} "
                f"{cell.overlap_ms:>11.1f} {cell.missing_ms:>11.1f} "
                f"{cell.overlap_groups:>8.1f} {cell.missing_regions:>8.1f} "
                f"{cell.pairwise_fragments:>10.1f}")
        lines.append(f"means over {self.runs} runs, "
                     f"{self.noise_fraction:.0%} of rules noised")
        return "\n".join(lines)


def bench_columns(n_cols: int, numeric_range: int = 1000,
                  arity: int = 4) -> tuple[ColumnSpec, ...]:
    """Column layout used by the benchmark grid: one categorical column
    for narrow tables, two for wider ones, the rest integer."""
    n_cat = 1 if n_cols <= 3 else 2
    if n_cols <= n_cat:
        raise SpecError("benchmark tables need at least one numeric column")
    columns = [ColumnSpec(f"cat{i + 1}", Kind.STRING,
                          categories=tuple(f"K{j + 1}" for j in range(arity)))
               for i in range(n_cat)]
    columns += [ColumnSpec(f"num{i + 1}", Kind.INTEGER, lo=0,
                           hi=numeric_range)
               for i in range(n_cols - n_cat)]
    return tuple(columns)


def benchmark_grid(column_counts: Sequence[int] = (3, 5, 7),
                   rule_counts: Sequence[int] = (500, 1000, 1500),
                   seed: int = 1,
                   numeric_range: int = 1000,
                   arity: int = 4) -> tuple[GenSpec, ...]:
    """The default benchmark suite: one spec per (columns, rules) pair."""
    specs = []
    for n_cols in column_counts:
        columns = bench_columns(n_cols, numeric_range, arity)
        for n_rules in rule_counts:
            specs.append(GenSpec(
                columns=columns, target_rules=n_rules,
                seed=seed * 1_000_003 + n_cols * 10_007 + n_rules,
                table_name=f"bench-{n_cols}x{n_rules}"))
    return tuple(specs)


def run_benchmark(specs: Sequence[GenSpec],
                  runs: int = 5,
                  noise_fraction: float = 0.1) -> BenchReport:
    """Time both sweeps over generated noised tables, one cell per spec."""
    if runs < 1:
        raise SpecError("runs must be at least 1")
    cells = []
    for spec in specs:
        overlap_ms = missing_ms = 0.0
        groups_seen = regions_seen = fragments_seen = 0
        for run in range(runs):
            run_seed = spec.seed + 7919 * run
            base = generate_table(replace(spec, seed=run_seed))
            noisy = inject_noise(base, spec.columns, "overlap",
                                 noise_fraction, run_seed + 1)
            start = time.perf_counter()
            groups = find_overlapping_rules(noisy)
            overlap_ms += (time.perf_counter() - start) * 1000.0
            groups_seen += len(groups)
            fragments_seen += pairwise_overlap_fragments(noisy, groups)

            gappy = inject_noise(base, spec.columns, "missing",
                                 noise_fraction, run_seed + 2)
            start = time.perf_counter()
            regions = find_missing_rules(gappy)
            missing_ms += (time.perf_counter() - start) * 1000.0
            regions_seen += len(regions)
        cells.append(BenchCell(
            columns=len(spec.columns), rules=spec.target_rules,
            seed=spec.seed,
            overlap_ms=overlap_ms / runs,
            missing_ms=missing_ms / runs,
            overlap_groups=groups_seen / runs,
            missing_regions=regions_seen / runs,
            pairwise_fragments=fragments_seen / runs))
    return BenchReport(runs=runs, noise_fraction=noise_fraction,
                       cells=tuple(cells))
