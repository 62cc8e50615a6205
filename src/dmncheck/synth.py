"""Synthetic decision tables, defect injection, and benchmarks.

``generate_table`` partitions the whole input space into exactly the
requested number of rules by repeated guillotine cuts: pick a random
splittable leaf region, cut one of its columns, recurse.  The split
column rotates with the leaf's depth, so every column participates and
the cuts stay layered, which keeps the resulting tables friendly to
sweep analysis at benchmark sizes.  By construction the result has no
overlaps and no missing regions.

``inject_noise`` then plants defects: widening entries creates
overlaps without uncovering anything, shrinking entries creates
missing regions without introducing overlaps.

``pairwise_overlap_fragments`` counts, summed over rule pairs, the
connected components of each pairwise intersection.  Group reporting
can be arbitrarily more compact: three identical rules are one group
but three pairwise fragments.  The pairs come from the overlap sweep's
maximal groups, passed in by the caller, which is exact: two rules
intersect exactly when some group holds both, so no second sweep looks
for candidates.

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
from .intervals import contiguous
from .model import DecisionTable, dump_table, load_table
from .sfeel import Kind

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

    def width(self) -> int:
        if self.kind.is_categorical:
            return len(self.categories)
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class GenSpec:
    columns: tuple[ColumnSpec, ...]
    target_rules: int
    seed: int = 0
    table_name: str = "generated"
    grades: tuple[str, ...] = GRADES


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

    # A leaf is (depth, ranges); ranges are inclusive integer bounds per
    # column (category indices for categorical columns).
    leaves: list[tuple[int, tuple[tuple[int, int], ...]]] = [
        (0, tuple(spans))]

    def split_column(leaf) -> Optional[int]:
        depth, ranges = leaf
        for offset in range(n_cols):
            col = (depth + offset) % n_cols
            lo, hi = ranges[col]
            if hi > lo:
                return col
        return None

    while len(leaves) < spec.target_rules:
        splittable = [i for i, leaf in enumerate(leaves)
                      if split_column(leaf) is not None]
        if not splittable:
            raise SpecError(
                f"input space holds only {len(leaves)} distinct regions, "
                f"cannot make {spec.target_rules} rules")
        index = splittable[rng.randrange(len(splittable))]
        depth, ranges = leaves[index]
        col = split_column(leaves[index])
        lo, hi = ranges[col]
        cut = rng.randint(lo, hi - 1)
        left = ranges[:col] + ((lo, cut),) + ranges[col + 1:]
        right = ranges[:col] + ((cut + 1, hi),) + ranges[col + 1:]
        leaves[index:index + 1] = [(depth + 1, left), (depth + 1, right)]

    width = len(str(spec.target_rules))
    rules = []
    for i, (_, ranges) in enumerate(leaves):
        entries = [_render_leaf_entry(column, lo, hi)
                   for column, (lo, hi) in zip(spec.columns, ranges)]
        rules.append({
            "id": f"r{i + 1:0{width}d}",
            "in": entries,
            "out": [rng.choice(spec.grades)],
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
                     "facet": ",".join(spec.grades)}],
        "rules": rules,
    }
    return load_table(document)


# ---------------------------------------------------------------------------
# Defect injection


def _entry_bounds(text: str, column: ColumnSpec) -> Optional[tuple[int, int]]:
    # Generated numeric entries are "-", "k", or "[a..b]".
    full_lo, full_hi = _column_span(column)
    if text == "-":
        return (full_lo, full_hi)
    if text.startswith("["):
        body = text[1:-1]
        lo_text, hi_text = body.split("..")
        return (int(lo_text), int(hi_text))
    try:
        point = int(text)
    except ValueError:
        return None
    return (point, point)


def _entry_categories(text: str, column: ColumnSpec) -> tuple[str, ...]:
    if text == "-":
        return column.categories
    return tuple(p.strip() for p in text.split(","))


def _widen(text: str, column: ColumnSpec, rng: random.Random) -> Optional[str]:
    full_lo, full_hi = _column_span(column)
    if column.kind.is_categorical:
        present = set(_entry_categories(text, column))
        absent = [c for c in column.categories if c not in present]
        if not absent:
            return None
        added = present | {rng.choice(absent)}
        kept = [c for c in column.categories if c in added]
        if len(kept) == len(column.categories):
            return "-"
        return ",".join(kept)
    bounds = _entry_bounds(text, column)
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


def _shrink(text: str, column: ColumnSpec, rng: random.Random) -> Optional[str]:
    if column.kind.is_categorical:
        present = list(_entry_categories(text, column))
        if len(present) < 2:
            return None
        present.remove(rng.choice(present))
        kept = [c for c in column.categories if c in present]
        return ",".join(kept)
    bounds = _entry_bounds(text, column)
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
    document = dump_table(table)
    rules = document["rules"]
    wanted = math.ceil(fraction * len(rules))

    def mutable_columns(rule_doc) -> list[int]:
        out = []
        for c, column in enumerate(columns):
            # Probe with a throwaway generator; rng stays untouched.
            if mutate(rule_doc["in"][c], column, random.Random(0)) is not None:
                out.append(c)
        return out

    pool = [i for i, rule_doc in enumerate(rules)
            if mutable_columns(rule_doc)]
    if len(pool) < wanted:
        raise SpecError(f"only {len(pool)} rules can take {mode} noise, "
                        f"need {wanted}")
    rng.shuffle(pool)
    for i in sorted(pool[:wanted]):
        rule_doc = rules[i]
        options = mutable_columns(rule_doc)
        col = options[rng.randrange(len(options))]
        new_text = mutate(rule_doc["in"][col], columns[col], rng)
        assert new_text is not None
        rule_doc["in"][col] = new_text
    return load_table(document)


# ---------------------------------------------------------------------------
# Pairwise fragment counting


def _boxes_adjacent(a, b, discrete) -> bool:
    # Connected union: every column intersects or is contiguous, and at
    # most one column is merely contiguous.
    soft = 0
    for d, disc in enumerate(discrete):
        if a[d].intersect(b[d]) is not None:
            continue
        if contiguous(a[d], b[d], disc):
            soft += 1
            if soft > 1:
                return False
        else:
            return False
    return True


def _component_count(pieces: list, discrete) -> int:
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
    """
    by_rule = table.geometry.boxes_of
    discrete = table.geometry.discrete
    pairs = {pair for group in groups
             for pair in combinations(group.sorted_ids(), 2)}
    total = 0
    for id_a, id_b in pairs:
        pieces = []
        for ra in by_rule[id_a]:
            for rb in by_rule[id_b]:
                got = []
                for a, b in zip(ra, rb):
                    piece = a.intersect(b)
                    if piece is None:
                        break
                    got.append(piece)
                else:
                    pieces.append(tuple(got))
        total += _component_count(pieces, discrete)
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
