"""Answers known without the code under test.

The reference matcher reads the entry forms the generator emits and
nothing else: ``-``, an integer ``k``, an integer interval ``[a..b]``
and a category list ``K1,K2``.  Any other form raises ValueError, so a
generator change that emits new forms cannot slip past it.

The report checks restate, for each workload, what holds by the way
its documents were built: the generated base tables are partitions,
so every overlap involves a widened rule, every gap comes from a
shrunk rule, and a planted copy of a row is covered by its original.
"""

from __future__ import annotations

import random

_ANY = None


def parse_entry(text: str, column_type: str):
    """None for ``-``, a frozenset of categories for a string column,
    an inclusive (lo, hi) pair for an integer column."""
    text = text.strip()
    if text == "-":
        return _ANY
    if column_type == "string":
        parts = frozenset(part.strip() for part in text.split(","))
        if not all(part.replace("_", "").isalnum() for part in parts):
            raise ValueError(f"unsupported category entry {text!r}")
        return parts
    if column_type != "integer":
        raise ValueError(f"unsupported column type {column_type!r}")
    if text.startswith("[") and text.endswith("]"):
        lo, sep, hi = text[1:-1].partition("..")
        if not sep:
            raise ValueError(f"unsupported interval entry {text!r}")
        return (int(lo), int(hi))
    point = int(text)
    return (point, point)


def rows(doc: dict) -> list[tuple[str, tuple]]:
    """(rule id, parsed entries) per rule, in document order."""
    types = [column["type"] for column in doc["inputs"]]
    return [(rule["id"],
             tuple(parse_entry(text, kind)
                   for text, kind in zip(rule["in"], types)))
            for rule in doc["rules"]]


def _admits(entry, value) -> bool:
    if entry is _ANY:
        return True
    if isinstance(entry, frozenset):
        return value in entry
    return entry[0] <= value <= entry[1]


def _meets(a, b) -> bool:
    if a is _ANY or b is _ANY:
        return True
    if isinstance(a, frozenset):
        return bool(a & b)
    return a[0] <= b[1] and b[0] <= a[1]


def triggered(table_rows, point: tuple) -> tuple[str, ...]:
    """Ids of the rules whose every entry admits the point, in order."""
    return tuple(rid for rid, entries in table_rows
                 if all(_admits(e, v) for e, v in zip(entries, point)))


def overlapping_pairs(table_rows) -> set[frozenset]:
    """Rule pairs with a common point.  Boxes that meet pairwise share a
    point (Helly for boxes), so these are exactly the 2-subsets of the
    maximal overlap groups."""
    out = set()
    for i, (rid_a, a) in enumerate(table_rows):
        for rid_b, b in table_rows[i + 1:]:
            if all(_meets(x, y) for x, y in zip(a, b)):
                out.add(frozenset((rid_a, rid_b)))
    return out


def maximal_cliques(pairs: set[frozenset]) -> list[frozenset]:
    """Maximal cliques of the pair graph (Bron-Kerbosch with pivot).
    Where every column is an interval these are the overlap groups; a
    category column can split a clique, so this is an estimate there."""
    adjacent: dict = {}
    for pair in pairs:
        a, b = tuple(pair)
        adjacent.setdefault(a, set()).add(b)
        adjacent.setdefault(b, set()).add(a)
    out = []
    stack = [(set(), set(adjacent), set())]
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates and not excluded:
            out.append(frozenset(clique))
            continue
        pivot = max(candidates | excluded, key=lambda v: len(adjacent[v]))
        for v in list(candidates - adjacent[pivot]):
            stack.append((clique | {v}, candidates & adjacent[v],
                          excluded & adjacent[v]))
            candidates = candidates - {v}
            excluded = excluded | {v}
    return out


def random_points(doc: dict, count: int, seed: int) -> list[tuple]:
    """Points drawn uniformly from the column facets."""
    rng = random.Random(seed)
    domains = []
    for column in doc["inputs"]:
        facet = parse_entry(column["facet"], column["type"])
        domains.append(sorted(facet) if isinstance(facet, frozenset)
                       else facet)
    points = []
    for _ in range(count):
        points.append(tuple(
            rng.choice(dom) if isinstance(dom, list) else rng.randint(*dom)
            for dom in domains))
    return points


def report_problems(workload: str, exit_code: int, report: dict,
                    expect: dict) -> list[str]:
    """What is wrong with one structured ``check`` report; empty when it
    gives the known answer."""
    problems = []
    if exit_code != 1:
        problems.append(f"exit code {exit_code}, expected 1")
    if report.get("correct") is not False:
        problems.append("report does not say correct: false")
    codes = [diag["code"] for diag in report.get("diagnostics", ())]
    groups = [frozenset(group["rules"]) for group in report.get("overlaps", ())]
    if workload == "overlap-unique":
        widened = set(expect["widened"])
        covered = set().union(*groups) if groups else set()
        if widened - covered:
            problems.append(f"widened rules in no overlap group: "
                            f"{sorted(widened - covered)}")
        if any(not group & widened for group in groups):
            problems.append("an overlap group holds no widened rule")
    elif workload == "gaps-wide":
        if "COMPLETENESS_MISMATCH" not in codes:
            problems.append("no COMPLETENESS_MISMATCH diagnostic")
        if groups or "OVERLAP" in codes:
            problems.append("overlaps reported on a gaps-only table")
    elif workload == "first-hit":
        masked = {tuple(diag["rules"])
                  for diag in report.get("diagnostics", ())
                  if diag["code"] == "MASKED_RULE"}
        for copy_id, original_id in expect["planted"]:
            if (copy_id, original_id) not in masked:
                problems.append(f"planted {copy_id} not reported as masked "
                                f"by {original_id}")
    return problems
