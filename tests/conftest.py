"""Shared fixtures: the loan-grading reference table, a small
random-table generator used for oracle cross-checks (optionally with
planted duplicate rows), the boxes of a rule's region, and the grid
oracle for region containment."""

from __future__ import annotations

import copy
import random
from itertools import product

import pytest

CATS = ("red", "green", "blue", "amber")
OUT_GRADES = ("hi", "mid", "lo")


def loan_doc() -> dict:
    return {
        "name": "loan-grading",
        "hitPolicy": "U",
        "completeness": "C",
        "inputs": [
            {"name": "Annual Income", "type": "real", "facet": ">=0"},
            {"name": "Loan Size", "type": "real", "facet": ">=0"},
        ],
        "outputs": [
            {"name": "Grade", "type": "string", "facet": "VG,G,F,P"},
        ],
        "rules": [
            {"id": "A", "in": ["[0..1000]", "[0..1000]"], "out": ["VG"]},
            {"id": "B", "in": ["[250..750]", "[4000..5000]"], "out": ["G"]},
            {"id": "C", "in": ["[500..1500]", "[500..3000]"], "out": ["F"]},
            {"id": "D", "in": ["[2000..2500]", "[0..2000]"], "out": ["P"]},
        ],
    }


@pytest.fixture
def table1_doc() -> dict:
    return loan_doc()


@pytest.fixture
def table1(table1_doc):
    from dmncheck import load_table
    return load_table(table1_doc)


@pytest.fixture
def tiny_full_cover():
    from dmncheck import load_table
    return load_table({
        "name": "tiny",
        "hitPolicy": "U",
        "completeness": "C",
        "inputs": [{"name": "x", "type": "integer", "facet": "[0..5]"}],
        "outputs": [{"name": "y", "type": "boolean"}],
        "rules": [{"id": "only", "in": ["-"], "out": ["true"]}],
    })


def _numeric_entry(rng: random.Random, span: int) -> str:
    a = rng.randint(0, span)
    b = rng.randint(0, span)
    a, b = min(a, b), max(a, b)
    roll = rng.random()
    if roll < 0.35:
        lb = rng.choice("[(")
        rb = rng.choice("])")
        return f"{lb}{a}..{b}{rb}"
    if roll < 0.5:
        return f"{rng.choice(('<', '<=', '>', '>='))}{a}"
    if roll < 0.6:
        return str(a)
    if roll < 0.7:
        return f"not({a})"
    if roll < 0.85:
        return f"[{a}..{b}],>={rng.randint(0, span)}"
    return "-"


def _categorical_entry(rng: random.Random, categories) -> str:
    roll = rng.random()
    if roll < 0.2:
        return "-"
    if roll < 0.35:
        return f"not({rng.choice(categories)})"
    k = rng.randint(1, len(categories))
    return ",".join(rng.sample(list(categories), k))


def random_table_doc(rng: random.Random, max_cols: int = 3,
                     max_rules: int = 8, span: int = 10,
                     hit_policy: str = "U") -> dict:
    """A small random table over mixed kinds with integer endpoints in
    [0..span]; geared for brute-force oracle comparison."""
    n_cols = rng.randint(1, max_cols)
    inputs = []
    for c in range(n_cols):
        kind = rng.choice(("integer", "real", "string", "boolean"))
        col = {"name": f"c{c}", "type": kind}
        if kind == "string":
            col["facet"] = ",".join(CATS[:rng.randint(2, len(CATS))])
        elif kind in ("integer", "real") and rng.random() < 0.6:
            col["facet"] = f"[0..{span}]"
        inputs.append(col)
    n_rules = rng.randint(1, max_rules)
    rules = []
    for r in range(n_rules):
        entries = []
        for col in inputs:
            if col["type"] in ("integer", "real"):
                entries.append(_numeric_entry(rng, span))
            elif col["type"] == "string":
                entries.append(_categorical_entry(
                    rng, col["facet"].split(",")))
            else:
                entries.append(rng.choice(("-", "true", "false",
                                           "not(true)")))
        rules.append({"id": f"r{r}", "in": entries,
                      "out": [rng.choice(OUT_GRADES)]})
    return {
        "name": "random",
        "hitPolicy": hit_policy,
        "completeness": rng.choice(("C", "I")),
        "inputs": inputs,
        "outputs": [{"name": "o", "type": "string",
                     "facet": ",".join(OUT_GRADES)}],
        "rules": rules,
    }


def planted_table_doc(rng: random.Random, **kwargs) -> dict:
    """A ``random_table_doc`` with planted rows: copies of its rules and
    rules that differ from one only in column 0, in shuffled order."""
    doc = random_table_doc(rng, **kwargs)
    col = doc["inputs"][0]
    planted = []
    for rule in doc["rules"]:
        roll = rng.random()
        if roll < 0.5:
            twin = copy.deepcopy(rule)
            if roll < 0.25:
                if col["type"] in ("integer", "real"):
                    twin["in"][0] = _numeric_entry(rng, 10)
                elif col["type"] == "string":
                    twin["in"][0] = _categorical_entry(
                        rng, col["facet"].split(","))
                else:
                    twin["in"][0] = rng.choice(("-", "true", "false"))
            planted.append(twin)
    for k, rule in enumerate(planted):
        rule["id"] = f"p{k}"
    doc["rules"] += planted
    rng.shuffle(doc["rules"])
    return doc


def random_table(rng: random.Random, **kwargs):
    from dmncheck import load_table
    return load_table(random_table_doc(rng, **kwargs))


def random_input(rng: random.Random, table, span: int = 10) -> dict:
    """A well-kinded input configuration, biased toward rule endpoints."""
    config = {}
    for attr in table.inputs:
        kind = attr.kind.value
        if kind == "string":
            config[attr.name] = rng.choice(CATS)
        elif kind == "boolean":
            config[attr.name] = rng.choice((True, False))
        elif kind == "integer":
            config[attr.name] = rng.randint(-1, span + 1)
        else:
            config[attr.name] = rng.choice(
                [float(rng.randint(-1, span + 1)),
                 rng.randint(0, span) + 0.5])
    return config


def permuted_doc(doc: dict, rng: random.Random) -> dict:
    """Same table with rule storage order shuffled and the original
    ranks made explicit, so priority semantics must not change."""
    out = copy.deepcopy(doc)
    count = len(out["rules"])
    for i, rule in enumerate(out["rules"]):
        rule.setdefault("priority", count - i)
    rng.shuffle(out["rules"])
    return out


def rule_boxes(geometry, rid) -> tuple:
    """The boxes of a rule's region: the product of its column sets,
    one box per combination of members; none for an empty cell."""
    return tuple(product(*geometry.columns_of[rid]))


def region_contained(rects_a, rects_b, discrete) -> bool:
    """True when the union of the boxes ``rects_a`` lies inside that of
    ``rects_b``, decided exactly on their combined endpoint grid: every
    representative point of ``rects_a`` must lie in some box of
    ``rects_b``.  Boxes are tuples of ``Interval1D``."""
    from dmncheck.analysis import _dimension_pieces

    if not rects_a:
        return True
    n_dims = len(discrete)
    reps = []
    for d in range(n_dims):
        values = []
        for rect in list(rects_a) + list(rects_b):
            lo, _, hi, _ = rect[d]
            values.extend(v for v in (lo, hi) if abs(v) != float("inf"))
        reps.append(_dimension_pieces(values, discrete[d])[1])
    for rect in rects_a:
        per_dim = [[rep for rep in reps[d] if rect[d].contains(rep)]
                   for d in range(n_dims)]
        for point in product(*per_dim):
            if not any(all(other[d].contains(point[d])
                           for d in range(n_dims))
                       for other in rects_b):
                return False
    return True
