"""Structured ``check`` reports stay byte-identical.

The first three digests were recorded from the implementation that
rebuilt the table geometry on every call, before each table got one
cached geometry; the empty-rule digest from the one that tested every
ordered rule pair for masking on the endpoint grid.  Any change to
rendering, ordering or diagnostics shows up here as a different
sha256.
"""

import copy
import hashlib
import json

import pytest

from dmncheck import (GenSpec, bench_columns, dump_table, generate_table,
                      inject_noise)
from dmncheck.cli import main


def _noised(n_cols: int, n_rules: int, seed: int, mode: str) -> dict:
    columns = bench_columns(n_cols, numeric_range=60)
    base = generate_table(GenSpec(columns=columns, target_rules=n_rules,
                                  seed=seed, table_name=f"{mode}-{seed}"))
    return dump_table(inject_noise(base, columns, mode, 0.2, seed + 1))


def _first_hit_with_copies() -> dict:
    # Row copies appended below their originals can never win.
    doc = _noised(4, 20, 13, "overlap")
    doc["hitPolicy"] = "F"
    for rule in doc["rules"]:
        del rule["priority"]
    for original in doc["rules"][2:20:6]:
        twin = copy.deepcopy(original)
        twin["id"] += "c"
        doc["rules"].append(twin)
    return doc


def _first_hit_with_empty_rule() -> dict:
    # A rule whose cell lies outside its column facet admits no input,
    # so every rule above it masks it; the appended copy is masked too.
    doc = _noised(4, 20, 21, "overlap")
    doc["hitPolicy"] = "F"
    for rule in doc["rules"]:
        del rule["priority"]
    empty = copy.deepcopy(doc["rules"][5])
    empty["id"] = "empty"
    empty["in"][2] = ">60"
    doc["rules"].insert(8, empty)
    twin = copy.deepcopy(doc["rules"][3])
    twin["id"] += "c"
    doc["rules"].append(twin)
    return doc


DOCS = {
    "unique-overlap": lambda: _noised(3, 40, 5, "overlap"),
    "unique-missing": lambda: _noised(3, 40, 9, "missing"),
    "first-hit-copies": _first_hit_with_copies,
    "first-hit-empty-rule": _first_hit_with_empty_rule,
}

DIGESTS = {
    "unique-overlap":
        "f9e76643f77b1fe689fa6a066d24bd1aab5b9c66bcbb39124c54ef1d989c4f50",
    "unique-missing":
        "dac7fdb1bd46a3be2fcf0ee3e3fd4eee236d4ee9a996e9bf9c328e52e3653c56",
    "first-hit-copies":
        "b07ab2decb4a1ff0710ce7c5e9b4975041c610e7b851b8959d6f3e2c73cb4806",
    "first-hit-empty-rule":
        "42584151ba7baeb86b685f38b12971d4cff6617fe628d92b6e0661c533652dc9",
}


def report_digest(doc: dict, tmp_path, capsys) -> str:
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True),
                    encoding="utf-8")
    main(["check", "--format", "structured", str(path)])
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(DOCS))
def test_structured_report_bytes_unchanged(name, tmp_path, capsys):
    assert report_digest(DOCS[name](), tmp_path, capsys) == DIGESTS[name]
