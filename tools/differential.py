"""Differential check: does the working tree answer as a git revision does?

Usage: python3 tools/differential.py --base REV [--tables N] [--seeds 2,3,5]
                                     [--evals K]

Builds seeded table documents once, with the working tree's code:
``--tables`` random ones from ``tests/conftest.py`` (``random_table_doc``
and ``planted_table_doc``, all four hit policies, one in ten with a bad
cell planted) and the ``perfbench/docs.py`` documents of every seed in
``--seeds``.  It then digests, under the working tree and under REV
(exported with ``git archive`` into a temporary directory), for every
document: the exit code, stdout and stderr of ``dmncheck check`` in both
formats and under every ``--only``; ``dump_table`` of the loaded table;
and ``evaluate`` at ``--evals`` seeded points.  Both trees run in their
own process, with the same interpreter.  The script prints the first
document whose digests differ, naming the parts that differ, and exits
1; it exits 0 when every digest is equal.  Nothing under ``perfbench/``
is changed; its document builders are only imported.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Cells planted into one random document in ten: bad syntax, a cell
# that is not text, an unhashable one, a wrong-kind literal.
_BAD_CELLS = ("[1..", "not(", '"open', "1/0", 5, True, ["a"], {"b": 1})


def _plant_bad_cell(rng: random.Random, doc: dict) -> None:
    rule = rng.choice(doc["rules"])
    role = rng.choice(("in", "out"))
    rule[role][rng.randrange(len(rule[role]))] = rng.choice(_BAD_CELLS)


def _configs(rng: random.Random, doc: dict, count: int) -> list[dict]:
    """Input configurations near the literals the rules name, and now
    and then a value of the wrong kind."""
    seen = {}
    for d, col in enumerate(doc["inputs"]):
        texts = " ".join(str(rule["in"][d]) for rule in doc["rules"])
        if col["type"] in ("integer", "real"):
            seen[d] = [float(n) for n in re.findall(r"-?\d+(?:\.\d+)?",
                                                    texts)] or [0.0]
        else:
            seen[d] = re.findall(r"[A-Za-z_]+", texts) or ["x"]
    configs = []
    for _ in range(count):
        config = {}
        for d, col in enumerate(doc["inputs"]):
            kind = col["type"]
            if rng.random() < 0.03:
                value = "wrong kind" if kind != "string" else 1
            elif kind == "boolean":
                value = rng.choice((True, False))
            elif kind == "string":
                value = rng.choice(seen[d] + ["zz"])
            else:
                value = rng.choice(seen[d]) + rng.choice((0, 0, 1, -1, 0.5))
                value = round(value) if kind == "integer" else float(value)
            config[col["name"]] = value
        configs.append(config)
    return configs


def build_cases(out_dir: Path, tables: int, seeds: list[int],
                evals: int) -> list[dict]:
    """Write each document to ``out_dir``; return one case per document:
    its name, path and evaluation points."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"),
                    str(ROOT / "perfbench")]
    from conftest import planted_table_doc, random_table_doc
    import docs as perfbench_docs

    rng = random.Random(20261021)
    named = []
    for i in range(tables):
        make = planted_table_doc if rng.random() < 0.3 else random_table_doc
        doc = make(rng, max_cols=rng.randint(1, 4),
                   max_rules=rng.randint(1, 12),
                   hit_policy=rng.choice("UAFP"))
        if rng.random() < 0.1:
            _plant_bad_cell(rng, doc)
        named.append((f"random-{i}", json.dumps(doc), doc))
    for seed in seeds:
        for build in perfbench_docs.BUILDERS.values():
            named += [(d.name, d.text, d.document) for d in build(seed)]
    cases = []
    for name, text, doc in named:
        path = out_dir / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        cases.append({"name": name, "path": str(path),
                      "configs": _configs(rng, doc, evals)})
    return cases


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def digest_case(case: dict) -> dict:
    """The digest of each part of one document's answers; runs with the
    tree under test first on ``sys.path``."""
    from dmncheck import DecisionTableError, dump_table, evaluate, load_table
    from dmncheck.cli import main

    parts = {}
    for fmt in ("text", "structured"):
        for only in ("all", "overlap", "missing"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["check", "--format", fmt, "--only", only,
                             case["path"]])
            parts[f"check {fmt} {only}"] = _sha(
                (code, out.getvalue(), err.getvalue()))
    try:
        table = load_table(Path(case["path"]).read_text(encoding="utf-8"))
    except DecisionTableError as exc:
        parts["load"] = _sha((type(exc).__name__, str(exc)))
        return parts
    parts["dump_table"] = _sha(json.dumps(dump_table(table), sort_keys=True))
    results = []
    for config in case["configs"]:
        try:
            result = evaluate(table, config)
        except DecisionTableError as exc:
            results.append((type(exc).__name__, str(exc)))
            continue
        # repr tells True, 1 and 1.0 apart, which == does not.
        results.append((result.outcome.value,
                        result.rule.id if result.rule else None,
                        repr(result.outputs), result.triggered,
                        result.detail))
    parts["evaluate"] = _sha(results)
    return parts


def _worker(src: str, manifest: str) -> int:
    sys.path.insert(0, src)
    for case in json.loads(Path(manifest).read_text(encoding="utf-8")):
        print(json.dumps({"name": case["name"],
                          "parts": digest_case(case)}), flush=True)
    return 0


def _export(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:  # pragma: no cover - Python without extraction filters
            tar.extractall(into)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--tables", type=int, default=1500,
                        help="random tables (default 1500)")
    parser.add_argument("--seeds", default="2,3,5",
                        help="perfbench document seeds, comma-separated; "
                             "empty for none (default 2,3,5)")
    parser.add_argument("--evals", type=int, default=20,
                        help="evaluate points per document (default 20)")
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "MANIFEST"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return _worker(*args.worker)
    if not args.base:
        parser.error("--base is required")
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    with tempfile.TemporaryDirectory(prefix="dmncheck-diff-") as tmp:
        tmp_dir = Path(tmp)
        base_tree = tmp_dir / "base"
        base_tree.mkdir()
        _export(args.base, base_tree)
        docs_dir = tmp_dir / "docs"
        docs_dir.mkdir()
        cases = build_cases(docs_dir, args.tables, seeds, args.evals)
        manifest = tmp_dir / "cases.json"
        manifest.write_text(json.dumps(cases), encoding="utf-8")
        runs = [subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker",
             str(tree / "src"), str(manifest)],
            cwd=tmp, stdout=subprocess.PIPE, text=True)
            for tree in (base_tree, ROOT)]
        outputs = [run.communicate()[0].splitlines() for run in runs]
        for run, tree in zip(runs, ("base", "working tree")):
            if run.returncode != 0:
                print(f"the {tree} worker failed with exit "
                      f"{run.returncode}", file=sys.stderr)
                return 2
        for case, base_line, line in zip(cases, *outputs):
            base_parts = json.loads(base_line)["parts"]
            parts = json.loads(line)["parts"]
            if parts != base_parts:
                differing = sorted(key for key in set(parts) | set(base_parts)
                                   if parts.get(key) != base_parts.get(key))
                print(f"first difference: {case['name']} "
                      f"({', '.join(differing)})")
                print(Path(case["path"]).read_text(encoding="utf-8"))
                return 1
        if not len(cases) == len(outputs[0]) == len(outputs[1]):
            print("the workers digested different numbers of documents",
                  file=sys.stderr)
            return 2
    print(f"no difference on {len(cases)} documents "
          f"({args.tables} random, seeds {args.seeds or 'none'}) against "
          f"{args.base}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
