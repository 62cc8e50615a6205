"""Per-layer CPU time of ``dmncheck check --format structured``.

Usage: python3 tools/layer_times.py --workload W [--seed N] [--runs K]

Builds the documents that ``perfbench/run.py`` measures for one check
workload (``overlap-unique``, ``gaps-wide`` or ``first-hit``) and seed,
with ``perfbench/docs.py``, and runs each document through the check
one layer at a time, ``--runs`` times after one untimed warm-up run:

* ``json.loads``: decoding the document text;
* ``load_table``: building the table from the decoded document;
* ``table.geometry``: its first use, which runs ``table_rects``;
* ``validate_structure``: the structure check;
* ``sweep_table``: the overlap and missing sweep with its rendering;
* report building: ``check_correct``, handed the two results above so
  that it runs neither again, then the report document of ``cli``;
* ``_dump_json``: writing that document.

Each layer's time is ``time.process_time()`` around it.  The script
prints, per layer, the median over the documents of each document's
median over its runs, then the same for the whole ``cli.main`` check
with its output discarded, which adds reading the file and parsing the
arguments.  Run it from any directory; it imports the package from
this tree's ``src`` and changes nothing under ``perfbench/``.  It uses
the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("overlap-unique", "gaps-wide", "first-hit")
LAYERS = ("json.loads", "load_table", "table.geometry", "validate_structure",
          "sweep_table", "report building", "_dump_json")


def _layer_times(text: str) -> list[float]:
    """One check of the document ``text``, in seconds of CPU per layer,
    in the order of ``LAYERS``."""
    from dmncheck import cli, correctness, model
    from dmncheck.analysis import sweep_table

    clock = time.process_time
    marks = [clock()]
    document = json.loads(text)
    marks.append(clock())
    table = model.load_table(document)
    marks.append(clock())
    table.geometry  # the first use builds it with table_rects
    marks.append(clock())
    structure = list(model.validate_structure(table))
    marks.append(clock())
    swept = sweep_table(table, "all")
    marks.append(clock())
    # check_correct looks both functions up in its own module, so the
    # results timed above stand in for them here.
    saved = correctness.validate_structure, correctness.sweep_table
    correctness.validate_structure = lambda _table: structure
    correctness.sweep_table = lambda _table, _only: swept
    try:
        report = correctness.check_correct(table)
        doc = cli._check_doc(table, report, "all")
    finally:
        correctness.validate_structure, correctness.sweep_table = saved
    marks.append(clock())
    cli._dump_json(doc)
    marks.append(clock())
    return [b - a for a, b in zip(marks, marks[1:])]


def _check_time(path: str) -> float:
    from dmncheck import cli

    start = time.process_time()
    with redirect_stdout(io.StringIO()):
        cli.main(["check", "--format", "structured", path])
    return time.process_time() - start


def measure(workload: str, seed: int, runs: int) -> dict[str, float]:
    """Each layer's median CPU time in seconds, and the whole check's
    under ``"check"``, over the workload's documents."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import docs as perfbench_docs

    documents = perfbench_docs.select(
        workload, perfbench_docs.BUILDERS[workload](seed))
    per_doc: list[list[float]] = []
    with tempfile.TemporaryDirectory(prefix="dmncheck-layers-") as tmp:
        for doc in documents:
            path = Path(tmp) / f"{doc.name}.json"
            path.write_text(doc.text, encoding="utf-8")
            _layer_times(doc.text)
            _check_time(str(path))
            samples = [_layer_times(doc.text) + [_check_time(str(path))]
                       for _ in range(runs)]
            per_doc.append([statistics.median(column)
                            for column in zip(*samples)])
    medians = [statistics.median(column) for column in zip(*per_doc)]
    return dict(zip(LAYERS + ("check",), medians))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="perfbench document seed (default 1)")
    parser.add_argument("--runs", type=int, default=9,
                        help="timed runs per document (default 9)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    times = measure(args.workload, args.seed, args.runs)
    layers = sum(times[name] for name in LAYERS)
    print(f"{args.workload}, seed {args.seed}: median CPU ms over the "
          f"documents of the per-document median of {args.runs} runs")
    for name in LAYERS:
        print(f"  {name:<20} {times[name] * 1e3:9.3f}  "
              f"{times[name] / layers:6.1%}")
    print(f"  {'sum of layers':<20} {layers * 1e3:9.3f}")
    print(f"  {'whole check':<20} {times['check'] * 1e3:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
