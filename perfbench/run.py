"""End-to-end benchmark of ``dmncheck check`` and ``evaluate``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # each workload in its own process

Run from the repository root.  The benchmark builds seeded table
documents with ``dmncheck.synth``, drives them through the public entry
points (``dmncheck.cli.main(["check", "--format", "structured", path])``
or ``dmncheck.evaluate``) in one closed loop (one client, one thread,
calls back to back), checks every answer against one known without the
code under test, and prints each metric with its unit.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Times are given in reference seconds: wall time scaled by the speed
of the CPU measured while the benchmark runs (``pace.py``), because the
speed of a shared machine's CPU swings by up to half.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a
separate run that alternates untraced and traced operations and
reports per-layer metrics from the outside-in tracer.  Details, the
run context and the spans go to ``.perfbench_out/``.  NOTES.md gives
the reason for each workload.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path

import oracle
import pace as pace_mod
import tracer as tracer_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
FROZEN = HERE / "frozen.json"
WORKLOADS = ("overlap-unique", "gaps-wide", "first-hit", "eval-points")
SETUP_REPEATS = 3
EVAL_POINTS = 1000
EVAL_BATCH = 50
# Spans held in memory before a traced run stops adding traced
# operations (one traced operation always runs).
SPAN_CAP = 500_000

TRACED = (
    "model.load_table", "sfeel.parse_condition", "sfeel.lower_to_intervals",
    "model.validate_structure", "analysis.table_rects",
    "analysis.find_overlapping_rules", "analysis.find_missing_rules",
    "analysis.render_box", "semantics.masked_by", "analysis.region_contained",
    "correctness.check_correct", "cli.main", "semantics.evaluate",
    "sfeel.satisfies", "synth.generate_table", "synth.inject_noise",
)
# Per-layer metrics.  Times are given as a share of the traced
# operation's wall time: every layer is bypassed by some workload, and a
# share of 0 % there says so without reading as a stuck clock.
OP_CALLS = ("model.load_table", "sfeel.parse_condition",
            "sfeel.lower_to_intervals", "analysis.table_rects",
            "analysis.render_box", "semantics.masked_by",
            "analysis.region_contained", "sfeel.satisfies")
OP_SHARES = (("model.load_table", "total"), ("sfeel.parse_condition", "self"),
             ("sfeel.lower_to_intervals", "self"),
             ("model.validate_structure", "total"),
             ("analysis.table_rects", "total"),
             ("analysis.find_overlapping_rules", "self"),
             ("analysis.find_missing_rules", "self"),
             ("analysis.render_box", "total"), ("semantics.masked_by", "total"),
             ("analysis.region_contained", "total"), ("cli.main", "self"),
             ("sfeel.satisfies", "total"))
SETUP_TIMES = ("synth.generate_table", "synth.inject_noise", "model.load_table")


class Refused(Exception):
    """The inputs differ from the frozen ones; nothing may be compared."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def context() -> dict:
    """Where a result was measured; context only, never gated."""
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": _commit(), "src_lines": src_lines}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Failures:
    """Failed operations, counted and never fatal."""

    def __init__(self):
        self.count = 0
        self.samples: list[str] = []

    def add(self, message: str) -> None:
        self.count += 1
        if len(self.samples) < 5:
            self.samples.append(message)


# ---------------------------------------------------------------------------
# Operations


class CheckOps:
    """One op: ``dmncheck check --format structured`` on one document;
    op ``i`` takes document ``i % len(docs)``."""

    kind = "check"

    def __init__(self, workload, docs, frozen_reports):
        import dmncheck.cli

        self.cli = dmncheck.cli
        self.workload = workload
        self.docs = docs
        self.paths = []
        for doc in docs:
            path = OUT / "docs" / f"{doc.name}.json"
            _write(path, doc.text)
            self.paths.append(str(path))
        # The frozen report digest for the default seed; otherwise the
        # first report, so that every repeat must be byte-identical.
        self.digests = [frozen_reports.get(doc.sha256) for doc in docs]
        # The latest report of each document, and its size in bytes.
        self.reports: list[dict] = [{} for _ in docs]
        self.report_bytes = [0 for _ in docs]

    def __len__(self) -> int:
        return len(self.docs)

    def run(self, i: int, failures: Failures, pace):
        """The operation's (start, stop) marks, or None when it raised."""
        k = i % len(self.docs)
        doc = self.docs[k]
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = pace.mark()
                code = self.cli.main(["check", "--format", "structured",
                                      self.paths[k]])
                span = start, pace.mark()
        except Exception as exc:  # counted, never fatal
            failures.add(f"{doc.name}: {type(exc).__name__}: {exc}")
            return None
        text = out.getvalue()
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            failures.add(f"{doc.name}: no JSON report (exit {code}, "
                         f"stderr {err.getvalue()[:200]!r})")
            return span
        self.reports[k] = report
        self.report_bytes[k] = len(text.encode("utf-8"))
        problems = oracle.report_problems(self.workload, code, report,
                                          doc.expect)
        digest = sha256(text.encode("utf-8")).hexdigest()
        if self.digests[k] is None:
            self.digests[k] = digest
        elif self.digests[k] != digest:
            problems.append("report differs from the recorded one")
        if problems:
            failures.add(f"{doc.name}: " + "; ".join(problems))
        return span


class EvalOps:
    """One op: ``dmncheck.evaluate`` on one seeded point; op ``i`` takes
    table ``i % len(tables)``."""

    kind = "eval"

    def __init__(self, tables, docs, seed):
        import dmncheck

        self.dmncheck = dmncheck
        self.tables = tables
        self.configs, self.expected = [], []
        for k, doc in enumerate(docs):
            names = [column["name"] for column in doc.document["inputs"]]
            points = oracle.random_points(doc.document, EVAL_POINTS,
                                          seed + 1009 * k)
            self.configs.append([dict(zip(names, point))
                                 for point in points])
            rows = oracle.rows(doc.document)
            self.expected.append([oracle.triggered(rows, point)
                                  for point in points])

    def __len__(self) -> int:
        return len(self.tables)

    def run(self, i: int, failures: Failures, pace):
        """The call's (start, stop) marks, or None when it raised."""
        k, j = i % len(self.tables), i // len(self.tables) % EVAL_POINTS
        try:
            start = pace.mark()
            result = self.dmncheck.evaluate(self.tables[k],
                                            self.configs[k][j])
            span = start, pace.mark()
        except Exception as exc:  # counted, never fatal
            failures.add(f"table {k} point {j}: {type(exc).__name__}: "
                         f"{exc}")
            return None
        want = self.expected[k][j]
        winner = result.rule.id if result.rule is not None else None
        if tuple(result.triggered) != want or winner != want[0]:
            failures.add(f"table {k} point {j}: triggered "
                         f"{result.triggered}, winner {winner}; expected "
                         f"{want}")
        return span


# ---------------------------------------------------------------------------
# Set-up


def _build(workload: str, seed: int, build_kwargs: dict):
    import dmncheck
    import docs as docs_mod

    built = docs_mod.BUILDERS[workload](seed, **build_kwargs)
    tables = []
    if workload == "eval-points":
        tables = [dmncheck.load_table(doc.text) for doc in built]
    return built, tables


def set_up(workload: str, seed: int, repeats: int, build_kwargs: dict,
           pace, tracer=None):
    """Build the documents ``repeats`` times (once under the tracer when
    one is given); returns the documents, the eval tables and the
    (start, stop) marks of each set-up.  Every repeat must give
    byte-identical documents."""
    spans, digests = [], set()
    for _ in range(repeats):
        start = pace.mark()
        if tracer is not None:
            with tracer, tracer.op(0):
                built, tables = _build(workload, seed, build_kwargs)
        else:
            built, tables = _build(workload, seed, build_kwargs)
        spans.append((start, pace.mark()))
        digests.add(tuple(doc.sha256 for doc in built))
    if len(digests) != 1:
        raise Refused("the same seed gave different documents")
    return built, tables, spans


def check_frozen(workload: str, seed: int, built) -> dict:
    """Refuse inputs other than the frozen ones; returns the recorded
    report digests by document digest."""
    import docs as docs_mod

    frozen = json.loads(FROZEN.read_text(encoding="utf-8"))
    if docs_mod.probe_digest() != frozen["probe"]:
        raise Refused("the generator yields other documents than the "
                      "frozen ones (probe digest differs)")
    if seed == docs_mod.DEFAULT_SEED:
        for doc in built:
            if frozen["documents"].get(doc.name) != doc.sha256:
                raise Refused(f"document {doc.name} differs from the frozen "
                              "one")
    return frozen["reports"]


# ---------------------------------------------------------------------------
# Runs


def _closed_loop(ops, failures, seconds: float, batch: int, pace):
    """Ops back to back until ``seconds`` pass; a batch is not started
    when it would end past the deadline at the median op time so far,
    unless some document has not been measured yet.  Returns each op's
    (start, stop) marks, None for an op that raised."""
    spans, walls = [], []
    begin = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - begin
        if i >= len(ops) and (elapsed >= seconds or elapsed
                              + batch * _median(walls) > seconds):
            break
        for _ in range(batch):
            span = ops.run(i, failures, pace)
            spans.append(span)
            if span is not None:
                walls.append(span[1][0] - span[0][0])
            i += 1
    return spans, time.perf_counter() - begin


def make_ops(workload, seed, documents, tables, frozen_reports,
             count=None):
    """The run's operations over its documents, or over the first
    ``count`` of them."""
    import docs as docs_mod

    if workload == "eval-points":
        return EvalOps(tables[:count], documents[:count], seed * 7 + 5)
    return CheckOps(workload, docs_mod.select(workload, documents)[:count],
                    frozen_reports)


def run_timed(workload, seed, seconds, built, tables, setup_spans, import_s,
              frozen_reports, pace):
    failures = Failures()
    ops = make_ops(workload, seed, built, tables, frozen_reports)
    batch = EVAL_BATCH if ops.kind == "eval" else 1
    spans, wall = _closed_loop(ops, failures, seconds, batch, pace)
    pace.settle()
    # Op i measured document i % len(ops); the figure is the mean over
    # documents of each one's median.
    per_doc = [[] for _ in range(len(ops))]
    walls = []
    for i, span in enumerate(spans):
        if span is not None:
            wall_s, ref_s = pace.scaled(*span)
            walls.append(wall_s)
            per_doc[i % len(ops)].append(ref_s)
    refs = [ref_s for doc in per_doc for ref_s in doc]
    p50 = statistics.fmean([_median(doc) for doc in per_doc if doc])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = import_s + _median([pace.scaled(*span)[1]
                                  for span in setup_spans])
    metrics = {
        "op_ref_s.p50": {"value": p50, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    # Names per kind of operation, for the readout: check_* or eval_*.
    # Wall times are context: they follow the machine's speed swings.
    n = f"n={len(refs)}"
    readout = {f"{ops.kind}_ref_s.p50": (p50, "s",
                                         f"{n} mean over {len(ops)} docs"),
               f"{ops.kind}_wall_s.p50": (_median(walls), "s", n),
               f"{ops.kind}s_per_s": (len(refs) / wall, "1/s", "wall"),
               "pace.loop_s.p50": (_median(pace.loops), "s",
                                   f"n={len(pace.loops)} "
                                   f"ref={pace_mod.REF_S}"),
               "failed_ratio": (failures.count / max(len(spans), 1), "ratio",
                                f"{failures.count}/{len(spans)}")}
    if len(refs) >= 1000:
        readout[f"{ops.kind}_ref_s.p99"] = (
            statistics.quantiles(refs, n=100)[98], "s", n)
    samples = {"op_ref_s": refs, "op_wall_s": walls,
               "pace_loop_s": pace.loops}
    return metrics, readout, samples, failures, len(spans)


def run_traced(workload, seed, seconds, built, tables, setup_tracer,
               frozen_reports, pace):
    import dmncheck

    failures = Failures()
    # One document, so that the per-operation counts belong together.
    ops = make_ops(workload, seed, built, tables, frozen_reports, count=1)
    batch = EVAL_BATCH if ops.kind == "eval" else 1
    tracer = tracer_mod.Tracer(TRACED)
    plain, traced = [], []
    begin = time.perf_counter()
    i = 0
    # Alternate untraced and traced batches over the same inputs.
    while not traced or (time.perf_counter() - begin < seconds
                         and len(tracer) < SPAN_CAP):
        for k in range(batch):
            plain.append(ops.run(i + k, failures, pace))
        with tracer:
            for k in range(batch):
                with tracer.op(len(traced) + 1):
                    traced.append(ops.run(i + k, failures, pace))
        i += batch
    summary = tracer.summary()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}")

    per_op = [summary[t] for t in range(1, len(traced) + 1) if t in summary]
    setup = setup_tracer.summary().get(0, {})

    def op_value(name, field):
        values = [row.get(name, {}).get(field, 0) for row in per_op]
        return statistics.median_low(values) if field == "calls" \
            else _median(values)

    def share(name, field):
        return _median([100.0 * row.get(name, {}).get(field, 0.0)
                        / row[tracer_mod.ROOT]["total_s"] for row in per_op])

    metrics = {}
    for name in OP_CALLS:
        metrics[f"{name}.calls"] = {"value": op_value(name, "calls"),
                                    "unit": "count"}
    for name, field in OP_SHARES:
        metrics[f"{name}.{field}_pct"] = {"value": share(name, f"{field}_s"),
                                          "unit": "%"}
    for name in SETUP_TIMES:
        metrics[f"setup.{name}.total_s"] = {
            "value": setup.get(name, {}).get("total_s", 0.0), "unit": "s"}
    metrics["setup.sfeel.parse_condition.calls"] = {
        "value": setup.get("sfeel.parse_condition", {}).get("calls", 0),
        "unit": "count"}

    report = ops.reports[0] if ops.kind == "check" else {}
    masked = sum(1 for d in report.get("diagnostics", ())
                 if d["code"] == "MASKED_RULE")
    masked_calls = op_value("semantics.masked_by", "calls")
    metrics["masked.hit_ratio"] = {
        "value": masked / masked_calls if masked_calls else 0.0,
        "unit": "ratio"}
    # Boxes as table_rects returns them first; 0, and listed as absent,
    # once a later version drops that function or its tuple result.
    boxes = 0
    try:
        boxes = len(dmncheck.analysis.table_rects(dmncheck.load_table(
            built[0].text if ops.kind == "eval" else ops.docs[0].text))[0])
    except (AttributeError, TypeError, IndexError, KeyError):
        tracer.absent.append("ir.boxes")
    metrics["ir.boxes"] = {"value": boxes, "unit": "count"}
    metrics["report.overlap_groups"] = {
        "value": len(report.get("overlaps", ())), "unit": "count"}
    metrics["report.missing_regions"] = {
        "value": len(report.get("missing", ())), "unit": "count"}
    metrics["report.bytes"] = {
        "value": ops.report_bytes[0] if ops.kind == "check" else 0,
        "unit": "count"}
    pace.settle()

    def ref_p50(spans):
        return _median([pace.scaled(*span)[1] for span in spans
                        if span is not None])

    overhead = ref_p50(traced) / ref_p50(plain) - 1.0
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}

    layers = {name: {field: op_value(name, field)
                     for field in ("calls", "total_s", "self_s")}
              for name in tracer.names}
    readout = {"traced_ops": (len(traced), "count", ""),
               "spans": (len(tracer), "count", ""),
               "absent": (len(tracer.absent), "count",
                          " ".join(tracer.absent))}
    trace = {"layers_per_op": layers, "setup_layers": setup,
             "absent": tracer.absent}
    return metrics, readout, trace, failures, len(plain) + len(traced)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0, build_kwargs: dict | None = None,
                 frozen: bool = True) -> dict:
    """One run; returns the result object and the readout details.
    ``import_s`` is the import time in reference seconds."""
    build_kwargs = build_kwargs or {}
    setup_tracer = tracer_mod.Tracer(TRACED) if trace else None
    with pace_mod.Pace() as pace:
        built, tables, setup_spans = set_up(
            workload, seed, 1 if trace else SETUP_REPEATS, build_kwargs,
            pace, setup_tracer)
        frozen_reports = check_frozen(workload, seed, built) if frozen \
            else {}
        if trace:
            metrics, readout, detail, failures, attempted = run_traced(
                workload, seed, seconds, built, tables, setup_tracer,
                frozen_reports, pace)
        else:
            metrics, readout, detail, failures, attempted = run_timed(
                workload, seed, seconds, built, tables, setup_spans,
                import_s, frozen_reports, pace)
    result = {"correct": failures.count == 0, "attempted": attempted,
              "failed": failures.count, "metrics": metrics}
    return {"result": result, "readout": readout, "detail": detail,
            "failures": failures.samples}


# ---------------------------------------------------------------------------
# Command line


def _print_readout(workload, seed, trace, outcome, ctx) -> None:
    print(f"# {workload} seed={seed} trace={int(trace)} "
          + " ".join(f"{k}={v}" for k, v in ctx.items()))
    for name, metric in outcome["result"]["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit, note) in outcome["readout"].items():
        print(f"{workload} {name} {value:.6g} {unit} {note}".rstrip())
    for name, row in outcome["detail"].get("layers_per_op", {}).items():
        print(f"{workload} per-op {name} calls={row['calls']:g} "
              f"total_s={row['total_s']:.6g} self_s={row['self_s']:.6g}")
    for message in outcome["failures"]:
        print(f"{workload} FAILED {message}")


def _run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    status = 0
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="default 1, the seed frozen.json records")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    with pace_mod.Pace() as pace:
        start = pace.mark()
        try:
            import dmncheck  # timed: the import is part of set-up
        except ImportError as exc:
            sys.stderr.write(f"error: cannot import dmncheck from "
                             f"{ROOT / 'src'}: {exc}\n")
            return 2
        stop = pace.mark()
        pace.settle()
    import_s = pace.scaled(start, stop)[1]
    if not Path(dmncheck.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"error: dmncheck comes from {dmncheck.__file__}, "
                         f"not from {ROOT / 'src'}\n")
        return 2

    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), import_s)
    except Refused as exc:
        sys.stderr.write(f"error: refusing to measure: {exc}\n")
        return 3
    ctx = context()
    _write(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
                 ".json",
           json.dumps({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "context": ctx, **outcome},
                      indent=2, sort_keys=True, default=str))
    _print_readout(args.workload, args.seed, args.trace, outcome, ctx)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
