"""Record the frozen inputs and reports in ``frozen.json``.

    python3 perfbench/record_frozen.py

Stores the sha256 of every default-seed document, of the structured
report ``dmncheck check`` gives for each measured one, and the probe
digest checked on every seed.  Re-record only in a change that means
to alter the benchmark's inputs; results from before and after it are
not comparable.
"""

from __future__ import annotations

import json
import sys

import pace
import run


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import docs

    documents, reports = {}, {}
    for workload in run.WORKLOADS:
        with pace.Pace() as clock:
            built, tables, _ = run.set_up(workload, docs.DEFAULT_SEED, 1,
                                          {}, clock)
            documents.update({doc.name: doc.sha256 for doc in built})
            ops = run.make_ops(workload, docs.DEFAULT_SEED, built, tables,
                               {})
            if ops.kind != "check":
                continue
            failures = run.Failures()
            for i in range(len(ops)):
                ops.run(i, failures, clock)
        if failures.count:
            sys.stderr.write(f"{workload}: {failures.samples}\n")
            return 1
        reports.update(zip((doc.sha256 for doc in ops.docs), ops.digests))
    frozen = {"seed": docs.DEFAULT_SEED, "probe": docs.probe_digest(),
              "documents": documents, "reports": reports}
    run.FROZEN.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
