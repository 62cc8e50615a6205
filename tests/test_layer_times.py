"""tools/layer_times.py: one small run prints every layer."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_first_hit_run_prints_every_layer():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools/layer_times.py"), "--workload",
         "first-hit", "--seed", "1", "--runs", "1"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    header, *rows = run.stdout.splitlines()
    assert header.startswith("first-hit, seed 1:")
    parsed = [re.fullmatch(r"  (\S+(?: \S+)*) +(\d+\.\d{3})(?: +\S+%)?", row)
              for row in rows]
    assert all(parsed), rows
    assert [m[1] for m in parsed] == [
        "json.loads", "load_table", "table.geometry", "validate_structure",
        "sweep_table", "report building", "_dump_json", "sum of layers",
        "whole check"]
    assert float(parsed[-1][2]) > 0
