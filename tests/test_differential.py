"""tools/differential.py: equal trees give equal digests, and a planted
change shows as a difference."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# What the tool needs of a tree: the package, the document builders and
# the tool itself.
_PARTS = ("src/dmncheck", "tests/conftest.py", "perfbench/docs.py",
          "perfbench/oracle.py", "tools/differential.py")

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="needs git")


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    "-C", str(repo), *args], check=True,
                   capture_output=True)


@pytest.fixture
def repo(tmp_path):
    for part in _PARTS:
        source, target = ROOT / part, tmp_path / part
        if source.is_dir():
            shutil.copytree(source, target,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(source, target)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")
    return tmp_path


def _run(repo: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(repo / "tools/differential.py"), "--base",
         "HEAD", "--tables", "8", "--seeds", "", "--evals", "5"],
        capture_output=True, text=True, timeout=300)


def test_same_tree_shows_no_difference(repo):
    run = _run(repo)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "no difference on 8 documents" in run.stdout


def test_planted_change_shows(repo):
    # Render "-" as "any": every report that prints a condition changes.
    sfeel = repo / "src/dmncheck/sfeel.py"
    text = sfeel.read_text(encoding="utf-8")
    planted = text.replace('return "-"\n', 'return "any"\n', 1)
    assert planted != text
    sfeel.write_text(planted, encoding="utf-8")
    run = _run(repo)
    assert run.returncode == 1, run.stdout + run.stderr
    assert run.stdout.startswith("first difference: random-")
    assert "dump_table" in run.stdout.splitlines()[0]
