"""The package's public names and imports."""

import ast
import sys
from collections import Counter
from pathlib import Path

import dmncheck


def test_all_names_resolve_once():
    repeated = [name for name, n in Counter(dmncheck.__all__).items()
                if n > 1]
    assert repeated == []
    missing = [name for name in dmncheck.__all__
               if not hasattr(dmncheck, name)]
    assert missing == []
    namespace: dict = {}
    exec("from dmncheck import *", namespace)
    assert set(dmncheck.__all__) <= set(namespace)


def test_library_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"dmncheck"}
    foreign = []
    for path in sorted(Path(dmncheck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []
