"""Count the code lines of each module of a Python package.

A code line holds at least one code token.  Blank lines, comments and
module, class and function docstrings are not code.  A token spanning
several lines, such as a triple-quoted string that is not a docstring,
counts every line it spans.  The script prints each module's code lines
and ``wc -l`` lines, then both totals.

Usage: python3 tools/code_lines.py [PACKAGE_DIR]   (default src/dmncheck)
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
             tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the tree's docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold a code token."""
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/dmncheck")
    total_code = total_wc = 0
    for path in sorted(package.glob("*.py")):
        code = code_lines(path)
        wc = path.read_bytes().count(b"\n")
        total_code += code
        total_wc += wc
        print(f"{code:6d} {wc:6d}  {path.name}")
    print(f"{total_code:6d} {total_wc:6d}  total (code lines, wc -l lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
