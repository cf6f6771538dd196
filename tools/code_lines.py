"""Print the code lines of each module under ``src/sapphire_novelty/`` and their total.

A code line is a line that holds a token of code: comments, blank lines and
docstrings (the string that opens a module, class or function body) are not
counted, and a statement that spans lines counts each line it spans. The
bundled data package's ``__init__.py`` is left out. Run it from anywhere:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sapphire_novelty"
SKIPPED = {PACKAGE / "data" / "__init__.py"}
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    with open(path, "rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    lines: set[int] = set()
    for token in tokens:
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        if path in SKIPPED:
            continue
        count = code_lines(path)
        total += count
        print(f"{count:6,}  {path.relative_to(PACKAGE)}")
    print(f"{total:6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
