"""Print the line counts of ``src/pgl`` that the ROADMAP tracks.

``total`` is every line of every module (what ``wc -l src/pgl/*.py`` sums);
``code`` leaves out docstrings, comments and blank lines: it counts the
lines that hold a token other than a comment or a module, class or function
docstring.  Run from anywhere: ``python3 tools/src_lines.py [DIR]``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(total, code) lines of one module's source."""
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP and tok.start[0] not in docs:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code)


def main(argv) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "pgl"
    total = code = 0
    for path in sorted(root.glob("*.py")):
        t, c = count(path.read_text())
        total, code = total + t, code + c
    print(f"{total} lines, {code} code lines (no docstrings, comments or blank lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
