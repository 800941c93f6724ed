"""Print the size of each module of syncenergy, in lines and in code lines.

    python tools/src_lines.py [SRC_DIR]

For each ``*.py`` file under SRC_DIR (default: the ``src/`` beside this
script), sorted by path, it prints the line count as ``wc -l`` gives it,
the code lines and the path; a last line gives the totals. A code line is
a physical line that holds a token other than a comment, outside the
docstrings of modules, classes and functions; a token that spans lines,
such as a string, holds each line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) of each module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in ``source``, as the module docstring defines them."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE and token.start not in docstrings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    if len(argv) > 1:
        print("usage: python tools/src_lines.py [SRC_DIR]", file=sys.stderr)
        return 2
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    total_lines = total_code = 0
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, code = source.count("\n"), code_lines(source)
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{lines:6d} {code:6d}  {path.relative_to(root).as_posix()}")
    print(f"{total_lines:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
