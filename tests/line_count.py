"""Count the lines of each library module by kind.

Usage::

    python tests/line_count.py [<checkout>/src]

For each module of ``beliefnet`` (``src`` defaults to this checkout's) it
prints its code lines, those holding a token outside docstrings and
comments; its docstring lines, those a module, class or function
docstring spans; and its comment lines, those holding a comment and no
code.  Blank lines count as none of them.  The last line gives the
totals.  The file name does not match ``test_*.py``, so pytest does not
collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int, int]:
    """(code, docstring, comment) lines of one source file."""
    source = path.read_text()
    docs = docstring_lines(ast.parse(source, str(path)))
    code: set[int] = set()
    comments: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in SKIPPED:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(code), len(docs), len(comments - code - docs)


def main() -> None:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    totals = [0, 0, 0]
    print(f"{'module':16} {'code':>6} {'docs':>6} {'comments':>8}")
    for path in sorted((src / "beliefnet").glob("*.py")):
        counts = count(path)
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:16} {counts[0]:6} {counts[1]:6} {counts[2]:8}")
    print(f"{'total':16} {totals[0]:6} {totals[1]:6} {totals[2]:8}")


if __name__ == "__main__":
    main()
