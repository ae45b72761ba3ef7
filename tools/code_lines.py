"""Physical and code lines per module of the mvlci package, and in total.

A code line is a physical line that holds part of a statement: blank
lines, comment-only lines and the lines of a docstring (the string that
opens a module, class or function body) are not code lines.  Each line
of a statement that spans several lines is one code line.

    python tools/code_lines.py [DIR]

DIR defaults to the package's `src/mvlci`; every `*.py` file directly in
it is counted, one `<file> <physical> <code>` line each, then the totals.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mvlci"

# tokens that make no line a code line on their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The 1-based line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(physical lines, code lines) of one Python source text."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT:
            continue
        for line in range(tok.start[0], tok.end[0] + 1):
            if line not in docs:
                code.add(line)
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=SRC)
    args = parser.parse_args(argv)
    total_physical = total_code = 0
    for path in sorted(args.dir.glob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.name:<16} {physical:>6} {code:>6}")
    print(f"{'total':<16} {total_physical:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
