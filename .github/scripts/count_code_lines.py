"""Count the code lines of a Python package: docstrings, comments and blank lines not counted.

A line counts when a token other than a comment, a line break or an
indentation change touches it, outside every module, class and function
docstring.  Usage: ``python3 .github/scripts/count_code_lines.py [DIR]``
(default ``src/germsum``); prints the total, then one line per file.
"""
import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(root):
    counts = {p: code_lines(p) for p in sorted(Path(root).rglob("*.py"))}
    print(f"{sum(counts.values())} code lines in {root}")
    for p, n in counts.items():
        print(f"{n:6d}  {p}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/germsum")
