"""Count the code lines of the `groupreg` package, per module and in total.

A code line is a non-blank line that holds a token other than a comment:
lines that are only docstrings (the first statement of a module, class or
function, when it is a string) or only `#` comments do not count.

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    """Code lines of one Python source file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    with path.open("rb") as fh:
        return len({line for tok in tokenize.tokenize(fh.readline) if tok.type not in SKIP
                    for line in range(tok.start[0], tok.end[0] + 1)} - docs)


def main():
    package = Path(__file__).resolve().parents[1] / "src" / "groupreg"
    counts = {p.name: code_lines(p) for p in sorted(package.glob("*.py"))}
    for name, n in counts.items():
        print(f"{name:16} {n:5}")
    print(f"{'total':16} {sum(counts.values()):5}")


if __name__ == "__main__":
    main()
