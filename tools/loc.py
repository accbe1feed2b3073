"""Count the lines of the mrb package: raw lines and code-only lines.

Code-only lines leave out blank lines, comment-only lines and docstrings
(the string that opens a module, class or function body).  Only the
standard library is used.

    python tools/loc.py

prints one row per file of ``src/mrb`` and a total, from any directory.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """Raw lines and code-only lines of one Python file."""
    text = path.read_text()
    docstrings = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main() -> int:
    root = Path(__file__).resolve().parents[1] / "src" / "mrb"
    total_raw = total_code = 0
    for path in sorted(root.glob("*.py")):
        raw, code = count(path)
        total_raw += raw
        total_code += code
        print(f"{path.name:20} {raw:6} {code:6}")
    print(f"{'total':20} {total_raw:6} {total_code:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
