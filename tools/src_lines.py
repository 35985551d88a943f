"""Line counts of the ``amwave`` package: raw and code-only, per module.

Code-only lines hold at least one token that is not a comment, and are
not part of a docstring (the string that opens a module, class or
function body); blank lines count as neither.  Prints one line per
module, then the totals:

    python tools/src_lines.py [path/to/src/amwave]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """(raw lines, code-only lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NO_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src" / "amwave"
    total_raw = total_code = 0
    for path in sorted(root.glob("*.py")):
        raw, code = counts(path.read_text())
        total_raw, total_code = total_raw + raw, total_code + code
        print(f"{raw:6d} {code:6d}  {path.name}")
    print(f"{total_raw:6d} {total_code:6d}  total (raw, code-only)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
