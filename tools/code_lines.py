"""Count the physical and the code lines of each module of a source tree.

    python3 tools/code_lines.py [SRC]

SRC is a directory (default: src/quasibessel of this checkout); every
``*.py`` file below it is counted.  A code line holds at least one token that
is not a comment and is not part of a module, class or function docstring;
blank lines, comment lines and docstring lines are not code lines.  A line
that a multi-line string spans is a code line unless that string is a
docstring.  Prints one row per module and a total row.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path
from typing import Set, Tuple

ROOT = Path(__file__).resolve().parents[1]

# tokens that hold no code of their own
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.Module) -> Set[Tuple[int, int]]:
    """(line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def count(source: str) -> Tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    code: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src" / "quasibessel")
    args = parser.parse_args()
    rows = []
    for path in sorted(args.src.rglob("*.py")):
        rows.append((str(path.relative_to(args.src)), *count(path.read_text(encoding="utf-8"))))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")


if __name__ == "__main__":
    main()
