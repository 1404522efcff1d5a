"""Print the code lines of each module under src/stablerings, then their total.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT, and lies outside a docstring: the leading string of a
module, class or function.  A token that spans lines (a multi-line string)
puts each of its lines on the count.

Run it from anywhere: python tests/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stablerings"
# ENDMARKER sits on the line after the last one
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the docstrings of the module and of every class and function in it."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one source file."""
    text = path.read_text()
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    lines = {n for tok in tokens if tok.type not in SKIPPED for n in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.stem:14} {n:6,}")
    print(f"{'total':14} {total:6,}")


if __name__ == "__main__":
    main()
