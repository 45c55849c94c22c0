"""Count the lines of ``src/interlace`` that hold code.

A line holds code when a token other than a comment, an indent or a line
end starts on it or runs across it, and it is not part of a docstring:
the string that opens a module, a class or a function.  Blank lines,
comment lines and docstrings are left out; a comment after code leaves
its line counted.  Prints each module's count and the total::

    python tests/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "interlace"

_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _BLANK:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def counts() -> dict:
    """Module name to code lines, for every module of ``src/interlace``."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


if __name__ == "__main__":
    per_module = counts()
    for name, count in per_module.items():
        print(f"{name:16} {count:5}")
    print(f"{'total':16} {sum(per_module.values()):5}")
