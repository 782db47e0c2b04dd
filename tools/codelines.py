"""Count the code lines of Python files: lines that hold a token outside
docstrings and comments.

A docstring is the string that opens a module, class or function body.  A
line counts once however many tokens it holds, and each line of a token
that spans several counts, so a multi-line expression counts all of its
lines; a line that holds only comments, docstrings or nothing does not.

    python3 tools/codelines.py [PATH ...]

Each PATH is a file or a directory searched for ``*.py`` files; the
default is ``src``.  It prints each file's count and then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set, Tuple

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_spans(tree: ast.AST) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """The (start, end) positions of the docstrings of ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                spans.append(
                    ((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset))
                )
    return spans


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token outside docstrings and comments."""
    docstrings = _docstring_spans(ast.parse(source))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or (
            token.type == tokenize.STRING
            and any(start <= token.start and token.end <= end for start, end in docstrings)
        ):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def _python_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: List[str]) -> int:
    total = 0
    for path in _python_files(argv or ["src"]):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
