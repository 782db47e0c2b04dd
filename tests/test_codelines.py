"""Tests for tools/codelines.py, the counter of code lines."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"
_SPEC = importlib.util.spec_from_file_location("codelines", _PATH)
codelines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codelines)

SNIPPET = '''"""A module docstring
over two lines."""

# A comment line.
import os  # a comment after code


class Point:
    """A class docstring."""

    x = 0


def add(a,
        b):
    """A function docstring
    over two lines.
    """

    return (a +
            b)


def noop(): """A docstring on the line of its def."""


TEXT = """A string that is
not a docstring."""
'''


def test_counts_lines_holding_a_token_outside_docstrings_and_comments():
    # import, class, x = 0, both lines of the signature, both lines of the
    # return, the line of noop and both lines of the string assigned to TEXT.
    assert codelines.code_lines(SNIPPET) == 10
    assert codelines.code_lines("") == 0


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "one.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "two.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert codelines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["10", str(tmp_path / "pkg" / "one.py")],
        ["1", str(tmp_path / "pkg" / "two.py")],
        ["11", "total"],
    ]
