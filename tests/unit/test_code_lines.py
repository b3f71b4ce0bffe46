"""The code-line counter behind the simplicity items' line targets."""

from __future__ import annotations

from tests.code_lines import count_code_lines

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


def f(x):
    """Docstring."""
    text = """not a docstring:
    an assigned string"""
    return (x +
            1)
'''


def test_counts_only_lines_with_code_tokens():
    # import, def, the two lines of the assigned string, the two of return.
    assert count_code_lines(SNIPPET) == 6
