"""``tools/code_lines.py``, the code-line count CHANGES reports, on a module
whose every line is known to hold code or not."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# Six code lines: the import, the def, both lines of the two-line
# statement, the bare string (it does not open a body) and the return.
MODULE = '''"""A module docstring,
over two lines."""

# A comment.

import os


def scale(x):
    """A function docstring."""
    # A comment inside the body.
    total = (x +
             1)

    "a bare string, not a docstring"
    return total
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_only_the_lines_that_hold_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(MODULE, encoding="utf-8")
    assert _load_tool().code_lines(path) == 6


def test_a_class_docstring_is_not_code_and_a_blank_module_has_none(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('class Plain:\n    """A class docstring,\n    over two lines."""\n\n    size = 1\n')
    blank = tmp_path / "blank.py"
    blank.write_text("\n# only a comment\n\n")
    tool = _load_tool()
    assert (tool.code_lines(path), tool.code_lines(blank)) == (2, 0)
