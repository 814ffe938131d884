"""``tools/src_lines.py`` on a small source string with known counts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring
over two lines."""

import math  # a trailing comment leaves the line code

# a comment line


class Record:
    """Class docstring."""

    text = """a string that is no docstring

    keeps its lines as code"""

    def area(self, r):
        """Function docstring

        with a blank line inside."""
        # comment in a body
        return math.pi * (
            r * r
        )
'''


def test_counts_of_a_known_source():
    counts = src_lines.count_lines(SOURCE)
    assert counts == {"code": 9, "docstring": 6, "comment": 2, "blank": 6}
    assert sum(counts.values()) == len(SOURCE.splitlines())


def test_every_source_file_adds_up_to_its_line_count():
    for path in sorted(src_lines.SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert sum(src_lines.count_lines(text).values()) == len(text.splitlines()), path.name


def test_public_names_of_a_known_source():
    source = '__all__ = [\n    "area",\n    "Record",\n]\nnames = ["x", "y", "z"]\n\n\ndef f():\n    __all__ = ("inner",)\n'
    assert src_lines.count_public(source) == 2
    assert src_lines.count_public(SOURCE) == 0
