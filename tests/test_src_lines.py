"""``tools/src_lines.py`` on a small source string with known counts, and against a revision of a temporary git repository."""

import importlib.util
import subprocess
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


def test_changes_against_a_git_revision(tmp_path):
    package = tmp_path / "src" / "helikin"
    package.mkdir(parents=True)
    (package / "kept.py").write_text('__all__ = ["a"]\na = 1\n')
    (package / "gone.py").write_text("# only a comment\n\nb = 2\n")
    (package / "notes.txt").write_text("not python\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (package / "kept.py").write_text('"""Doc."""\n\n__all__ = ["a", "c"]\na = 1\nc = 3\n')
    (package / "gone.py").unlink()
    (package / "new.py").write_text("d = 4\n")

    old = src_lines.rev_counts("HEAD", tmp_path)
    assert sorted(old) == ["gone.py", "kept.py"]
    deltas = src_lines.changes(src_lines.tree_counts(tmp_path), old)
    assert deltas == {
        "kept.py": {"code": 1, "docstring": 1, "comment": 0, "blank": 1, "public": 1},
        "gone.py": {"code": -1, "docstring": 0, "comment": -1, "blank": -1, "public": 0},
        "new.py": {"code": 1, "docstring": 0, "comment": 0, "blank": 0, "public": 0},
    }
    lines = src_lines.table(deltas, signed=True).splitlines()
    assert lines[1].split() == ["gone.py", "-1", "+0", "-1", "-1", "+0"]
    assert lines[-1].split() == ["total", "+1", "+1", "-1", "+0", "+1"]
