#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines and the public names of each helikin source file.

    python3 tools/src_lines.py          # counts of the working tree
    python3 tools/src_lines.py REV      # change of each count since git revision REV

Docstring lines are the lines of each string that ``ast`` takes as the
docstring of a module, class or function. Of the other lines, a line that a
token other than a comment spans is code (so are the lines of a multi-line
string that is no docstring), a line with only a comment is a comment line,
and the rest are blank. The public names are the entries of the module's
``__all__``, read with ``ast`` so that nothing is imported; a module without
one has none. Prints one row per file of ``src/helikin`` and a total row;
the four kinds of line add up to ``wc -l``. Given a git revision, it prints
each count of the working tree minus the same count at that revision,
reading the old files with ``git show REV:src/helikin/<file>``; a file that
exists on one side only counts as empty on the other. Only the standard
library is used.
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBDIR = "src/helikin"
SRC = ROOT / SUBDIR
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.ENCODING, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(source: str) -> dict[str, int]:
    """Lines of ``source`` by kind, in the order of ``KINDS``."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, len(source.splitlines()) + 1):
        if line in docstring:
            counts["docstring"] += 1
        elif line in code:
            counts["code"] += 1
        elif line in comment:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def count_public(source: str) -> int:
    """Entries of the module-level ``__all__`` list or tuple of ``source``, 0 without one."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return len(node.value.elts)
    return 0


def counts_of(source: str) -> dict[str, int]:
    """The line counts and public names of ``source``; an empty source counts zero."""
    return {**count_lines(source), "public": count_public(source)}


def tree_counts(root: Path = ROOT) -> dict[str, dict[str, int]]:
    """The counts of each ``src/helikin/*.py`` file in the working tree of ``root``, by file name."""
    return {path.name: counts_of(path.read_text(encoding="utf-8")) for path in (root / SUBDIR).glob("*.py")}


def rev_counts(rev: str, root: Path = ROOT) -> dict[str, dict[str, int]]:
    """The counts of each ``src/helikin/*.py`` file at git revision ``rev`` of ``root``, by file name."""

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout

    names = [name for name in git("ls-tree", "--name-only", f"{rev}:{SUBDIR}").split() if name.endswith(".py")]
    return {name: counts_of(git("show", f"{rev}:{SUBDIR}/{name}")) for name in names}


def changes(new: dict, old: dict) -> dict[str, dict[str, int]]:
    """Each count of ``new`` minus the same count of ``old``, by file; a file missing on one side counts zero."""
    empty = counts_of("")
    return {
        name: {column: new.get(name, empty)[column] - old.get(name, empty)[column] for column in empty}
        for name in new.keys() | old.keys()
    }


def table(rows: dict[str, dict[str, int]], signed: bool = False) -> str:
    """One line per file and a total line, each count right-aligned; ``signed`` prints +/- deltas."""
    columns = (*KINDS, "public")
    cell = "{:>+11}" if signed else "{:>11}"
    total = {column: sum(counts[column] for counts in rows.values()) for column in columns}
    lines = [f"{'file':<16}" + "".join(f"{column:>11}" for column in columns)]
    for name, counts in [*sorted(rows.items()), ("total", total)]:
        lines.append(f"{name:<16}" + "".join(cell.format(counts[column]) for column in columns))
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print(table(tree_counts()))
        return 0
    try:
        old = rev_counts(argv[0])
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    print(table(changes(tree_counts(), old), signed=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
