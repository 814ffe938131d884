#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines and the public names of each helikin source file.

    python3 tools/src_lines.py

Docstring lines are the lines of each string that ``ast`` takes as the
docstring of a module, class or function. Of the other lines, a line that a
token other than a comment spans is code (so are the lines of a multi-line
string that is no docstring), a line with only a comment is a comment line,
and the rest are blank. The public names are the entries of the module's
``__all__``, read with ``ast`` so that nothing is imported; a module without
one has none. Prints one row per file of ``src/helikin`` and a total row;
the four kinds of line add up to ``wc -l``. Only the standard library is
used.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "helikin"
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


def main() -> int:
    columns = (*KINDS, "public")
    total = dict.fromkeys(columns, 0)
    print(f"{'file':<16}" + "".join(f"{column:>11}" for column in columns))
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        counts = {**count_lines(source), "public": count_public(source)}
        for column in columns:
            total[column] += counts[column]
        print(f"{path.name:<16}" + "".join(f"{counts[column]:>11}" for column in columns))
    print(f"{'total':<16}" + "".join(f"{total[column]:>11}" for column in columns))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
