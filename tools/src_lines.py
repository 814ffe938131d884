#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of each helikin source file.

    python3 tools/src_lines.py

Docstring lines are the lines of each string that ``ast`` takes as the
docstring of a module, class or function. Of the other lines, a line that a
token other than a comment spans is code (so are the lines of a multi-line
string that is no docstring), a line with only a comment is a comment line,
and the rest are blank. Prints one row per file of ``src/helikin`` and a
total row; the four kinds add up to ``wc -l``. Only the standard library is
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


def main() -> int:
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16}" + "".join(f"{kind:>11}" for kind in KINDS))
    for path in sorted(SRC.glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[kind]:>11}" for kind in KINDS))
    print(f"{'total':<16}" + "".join(f"{total[kind]:>11}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
