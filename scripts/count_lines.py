#!/usr/bin/env python3
"""Line counts of the package's modules, all lines and code only.

A code line holds a token other than a comment or a line break, indent or
dedent token, and is not part of a module, class or function docstring.
Prints a Markdown table, one row per ``src/qkdlab/*.py``, their total,
the total of ``tests/*.py``, and the lines of ``README.md``::

    python3 scripts/count_lines.py
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def counts(path: str) -> tuple[int, int]:
    """All lines and code lines of the Python source at ``path``."""
    with open(path, "rb") as fh:
        source = fh.read()
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return source.count(b"\n"), len(code)


def main() -> int:
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "qkdlab", "*.py")))
    rows = [(os.path.relpath(path, ROOT), *counts(path)) for path in paths]
    rows.append(("src/", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    tests = [counts(path) for path in glob.glob(os.path.join(ROOT, "tests", "*.py"))]
    rows.append(("tests/", sum(t[0] for t in tests), sum(t[1] for t in tests)))
    with open(os.path.join(ROOT, "README.md"), "rb") as fh:
        rows.append(("README.md", fh.read().count(b"\n"), None))
    print("| module | lines | code lines |")
    print("|---|---:|---:|")
    for name, lines, code in rows:
        print(f"| `{name}` | {lines:,} | {'-' if code is None else f'{code:,}'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
