#!/usr/bin/env python3
"""Code lines of each module under src/salpeter_hulthen.

    python3 tools/code_lines.py [FILE ...]

A code line is one that is not blank, not a comment alone and not inside
a docstring (of the module, a class or a function, found with `ast`), so
deleting comments or docstrings does not change the count. Prints the
code lines and the total lines of each file (by default every module of
the package), then the sums.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "salpeter_hulthen"


def docstring_lines(tree):
    """Line numbers (1-based) covered by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path):
    """(code lines, total lines) of the Python file at path."""
    source = Path(path).read_text()
    skip = docstring_lines(ast.parse(source))
    text = source.splitlines()
    code = sum(1 for number, line in enumerate(text, 1)
               if number not in skip and line.strip() and not line.lstrip().startswith("#"))
    return code, len(text)


def main(argv):
    paths = [Path(p) for p in argv] or sorted(PACKAGE.glob("*.py"))
    total_code = total_lines = 0
    for path in paths:
        code, lines = count(path)
        total_code, total_lines = total_code + code, total_lines + lines
        print(f"{code:6d} {lines:6d}  {path.name}")
    print(f"{total_code:6d} {total_lines:6d}  total (code, lines)")


if __name__ == "__main__":
    main(sys.argv[1:])
