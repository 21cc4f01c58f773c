#!/usr/bin/env python3
"""Statements of src/salpeter_hulthen that a pytest run never executes.

    python3 tools/line_trace.py [PYTEST_ARGS ...]

Runs `python -m pytest -q -p no:cacheprovider PYTEST_ARGS` from the repo
root in a subprocess, with a pytest plugin that installs a `sys.settrace`
line tracer on the package's frames before the package is imported. Then
it prints each statement that never ran as `path:line: source`, followed by
a count per module and in total. Definitions (def, class), imports,
docstrings and `pass`, `global` and `nonlocal` are not counted. A statement
counts as run when any line of it ran, or, for a compound statement (if,
for, while, with, try), any line of its header. Code that the tests run in
a Python subprocess of their own is not traced, so it is listed.

The plugin, the hits and the bytecode of the run stay in a temporary
directory, removed on exit; the tool writes nothing inside the repo (the
tests themselves may). The exit code is pytest's.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "salpeter_hulthen"

PLUGIN = '''
import json
import os
import sys
import threading

_PACKAGE = os.environ["LINE_TRACE_PACKAGE"]
_HITS = {}


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_PACKAGE):
        return None
    lines = _HITS.setdefault(filename, set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


sys.settrace(_trace)
threading.settrace(_trace)


def pytest_unconfigure(config):
    sys.settrace(None)
    with open(os.environ["LINE_TRACE_OUT"], "w") as fh:
        json.dump({name: sorted(lines) for name, lines in _HITS.items()}, fh)
'''

SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Pass, ast.Global, ast.Nonlocal)


def statements(source):
    """{first line: lines that show it ran} for every counted statement in source."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(first)
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or node in docstrings:
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        found[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return found


def never_run(path, hits):
    """[(line, source)] of the statements in path whose lines are not in hits."""
    source = path.read_text()
    text = source.splitlines()
    return [(first, text[first - 1].strip())
            for first, lines in sorted(statements(source).items())
            if not hits.intersection(lines)]


def main(argv):
    with tempfile.TemporaryDirectory(prefix="line-trace-") as tmp:
        Path(tmp, "line_trace_plugin.py").write_text(PLUGIN)
        out = Path(tmp, "hits.json")
        env = dict(os.environ, LINE_TRACE_PACKAGE=str(PACKAGE), LINE_TRACE_OUT=str(out),
                   PYTHONPYCACHEPREFIX=str(Path(tmp, "pycache")),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "-p", "line_trace_plugin", *argv], cwd=ROOT, env=env).returncode
        if not out.exists():
            print("line_trace: pytest wrote no trace", file=sys.stderr)
            return code or 1
        hits = {name: set(lines) for name, lines in json.loads(out.read_text()).items()}
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        missed = never_run(path, hits.get(str(path), set()))
        name = path.relative_to(ROOT)
        for line, source in missed:
            print(f"{name}:{line}: {source}")
        counts.append((len(missed), path.name))
    for missed, module in counts:
        print(f"{missed:6d}  {module}")
    print(f"{sum(missed for missed, _ in counts):6d}  total statements never run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
