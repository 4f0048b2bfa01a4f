"""Statements of ``src/mdsessions`` that the test suite never runs.

Run by hand, from anywhere: ``python tests/line_coverage.py [pytest args]``.
It needs only the standard library. It writes a ``sitecustomize`` module into
a temporary directory and puts that directory first on ``PYTHONPATH``, so
every Python process the suite starts (pytest itself and each
``python -m mdsessions.cli`` subprocess, which inherit ``PYTHONPATH``) records
the lines it runs in ``src/mdsessions`` and writes them out at exit. Then it
prints, per module, each statement that no process ran. Docstrings, ``def``,
``class``, imports and other statements that compile to no code are skipped.

Traced, the suite takes about twice as long.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mdsessions"

# Loaded at start-up by every process that has the temporary directory on its
# path. ``PACKAGE`` and ``OUT`` are filled in by ``main``.
SITECUSTOMIZE = '''
import atexit, json, os, sys, threading

PACKAGE, OUT = {package!r}, {out!r}
_lines = {{}}
_wanted = {{}}


def _local(frame, event, arg):
    if event == "line":
        _lines[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    wanted = _wanted.get(code)
    if wanted is None:
        wanted = _wanted[code] = code.co_filename.startswith(PACKAGE)
        if wanted:
            _lines.setdefault(code.co_filename, set())
    return _local if wanted else None


@atexit.register
def _write():
    sys.settrace(None)
    path = os.path.join(OUT, f"{{os.getpid()}}-{{os.urandom(4).hex()}}.json")
    with open(path, "w") as fh:
        json.dump({{f: sorted(ls) for f, ls in _lines.items()}}, fh)


sys.settrace(_global)
threading.settrace(_global)
'''

# Statements that compile to no code of their own, or that always run at
# import (``def``, ``class``, imports).
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Global, ast.Nonlocal, ast.Try)


def statements(tree: ast.AST):
    """``(first line, lines of its own)`` of each statement that compiles to
    code: a compound statement owns its header, the lines up to its body."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring or a bare constant
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, range(node.lineno, max(last, node.lineno) + 1)


def unrun(ran: dict[str, set[int]]) -> dict[Path, list[int]]:
    """First lines of the statements of each module that no process ran."""
    result = {}
    for path in sorted(PACKAGE.glob("*.py")):
        hit = ran.get(str(path), set())
        tree = ast.parse(path.read_text(encoding="utf-8"))
        missed = sorted(first for first, own in statements(tree)
                        if not any(line in hit for line in own))
        if missed:
            result[path] = missed
    return result


def main(pytest_args: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        site_dir, out = Path(tmp, "site"), Path(tmp, "lines")
        site_dir.mkdir()
        out.mkdir()
        (site_dir / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(package=str(PACKAGE) + os.sep, out=str(out)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(site_dir), str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             *pytest_args], cwd=ROOT, env=env)
        ran: dict[str, set[int]] = {}
        for record in out.glob("*.json"):
            for filename, lines in json.loads(record.read_text()).items():
                ran.setdefault(filename, set()).update(lines)

    missed = unrun(ran)
    for path, lines in missed.items():
        source = path.read_text(encoding="utf-8").splitlines()
        print(f"\n{path.relative_to(ROOT)}: {len(lines)} statements never ran")
        for line in lines:
            print(f"  {line:4d}  {source[line - 1].strip()}")
    if not missed:
        print("every statement of src/mdsessions ran")
    return tests.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
