"""Call coverage of the simulator cores: which functions no test enters.

Runs the tier-1 suite in this process under a call-only tracer
(``sys.settrace`` and ``threading.settrace`` with a global trace
function that records each entered code object and returns None, so no
line events are traced; stdlib only).  Then lists every function
defined in the traced packages that was never entered and is not on the
allowlist, and exits nonzero if there is one.  Stale allowlist entries
(functions that no longer exist, or that the suite now enters) are
reported too, and also fail, so the list only ever shrinks.

Process-pool workers are separate interpreters and are not traced: a
function that only a process worker runs counts as never entered.

Usage (from the repository root)::

    PYTHONPATH=src python tools/callcov.py [pytest args...]

With no pytest arguments it runs ``-x -q -p no:cacheprovider``, which
collects the ``tests/`` testpaths of ``pyproject.toml``.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The packages whose functions must each be entered by some test.
PACKAGES = ("fleet", "engine", "tiering")
ALLOWLIST = Path(__file__).with_name("callcov_allowlist.txt")


def defined_functions(root: Path = ROOT) -> dict[tuple[str, int], str]:
    """Every function and method in :data:`PACKAGES`, nested ones too.

    Keyed by ``(file, first line)`` as the function's code object
    reports it (its first decorator's line if decorated), valued by its
    ``path::Qualname`` label.
    """
    found: dict[tuple[str, int], str] = {}
    for package in PACKAGES:
        for path in sorted((root / "src" / "repro" / package).rglob("*.py")):
            label = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            _walk(tree, [], os.path.realpath(path), label, found)
    return found


def _walk(node, scope: list[str], filename: str, label: str,
          found: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            name = ".".join(scope + [child.name])
            found[(filename, first)] = f"{label}::{name}"
            _walk(child, scope + [child.name], filename, label, found)
        elif isinstance(child, ast.ClassDef):
            _walk(child, scope + [child.name], filename, label, found)
        else:
            _walk(child, scope, filename, label, found)


def read_allowlist(path: Path = ALLOWLIST) -> set[str]:
    """The allowlisted labels: one per line, ``#`` starts a comment."""
    lines = (line.split("#", 1)[0].strip()
             for line in path.read_text().splitlines())
    return {line for line in lines if line}


def traced_run(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest with ``args`` under the call-only tracer; returns its
    exit code and the ``(file, first line)`` of every entered code."""
    import pytest

    entered: set = set()
    add = entered.add

    def tracer(frame, event, arg):
        add(frame.f_code)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    real = {name: os.path.realpath(name)
            for name in {c.co_filename for c in entered}}
    return int(code), {(real[c.co_filename], c.co_firstlineno)
                       for c in entered}


def main(argv: list[str]) -> int:
    args = argv or ["-x", "-q", "-p", "no:cacheprovider"]
    functions = defined_functions()
    allowed = read_allowlist()
    code, entered = traced_run(args)
    if code:
        print(f"callcov: the traced suite failed (pytest exit {code})",
              file=sys.stderr)
        return code
    missed = {label for key, label in functions.items()
              if key not in entered}
    fresh = sorted(missed - allowed)
    stale = sorted(allowed - missed)
    print(f"callcov: {len(functions) - len(missed)} of {len(functions)} "
          f"functions in {', '.join(PACKAGES)} entered; "
          f"{len(missed & allowed)} allowlisted")
    for label in fresh:
        print(f"never entered, not allowlisted: {label}", file=sys.stderr)
    for label in stale:
        print(f"stale allowlist entry (entered or gone): {label}",
              file=sys.stderr)
    return 1 if fresh or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
