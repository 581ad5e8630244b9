"""Print the executable lines of ``src/kleinian`` that no shipped run executes.

Runs the Tier-1 suite in this process under a ``sys.settrace`` line tracer
that records only the package's own frames, and prints, module by module,
each executable line that the suite never reached:

    PYTHONPATH=src python tests/traffic.py

The suite includes ``test_output_hashes.py``, which makes every CLI and
builder run of ``output_hashes.py`` in process, so those runs are traced too.
Tracing makes the suite a few times slower.  Subprocesses that some tests
start are not traced.  pytest does not collect this file.  The exit status is
the suite's.
"""

from __future__ import annotations

import dis
import os
import sys
import threading
import types
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "kleinian"


def executable_lines(path: Path) -> set[int]:
    """The lines that start bytecode in the module or in any code object in it."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def traced(run, files: set[str]) -> set[tuple[str, int]]:
    """The (file, line) pairs of ``files`` (real paths) that ``run()``
    executes, in any thread."""
    hits: set[tuple[str, int]] = set()
    real: dict[str, str | None] = {}   # each code file name, resolved once

    def local(frame, event, arg):
        if event == "line":
            hits.add((real[frame.f_code.co_filename], frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in real:
            path = os.path.realpath(name)
            real[name] = path if path in files else None
        if real[name] is None:
            return None
        hits.add((real[name], frame.f_lineno))   # the def line
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def main() -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    status = []

    def run() -> None:
        status.append(pytest.main(["-q", "-p", "no:cacheprovider",
                                   "--continue-on-collection-errors", str(TESTS)]))

    hits = traced(run, {os.path.realpath(path) for path in modules})
    total = 0
    for path in modules:
        missed = sorted(executable_lines(path) - {line for name, line in hits
                                                  if name == os.path.realpath(path)})
        total += len(missed)
        if missed:
            source = path.read_text().splitlines()
            print(f"\n{path.relative_to(PACKAGE.parent)}: {len(missed)} line(s) never run")
            for line in missed:
                print(f"{line:6d}  {source[line - 1].strip()}")
    print(f"\n{total} executable line(s) in {PACKAGE.name} never run")
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main())
