"""The lines of `src/swarmlang` that the tier-1 suite never runs.

    PYTHONPATH=src python3 notes/coverage.py

Runs the tier-1 suite (`tests/` and `perfbench/`) in this process
under a `sys.settrace` line tracer, then prints each package file's
never-run lines and, last, the count of executable lines never run.
Only frames whose code comes from a file under `src/swarmlang/` are
traced, so the tests, pytest and the functions a program's image
generates (file `<swarmlang>`) run untraced.  A file's executable lines
are the ones `co_lines()` gives for its code objects, nested ones
included.  Standard library and pytest only; no `coverage` package.

Limits:
- Code run in another process is not seen: the CLI tests that start a
  subprocess, and the workers of a parallel sweep.
- `test_criterion_gradient_grid` is left out.  It fails at the seed
  (notes/decisions.md) and is the suite's slowest test under the tracer.
- A test that installs its own tracer hides the package lines run under
  it; `notes/counts.py` `traced` does so and puts this tracer back.
- The whole run takes about 4.5 times as long as the untraced suite.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "swarmlang"
LEFT_OUT = "tests/test_acceptance.py::test_criterion_gradient_grid"


def executable_lines(path):
    """The line numbers that `co_lines()` gives over every code object
    compiled from the file at `path`."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, type(code))]
    return lines


def main():
    ran = {}  # co_filename -> the lines run; None for a file outside
    prefix = str(PACKAGE) + os.sep

    def on_call(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if filename not in ran:
            inside = os.path.realpath(filename).startswith(prefix)
            ran[filename] = set() if inside else None
        lines = ran[filename]
        if lines is None:
            return None

        def on_line(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--deselect", LEFT_OUT,
                              str(ROOT / "tests"), str(ROOT / "perfbench")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    run_by_path = {}
    for filename, lines in ran.items():
        if lines is not None:
            run_by_path.setdefault(os.path.realpath(filename), set()) \
                .update(lines)
    total = never = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        missed = lines - run_by_path.get(str(path.resolve()), set())
        total += len(lines)
        never += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}:",
                  ", ".join(map(str, sorted(missed))))
    print(f"never run: {never} of {total} executable lines")
    return status


if __name__ == "__main__":
    sys.exit(main())
