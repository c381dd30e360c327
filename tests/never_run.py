"""List every line of `src/kopt_lab` that no tier-1 test runs.

Run from the repository root, with any extra pytest arguments after it:

    PYTHONPATH=src python tests/never_run.py

It runs the tier-1 suite in this process under `sys.settrace` and
`threading.settrace`, before anything imports `kopt_lab`, and records each
line that a `kopt_lab` frame reaches.  A line is one that starts a
statement in the bytecode of its module (`dis.findlinestarts`).  It prints
each such line that never ran, as path:line and its source, marking those
of `ALLOWED`, and exits 1 if any other line never ran.  A test may fail
under tracing alone: the tracer's frames count against the memory bounds
of the tests that trace allocations.  Tracing makes the suite three to four
times slower, so pytest does not collect this file (its name does not
match `test_*.py`) and tier-1 does not run it.
"""

import dis
import sys
import threading
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kopt_lab"

# Lines that may stay unrun, keyed by (file name, stripped source), with the reason.
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "runs under `python -m kopt_lab.cli`, which test_cli starts in a subprocess",
}


def statement_lines(path: Path) -> set:
    """The line numbers at which some statement of the module's code objects starts."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def run_traced(args: list) -> tuple:
    """(pytest's exit status, {resolved source path: the line numbers that ran}) of one traced suite run."""
    ran, ours = {}, {}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = Path(name).resolve().parent == SRC
            if mine:
                ran[name] = set()
        return trace_lines if mine else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    out = {}
    for name, lines in ran.items():
        out.setdefault(Path(name).resolve(), set()).update(lines)
    return status, out


def main(argv: list) -> int:
    status, ran = run_traced(["-q", "-p", "no:cacheprovider", str(SRC.parents[1] / "tests"), *argv])
    unexpected = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(statement_lines(path) - ran.get(path, set())):
            text = source[line - 1].strip()
            reason = ALLOWED.get((path.name, text))
            unexpected += reason is None
            print(f"{path.relative_to(SRC.parents[1])}:{line}: {text}" + (f"  [allowed: {reason}]" if reason else ""))
    print(f"{unexpected} line(s) of src/kopt_lab never ran outside the allow-list; pytest exit status {status}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
