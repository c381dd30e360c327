"""List every line of `src/kopt_lab` that no tier-1 test runs.

Run from the repository root, with any extra pytest arguments after it:

    PYTHONPATH=src python tests/never_run.py

It runs the tier-1 suite in this process under `sys.settrace` and
`threading.settrace`, before anything imports `kopt_lab`, and records each
line that a `kopt_lab` frame reaches.  A line is one that starts a
statement in the bytecode of its module (`dis.findlinestarts`).  The tests
of `UNTRACED` would fail under tracing alone, since the tracer's frames
count against their memory bounds; they are deselected from the traced run
and run after it in a second, untraced one.  It prints each line that
never ran, as path:line and its source, marking those of `ALLOWED`, and
exits 1 if either run fails or any other line never ran.  Tracing makes
the suite three to four times slower, so pytest does not collect this file
(its name does not match `test_*.py`) and tier-1 does not run it.
"""

import dis
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kopt_lab"

# Lines that may stay unrun, keyed by (file name, stripped source), with the reason.
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "runs under `python -m kopt_lab.cli`, which test_cli starts in a subprocess",
}

# Tests run outside the tracer, keyed by node id, with the reason.
UNTRACED = {
    "tests/test_two_move_engine.py::test_repeat_scans_allocate_no_array[int16]":
        "the tracer's frame objects count against its 2048-byte allocation bound",
}


def statement_lines(source: str, path: Path) -> set:
    """The line numbers at which some statement of the module's code objects starts."""
    lines, codes = set(), [compile(source, str(path), "exec")]
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
    quiet = ["-q", "-p", "no:cacheprovider"]
    # Read before the run, so that a file edited while it runs is judged by the code that ran.
    sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    statements = {path: statement_lines(source, path) for path, source in sources.items()}
    status, ran = run_traced([*quiet, str(ROOT / "tests"), *(f"--deselect={node}" for node in UNTRACED), *argv])
    untraced = pytest.main([*quiet, *(str(ROOT / node) for node in UNTRACED)])
    unexpected = 0
    for path, source in sources.items():
        source = source.splitlines()
        for line in sorted(statements[path] - ran.get(path, set())):
            text = source[line - 1].strip()
            reason = ALLOWED.get((path.name, text))
            unexpected += reason is None
            print(f"{path.relative_to(ROOT)}:{line}: {text}" + (f"  [allowed: {reason}]" if reason else ""))
    print(f"{unexpected} line(s) of src/kopt_lab never ran outside the allow-list; "
          f"pytest exit status {status} traced, {untraced} untraced")
    return 1 if unexpected or status or untraced else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
