"""Line coverage of the tier-1 suite over ``src/agentcap/``, with the
standard library alone.

Runs the suite through ``pytest.main`` under ``sys.settrace`` and
``threading.settrace``, tracing only the frames of files under
``src/agentcap/``. A module's executable lines are those its code objects
name (``co_lines``); the script prints every one that no test executed, then
their count. It exits with pytest's code when the suite fails, 1 when any
line went unexecuted, and 0 otherwise: every line of the package runs in
tier-1. Lines reached only in a subprocess (a CLI run through
``subprocess``) are not seen.

    python tests/linecov.py
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "agentcap"


def executable_lines(path: Path) -> set[int]:
    """Every line some code object of ``path`` runs an instruction on."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for the suite, and the lines of each package file
    it executed, by path."""
    prefix = str(PACKAGE) + "/"
    hit: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if ours.setdefault(path, path.startswith(prefix)):
            lines = hit.setdefault(path, set())
            # a call event is the code object's first line, whose only
            # instruction may raise no line event
            lines.add(frame.f_lineno)

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local

            return local
        return None

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "--rootdir", str(ROOT),
                            "-c", str(ROOT / "pyproject.toml")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hit


def main() -> int:
    code, hit = traced_run()
    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(ROOT).as_posix()
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - hit.get(str(path), set())):
            print(f"{name}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines never executed")
    if code:
        print(f"the suite failed (pytest exit code {code})")
        return code
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
