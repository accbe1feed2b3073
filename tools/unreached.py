"""List the lines of the mrb package that a pytest run never executes.

    python tools/unreached.py [pytest arguments]

runs pytest in this process, from the repository root and by default on the
suite that the repository's pytest configuration names, under
``sys.settrace``.  Only frames whose code lies in ``src/mrb`` are traced.
Afterwards it prints, grouped by file, each line of a function body (the
lines of every function, lambda and comprehension code object) that never
ran, and returns pytest's exit code.  Tests that start a new interpreter,
as the fresh-interpreter tests do through ``subprocess``, are not traced, so
a line that only they reach is listed as unreached; they find the package
through ``PYTHONPATH``, which gets ``src`` in front.

Only the standard library and the installed pytest are used, and nothing is
written into the tree: no bytecode, no pytest cache, and hypothesis keeps
its example database in a temporary directory.
"""

from __future__ import annotations

import inspect
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mrb"


def function_lines(path: Path) -> set[int]:
    """The lines of the function code objects compiled from path, at any
    depth, the ``def`` line included; module and class bodies are left out."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
    return lines


def unreached(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line number, stripped text) of each function line of path not in ran."""
    text = path.read_text().splitlines()
    return [(n, text[n - 1].strip()) for n in sorted(function_lines(path) - ran)]


def tracer(root: Path, ran: dict[str, set[int]]):
    """A global trace function for ``sys.settrace`` that adds to ran[file]
    each line run in a frame whose file lies under root, and the first line
    of its code on each call."""
    prefix = str(root) + os.sep
    local_tracers = {}

    def local_for(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        if not name.startswith(prefix):
            return None
        if name not in local_tracers:
            local_tracers[name] = local_for(ran.setdefault(name, set()))
        ran[name].add(code.co_firstlineno)
        return local_tracers[name]

    return on_call


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    # tests that start an interpreter import the package from src too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                             os.environ.get("PYTHONPATH")]))
    sys.dont_write_bytecode = True
    ran: dict[str, set[int]] = {}
    with tempfile.TemporaryDirectory() as home:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = home
        previous = sys.gettrace()
        sys.settrace(tracer(PACKAGE, ran))
        try:
            code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
        finally:
            sys.settrace(previous)
    total = 0
    print("Function-body lines of src/mrb that the run never executed. Tests run in a "
          "subprocess are not traced: a line only they reach is listed here too.")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = unreached(path, ran.get(str(path), set()))
        if lines:
            print(f"\n{path.relative_to(ROOT)} ({len(lines)})")
            print("\n".join(f"  {n:4d}  {text}" for n, text in lines))
        total += len(lines)
    print(f"\n{total} lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
