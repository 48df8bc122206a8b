"""Line coverage of ``src/bargainlab/`` under the tier-1 tests (stdlib only).

Runs the tier-1 suite in this process with a pytest plugin that installs a
``sys.settrace`` tracer before any test module is imported, records every
line of the package that ran, and compares those lines with the executable
lines of each module: the lines of its code objects, from ``co_lines``.
Any executable line that did not run, and is not in ``ALLOWED``, fails the
run. So does an ``ALLOWED`` entry that names no unrun line, so that the
allowlist cannot go stale.

Only lines that nothing but a subprocess runs belong in ``ALLOWED``: the
tracer sees this process alone.

    python3 tools/linecov.py [pytest arguments]

Exit status: pytest's, if the tests fail; 1 if a line went unrun or an
allowlist entry is stale; 0 otherwise.  Tracing makes the suite about
twice as slow, so hypothesis runs without its per-example deadline here.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "bargainlab"

#: (module, stripped source line) that may go unrun, or (module, None) for
#: a whole module, each with the reason it runs only in a subprocess.
ALLOWED = {
    ("__main__.py", None): "`python -m bargainlab` runs it; tests start it as a subprocess",
    ("cli.py", "sys.exit(main())"): "console_main is the installed `bargainlab` script's "
                                    "entry point, which exits the process",
    ("cli.py", "console_main()"): "the body of cli's `__main__` guard, run by "
                                  "`python -m bargainlab.cli` in a subprocess",
}


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


class LineTracer:
    """A pytest plugin recording (file, line) for each line of the package
    that runs between configure and unconfigure."""

    def __init__(self, files: set[str]):
        self.files = files
        self.ran: set[tuple[str, int]] = set()

    def _local(self, frame, event, arg):
        self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename not in self.files:
            return None
        return self._local(frame, event, arg)

    def pytest_configure(self, config):
        from hypothesis import settings

        loaded = [name for name in sys.modules if name.split(".")[0] == "bargainlab"]
        if loaded:
            raise RuntimeError(f"imported before tracing started: {', '.join(loaded)}")
        # a traced example runs slower than its deadline was set for
        settings.register_profile("linecov", deadline=None)
        settings.load_profile("linecov")
        threading.settrace(self._global)
        sys.settrace(self._global)

    def pytest_unconfigure(self, config):
        sys.settrace(None)
        threading.settrace(None)


def unrun_lines(modules: dict[str, Path], ran: set[tuple[str, int]]) -> dict[str, list[int]]:
    """Each module's executable lines that did not run, by module name."""
    unrun = {}
    for name, path in modules.items():
        missing = sorted(executable_lines(path) - {line for f, line in ran if f == str(path)})
        if missing:
            unrun[name] = missing
    return unrun


def check(modules: dict[str, Path], unrun: dict[str, list[int]]) -> list[str]:
    """One message per unrun line that is not allowed, and per stale entry."""
    problems, used = [], set()
    for name, lines in unrun.items():
        source = modules[name].read_text(encoding="utf-8").splitlines()
        for line in lines:
            text = source[line - 1].strip()
            key = next((k for k in ((name, None), (name, text)) if k in ALLOWED), None)
            if key is None:
                problems.append(f"src/bargainlab/{name}:{line} did not run: {text}")
            else:
                used.add(key)
    for key in ALLOWED.keys() - used:
        problems.append(f"allowlist entry {key} names no unrun line")
    return problems


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    # processes the tests start import the package from src/ too, as under tier-1
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    modules = {path.name: path for path in sorted(PACKAGE.glob("*.py"))}
    tracer = LineTracer({str(path) for path in modules.values()})
    status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                          *argv], plugins=[tracer])
    if status != 0:
        print(f"linecov: the tests failed (pytest exit status {int(status)})")
        return int(status)
    problems = check(modules, unrun_lines(modules, tracer.ran))
    for problem in problems:
        print(f"linecov: {problem}")
    if problems:
        return 1
    print(f"linecov: every executable line of {len(modules)} modules ran, "
          f"apart from {len(ALLOWED)} allowed entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
