"""Opt-in pytest plugin: list each executable line of ``src/overlap_sgd/`` that no in-process test executed.

``coverage`` is not a dependency of the suite, so this stands in for its line report::

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

A line is executable when the compiled module maps bytecode to it, and executed once ``sys.settrace``
reports a line event on it.  Code a test runs in a subprocess is not seen, so its lines are listed;
``__main__.py`` runs only as ``python -m overlap_sgd``, so it is not read.  A test that hits the recursion
limit drops the hook, and the report names it.  The file name has no ``test_`` prefix, so the suite does
not collect it.
"""

import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "overlap_sgd"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that its compiled code objects, nested ones included, map bytecode to."""
    lines, pending = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTrace:
    def __init__(self):
        self.hits: set[tuple[str, int]] = set()  # (co_filename, line)
        self.ours: dict[str, bool] = {}  # co_filename -> whether it is a file of SOURCE
        self.dropped: list[str] = []  # tests that ended without the hook installed

    def on_call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        ours = self.ours.get(filename)
        if ours is None:
            ours = self.ours[filename] = Path(filename).resolve().parent == SOURCE
        return self.on_line if ours else None

    def on_line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self.on_line

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        # the interpreter drops a trace function that raises, as calling it at the recursion limit does;
        # re-installed before each test, the hook misses only what the test that dropped it runs afterwards
        sys.settrace(self.on_call)
        yield
        if sys.gettrace() != self.on_call:
            self.dropped.append(item.nodeid)

    def missed(self) -> list[tuple[Path, int]]:
        """Each executable line of SOURCE that no line event reached, in file and line order."""
        hit: dict[Path, set[int]] = {}
        for filename, line in self.hits:
            hit.setdefault(Path(filename).resolve(), set()).add(line)
        return [
            (path, line)
            for path in sorted(SOURCE.glob("*.py"))
            if path.name != "__main__.py"
            for line in sorted(executable_lines(path) - hit.get(path, set()))
        ]

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        missed = self.missed()
        terminalreporter.section("linetrace")
        terminalreporter.write_line(f"{len(missed)} executable lines of src/overlap_sgd/ no in-process test executed")
        for path, line in missed:
            text = path.read_text(encoding="utf-8").splitlines()[line - 1].strip()
            terminalreporter.write_line(f"{path.name}:{line}: {text}")
        for nodeid in self.dropped:
            terminalreporter.write_line(f"the hook was dropped in {nodeid}: lines it ran after that may be listed")


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config):
    # before conftest.py imports the package, so its module-level lines count
    tracer = LineTrace()
    sys.settrace(tracer.on_call)
    early_config.pluginmanager.register(tracer, "linetrace-tracer")
