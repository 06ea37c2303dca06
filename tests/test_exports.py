"""Every exported or traced name exists, so a deletion cannot leave a stale
export behind or break ``perfbench/run.py --trace 1``; and no module
imports a name it never uses."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import overlap_sgd

MODULES = sorted(m.name for m in pkgutil.iter_modules(overlap_sgd.__path__) if not m.name.startswith("_"))


def _import_alone(module: str) -> subprocess.CompletedProcess:
    """``import <module>`` as the first import of a fresh interpreter, with every warning an error."""
    env = {**os.environ, "PYTHONPATH": str(Path(overlap_sgd.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import {module}"], env=env, capture_output=True, text=True, timeout=60
    )


def test_package_imports_in_a_fresh_interpreter():
    # the package root binds only __version__; it imports under -W error too
    result = _import_alone("overlap_sgd")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(name):
    # the package root imports no module, so an import cycle would show only for some import orders
    result = _import_alone(f"overlap_sgd.{name}")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"overlap_sgd.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_name_the_tracer_wraps_exists():
    # executed from its source, not imported, so nothing is written under perfbench/
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = {"__name__": "spans"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), spans)
    # the lookup Tracer.installed makes for each target
    assert [(owner.__name__, attr) for owner, attr, _ in spans["TARGETS"] if attr not in vars(owner)] == []


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports but never reads; ``__all__`` entries count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "path",
    [p for folder in ("src/overlap_sgd", "scripts", "tests") for p in sorted((ROOT / folder).glob("*.py"))],
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    # __init__.py included: a name the package root imports only to re-bind is a second import path
    assert _unused_imports(path) == []


IMMUTABLE_CALLS = frozenset({"tuple", "frozenset", "logging.getLogger"})


def _is_immutable(node: ast.expr) -> bool:
    """A constant, a tuple of immutables, arithmetic on them, or a call that builds an immutable."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Tuple):
        return all(_is_immutable(e) for e in node.elts)
    if isinstance(node, ast.BinOp):
        return _is_immutable(node.left) and _is_immutable(node.right)
    if isinstance(node, ast.UnaryOp):
        return _is_immutable(node.operand)
    return isinstance(node, ast.Call) and ast.unparse(node.func) in IMMUTABLE_CALLS


def _module_state(path: Path) -> list[str]:
    """Module-level names ``path`` binds to a mutable value, and ``global`` rebinds anywhere."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        f"{path.name}:{n.lineno} global {', '.join(n.names)}" for n in ast.walk(tree) if isinstance(n, ast.Global)
    ]
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [ast.unparse(t) for t in targets]
            if names != ["__all__"] and node.value is not None and not _is_immutable(node.value):
                found.append(f"{path.name}:{node.lineno} {' = '.join(names)}")
        pending.extend(child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt))
    return sorted(found)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "overlap_sgd").glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_state(path):
    # every draw depends only on its stream key, and every call only on its arguments
    assert _module_state(path) == []


MAX_LINE = 120


def test_no_line_is_longer_than_the_limit():
    # a line-count target cannot then be met by joining lines
    paths = sorted((ROOT / "src" / "overlap_sgd").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    long_lines = [
        f"{path.name}:{n} ({len(line)} chars)"
        for path in paths
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def _dataset_constructions(path: Path) -> list[str]:
    """Each call in ``path`` that builds a ``Dataset``, as ``file:line``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return [f"{path.name}:{node.lineno}" for node in calls if ast.unparse(node.func).split(".")[-1] == "Dataset"]


def test_only_data_builds_datasets():
    # Dataset checks nothing itself: its invariants hold because data.py builds every one
    paths = [p for p in sorted((ROOT / "src" / "overlap_sgd").glob("*.py")) if p.name != "data.py"]
    assert [hit for path in paths for hit in _dataset_constructions(path)] == []
    assert _dataset_constructions(ROOT / "src" / "overlap_sgd" / "data.py") != []


def _divergence_handlers(path: Path) -> list[str]:
    """Each ``except`` clause in ``path`` that names ``DivergenceError``, alone or in a tuple, as ``file:line``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.type is not None]
    named = [h for h in handlers if any(getattr(n, "id", None) == "DivergenceError" for n in ast.walk(h.type))]
    return [f"{path.name}:{h.lineno}" for h in named]


def test_only_the_runner_and_the_cli_handle_divergence():
    # the engine only raises; the runner replays a diverged round run by run, and the CLI reports the rest
    paths = sorted((ROOT / "src" / "overlap_sgd").glob("*.py"))
    handlers = [hit for path in paths for hit in _divergence_handlers(path)]
    assert {hit.split(":")[0] for hit in handlers} == {"runner.py", "cli.py"}
