"""Every exported name exists, so a deletion cannot leave a stale export behind."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import overlap_sgd

MODULES = sorted(m.name for m in pkgutil.iter_modules(overlap_sgd.__path__) if not m.name.startswith("_"))


def test_package_imports_in_a_fresh_interpreter():
    # the package re-exports names from its modules; one stale name fails the import
    env = {**os.environ, "PYTHONPATH": str(Path(overlap_sgd.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", "import overlap_sgd"], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"overlap_sgd.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
