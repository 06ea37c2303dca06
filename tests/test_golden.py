"""Golden output: every byte a few tiny suites write, against one digest.

The suites cover all five methods: ``sync_sgd`` with equal step times,
``fedavg_full`` with a communication window, the three sparse methods
under a Dirichlet partition with per-worker evaluation every other round,
and a starved-worker suite that takes the skip path.  Output directories
are relative, so the manifests do not depend on where the test runs.

The same digest must come out of a ``python -O`` interpreter, where
``assert`` statements are stripped.  ``THEORY_DIGEST`` pins the ``theory``
JSON of every bundled config the same way.  A change that moves any
output byte must say why and re-record the digest.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

import overlap_sgd
from overlap_sgd.config import validate_config
from overlap_sgd.runner import run_suite, theory_report

# Recorded with NumPy 2.4.6 and OpenBLAS 0.3.31 (scipy-openblas), Python 3.11.
GOLDEN_DIGEST = "b9829aeccb9143c99ada262ccacd0d7da3156b9deb5d99ce496c0a432e9d895f"

_COMMON = {
    "normalize": True,
    "stepsize": 0.1,
    "batch_size": 8,
    "regularizer": {"strength": 0.01, "scale": 1.0},
}

SUITES = [
    {
        "name": "golden-sync",
        "dataset": {"synthetic": {"dim": 7, "n_examples": 90, "separation": 1.5, "seed": 3}},
        "val_fraction": 0.2,
        "partition": {"mode": "shard"},
        "step_times": [2, 2, 2],
        "methods": ["sync_sgd"],
        "sparsity": 1.0,
        "rounds": 4,
        "seeds": [0, 1],
    },
    {
        "name": "golden-fedavg",
        "dataset": {"synthetic": {"dim": 5, "n_examples": 80, "separation": 1.2, "seed": 4}},
        "val_fraction": 0.1,
        "partition": {"mode": "shared"},
        "step_times": [1, 2, 3],
        "comm_seconds": 6,
        "methods": ["fedavg_full"],
        "sparsity": 1.0,
        "rounds": 3,
        "seeds": [2],
    },
    {
        "name": "golden-sparse",
        "dataset": {"synthetic": {"dim": 9, "n_examples": 120, "separation": 1.5, "seed": 5}},
        "val_fraction": 0.1,
        "partition": {"mode": "dirichlet", "alpha": 0.5, "min_examples": 4},
        "step_times": [1, 2, 3],
        "compute_periods": 2,
        "comm_seconds": 6,
        "methods": ["local_sparse", "overlap_overwrite", "overlap_delay_corrected"],
        "sparsity": 0.4,
        "rounds": 5,
        "seeds": [0, 1],
        "eval_every": 2,
        "eval_per_worker": True,
    },
    {
        "name": "golden-starved",
        "dataset": {"synthetic": {"dim": 4, "n_examples": 3, "separation": 1.0, "seed": 0}},
        "val_fraction": 0.0,
        "partition": {"mode": "dirichlet", "alpha": 1.0},
        "step_times": [1, 1, 1, 1],
        "methods": ["local_sparse", "fedavg_full"],
        "sparsity": 1.0,
        "rounds": 1,
        "seeds": [0],
        "eval_per_worker": True,
    },
]


def output_digest(root) -> str:
    """SHA-256 over the relative name and bytes of every file under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = path.relative_to(root).as_posix().encode("utf-8")
        data = path.read_bytes()
        for part in (name, data):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


def run_golden_suites() -> None:
    """Run every suite into ``out/<name>`` under the working directory."""
    for raw in SUITES:
        config, issues = validate_config(
            {**_COMMON, **raw, "output_dir": f"out/{raw['name']}"}
        )
        if issues:  # not an assert: this also runs under python -O
            raise AssertionError(issues)
        run_suite(config)


def test_golden_suite_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_golden_suites()
    assert output_digest(tmp_path / "out") == GOLDEN_DIGEST


def test_golden_suite_outputs_under_python_O(tmp_path):
    # asserts are stripped under -O; no output byte may depend on them
    script = (
        "import pathlib, sys, warnings\n"
        "import test_golden\n"
        "warnings.simplefilter('ignore')\n"
        "test_golden.run_golden_suites()\n"
        "print(sys.flags.optimize, test_golden.output_digest(pathlib.Path('out')))\n"
    )
    paths = [str(Path(overlap_sgd.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", GOLDEN_DIGEST]


# Recorded with NumPy 2.4.6 and OpenBLAS 0.3.31 (scipy-openblas), Python 3.11.
THEORY_DIGEST = "ea19920737c48bf093ea773e04b55f7dec3fe377e9548a2d6a95b596e41e6952"

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_theory_reports_of_the_bundled_configs():
    # the 1e-6 stepsize is under the admissible maximum, so that report holds the rate-bound terms
    raws = [yaml.safe_load(path.read_text(encoding="utf-8")) for path in sorted(CONFIG_DIR.glob("*.yaml"))]
    comparison = yaml.safe_load((CONFIG_DIR / "overlap_comparison.yaml").read_text(encoding="utf-8"))
    raws.append({**comparison, "stepsize": 1.0e-6})
    h = hashlib.sha256()
    for raw in raws:
        config, issues = validate_config(raw)
        assert issues == [], issues
        report = theory_report(config)
        h.update(json.dumps(report, indent=2, sort_keys=True).encode("utf-8"))
    assert len(raws) == 8 and "total" in report["rate_bound"]
    assert h.hexdigest() == THEORY_DIGEST
