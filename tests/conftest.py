import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from overlap_sgd.data import Dataset, partition_shared, synthetic_blobs
from overlap_sgd.engine import run_round
from overlap_sgd.metrics import MetricsRecord
from overlap_sgd.objective import LogisticOracle, QuadraticOracle, RegularizerParams


def blas_environment() -> str:
    """NumPy, its BLAS and the BLAS thread count, on which the stored digests depend."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # NumPy older than 1.25 has no dict form
        blas_name = "unknown"
    threads = [f"{name}={os.environ.get(name, 'unset')}" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
    return ", ".join([f"numpy {np.__version__}", f"BLAS {blas_name}", *threads])


def pytest_report_header(config) -> list[str]:
    return [blas_environment()]


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if terminalreporter.verbosity < 0:  # -q drops the header, so say it at the end
        terminalreporter.write_line(blas_environment())


@pytest.fixture
def tiny_blobs() -> Dataset:
    return synthetic_blobs(dim=8, n_examples=60, separation=1.5, seed=11)


@pytest.fixture
def tiny_oracle(tiny_blobs) -> LogisticOracle:
    return make_logistic_oracle(tiny_blobs, n_workers=2, batch_size=8, seed=5)


def make_logistic_oracle(dataset, n_workers, batch_size, seed, strength=0.0, scale=1.0):
    return LogisticOracle(
        dataset=dataset,
        batch_size=batch_size,
        regularizer=RegularizerParams(strength=strength, scale=scale),
        worker_pools=partition_shared(dataset.n_examples, n_workers),
        root_seed=seed,
    )


def make_quadratic_oracle(dim, noise=0.0, seed=0, curvature=1.0):
    return QuadraticOracle(a_diag=np.full(dim, curvature), noise_sigma=noise, root_seed=seed)


def one_round(start, method, plan, mask, stepsize, oracle, round_index):
    """The outcome of one round of ``method`` alone, from its ``(n, d)`` start models."""
    return run_round({method: start}, plan, mask, stepsize, oracle, round_index)[method]


def base_config_dict(**overrides) -> dict:
    """A small, valid config; tests override what they exercise."""
    raw = {
        "name": "test-run",
        "dataset": {"synthetic": {"dim": 12, "n_examples": 300, "separation": 1.5, "seed": 3}},
        "normalize": True,
        "val_fraction": 0.1,
        "partition": {"mode": "shared"},
        "step_times": [1, 2],
        "compute_periods": 1,
        "comm_seconds": 2,
        "methods": ["overlap_delay_corrected"],
        "stepsize": 0.1,
        "batch_size": 16,
        "sparsity": 0.5,
        "rounds": 3,
        "seeds": [0],
        "output_dir": "runs/test",
    }
    raw.update(overrides)
    return raw


def manifest_runs(manifest_path) -> list[SimpleNamespace]:
    """The runs a manifest names, in its order: ``method``, ``seed`` and
    ``status`` as written, ``csv`` and ``jsonl`` as paths beside the manifest,
    and ``records`` read back from the JSONL."""
    directory = Path(manifest_path).parent
    runs = []
    for entry in json.loads(Path(manifest_path).read_text(encoding="utf-8"))["runs"]:
        run = SimpleNamespace(**{**entry, "csv": directory / entry["csv"], "jsonl": directory / entry["jsonl"]})
        lines = run.jsonl.read_text(encoding="utf-8").splitlines()
        run.records = [MetricsRecord(**json.loads(line)) for line in lines]
        runs.append(run)
    return runs
