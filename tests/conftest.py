import json
import os
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from overlap_sgd.core import RngStream
from overlap_sgd.data import Dataset, partition_shared, synthetic_blobs
from overlap_sgd.engine import run_round
from overlap_sgd.errors import ConfigurationError
from overlap_sgd.metrics import MetricsRecord
from overlap_sgd.objective import LogisticOracle, RegularizerParams


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


@dataclass(frozen=True)
class QuadraticOracle:
    """Gradient of 0.5 * sum_j a_j w_j^2 plus Gaussian noise, keyed for the engine.

    Uses the same (sample, worker, round, step) key scheme as the logistic
    oracle, and adds its one noise draw to every row of an ``(m, d)`` stack.
    Closed forms: smoothness L = max(a_diag), optimum value 0, per-draw noise
    second moment sigma^2 * d.
    """

    a_diag: np.ndarray
    noise_sigma: float
    root_seed: int

    def __post_init__(self):
        if np.any(self.a_diag <= 0):
            raise ConfigurationError("quadratic curvatures must be positive")

    def gradient(self, w: np.ndarray, worker: int, round_index: int, step: int) -> np.ndarray:
        if self.a_diag.shape != w.shape[-1:]:
            raise ConfigurationError(f"dimension mismatch: {self.a_diag.shape} vs {w.shape}")
        grad = self.a_diag * w
        if self.noise_sigma > 0:
            rng = RngStream(self.root_seed, ("sample", worker, round_index, step))
            grad = grad + self.noise_sigma * rng.generator().standard_normal(self.a_diag.size)
        return grad


def make_quadratic_oracle(dim, noise=0.0, seed=0, curvature=1.0):
    return QuadraticOracle(a_diag=np.full(dim, curvature), noise_sigma=noise, root_seed=seed)


def one_round(start, method, plan, mask, stepsize, oracle, round_index):
    """The outcome of one round of ``method`` alone, from its ``(n, d)`` start models."""
    return run_round({method: start}, plan, mask, stepsize, oracle, round_index)[method]


def serialize_libsvm(dataset: Dataset) -> str:
    """Inverse of :func:`parse_libsvm`: zeros omitted, full float precision."""
    lines = []
    for row, label in zip(dataset.features, dataset.labels):
        parts = ["+1" if label > 0 else "-1"]
        for j in np.flatnonzero(row):
            parts.append(f"{j + 1}:{float(row[j])!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


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
