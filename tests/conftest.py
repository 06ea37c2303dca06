import numpy as np
import pytest

from overlap_sgd.data import Dataset, partition_shared, synthetic_blobs
from overlap_sgd.objective import LogisticOracle, QuadraticOracle, RegularizerParams


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
