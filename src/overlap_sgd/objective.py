"""Losses, gradients, and the keyed stochastic-gradient oracles.

Binary logistic regression with an optional coordinate-wise Geman-McClure
regularizer, plus a diagonal quadratic objective whose smoothness and
noise level are known in closed form (used as an independent oracle in
tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RngStream, check_finite
from .data import Dataset
from .errors import ConfigurationError

__all__ = [
    "RegularizerParams",
    "LogisticOracle",
    "QuadraticOracle",
    "dataset_loss",
    "dataset_accuracy",
    "full_gradient",
]


def _softplus(t: np.ndarray) -> np.ndarray:
    # log(1 + exp(t)), stable for |t| up to ~1e308
    return np.logaddexp(0.0, t)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t, dtype=np.float64)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _logistic_gradient(features: np.ndarray, labels: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of the mean logistic loss over the rows of ``features``."""
    weights = labels * _sigmoid(-(labels * (features @ w)))
    return -(features.T @ weights) / labels.size


@dataclass(frozen=True)
class RegularizerParams:
    """Coordinate-wise Geman-McClure penalty strength * sum_j w_j^2 / (w_j^2 + scale^2).

    ``strength == 0`` disables the penalty.  Each coordinate term is
    bounded by ``strength``, so the total is bounded by strength * d.
    """

    strength: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.strength < 0:
            raise ConfigurationError(f"regularizer strength must be >= 0, got {self.strength}")
        if self.scale <= 0:
            raise ConfigurationError(f"regularizer scale must be > 0, got {self.scale}")

    @property
    def enabled(self) -> bool:
        return self.strength > 0

    def value(self, w: np.ndarray) -> float:
        if not self.enabled:
            return 0.0
        sq = w * w
        return float(self.strength * np.sum(sq / (sq + self.scale**2)))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        if not self.enabled:
            return np.zeros_like(w)
        sq = w * w
        return self.strength * 2.0 * w * self.scale**2 / (sq + self.scale**2) ** 2

    def curvature_bound(self) -> float:
        """Upper bound on the second derivative of one penalty term."""
        if not self.enabled:
            return 0.0
        return 2.0 * self.strength / self.scale**2


def dataset_loss(w: np.ndarray, dataset: Dataset) -> float:
    """Mean logistic loss over the dataset (no regularizer)."""
    margins = dataset.labels * (dataset.features @ w)
    return float(_softplus(-margins).mean())


def dataset_accuracy(w: np.ndarray, dataset: Dataset) -> float:
    """Fraction classified correctly by sign(<x, w>); zero scores predict +1."""
    scores = dataset.features @ w
    preds = np.where(scores >= 0.0, 1.0, -1.0)
    return float(np.mean(preds == dataset.labels))


def full_gradient(w: np.ndarray, dataset: Dataset, reg: RegularizerParams | None = None) -> np.ndarray:
    """Exact gradient of mean logistic loss plus the regularizer gradient."""
    if dataset.n_examples == 0:
        raise ConfigurationError("cannot take a gradient over an empty dataset")
    grad = _logistic_gradient(dataset.features, dataset.labels, w)
    if reg is not None:
        grad = grad + reg.gradient(w)
    check_finite(grad, "full gradient")
    return grad


@dataclass(frozen=True)
class LogisticOracle:
    """Minibatch logistic gradients over per-worker example pools.

    Batches are sampled uniformly with replacement from the worker's pool;
    each (worker, round, step) triple consumes its own substream of
    ``root_seed``, so cross-method runs with matched keys see identical
    samples.  The regularizer gradient is added in full to every batch
    gradient (the penalty is data-independent).
    """

    dataset: Dataset
    batch_size: int
    regularizer: RegularizerParams
    worker_pools: tuple[np.ndarray, ...]
    root_seed: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.dataset.n_examples == 0:
            raise ConfigurationError("oracle over an empty dataset")
        object.__setattr__(
            self, "worker_pools", tuple(np.asarray(p, dtype=np.int64) for p in self.worker_pools)
        )

    def gradient(self, w: np.ndarray, worker: int, round_index: int, step: int) -> np.ndarray:
        pool = self.worker_pools[worker]
        if pool.size == 0:
            raise ConfigurationError(f"worker {worker} has no examples to sample from")
        gen = RngStream(self.root_seed, ("sample", worker, round_index, step)).generator()
        rows = pool[gen.integers(0, pool.size, size=self.batch_size)]
        grad = _logistic_gradient(self.dataset.features[rows], self.dataset.labels[rows], w)
        if self.regularizer.enabled:
            grad = grad + self.regularizer.gradient(w)
        return grad


@dataclass(frozen=True)
class QuadraticOracle:
    """Gradient of 0.5 * sum_j a_j w_j^2 plus Gaussian noise, keyed for the engine.

    Uses the same (sample, worker, round, step) key scheme as the logistic
    oracle.  Closed forms: smoothness L = max(a_diag), optimum value 0,
    per-draw noise second moment sigma^2 * d.
    """

    a_diag: np.ndarray
    noise_sigma: float
    root_seed: int

    def __post_init__(self):
        arr = np.asarray(self.a_diag, dtype=np.float64)
        if np.any(arr <= 0):
            raise ConfigurationError("quadratic curvatures must be positive")
        object.__setattr__(self, "a_diag", arr)

    def gradient(self, w: np.ndarray, worker: int, round_index: int, step: int) -> np.ndarray:
        if self.a_diag.shape != w.shape:
            raise ConfigurationError(f"dimension mismatch: {self.a_diag.shape} vs {w.shape}")
        grad = self.a_diag * w
        if self.noise_sigma > 0:
            rng = RngStream(self.root_seed, ("sample", worker, round_index, step))
            grad = grad + self.noise_sigma * rng.generator().standard_normal(w.size)
        return grad
