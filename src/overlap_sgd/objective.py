"""Losses, gradients, and the keyed stochastic-gradient oracles.

Binary logistic regression with an optional coordinate-wise Geman-McClure
regularizer, plus a diagonal quadratic objective whose smoothness and
noise level are known in closed form (used as an independent oracle in
tests).

``dataset_loss``, ``dataset_accuracy`` and ``full_gradient`` take the
dataset's scores ``dataset.features @ w`` from the caller, so one forward
product per model and dataset serves all three.
"""

from __future__ import annotations

import math
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


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-t)) for t >= 0 and exp(t) / (1 + exp(t)) below, so exp never
    # overflows; minimum(t, -t) keeps a NaN's sign and payload, which -abs(t) would not
    e = np.exp(np.minimum(t, -t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _rowwise(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``matrix @ v`` for one ``(d,)`` vector, or for each row of an ``(m, d)`` stack.  NumPy takes the
    stacked ``(..., d, 1)`` operand as one matrix-vector product per row, so each row gets the bits of its
    product alone; a single matrix-matrix product would not."""
    return np.matmul(matrix, v[..., None])[..., 0]


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
        sq = self.scale * self.scale
        # the penalty divides by scale**2 and by (scale**2)**2, and its curvature bound is 2 * strength / scale**2
        if self.enabled and not (0 < sq * sq < math.inf and math.isfinite(2.0 * self.strength / sq)):
            raise ConfigurationError(
                f"strength {self.strength} with scale {self.scale} puts the penalty's arithmetic out of float range"
            )

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
        with np.errstate(over="ignore"):  # past |w| ~ 1e77 the square overflows, and the term is 0, its limit
            return self.strength * 2.0 * w * self.scale**2 / (sq + self.scale**2) ** 2

    def curvature_bound(self) -> float:
        """Upper bound on the second derivative of one penalty term."""
        if not self.enabled:
            return 0.0
        return 2.0 * self.strength / self.scale**2


def _logistic_gradient(
    features: np.ndarray, labels: np.ndarray, scores: np.ndarray, w: np.ndarray, reg: RegularizerParams
) -> np.ndarray:
    """Gradient of the mean logistic loss over the rows of ``features``, plus the penalty's, at one ``(d,)``
    model or at each row of an ``(m, d)`` stack ``w``, given their scores ``_rowwise(features, w)``."""
    weights = labels * _sigmoid(-(labels * scores))
    grad = _rowwise(features.T, weights)
    np.negative(grad, out=grad)
    grad /= labels.size
    if reg.enabled:
        grad += reg.gradient(w)
    return grad


def dataset_loss(scores: np.ndarray, dataset: Dataset) -> float:
    """Mean logistic loss over the dataset (no regularizer), given its scores."""
    margins = dataset.labels * scores
    # softplus(-margins) = log(1 + exp(-margins)), stable for |margins| up to ~1e308
    return float(np.logaddexp(0.0, -margins).mean())


def dataset_accuracy(scores: np.ndarray, dataset: Dataset) -> float:
    """Fraction classified correctly by the sign of the scores <x, w>; zero scores predict +1."""
    preds = np.where(scores >= 0.0, 1.0, -1.0)
    return float(np.mean(preds == dataset.labels))


def full_gradient(
    w: np.ndarray, scores: np.ndarray, dataset: Dataset, reg: RegularizerParams = RegularizerParams()
) -> np.ndarray:
    """Exact gradient of mean logistic loss at ``w`` plus the regularizer gradient,
    given the dataset's scores at ``w``."""
    if dataset.n_examples == 0:
        raise ConfigurationError("cannot take a gradient over an empty dataset")
    with np.errstate(over="ignore"):  # an overflow is reported below, once
        grad = _logistic_gradient(dataset.features, dataset.labels, scores, w, reg)
    check_finite(grad, "full gradient")
    return grad


@dataclass(frozen=True)
class LogisticOracle:
    """Minibatch logistic gradients over per-worker example pools.

    Batches are sampled uniformly with replacement from the worker's pool;
    each (worker, round, step) triple consumes its own substream of
    ``root_seed``, so cross-method runs with matched keys see identical
    samples.  The regularizer gradient is added in full to every batch
    gradient (the penalty is data-independent).  ``gradient`` takes one
    ``(d,)`` model or an ``(m, d)`` stack: the stack shares one draw and one
    gather of the batch, and each row gets the bits it gets alone.
    """

    dataset: Dataset
    batch_size: int
    regularizer: RegularizerParams
    worker_pools: tuple[np.ndarray, ...]  # per worker, int64 row indices into dataset
    root_seed: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.dataset.n_examples == 0:
            raise ConfigurationError("oracle over an empty dataset")

    def gradient(self, w: np.ndarray, worker: int, round_index: int, step: int) -> np.ndarray:
        pool = self.worker_pools[worker]
        if pool.size == 0:
            raise ConfigurationError(f"worker {worker} has no examples to sample from")
        gen = RngStream(self.root_seed, ("sample", worker, round_index, step)).generator()
        rows = pool[gen.integers(0, pool.size, size=self.batch_size)]
        features = self.dataset.features[rows]
        return _logistic_gradient(features, self.dataset.labels[rows], _rowwise(features, w), w, self.regularizer)


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
