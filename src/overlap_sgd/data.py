"""Dataset ingestion and partitioning.

LIBSVM text parsing, feature standardization, train/validation splitting,
worker partitions (shared, i.i.d. shards, label-Dirichlet), and a small
synthetic two-blob generator so the test suite needs no downloads.
"""

from __future__ import annotations

import gzip
import math
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .core import RngStream
from .errors import ConfigurationError, ParseError

__all__ = [
    "Dataset",
    "NormalizationStats",
    "parse_libsvm",
    "load_libsvm",
    "serialize_libsvm",
    "split_train_val",
    "subset",
    "compute_normalization",
    "apply_normalization",
    "partition_shared",
    "partition_shard",
    "partition_dirichlet",
    "synthetic_blobs",
]

# Constant features get their stdev floored here and become identically 0
# after standardization.
STDEV_FLOOR = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Dense feature matrix with binary labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.float64)
        if feats.ndim != 2:
            raise ConfigurationError(f"features must be 2-D, got shape {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise ConfigurationError("labels must be 1-D with one entry per example")
        if not np.all(np.isin(labs, (-1.0, 1.0))):
            raise ConfigurationError("labels must be -1 or +1")
        if not np.all(np.isfinite(feats)):
            raise ConfigurationError("features contain non-finite values")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def subset(dataset: Dataset, indices) -> Dataset:
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(dataset.features[idx], dataset.labels[idx])


def _map_labels(raw: list[float]) -> np.ndarray:
    distinct = sorted(set(raw))
    if set(distinct) <= {-1.0, 1.0}:
        return np.asarray(raw, dtype=np.float64)
    if len(distinct) != 2:
        raise ConfigurationError(
            f"labels must form a binary set, got {len(distinct)} distinct values: {distinct[:5]}"
        )
    lo, hi = distinct
    return np.asarray([-1.0 if v == lo else 1.0 for v in raw], dtype=np.float64)


def parse_libsvm(text: str, dimension: int | None = None) -> Dataset:
    """Parse LIBSVM text: one ``label idx:val idx:val ...`` line per example.

    Feature indices are 1-based and strictly increasing within a line;
    missing coordinates are 0.  The two distinct raw labels map to -1/+1
    (smaller value to -1); raw labels already in {-1, +1} are kept as-is.
    ``dimension`` overrides the inferred width (max index seen).
    """
    raw_labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    max_index = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"bad label {tokens[0]!r}", line=lineno) from None
        entries: list[tuple[int, float]] = []
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_str, val_str = tok.split(":", 1)
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise ParseError(f"bad feature token {tok!r}", line=lineno) from None
            if idx < 1:
                raise ParseError(f"feature index {idx} is not 1-based", line=lineno)
            if idx <= prev:
                raise ParseError(f"feature indices must be strictly increasing (saw {idx} after {prev})", line=lineno)
            prev = idx
            entries.append((idx, val))
        max_index = max(max_index, prev)
        raw_labels.append(label)
        rows.append(entries)

    if not rows:
        raise ParseError("no examples")
    d = dimension if dimension is not None else max_index
    if d < max_index:
        raise ConfigurationError(f"dimension override {d} smaller than max feature index {max_index}")
    if d < 1:
        raise ConfigurationError("dataset has no features")

    features = np.zeros((len(rows), d), dtype=np.float64)
    for r, entries in enumerate(rows):
        for idx, val in entries:
            features[r, idx - 1] = val
    return Dataset(features, _map_labels(raw_labels))


def load_libsvm(path, dimension: int | None = None) -> Dataset:
    """Read a UTF-8 LIBSVM text file from disk; ``.gz`` paths are decompressed.

    Bytes that are not UTF-8, and a ``.gz`` file that is not intact gzip,
    raise :class:`ParseError` like malformed text does.
    """
    path = str(path)
    opener = gzip.open if path.endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (UnicodeDecodeError, gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise ParseError(f"unreadable file: {exc}") from exc
    return parse_libsvm(text, dimension=dimension)


def serialize_libsvm(dataset: Dataset) -> str:
    """Inverse of :func:`parse_libsvm`: zeros omitted, full float precision."""
    lines = []
    for row, label in zip(dataset.features, dataset.labels):
        parts = ["+1" if label > 0 else "-1"]
        for j in np.flatnonzero(row):
            parts.append(f"{j + 1}:{float(row[j])!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def split_train_val(dataset: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Uniform split without replacement; |val| = floor(n * val_fraction)."""
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigurationError(f"val_fraction must be in [0, 1), got {val_fraction}")
    n = dataset.n_examples
    # epsilon guards the floor against cases like 100 * 0.29 = 28.999...996
    n_val = int(math.floor(n * val_fraction + 1e-9))
    perm = RngStream(seed, ("split",)).generator().permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    return subset(dataset, train_idx), subset(dataset, val_idx)


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature mean and stdev, computed from the training split only."""

    mean: np.ndarray
    stdev: np.ndarray


def compute_normalization(train: Dataset) -> NormalizationStats:
    mean = train.features.mean(axis=0)
    stdev = train.features.std(axis=0)
    stdev = np.maximum(stdev, STDEV_FLOOR)
    return NormalizationStats(mean=mean, stdev=stdev)


def apply_normalization(dataset: Dataset, stats: NormalizationStats) -> Dataset:
    feats = (dataset.features - stats.mean) / stats.stdev
    return Dataset(feats, dataset.labels)


def partition_shared(n_examples: int, n_workers: int) -> tuple[np.ndarray, ...]:
    """Every worker samples from the full training set."""
    full = np.arange(n_examples, dtype=np.int64)
    return tuple(full.copy() for _ in range(n_workers))


def partition_shard(n_examples: int, n_workers: int, seed: int) -> tuple[np.ndarray, ...]:
    """Disjoint near-equal random shards covering the training set."""
    perm = RngStream(seed, ("partition", "shard")).generator().permutation(n_examples)
    return tuple(np.sort(c) for c in np.array_split(perm, n_workers))


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total`` that track ``proportions``."""
    targets = proportions * total
    counts = np.floor(targets).astype(np.int64)
    deficit = total - int(counts.sum())
    if deficit > 0:
        # Stable sort keeps ties deterministic (lower worker index first).
        order = np.argsort(-(targets - counts), kind="stable")
        counts[order[:deficit]] += 1
    return counts


def partition_dirichlet(
    train: Dataset, n_workers: int, alpha: float, seed: int, min_examples: int = 0
) -> tuple[np.ndarray, ...]:
    """Label-Dirichlet partition: per class, split examples across workers
    by proportions drawn from Dirichlet(alpha, ..., alpha), rounded by
    largest remainder.  Disjoint cover of the training set.

    By default a worker may end up with zero examples under extreme alpha
    (flagged with a warning; its oracle then errors if used).  With
    ``min_examples > 0`` the draw is repeated on the same stream until every
    worker holds at least that many examples.
    """
    if alpha <= 0:
        raise ConfigurationError(f"dirichlet alpha must be positive, got {alpha}")
    if min_examples * n_workers > train.n_examples:
        raise ConfigurationError(
            f"min_examples={min_examples} is unsatisfiable with "
            f"{train.n_examples} examples over {n_workers} workers"
        )
    gen = RngStream(seed, ("partition", "dirichlet")).generator()
    classes = sorted(np.unique(train.labels))
    for _ in range(1000):
        buckets: list[list[np.ndarray]] = [[] for _ in range(n_workers)]
        for cls in classes:
            cls_idx = np.flatnonzero(train.labels == cls)
            cls_idx = gen.permutation(cls_idx)
            props = gen.dirichlet(np.full(n_workers, float(alpha)))
            counts = _largest_remainder(props, cls_idx.size)
            start = 0
            for w, c in enumerate(counts):
                buckets[w].append(cls_idx[start : start + c])
                start += c
        sizes = [sum(a.size for a in b) for b in buckets]
        if min(sizes) >= min_examples:
            break
    else:
        raise ConfigurationError(
            f"could not satisfy min_examples={min_examples} within 1000 redraws "
            f"(alpha={alpha} is too extreme for this class balance)"
        )
    assignments = tuple(np.sort(np.concatenate(b)) if b else np.empty(0, np.int64) for b in buckets)
    for w, a in enumerate(assignments):
        if a.size == 0:
            warnings.warn(f"worker {w} received zero examples under dirichlet alpha={alpha}")
    return assignments


def synthetic_blobs(dim: int, n_examples: int, separation: float = 2.0, seed: int = 0) -> Dataset:
    """Two isotropic Gaussian blobs with means ``separation`` apart.

    Labels are balanced Bernoulli draws; features are standard normal
    shifted by +-separation/2 along a random unit direction.
    """
    if dim < 1 or n_examples < 1:
        raise ConfigurationError("synthetic dataset needs dim >= 1 and n_examples >= 1")
    gen = RngStream(seed, ("synthetic",)).generator()
    direction = gen.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    labels = gen.integers(0, 2, size=n_examples) * 2 - 1
    features = gen.standard_normal((n_examples, dim))
    features += (separation / 2.0) * labels[:, None] * direction[None, :]
    return Dataset(features, labels.astype(np.float64))
