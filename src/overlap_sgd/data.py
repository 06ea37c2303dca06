"""Dataset ingestion and partitioning.

LIBSVM text parsing, feature standardization, train/validation splitting,
worker partitions (shared, i.i.d. shards, label-Dirichlet), and a small
synthetic two-blob generator so the test suite needs no downloads.
"""

from __future__ import annotations

import gzip
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .core import RngStream
from .errors import ConfigurationError, DatasetError

__all__ = [
    "Dataset",
    "parse_libsvm",
    "load_libsvm",
    "split_train_val",
    "validation_size",
    "check_min_examples",
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
    """Finite float64 features of shape (n, d) and float64 labels of shape (n,) in {-1, +1}.

    Not checked here: ``parse_libsvm`` rejects data that breaks this where it enters; it and ``synthetic_blobs`` return
    it read-only, and the split (a copy) and the in-place standardization keep it by construction.
    """

    features: np.ndarray
    labels: np.ndarray

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _map_labels(raw: list[float]) -> np.ndarray:
    distinct = sorted(set(raw))
    if set(distinct) <= {-1.0, 1.0}:
        return np.asarray(raw, dtype=np.float64)
    if len(distinct) != 2:
        raise DatasetError(
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
            label = math.nan
        if not math.isfinite(label):
            raise DatasetError(f"line {lineno}: bad label {tokens[0]!r}")
        entries: list[tuple[int, float]] = []
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_str, val_str = tok.split(":", 1)
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise DatasetError(f"line {lineno}: bad feature token {tok!r}") from None
            if idx < 1:
                raise DatasetError(f"line {lineno}: feature index {idx} is not 1-based")
            if idx <= prev:
                raise DatasetError(
                    f"line {lineno}: feature indices must be strictly increasing (saw {idx} after {prev})"
                )
            prev = idx
            entries.append((idx, val))
        max_index = max(max_index, prev)
        raw_labels.append(label)
        rows.append(entries)

    if not rows:
        raise DatasetError("no examples")
    d = dimension if dimension is not None else max_index
    if d < max_index:
        raise ConfigurationError(f"dimension override {d} smaller than max feature index {max_index}")
    if d < 1:
        raise DatasetError("dataset has no features")

    try:
        features = np.zeros((len(rows), d), dtype=np.float64)
    except (ValueError, MemoryError):  # "array is too big" / "Unable to allocate"
        raise DatasetError(f"{len(rows)} examples of {d} features are too large to hold densely") from None
    for r, entries in enumerate(rows):
        for idx, val in entries:
            features[r, idx - 1] = val
    labels = _map_labels(raw_labels)
    if not np.isfinite(features).all():
        raise DatasetError("features contain non-finite values")
    features.flags.writeable = labels.flags.writeable = False
    return Dataset(features, labels)


def load_libsvm(path, dimension: int | None = None) -> Dataset:
    """Read a UTF-8 LIBSVM text file from disk; ``.gz`` paths are decompressed.

    A file that cannot be read, is not UTF-8 or intact gzip, or is malformed
    raises one :class:`DatasetError` naming the path.  A ``dimension``
    below the largest feature index stays a ConfigurationError.
    """
    path = str(path)
    opener = gzip.open if path.endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        return parse_libsvm(text, dimension=dimension)
    except (UnicodeDecodeError, gzip.BadGzipFile, EOFError, zlib.error) as exc:
        problem = f"unreadable file: {exc}"
    except (OSError, DatasetError) as exc:
        problem = str(exc)
    raise DatasetError(f"could not load dataset {path}: {problem}")


def validation_size(n: int, val_fraction: float) -> int:
    """floor(n * val_fraction) validation examples; ConfigurationError unless one is left to train on."""
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigurationError(f"val_fraction must be in [0, 1), got {val_fraction}")
    # epsilon guards the floor against cases like 100 * 0.29 = 28.999...996
    n_val = int(math.floor(n * val_fraction + 1e-9))
    if n_val >= n:
        raise ConfigurationError(f"val_fraction {val_fraction} leaves none of the {n} examples for training")
    return n_val


def split_train_val(dataset: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Uniform split without replacement; |val| = validation_size(n, val_fraction)."""
    n = dataset.n_examples
    n_val = validation_size(n, val_fraction)
    perm = RngStream(seed, ("split",)).generator().permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    return tuple(Dataset(dataset.features[idx], dataset.labels[idx]) for idx in (train_idx, val_idx))


def _check_standardizable(values: np.ndarray, what: str) -> None:
    """DatasetError naming the first feature whose ``values`` are not all finite."""
    bad = ~np.isfinite(values).reshape(-1, np.shape(values)[-1]).all(axis=0)
    if bad.any():
        raise DatasetError(f"feature {int(np.argmax(bad)) + 1} cannot be standardized: {what} overflows")


def compute_normalization(train: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature ``(mean, stdev)`` of the training split, the stdev floored at ``STDEV_FLOOR``."""
    x, (n, d) = train.features, train.features.shape
    var, width = np.empty(d), max(2, (1 << 17) // max(n, 1))  # (n, width) blocks of about 1 MiB
    starts = range(0, max(d - 1, 1), width)  # one column alone would sum pairwise, so a 1-column tail joins
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        for a, b in zip(starts, [*starts[1:], d]):  # NumPy's _var, block by block
            sq = x[:, a:b] - mean[a:b]
            np.add.reduce(np.multiply(sq, sq, out=sq), axis=0, out=var[a:b])
        stdev = np.sqrt(np.divide(var, n, out=var), out=var)
    _check_standardizable(mean, "its training mean")
    _check_standardizable(stdev, "its training stdev")
    return mean, np.maximum(stdev, STDEV_FLOOR, out=stdev)


def apply_normalization(dataset: Dataset, mean: np.ndarray, stdev: np.ndarray) -> Dataset:
    """Standardize ``dataset.features`` in place by ``compute_normalization``'s ``(mean, stdev)`` and return
    ``dataset``: a split's own copy, never the raw data."""
    feats = dataset.features
    with np.errstate(over="ignore", invalid="ignore"):  # monotone steps on finite values: no NaN, so extremes tell
        feats -= mean
        feats /= stdev
    _check_standardizable((feats.min(axis=0, initial=0.0), feats.max(axis=0, initial=0.0)), "a standardized value")
    return dataset


def partition_shared(n_examples: int, n_workers: int) -> tuple[np.ndarray, ...]:
    """Every worker samples from the full training set: one read-only index array, shared by all."""
    full = np.arange(n_examples, dtype=np.int64)
    full.flags.writeable = False
    return (full,) * n_workers


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


def check_min_examples(n_train: int, n_workers: int, min_examples: int) -> None:
    """ConfigurationError unless ``n_train`` examples can give each worker ``min_examples``."""
    if min_examples * n_workers > n_train:
        raise ConfigurationError(
            f"min_examples={min_examples} is unsatisfiable with {n_train} examples over {n_workers} workers"
        )


def partition_dirichlet(
    train: Dataset, n_workers: int, alpha: float, seed: int, min_examples: int = 0
) -> tuple[np.ndarray, ...]:
    """Label-Dirichlet partition: per class, split examples across workers
    by proportions drawn from Dirichlet(alpha, ..., alpha), rounded by
    largest remainder.  Disjoint cover of the training set.

    By default a worker may end up with zero examples under extreme alpha
    (the runner then records the seed's runs as skipped).  With
    ``min_examples > 0`` the draw is repeated on the same stream until every
    worker holds at least that many examples.
    """
    if alpha <= 0:
        raise ConfigurationError(f"dirichlet alpha must be positive, got {alpha}")
    check_min_examples(train.n_examples, n_workers, min_examples)
    gen = RngStream(seed, ("partition", "dirichlet")).generator()
    classes = sorted(np.unique(train.labels))
    for _ in range(1000):
        buckets: list[list[np.ndarray]] = [[] for _ in range(n_workers)]
        for cls in classes:
            cls_idx = gen.permutation(np.flatnonzero(train.labels == cls))
            counts = _largest_remainder(gen.dirichlet(np.full(n_workers, float(alpha))), cls_idx.size)
            for bucket, part in zip(buckets, np.split(cls_idx, np.cumsum(counts)[:-1])):
                bucket.append(part)
        sizes = [sum(a.size for a in b) for b in buckets]
        if min(sizes) >= min_examples:
            break
    else:
        raise ConfigurationError(
            f"could not satisfy min_examples={min_examples} within 1000 redraws "
            f"(alpha={alpha} is too extreme for this class balance)"
        )
    return tuple(np.sort(np.concatenate(b)) for b in buckets)


def synthetic_blobs(dim: int, n_examples: int, separation: float = 2.0, seed: int = 0) -> Dataset:
    """Two isotropic Gaussian blobs with means ``separation`` apart.

    Labels are balanced Bernoulli draws; features are standard normal
    shifted by +-separation/2 along a random unit direction.
    """
    if dim < 1 or n_examples < 1:
        raise ConfigurationError("synthetic dataset needs dim >= 1 and n_examples >= 1")
    gen = RngStream(seed, ("synthetic",)).generator()
    try:
        direction = gen.standard_normal(dim)
        shift = direction / np.linalg.norm(direction) * (separation / 2.0)
        labels = (gen.integers(0, 2, size=n_examples) * 2 - 1).astype(np.float64)
        features = gen.standard_normal((n_examples, dim))
        np.add(features, shift, out=features, where=(labels > 0)[:, None])  # in place; negating the shift is exact
        np.subtract(features, shift, out=features, where=(labels < 0)[:, None])
    except (ValueError, MemoryError):  # "array is too big" / "Unable to allocate"
        raise DatasetError(f"{n_examples} examples of {dim} features are too large to hold densely") from None
    features.flags.writeable = labels.flags.writeable = False
    return Dataset(features, labels)
