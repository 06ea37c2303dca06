"""Dense vector algebra, Rand-K masks, and the keyed random-number substrate.

A model is a 1-D float64 numpy array; a fleet of worker models is the
rows of one ``(n, d)`` array.  All reductions use a fixed ascending-index
summation order, and every random draw goes through a keyed
:class:`RngStream`, so two runs with the same root seed are bit-identical
regardless of how callers interleave their draws.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError

__all__ = [
    "Mask",
    "RngStream",
    "check_finite",
    "project_mask",
    "sample_rand_k",
    "average",
]


def check_finite(arr: np.ndarray, context: str = "vector") -> None:
    if not np.all(np.isfinite(arr)):
        raise DivergenceError(f"non-finite values in {context}")


@dataclass(frozen=True, eq=False)
class Mask:
    """A set of distinct coordinate indices out of ``d``.

    ``indices`` is a strictly increasing, read-only ``int64`` array (any
    integer sequence is accepted and copied); projecting onto a mask keeps
    the listed coordinates and zeroes the rest.  Masks compare by value.
    """

    indices: np.ndarray
    d: int

    def __post_init__(self):
        idx = np.array(self.indices, dtype=np.int64)
        if idx.ndim != 1 or not 1 <= idx.size <= self.d:
            raise ConfigurationError(f"mask indices have shape {idx.shape}, expected (k,) with 1 <= k <= {self.d}")
        if (idx[1:] <= idx[:-1]).any():
            raise ConfigurationError("mask indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.d:
            raise ConfigurationError(f"mask indices out of range [0, {self.d})")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __eq__(self, other):
        if not isinstance(other, Mask):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.indices, other.indices)

    def __hash__(self):
        return hash((self.d, self.indices.tobytes()))


def project_mask(x: np.ndarray, s: Mask) -> np.ndarray:
    """Full-length vector equal to ``x`` on the mask and 0 elsewhere."""
    if x.size != s.d:
        raise ConfigurationError(f"mask dimension {s.d} does not match vector length {x.size}")
    out = np.zeros_like(x)
    out[s.indices] = x[s.indices]
    return out


@dataclass(frozen=True)
class RngStream:
    """A replayable random stream addressed by ``(root_seed, key)``.

    ``key`` is a tuple of strings and integers naming the consumer, e.g.
    ``("sample", worker, round, step)`` or ``("mask", round)``.  The key is
    hashed into a Philox counter-based generator, so distinct keys give
    independent streams and the same key always replays the same stream,
    on every platform.
    """

    root_seed: int
    key: tuple

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self._philox_key()))

    def _philox_key(self) -> np.ndarray:
        h = hashlib.sha256()
        h.update(struct.pack("<Q", self.root_seed & 0xFFFFFFFFFFFFFFFF))
        for part in self.key:
            if isinstance(part, str):
                raw = part.encode("utf-8")
                h.update(b"s")
                h.update(struct.pack("<I", len(raw)))
                h.update(raw)
            elif isinstance(part, (int, np.integer)):
                h.update(b"i")
                h.update(struct.pack("<q", int(part)))
            else:
                raise ConfigurationError(f"stream key parts must be str or int, got {type(part)!r}")
        digest = h.digest()
        words = [int.from_bytes(digest[o : o + 8], "little") for o in (0, 8)]
        return np.array(words, dtype=np.uint64)


def sample_rand_k(d: int, k: int, gen: np.random.Generator) -> Mask:
    """Uniformly random size-``k`` subset of ``[0, d)``.

    Partial Fisher-Yates over ``[0, d)``, exactly uniform over all C(d, k)
    subsets.  Swap ``i`` exchanges positions ``i`` and ``i + gen.integers(0,
    d - i)``; the k offsets come from one vectorised draw, which consumes the
    stream exactly like k scalar draws.  The swaps are then replayed over
    native ints, holding positions ``< k`` in a list and displaced positions
    ``>= k`` in a dict, so the cost is O(k) whatever ``d`` is.
    """
    if not isinstance(d, (int, np.integer)) or not isinstance(k, (int, np.integer)):
        raise ConfigurationError("d and k must be integers")
    if not 1 <= k <= d:
        raise ConfigurationError(f"mask size k={k} outside [1, {d}]")
    offsets = gen.integers(0, d - np.arange(k)).tolist()
    head = list(range(k))
    tail = {}
    for i, offset in enumerate(offsets):
        j = i + offset
        if j < k:
            head[i], head[j] = head[j], head[i]
        else:
            head[i], tail[j] = tail.get(j, j), head[i]
    return Mask(indices=np.sort(np.array(head, dtype=np.int64)), d=d)


def average(vs) -> np.ndarray:
    """Arithmetic mean of a list of arrays, or of the rows of a 2-D array,
    with an ascending-index summation order.

    The fold order is part of the reproducibility contract; callers must
    not replace this with a parallel reduction.
    """
    if len(vs) == 0:
        raise ValueError("average of an empty list")
    first = vs[0]
    for v in vs[1:]:
        if v.shape != first.shape:
            raise ConfigurationError(f"dimension mismatch: {v.shape} vs {first.shape}")
    total = np.array(first, dtype=np.float64, copy=True)
    for v in vs[1:]:
        total += v
    out = total / len(vs)
    check_finite(out, "average")
    return out
