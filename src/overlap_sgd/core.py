"""Dense vector algebra, Rand-K mask sampling, and the keyed random-number substrate.

A model is a 1-D float64 numpy array; a fleet of worker models is the
rows of one ``(n, d)`` array.  All reductions use a fixed ascending-index
summation order, and every random draw goes through a keyed
:class:`RngStream`, so two runs with the same root seed are bit-identical
regardless of how callers interleave their draws.

A Rand-K mask is the head of a partial Fisher-Yates shuffle: one draw, which
consumes the stream as k scalar draws do, gives its k swaps, and one exact
vectorised pass reads the mask off them in O(k log k) time and O(k) memory,
whatever ``d`` is (see :func:`sample_rand_k`).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigurationError, DivergenceError

__all__ = [
    "Mask",
    "RngStream",
    "SEED_MODULUS",
    "check_finite",
    "project_mask",
    "sample_rand_k",
    "average",
]

SEED_MODULUS = 2**64  # a root seed is taken modulo this: congruent seeds name the same streams


def check_finite(arr: np.ndarray, context: str = "vector") -> None:
    if not np.all(np.isfinite(arr)):
        raise DivergenceError(f"non-finite values in {context}")


@dataclass(frozen=True, eq=False)
class Mask:
    """A set of distinct coordinate indices out of ``d``.

    ``indices`` is a strictly increasing, read-only ``int64`` array (any
    integer sequence is accepted and copied; floats are rejected, not
    truncated); projecting onto a mask keeps the listed coordinates and
    zeroes the rest.
    """

    indices: np.ndarray
    d: int

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.ndim != 1 or not 1 <= idx.size <= self.d:
            raise ConfigurationError(f"mask indices have shape {idx.shape}, expected (k,) with 1 <= k <= {self.d}")
        if idx.dtype.kind not in "iu":
            raise ConfigurationError(f"mask indices must be integers, got {idx.dtype}")
        # checked in the given dtype, so a uint64 index past int64 is out of range, not wrapped negative
        if (idx[1:] <= idx[:-1]).any():
            raise ConfigurationError("mask indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.d:
            raise ConfigurationError(f"mask indices out of range [0, {self.d})")
        idx = idx.astype(np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)


def project_mask(x: np.ndarray, s: Mask) -> np.ndarray:
    """Full-length vector equal to ``x`` on the mask and 0 elsewhere."""
    if x.size != s.d:
        raise ConfigurationError(f"mask dimension {s.d} does not match vector length {x.size}")
    out = np.zeros_like(x)
    out[s.indices] = x[s.indices]
    return out


class _KeySequence(ISeedSequence):
    """The seed sequence of one stream: it hands Philox the stream's key.

    ``Philox(_KeySequence(key))`` is ``Philox(key=key)`` with a zero counter,
    built without gathering OS entropy for a seed that the key overrides.
    """

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a stream key is 2 uint64 words, not {n_words} {np.dtype(dtype)} words")
        return self.key


@dataclass(frozen=True)
class RngStream:
    """A replayable random stream addressed by ``(root_seed, key)``.

    ``key`` is a tuple of strings and integers naming the consumer, e.g.
    ``("sample", worker, round, step)`` or ``("mask", round)``.  SHA-256 of
    ``(root_seed, key)`` is the key of a fresh Philox counter-based
    generator, so distinct keys give independent streams, the same key
    always replays the same stream on every platform, and no draw depends
    on process state or on the order in which streams are opened.
    """

    root_seed: int
    key: tuple

    def generator(self) -> np.random.Generator:
        """A new generator at the start of this stream, shared with no other caller."""
        return np.random.Generator(np.random.Philox(_KeySequence(self._philox_key())))

    def _philox_key(self) -> np.ndarray:
        h = hashlib.sha256()
        h.update(struct.pack("<Q", self.root_seed % SEED_MODULUS))
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
    subsets: swap ``i`` exchanges positions ``i`` and ``j_i = i + gen.integers(0,
    d - i)``, the k offsets drawn in one call that consumes the stream exactly
    like k scalar draws.  The swaps are not replayed.  Swap ``i`` settles slot
    ``i``, as later swaps touch only higher positions, and only earlier slots
    write into a slot below k, so every value that passes through the head
    ``[0, k)`` is a head index.  The mask is therefore the distinct reached tail
    positions ``j_i >= k`` plus the head indices, less the value that each
    reached tail position receives from its last swap ``i``: what slot ``i``
    held just before swap ``i``, found by following "the last earlier swap into
    slot ``i``" to a fixed point (pointer jumping).  One sort of the swap
    targets gives them ascending with their last swaps: O(k log k) time and
    O(k) memory whatever ``d`` is, and no final sort.
    """
    if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in (d, k)):
        raise ConfigurationError("d and k must be integers")
    d, k = int(d), int(k)
    if not 1 <= k <= d:
        raise ConfigurationError(f"mask size k={k} outside [1, {d}]")
    offsets = gen.integers(0, d - np.arange(k))
    moved = np.flatnonzero(offsets)  # a zero offset swaps a slot with itself
    targets = moved + offsets[moved]
    order = np.argsort(targets)
    by_target = targets[order]
    first = np.ones(by_target.size, dtype=bool)
    first[1:] = by_target[1:] != by_target[:-1]
    starts = np.flatnonzero(first)
    reached = by_target[starts]
    last_swap = moved[np.maximum.reduceat(order, starts)]
    split = np.searchsorted(reached, k)  # head targets come first
    # held[i]: the last earlier swap into slot i, or i; at the fixed point, what slot i holds before swap i
    held = np.arange(k)
    held[reached[:split]] = last_swap[:split]
    jumped = held[held]
    while (jumped != held).any():
        held, jumped = jumped, jumped[jumped]
    keep = np.ones(k, dtype=bool)
    keep[held[last_swap[split:]]] = False
    return Mask(indices=np.concatenate([np.flatnonzero(keep), reached[split:]]), d=d)


def average(vs) -> np.ndarray:
    """Arithmetic mean of a list of arrays, or of the rows of a 2-D array,
    with an ascending-index summation order.

    The fold order is part of the reproducibility contract; callers must
    not replace this with a parallel reduction.
    """
    if len(vs) == 0:
        raise ValueError("average of an empty list")
    total = np.array(vs[0], dtype=np.float64, copy=True)
    for v in vs[1:]:
        if v.shape != total.shape:
            raise ConfigurationError(f"dimension mismatch: {v.shape} vs {total.shape}")
        total += v
    out = total / len(vs)
    check_finite(out, "average")
    return out
