"""Per-layer spans recorded from outside the simulator.

A :class:`Tracer` replaces public functions in the namespaces where the
simulator looks them up (``runner``, ``engine`` and ``metrics`` import
their collaborators by name) and a few methods on the classes those
modules call.  Each call becomes one span (name, start, end, parent) held
in memory; everything is restored on exit, so nothing under ``src/`` knows
it is traced.  The code has no queues or threads, so spans measure busy
time only; no layer ever waits.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from overlap_sgd import core, engine, metrics, objective, runner

ROOT_SPAN = "runner.run_suite"

# (owner, attribute, span name); several attributes may share a layer name.
TARGETS = (
    (runner, "synthetic_blobs", "data.generate"),
    (runner, "split_train_val", "data.split"),
    (runner, "compute_normalization", "data.normalize"),
    (runner, "apply_normalization", "data.normalize"),
    (runner, "partition_shared", "data.partition"),
    (runner, "partition_shard", "data.partition"),
    (runner, "partition_dirichlet", "data.partition"),
    (runner, "prepare_seed_artifacts", "runner.prepare_seed_artifacts"),
    (runner, "run_round", "engine.run_round"),
    (runner, "write_metrics", "metrics.write"),
    (runner, "atomic_write_bytes", "metrics.write"),
    (engine, "sample_rand_k", "core.rand_k"),
    (engine, "project_mask", "core.project_mask"),
    (engine, "average", "core.average"),
    (engine, "merge_delay_corrected", "engine.merge"),
    (engine, "merge_overwrite", "engine.merge"),
    (metrics, "average", "core.average"),
    (metrics, "full_gradient", "objective.full_gradient"),
    (metrics, "dataset_loss", "objective.dataset_loss"),
    (metrics, "dataset_accuracy", "objective.dataset_accuracy"),
    (metrics, "disagreement", "metrics.disagreement"),
    (metrics.RunRecorder, "measure_initial", "metrics.evaluate"),
    (metrics.RunRecorder, "measure_round", "metrics.evaluate"),
    (objective.LogisticOracle, "gradient", "objective.gradient"),
    (core.RngStream, "generator", "core.rng_stream"),
)

# Per-layer metrics in report order, with units.  ``_s`` is busy seconds,
# ``.self_s`` busy seconds minus child spans, ``_calls`` an exact count.
PER_LAYER_UNITS = {
    "data.generate_s": "s",
    "data.split_s": "s",
    "data.normalize_s": "s",
    "data.partition_s": "s",
    "runner.artifact_hash_s": "s",
    "core.rng_stream_s": "s",
    "core.rng_stream_calls": "count",
    "objective.gradient.self_s": "s",
    "objective.gradient_calls": "count",
    "engine.run_round.self_s": "s",
    "core.rand_k_s": "s",
    "core.rand_k_calls": "count",
    "core.rand_k_ms_per_call": "ms",
    "core.project_mask_s": "s",
    "core.average_s": "s",
    "engine.merge_s": "s",
    "engine.merge_calls": "count",
    "metrics.evaluate_s": "s",
    "metrics.evaluate_calls": "count",
    "objective.full_gradient_s": "s",
    "objective.dataset_loss_s": "s",
    "objective.dataset_accuracy_s": "s",
    "metrics.disagreement_s": "s",
    "metrics.write_s": "s",
    "metrics.bytes_written": "bytes",
    "runner.self_s": "s",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name: str, parent: int, start: float = 0.0, end: float = 0.0):
        self.name = name
        self.parent = parent  # index into the tracer's span list; -1 for a root
        self.start = start
        self.end = end


class Tracer:
    """Records nested spans for the calls made through :meth:`wrap`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()

        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": rows}, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children[i]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced suite whose root span is ROOT_SPAN.

    Raises ValueError unless the self times of all layers, ``runner.self_s``
    included, add up to the traced wall time; overlapping sibling spans or
    children outside their parent would break that sum.
    """
    roots = [s for s in spans if s.parent < 0]
    if len(roots) != 1 or roots[0].name != ROOT_SPAN:
        raise ValueError(f"expected one {ROOT_SPAN} root span, got {[s.name for s in roots]}")
    busy, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for s, t in zip(spans, self_times(spans)):
        busy[s.name] += s.end - s.start
        own[s.name] += t
        calls[s.name] += 1
    wall = busy[ROOT_SPAN]
    if abs(sum(own.values()) - wall) > 1e-6 * max(1.0, wall):
        raise ValueError(f"layer self times sum to {sum(own.values())} s, traced wall is {wall} s")
    return {
        "data.generate_s": busy["data.generate"],
        "data.split_s": busy["data.split"],
        "data.normalize_s": busy["data.normalize"],
        "data.partition_s": busy["data.partition"],
        "runner.artifact_hash_s": own["runner.prepare_seed_artifacts"],
        "core.rng_stream_s": busy["core.rng_stream"],
        "core.rng_stream_calls": calls["core.rng_stream"],
        "objective.gradient.self_s": own["objective.gradient"],
        "objective.gradient_calls": calls["objective.gradient"],
        "engine.run_round.self_s": own["engine.run_round"],
        "core.rand_k_s": busy["core.rand_k"],
        "core.rand_k_calls": calls["core.rand_k"],
        "core.rand_k_ms_per_call": 1e3 * busy["core.rand_k"] / max(1, calls["core.rand_k"]),
        "core.project_mask_s": busy["core.project_mask"],
        "core.average_s": busy["core.average"],
        "engine.merge_s": busy["engine.merge"],
        "engine.merge_calls": calls["engine.merge"],
        "metrics.evaluate_s": busy["metrics.evaluate"],
        "metrics.evaluate_calls": calls["metrics.evaluate"],
        "objective.full_gradient_s": busy["objective.full_gradient"],
        "objective.dataset_loss_s": busy["objective.dataset_loss"],
        "objective.dataset_accuracy_s": busy["objective.dataset_accuracy"],
        "metrics.disagreement_s": busy["metrics.disagreement"],
        "metrics.write_s": busy["metrics.write"],
        "runner.self_s": own[ROOT_SPAN],
    }
