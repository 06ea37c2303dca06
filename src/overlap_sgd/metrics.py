"""Per-round measurement and resource accounting.

At ``eval_every: 1`` a run of R rounds yields R + 1 records: row r is the
state after r completed rounds (row 0 is the untouched initial state), so
cumulative counters and closed-form checks line up exactly.  A run with no
record (``rounds: 0``, or a skipped run) writes a header-only file.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from dataclasses import dataclass, fields

import numpy as np

from .config import ExperimentConfig
from .core import average, check_finite
from .data import Dataset
from .engine import RoundOutcome
from .objective import _rowwise, dataset_accuracy, dataset_loss, full_gradient

__all__ = [
    "MetricsRecord",
    "RunRecorder",
    "disagreement",
    "render_csv",
    "render_jsonl",
    "write_metrics",
    "atomic_write_bytes",
]


@dataclass(frozen=True)
class MetricsRecord:
    round: int
    logical_time: int
    train_loss: float
    val_loss: float
    train_accuracy: float
    val_accuracy: float
    grad_norm: float
    disagreement_x: float
    processed_examples: int
    comm_coordinates: int
    comm_bits: int


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRecord))


def disagreement(models, mean: np.ndarray | None = None) -> float:
    """Sum of squared deviations of worker models (rows) from their mean.

    ``mean`` may pass in ``average(models)`` when the caller already has it.
    """
    if mean is None:
        mean = average(models)
    # summed row by row in ascending order, as np.float64 values, so no Python version compensates the sum
    return float(sum(np.sum((models - mean) ** 2, axis=1)))


class RunRecorder:
    """One (method, seed) run: its models, status, records and cumulative costs;
    each record is evaluated at the worker-average model."""

    def __init__(self, method: str, models: np.ndarray, train: Dataset, val: Dataset, config: ExperimentConfig):
        self.method = method
        self.models = models
        self.train = train
        self.val = val
        self.config = config
        self.status = "ok"  # the runner sets "diverged:round=<r>" or "skipped:<reason>"
        self.records: list[MetricsRecord] = []
        self.worker_rows: list[dict] = []
        self.logical_time = 0
        self.completed_rounds = 0
        self.processed_examples = 0
        self.comm_coordinates = 0

    def _evaluate(self) -> MetricsRecord:
        mean_model = average(self.models)
        # row 0 is the mean model, and under eval_per_worker each worker's model follows it
        rows = np.vstack([mean_model, self.models]) if self.config.eval_per_worker else mean_model[None]
        # one forward product per model and split, shared by the gradient, the loss and the accuracy
        scores = _rowwise(self.train.features, rows)
        grad = full_gradient(mean_model, scores[0], self.train, self.config.regularizer)
        with np.errstate(over="ignore"):  # a finite gradient's norm may overflow, and then the run diverges
            check_finite(grad_norm := float(np.linalg.norm(grad)), "full gradient norm")
        # after the checks above, so a diverged run's worker rows match its records
        losses = [dataset_loss(s, self.train) + self.config.regularizer.value(m) for m, s in zip(rows, scores)]
        accuracies = [dataset_accuracy(s, self.train) for s in scores]
        for w, (loss, accuracy) in enumerate(zip(losses[1:], accuracies[1:])):
            self.worker_rows.append(
                {"round": self.completed_rounds, "worker": w, "train_loss": loss, "train_accuracy": accuracy}
            )
        val_loss = val_acc = float("nan")
        if self.val.n_examples:
            val_scores = self.val.features @ mean_model
            val_loss, val_acc = dataset_loss(val_scores, self.val), dataset_accuracy(val_scores, self.val)
        return MetricsRecord(
            round=self.completed_rounds,
            logical_time=self.logical_time,
            train_loss=losses[0],
            val_loss=val_loss,
            train_accuracy=accuracies[0],
            val_accuracy=val_acc,
            grad_norm=grad_norm,
            disagreement_x=disagreement(self.models, mean_model),
            processed_examples=self.processed_examples,
            comm_coordinates=self.comm_coordinates,
            comm_bits=self.comm_coordinates * self.config.value_bit_width,
        )

    def measure_initial(self) -> None:
        self.records.append(self._evaluate())

    def advance(self, outcome: RoundOutcome) -> None:
        """Fold one completed round into the counters and move to its models."""
        self.models = outcome.next_models
        self.completed_rounds += 1
        self.logical_time += outcome.duration
        self.processed_examples += self.config.batch_size * sum(outcome.steps)
        # n uplinks of the round's mask values plus n broadcast deliveries;
        # value payloads only, no index bits or framing.
        self.comm_coordinates += 2 * len(outcome.steps) * outcome.mask.indices.size

    def measure_round(self, outcome: RoundOutcome) -> None:
        """Account for ``outcome`` and record the post-merge state."""
        self.advance(outcome)
        self.records.append(self._evaluate())


def render_csv(records: list[MetricsRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(map(repr, vars(rec).values())))  # the fields in order, each a Python int or float
    return "\n".join(lines) + "\n"


def render_jsonl(records: list[MetricsRecord]) -> str:
    return "".join(json.dumps(vars(rec)) + "\n" for rec in records)


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``<path>.tmp``, then replace ``path`` with it; a
    failed write or replace removes the temp file."""
    path = str(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):  # the open may have failed before creating it
            os.unlink(tmp)
        raise OSError(f"failed writing {path}: {exc}") from exc


def write_metrics(records: list[MetricsRecord], csv_path, jsonl_path) -> None:
    """Write the CSV table and its JSONL sidecar atomically; both carry every digit."""
    atomic_write_bytes(csv_path, render_csv(records).encode("utf-8"))
    atomic_write_bytes(jsonl_path, render_jsonl(records).encode("utf-8"))

