"""Per-round measurement and resource accounting.

A run of R rounds yields R + 1 records: row r describes the state after r
completed rounds (row 0 is the untouched initial state), so cumulative
counters and closed-form checks line up exactly.  An empty run writes a
header-only file.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from dataclasses import asdict, dataclass, fields

import numpy as np

from .config import ExperimentConfig
from .core import average
from .data import Dataset
from .engine import RoundOutcome
from .objective import dataset_accuracy, dataset_loss, full_gradient

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
_INT_COLUMNS = frozenset(f.name for f in fields(MetricsRecord) if f.type == "int")  # annotations are strings here


def disagreement(models, mean: np.ndarray | None = None) -> float:
    """Sum of squared deviations of worker models (rows) from their mean.

    ``mean`` may pass in ``average(models)`` when the caller already has it.
    """
    if mean is None:
        mean = average(models)
    return float(sum(np.sum((m - mean) ** 2) for m in models))


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
        reg_value = self.config.regularizer.value(mean_model)
        grad = full_gradient(mean_model, self.train, self.config.regularizer)
        val_loss = dataset_loss(mean_model, self.val) if self.val.n_examples else float("nan")
        val_acc = dataset_accuracy(mean_model, self.val) if self.val.n_examples else float("nan")
        record = MetricsRecord(
            round=self.completed_rounds,
            logical_time=self.logical_time,
            train_loss=dataset_loss(mean_model, self.train) + reg_value,
            val_loss=val_loss,
            train_accuracy=dataset_accuracy(mean_model, self.train),
            val_accuracy=val_acc,
            grad_norm=float(np.linalg.norm(grad)),
            disagreement_x=disagreement(self.models, mean_model),
            processed_examples=self.processed_examples,
            comm_coordinates=self.comm_coordinates,
            comm_bits=self.comm_coordinates * self.config.value_bit_width,
        )
        if self.config.eval_per_worker:  # after the checks above, so a diverged run's rows match its records
            self.worker_rows.extend(self.per_worker_rows(self.models))
        return record

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

    def per_worker_rows(self, models: np.ndarray) -> list[dict]:
        rows = []
        for w, m in enumerate(models):
            rows.append(
                {
                    "round": self.completed_rounds,
                    "worker": w,
                    "train_loss": dataset_loss(m, self.train) + self.config.regularizer.value(m),
                    "train_accuracy": dataset_accuracy(m, self.train),
                }
            )
        return rows


def _format_value(name: str, value) -> str:
    if name in _INT_COLUMNS:
        return str(int(value))
    return repr(float(value))


def render_csv(records: list[MetricsRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        row = asdict(rec)
        lines.append(",".join(_format_value(c, row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def render_jsonl(records: list[MetricsRecord]) -> str:
    return "".join(json.dumps(asdict(rec)) + "\n" for rec in records)


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
    """Write the CSV table and its full-precision JSONL sidecar atomically."""
    atomic_write_bytes(csv_path, render_csv(records).encode("utf-8"))
    atomic_write_bytes(jsonl_path, render_jsonl(records).encode("utf-8"))

