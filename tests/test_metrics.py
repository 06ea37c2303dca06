import csv
import json
import math
from dataclasses import astuple

import numpy as np
import pytest

from conftest import make_logistic_oracle
from overlap_sgd.core import average
from overlap_sgd.data import synthetic_blobs
from overlap_sgd.engine import Method
from overlap_sgd.metrics import (
    CSV_COLUMNS,
    MetricsRecord,
    RunRecorder,
    disagreement,
    render_csv,
    render_jsonl,
    write_metrics,
)
from overlap_sgd.objective import RegularizerParams
from overlap_sgd.runner import run_single
from overlap_sgd.timing import build_plan


def small_run(method=Method.OVERLAP_DELAY_CORRECTED, rounds=3, mask_size=3, seed=5, bit_width=32):
    blobs = synthetic_blobs(dim=10, n_examples=80, separation=1.5, seed=1)
    train, val = blobs, synthetic_blobs(dim=10, n_examples=20, separation=1.5, seed=2)
    oracle = make_logistic_oracle(train, n_workers=2, batch_size=4, seed=seed)
    plan = build_plan((1, 2), 1, 2)
    recorder = RunRecorder(
        train=train,
        val=val,
        regularizer=RegularizerParams(),
        batch_size=4,
        n_workers=2,
        mask_size=mask_size,
        value_bit_width=bit_width,
        collect_per_worker=False,
    )
    records, status = run_single(
        method, plan, mask_size, 0.1, rounds, seed, oracle, recorder, np.zeros(10), eval_every=1
    )
    assert status == "ok"
    return records, plan


def test_disagreement_examples():
    assert disagreement([np.array([0.0]), np.array([2.0])]) == 2.0
    assert disagreement([np.array([1.0, 2.0])] * 3) == 0.0


def test_recorder_averages_the_models_once_per_record(monkeypatch):
    import overlap_sgd.metrics as metrics_mod

    calls = []

    def counting_average(vs):
        calls.append(1)
        return average(vs)

    monkeypatch.setattr(metrics_mod, "average", counting_average)
    records, _ = small_run(rounds=3)
    assert len(calls) == len(records) == 4


def test_initial_record_has_zero_everything():
    records, _ = small_run(rounds=3)
    first = records[0]
    assert first.round == 0
    assert first.logical_time == 0
    assert first.disagreement_x == 0.0
    assert first.processed_examples == 0
    assert first.comm_bits == 0
    assert first.train_loss == pytest.approx(math.log(2.0), rel=1e-12)


def test_counters_match_closed_forms_overlap():
    rounds, mask_size, bit_width = 4, 3, 32
    records, plan = small_run(rounds=rounds, mask_size=mask_size, bit_width=bit_width)
    assert len(records) == rounds + 1
    last = records[-1]
    n = plan.n_workers
    assert last.logical_time == rounds * plan.round_seconds
    assert last.processed_examples == 4 * rounds * sum(plan.total_steps)
    assert last.comm_coordinates == 2 * n * mask_size * rounds
    assert last.comm_bits == 2 * n * mask_size * bit_width * rounds
    # per-round increment
    assert records[1].comm_coordinates - records[0].comm_coordinates == 2 * n * mask_size


def test_counters_match_closed_forms_blocking():
    rounds = 4
    records, plan = small_run(method=Method.LOCAL_SPARSE, rounds=rounds)
    assert records[-1].processed_examples == 4 * rounds * sum(plan.pre_steps)


def test_counters_are_nondecreasing():
    records, _ = small_run(rounds=5)
    for field in ("logical_time", "processed_examples", "comm_coordinates", "comm_bits"):
        vals = [getattr(r, field) for r in records]
        assert vals == sorted(vals)


def test_bit_ratio_tracks_mask_size():
    rec_small, _ = small_run(rounds=3, mask_size=1)
    rec_large, _ = small_run(rounds=3, mask_size=3)
    assert rec_small[-1].comm_bits * 3 == rec_large[-1].comm_bits * 1


def test_empty_run_renders_header_only():
    assert render_csv([]) == ",".join(CSV_COLUMNS) + "\n"
    assert render_jsonl([]) == ""


def test_identical_runs_render_identical_bytes():
    a, _ = small_run(seed=7)
    b, _ = small_run(seed=7)
    assert render_csv(a) == render_csv(b)
    assert render_jsonl(a) == render_jsonl(b)
    c, _ = small_run(seed=8)
    assert render_csv(a) != render_csv(c)


def test_round_trip_preserves_full_precision(tmp_path):
    records, _ = small_run(rounds=3)
    csv_path, jsonl_path = tmp_path / "m.csv", tmp_path / "m.jsonl"
    write_metrics(records, csv_path, jsonl_path)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [[float(row[c]) for c in CSV_COLUMNS] for row in rows] == [list(astuple(r)) for r in records]
    lines = jsonl_path.read_text(encoding="utf-8").splitlines()
    assert [MetricsRecord(**json.loads(line)) for line in lines] == records


def test_accuracy_bounds():
    records, _ = small_run(rounds=3)
    for rec in records:
        assert 0.0 <= rec.train_accuracy <= 1.0
        assert 0.0 <= rec.val_accuracy <= 1.0


def test_accuracy_of_zero_model_on_balanced_labels():
    feats = np.vstack([np.ones((4, 2)), -np.ones((4, 2))])
    labels = np.array([1.0] * 4 + [-1.0] * 4)
    from overlap_sgd.data import Dataset
    from overlap_sgd.objective import dataset_accuracy

    assert dataset_accuracy(np.zeros(2), Dataset(feats, labels)) == 0.5


def test_csv_column_order_is_stable():
    assert CSV_COLUMNS == (
        "round",
        "logical_time",
        "train_loss",
        "val_loss",
        "train_accuracy",
        "val_accuracy",
        "grad_norm",
        "disagreement_x",
        "processed_examples",
        "comm_coordinates",
        "comm_bits",
    )


def test_eval_every_still_measures_final_round():
    blobs = synthetic_blobs(dim=6, n_examples=40, separation=1.5, seed=3)
    oracle = make_logistic_oracle(blobs, n_workers=2, batch_size=4, seed=1)
    plan = build_plan((1, 1), 1, 0)
    recorder = RunRecorder(
        train=blobs, val=blobs, regularizer=RegularizerParams(), batch_size=4,
        n_workers=2, mask_size=6, value_bit_width=32, collect_per_worker=False,
    )
    records, _ = run_single(
        Method.FEDAVG_FULL, plan, 6, 0.1, 5, 1, oracle, recorder, np.zeros(6), eval_every=2
    )
    assert [r.round for r in records] == [0, 2, 4, 5]
    assert records[-1].processed_examples == 4 * 5 * sum(plan.pre_steps)
