"""Tests for the benchmark's own code: span arithmetic, the output check,
metric names, and that tracing leaves the outputs untouched.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import re
import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
from spans import PER_LAYER_UNITS, ROOT_SPAN, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import (  # noqa: E402
    W1_CONFIG,
    check_suite,
    expectation,
    record_problems,
    workload_config,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny_config() -> dict:
    raw = workload_config("w1_overlap_comparison")
    raw["dataset"]["synthetic"].update(dim=10, n_examples=200)
    raw["seeds"] = [3]
    raw["rounds"] = 2
    return raw


def test_self_times_subtract_nested_children():
    spans = [
        Span(ROOT_SPAN, -1, 0.0, 10.0),
        Span("engine.run_round", 0, 1.0, 4.0),
        Span("objective.gradient", 1, 2.0, 3.0),
        Span("metrics.evaluate", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    m = layer_metrics(spans)
    assert m["runner.self_s"] == 3.0
    assert m["engine.run_round.self_s"] == 2.0
    assert m["objective.gradient.self_s"] == 1.0
    assert m["metrics.evaluate_s"] == 4.0 and m["metrics.evaluate_calls"] == 1


def test_overlapping_children_are_counted_once_and_break_the_wall_sum():
    spans = [Span(ROOT_SPAN, -1, 0.0, 10.0), Span("data.split", 0, 1.0, 4.0), Span("data.split", 0, 3.0, 6.0)]
    assert self_times(spans)[0] == 5.0
    with pytest.raises(ValueError, match="sum to"):
        layer_metrics(spans)


def test_tracer_records_parents_and_restores_targets():
    class Owner:
        @staticmethod
        def inner():
            return 1

    def outer():
        return Owner.inner() + Owner.inner()

    tracer = Tracer()
    original = vars(Owner)["inner"]
    with tracer.installed([(Owner, "inner", "inner")]):
        assert tracer.wrap("outer", outer)() == 2
    assert vars(Owner)["inner"] is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_w1_is_the_headline_config_at_the_default_seed():
    raw = workload_config("w1_overlap_comparison")
    as_is = yaml.safe_load(W1_CONFIG.read_text(encoding="utf-8"))
    assert raw == as_is | {"output_dir": "out"}
    assert expectation(raw).local_steps() == 13200
    other = workload_config("w1_overlap_comparison", seed=1)
    assert other["seeds"] != raw["seeds"] and other["dataset"] != raw["dataset"]


@pytest.mark.parametrize("field", ["round", "logical_time", "comm_bits", "processed_examples"])
def test_record_check_rejects_each_corrupted_identity(field):
    exp = expectation(tiny_config())
    row = {
        "round": 2,
        "logical_time": 2 * exp.round_seconds,
        "comm_bits": 2 * exp.n_workers * exp.mask_size * exp.value_bit_width * 2,
        "processed_examples": exp.batch_size * exp.steps_per_round["overlap_overwrite"] * 2,
    }
    assert record_problems(row, 2, "overlap_overwrite", exp) == []
    row[field] += 1
    assert record_problems(row, 2, "overlap_overwrite", exp)


def run_tiny(tmp_path, monkeypatch, tracer=None):
    monkeypatch.setattr(bench, "SUITE_DIRS", tmp_path)
    raw = tiny_config()
    tally = bench.Tally()
    result = bench.run_suite_checked(bench.to_config(raw), expectation(raw), None, tally, tracer)
    assert result is not None
    return tally


def test_tracing_does_not_change_the_outputs(tmp_path, monkeypatch):
    plain = run_tiny(tmp_path, monkeypatch)
    tracer = Tracer()
    with tracer.installed():
        traced = run_tiny(tmp_path, monkeypatch, tracer)
    assert plain.failed == traced.failed == 0 and plain.attempted == 3
    assert len(plain.digests) == 1 and plain.digests == traced.digests
    m = layer_metrics(tracer.spans)
    assert m["objective.gradient_calls"] == expectation(tiny_config()).local_steps()
    assert m["metrics.evaluate_calls"] == 3 * 3
    assert not list(tmp_path.iterdir())


def test_suite_check_counts_a_corrupted_file_and_a_bad_status(tmp_path):
    raw = tiny_config()
    raw["output_dir"] = str(tmp_path)
    bench.run_suite(bench.to_config(raw))
    exp = expectation(raw)
    assert check_suite(tmp_path, exp, None).failed == 0
    digest = check_suite(tmp_path, exp, None).digest
    assert check_suite(tmp_path, exp, "0" * 64).failed == 3

    # the same corruption in both files, so the identity check is what catches it
    t = exp.round_seconds
    edits = {".csv": (f"\n1,{t},", f"\n1,{t + 1},"), ".jsonl": (f'"logical_time": {t},', f'"logical_time": {t + 1},')}
    for suffix, (old, new) in edits.items():
        path = tmp_path / f"local_sparse_seed3{suffix}"
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
    check = check_suite(tmp_path, exp, None)
    assert check.failed == 1 and check.digest != digest
    assert any("logical_time" in p for p in check.problems)

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["runs"][1]["status"] = "diverged:round=1"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert check_suite(tmp_path, exp, None).failed == 2


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.END_TO_END_UNITS
    assert layers == PER_LAYER_UNITS
    names = [w["name"] for w in spec["workloads"]] + list(e2e) + list(layers)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


def test_a_run_starts_no_iteration_that_would_end_past_its_seconds(monkeypatch):
    monkeypatch.setattr(bench, "perf_counter", lambda: 50.0)
    assert bench.room_for_another(0.0, 60.0, 0)
    assert bench.room_for_another(0.0, 60.0, 5)  # mean 10 s, ends at 60 s
    assert not bench.room_for_another(0.0, 60.0, 4)  # mean 12.5 s, would end at 62.5 s
