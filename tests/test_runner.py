import json
import logging
from collections import Counter

import numpy as np
import pytest

import overlap_sgd.runner as runner_mod
from conftest import base_config_dict, make_quadratic_oracle, manifest_runs, one_round
from overlap_sgd.config import validate_config
from overlap_sgd.core import RngStream
from overlap_sgd.data import synthetic_blobs
from overlap_sgd.engine import round_mask
from overlap_sgd.errors import DivergenceError
from overlap_sgd.metrics import RunRecorder, render_csv
from overlap_sgd.runner import prepare_seed_artifacts, resolve_dataset, run_suite, theory_report
from overlap_sgd.timing import build_plan

METHODS = ["local_sparse", "overlap_overwrite", "overlap_delay_corrected"]


def make_config(tmp_path, name, **overrides):
    raw = base_config_dict(methods=METHODS, seeds=[1, 2], rounds=3, output_dir=str(tmp_path / name))
    raw.update(overrides)
    config, issues = validate_config(raw)
    assert not issues
    return config


@pytest.mark.parametrize("val_fraction", [0.0, 0.1])
def test_seed_artifacts_leave_the_shared_dataset_unchanged(tmp_path, val_fraction):
    # one resolved dataset serves every seed, so standardizing a split must not write through to it
    config = make_config(tmp_path, "shared", val_fraction=val_fraction)
    dataset = resolve_dataset(config)
    features, labels = dataset.features.copy(), dataset.labels.copy()
    for seed in config.seeds:
        artifacts = prepare_seed_artifacts(dataset, config, seed)
        assert artifacts.train.features.mean(axis=0) == pytest.approx(0.0, abs=1e-9)
        assert (dataset.features.tobytes(), dataset.labels.tobytes()) == (features.tobytes(), labels.tobytes())


@pytest.fixture
def drawn_keys(monkeypatch):
    """Every (root_seed, key) a stream is opened for while the test runs."""
    keys = []
    generator = RngStream.generator

    def counting(stream):
        keys.append((stream.root_seed, stream.key))
        return generator(stream)

    monkeypatch.setattr(RngStream, "generator", counting)
    return keys


def test_suite_draws_each_minibatch_and_mask_once(tmp_path, drawn_keys):
    config = make_config(tmp_path, "all")
    run_suite(config)
    plan = build_plan(config.step_times, config.compute_periods, config.comm_seconds)
    rounds = range(config.rounds)
    samples = Counter(k for k in drawn_keys if k[1][0] == "sample")
    masks = Counter(k for k in drawn_keys if k[1][0] == "mask")
    # the overlap methods take every step of the plan; local_sparse takes a prefix of them
    assert samples == {
        (seed, ("sample", w, r, t)): 1
        for seed in config.seeds
        for r in rounds
        for w, steps in enumerate(plan.total_steps)
        for t in range(steps)
    }
    assert masks == {(seed, ("mask", r)): 1 for seed in config.seeds for r in rounds}
    assert sum(samples.values()) == len(config.seeds) * config.rounds * sum(plan.total_steps)


def test_a_suite_diverged_in_round_0_draws_one_mask_per_seed(tmp_path, drawn_keys):
    runs = manifest_runs(run_suite(make_config(tmp_path, "diverged", stepsize=1e150)))
    assert {r.status for r in runs} == {"diverged:round=0"}
    masks = Counter(k for k in drawn_keys if k[1][0] == "mask")
    assert masks == {(seed, ("mask", 0)): 1 for seed in (1, 2)}


FULL_MASK = {"sparsity": 1.0, "methods": ["fedavg_full", *METHODS]}


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        # blocking and overlap methods in one round: two of the four step on after the pre-communication steps
        FULL_MASK,
        # every method, sync_sgd too, on an equal-step plan with no communication window
        {**FULL_MASK, "methods": ["sync_sgd", *FULL_MASK["methods"]], "step_times": [1, 1], "comm_seconds": 0},
    ],
    ids=["sparse", "full-mask", "every-method"],
)
def test_each_method_writes_what_it_writes_alone(tmp_path, overrides):
    together = manifest_runs(run_suite(make_config(tmp_path, "all", eval_per_worker=True, **overrides)))
    assert {r.status for r in together} == {"ok"}
    for method in overrides.get("methods", METHODS):
        run_suite(make_config(tmp_path, method, eval_per_worker=True, **{**overrides, "methods": [method]}))
        for seed in (1, 2):
            for suffix in (".csv", ".jsonl", "_workers.jsonl"):
                name = f"{method}_seed{seed}{suffix}"
                assert (tmp_path / "all" / name).read_bytes() == (tmp_path / method / name).read_bytes()


def test_a_diverged_method_stops_alone(tmp_path, monkeypatch):
    run_round = runner_mod.run_round

    def overwrite_diverges_in_round_1(starts, plan, mask, stepsize, oracle, round_index):
        if "overlap_overwrite" in starts and round_index == 1:
            raise DivergenceError("worker 0 diverged in round 1", round_index=1, worker=0)
        return run_round(starts, plan, mask, stepsize, oracle, round_index)

    clean = manifest_runs(run_suite(make_config(tmp_path, "clean")))
    monkeypatch.setattr(runner_mod, "run_round", overwrite_diverges_in_round_1)
    runs = manifest_runs(run_suite(make_config(tmp_path, "all")))
    for a, b in zip(runs, clean):
        if a.method == "overlap_overwrite":
            assert (a.status, a.records) == ("diverged:round=1", b.records[:2])
        else:
            assert (a.status, a.records) == (b.status, b.records)


@pytest.mark.parametrize("diverging", ["overlap_overwrite", "overlap_delay_corrected"])
def test_a_run_that_diverges_in_its_overlap_steps_stops_alone(tmp_path, caplog, diverging):
    # each step multiplies a model by -99: worker 1's row at 1e96 stays in range through its two
    # pre-communication steps (9.8e99), so local_sparse runs on, and leaves it on its one overlap step
    oracle = make_quadratic_oracle(dim=3, curvature=1e3)
    plan, mask = build_plan((1, 1), 2, 1), round_mask(0, 3, 3, 2)
    config = make_config(tmp_path, "unused", stepsize=0.1, rounds=10, eval_every=5)  # round 3 is not evaluated
    big = np.array([[1.0, 1.0, 1.0], [1.0, 1e96, 1.0]])
    data = synthetic_blobs(3, 10, 1.0, 0)
    starts = {m: big if m in ("local_sparse", diverging) else np.ones((2, 3)) for m in METHODS}
    live = [RunRecorder(m, start, data, data, config) for m, start in starts.items()]
    alone = {m: one_round(start, m, plan, mask, 0.1, oracle, 3) for m, start in starts.items() if m != diverging}
    caplog.set_level(logging.WARNING, logger="overlap_sgd.runner")
    runner_mod._play_round(live, 3, mask, config, plan, oracle, 0)
    assert [run.status for run in live] == ["diverged:round=3" if run.method == diverging else "ok" for run in live]
    assert caplog.messages == [f"{diverging} seed 0: worker 1 diverged in round 3"]
    for run in live:
        if run.method != diverging:
            assert run.models.tobytes() == alone[run.method].next_models.tobytes()


def test_the_per_worker_sidecar_follows_each_run_status(tmp_path, monkeypatch):
    run_round = runner_mod.run_round

    def overwrite_diverges_in_round_1(starts, plan, mask, stepsize, oracle, round_index):
        if "overlap_overwrite" in starts and round_index == 1:
            raise DivergenceError("worker 0 diverged in round 1", round_index=1, worker=0)
        return run_round(starts, plan, mask, stepsize, oracle, round_index)

    monkeypatch.setattr(runner_mod, "run_round", overwrite_diverges_in_round_1)
    # 3 examples over 4 workers: some pool is empty by pigeonhole, so every seed is skipped
    starved = {
        "dataset": {"synthetic": {"dim": 4, "n_examples": 3, "separation": 1.0, "seed": 0}},
        "val_fraction": 0.0,
        "partition": {"mode": "dirichlet", "alpha": 1.0},
        "step_times": [1, 1, 1, 1],
        "comm_seconds": 0,
        "batch_size": 2,
    }
    skipped = "skipped:workers-without-examples="
    # (overrides, statuses and record counts of seed 1's then seed 2's runs)
    suites = {
        "ok": ({}, ["ok", "diverged:round=1", "ok"] * 2, [4, 2, 4] * 2),
        "no-rounds": ({"rounds": 0}, ["ok"] * 6, [0] * 6),
        "starved": (starved, [skipped + "[2]"] * 3 + [skipped + "[0, 3]"] * 3, [0] * 6),
    }
    for name, (overrides, statuses, n_records) in suites.items():
        config = make_config(tmp_path, name, eval_per_worker=True, **overrides)
        runs = manifest_runs(run_suite(config))
        assert ([r.status for r in runs], [len(r.records) for r in runs]) == (statuses, n_records), name
        for run in runs:
            sidecar = run.csv.with_name(f"{run.method}_seed{run.seed}_workers.jsonl")
            if run.status.startswith("skipped"):
                # a header-only CSV, an empty JSONL and no sidecar
                assert run.csv.read_text(encoding="utf-8") == render_csv([])
                assert run.jsonl.read_text(encoding="utf-8") == ""
                assert not sidecar.exists()
                continue
            rows = [json.loads(line) for line in sidecar.read_text(encoding="utf-8").splitlines()]
            # one row per worker per record, for an ok run and for a diverged one up to its last record
            expected = [(rec.round, w) for rec in run.records for w in range(len(config.step_times))]
            assert [(row["round"], row["worker"]) for row in rows] == expected
            assert all(list(row) == ["round", "worker", "train_loss", "train_accuracy"] for row in rows)


def test_theory_opens_each_estimate_draw_once(tmp_path, drawn_keys):
    config = make_config(tmp_path, "theory", theory={"estimate_draws": 300})
    theory_report(config)
    samples = Counter(k for k in drawn_keys if k[1][0] == "sample")
    # estimate_gradient_stats draws at worker 0 in the reserved round -1, one key per draw
    assert samples == {(config.seeds[0], ("sample", 0, -1, s)): 1 for s in range(300)}
