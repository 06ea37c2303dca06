from collections import Counter

import pytest

import overlap_sgd.runner as runner_mod
from conftest import base_config_dict
from overlap_sgd.config import validate_config
from overlap_sgd.core import RngStream
from overlap_sgd.errors import DivergenceError
from overlap_sgd.runner import run_suite, theory_report
from overlap_sgd.timing import build_plan

METHODS = ["local_sparse", "overlap_overwrite", "overlap_delay_corrected"]


def make_config(tmp_path, name, **overrides):
    raw = base_config_dict(methods=METHODS, seeds=[1, 2], rounds=3, output_dir=str(tmp_path / name))
    raw.update(overrides)
    config, issues = validate_config(raw)
    assert not issues
    return config


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


def test_a_suite_diverged_in_round_0_draws_one_mask_per_seed(tmp_path, drawn_keys):
    result = run_suite(make_config(tmp_path, "diverged", stepsize=1e150))
    assert {r.status for r in result.runs} == {"diverged:round=0"}
    masks = Counter(k for k in drawn_keys if k[1][0] == "mask")
    assert masks == {(seed, ("mask", 0)): 1 for seed in (1, 2)}


def test_each_method_writes_what_it_writes_alone(tmp_path):
    together = run_suite(make_config(tmp_path, "all", eval_per_worker=True))
    assert {r.status for r in together.runs} == {"ok"}
    for method in METHODS:
        run_suite(make_config(tmp_path, method, methods=[method], eval_per_worker=True))
        for seed in (1, 2):
            for suffix in (".csv", ".jsonl", "_workers.jsonl"):
                name = f"{method}_seed{seed}{suffix}"
                assert (tmp_path / "all" / name).read_bytes() == (tmp_path / method / name).read_bytes()


def test_a_diverged_method_stops_alone(tmp_path, monkeypatch):
    run_round = runner_mod.run_round

    def overwrite_diverges_in_round_1(start, method, plan, mask, stepsize, oracle, round_index):
        if method == "overlap_overwrite" and round_index == 1:
            raise DivergenceError("worker 0 diverged in round 1", round_index=1, worker=0)
        return run_round(start, method, plan, mask, stepsize, oracle, round_index)

    clean = run_suite(make_config(tmp_path, "clean"))
    monkeypatch.setattr(runner_mod, "run_round", overwrite_diverges_in_round_1)
    result = run_suite(make_config(tmp_path, "all"))
    for a, b in zip(result.runs, clean.runs):
        if a.method == "overlap_overwrite":
            assert (a.status, a.records) == ("diverged:round=1", b.records[:2])
        else:
            assert (a.status, a.records) == (b.status, b.records)


def test_theory_draws_leave_the_memo_within_one_round(tmp_path, monkeypatch):
    oracles = []
    estimate = runner_mod.estimate_gradient_stats

    def keeping_oracle(oracle, *args, **kwargs):
        oracles.append(oracle)
        return estimate(oracle, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "estimate_gradient_stats", keeping_oracle)
    config = make_config(tmp_path, "theory", theory={"estimate_draws": 2000})
    theory_report(config)
    (oracle,) = oracles
    plan = build_plan(config.step_times, config.compute_periods, config.comm_seconds)
    assert oracle.round_keys == sum(plan.total_steps) < 2000
    # 2000 keys, each drawn once; the cache keeps one round's worth of them
    info = oracle.batch_rows.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2000, oracle.round_keys)
