"""A straight-line reference of the whole suite, against ``run_suite``'s bytes.

The reference plays the algorithm as plainly as it can be written: seed by
seed, method by method, round by round and worker by worker, with one
``(d,)`` model per worker and one ``oracle.gradient`` call per step.  It
derives its own step counts, counters, evaluation schedule and statuses, and
uses only public building blocks: the keyed ``("mask", r)`` stream and
``sample_rand_k``, the seed's oracle, ``average``, ``project_mask``, both
merges, ``DIVERGENCE_LIMIT`` and the three separate evaluation functions.
Each seed's data comes from ``prepare_seed_artifacts``.  The property
requires every CSV, JSONL and ``_workers.jsonl`` byte, and the manifest's
``(method, seed, status)`` list, to equal the reference's on tiny configs.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlap_sgd.config import validate_config
from overlap_sgd.core import RngStream, average, project_mask, sample_rand_k
from overlap_sgd.data import synthetic_blobs
from overlap_sgd.engine import DIVERGENCE_LIMIT, merge_delay_corrected, merge_overwrite
from overlap_sgd.errors import ConfigurationError, DatasetError, DivergenceError
from overlap_sgd.objective import dataset_accuracy, dataset_loss, full_gradient
from overlap_sgd.runner import prepare_seed_artifacts, run_suite, theory_report

COLUMNS = (
    "round", "logical_time", "train_loss", "val_loss", "train_accuracy", "val_accuracy",
    "grad_norm", "disagreement_x", "processed_examples", "comm_coordinates", "comm_bits",
)
OVERLAP = ("overlap_overwrite", "overlap_delay_corrected")
SPARSE = ("local_sparse", *OVERLAP)


def reference_record(models, art, config, counters, worker_rows) -> dict:
    """The record of the state ``counters`` = (completed rounds, logical time, examples, coordinates)
    describes; appends the per-worker rows under ``eval_per_worker``."""
    completed, time, examples, coordinates = counters
    train, reg = art.train, config.regularizer
    mean = average(models)
    scores = train.features @ mean
    grad = full_gradient(mean, scores, train, reg)
    with np.errstate(over="ignore"):
        grad_norm = float(np.linalg.norm(grad))
    if not math.isfinite(grad_norm):
        raise DivergenceError("full gradient norm overflows")
    if config.eval_per_worker:
        for worker, model in enumerate(models):
            s = train.features @ model
            loss, accuracy = dataset_loss(s, train) + reg.value(model), dataset_accuracy(s, train)
            worker_rows.append({"round": completed, "worker": worker, "train_loss": loss, "train_accuracy": accuracy})
    val_loss = val_accuracy = math.nan
    if art.val.n_examples:
        s = art.val.features @ mean
        val_loss, val_accuracy = dataset_loss(s, art.val), dataset_accuracy(s, art.val)
    values = (
        completed, time, dataset_loss(scores, train) + reg.value(mean), val_loss,
        dataset_accuracy(scores, train), val_accuracy, grad_norm,
        float(sum(np.sum((model - mean) ** 2) for model in models)),
        examples, coordinates, coordinates * config.value_bit_width,
    )
    return dict(zip(COLUMNS, values))


def reference_step(w, oracle, stepsize, worker, r, t):
    """One SGD step, as a new model; DivergenceError once a coordinate leaves the range."""
    with np.errstate(over="ignore"):
        w = w - stepsize * oracle.gradient(w, worker, r, t)
    if not np.abs(w).max() <= DIVERGENCE_LIMIT:
        raise DivergenceError(f"worker {worker} diverged in round {r}")
    return w


def reference_run(method, seed, art, config):
    """(status, records, worker rows) of one (method, seed) run."""
    taus, d = config.step_times, art.x0.size
    k = round(config.sparsity * d)  # the configs below give the sparsity as k / d
    base = math.lcm(*taus)
    pre = [config.compute_periods * base // tau for tau in taus]
    steps = [p + config.comm_seconds // tau for p, tau in zip(pre, taus)] if method in OVERLAP else pre
    empty = [w for w, pool in enumerate(art.pools) if pool.size == 0]
    if empty:
        return f"skipped:workers-without-examples={empty}", [], []
    models = [art.x0.copy() for _ in taus]
    records, worker_rows, counters = [], [], (0, 0, 0, 0)
    for r in range(config.rounds):
        try:
            if r == 0:
                records.append(reference_record(models, art, config, counters, worker_rows))
            mask = sample_rand_k(d, k, RngStream(seed, ("mask", r)).generator())
            sent, latest = [], []
            for i, w in enumerate(models):
                for t in range(pre[i]):
                    w = reference_step(w, art.oracle, config.stepsize, i, r, t)
                sent.append(w)
                for t in range(pre[i], steps[i]):  # the overlap steps, while the message is in flight
                    w = reference_step(w, art.oracle, config.stepsize, i, r, t)
                latest.append(w)
            sent_avg = average(sent)
            for i in range(len(models)):
                if method == "overlap_delay_corrected":
                    models[i] = merge_delay_corrected(latest[i], sent[i], sent_avg, mask)
                else:
                    models[i] = merge_overwrite(latest[i], project_mask(sent_avg, mask), mask)
            completed, time, examples, coordinates = counters
            counters = (
                r + 1, time + config.compute_periods * base + config.comm_seconds,
                examples + config.batch_size * sum(steps), coordinates + 2 * len(taus) * k,
            )
            if (r + 1) % config.eval_every == 0 or r + 1 == config.rounds:
                records.append(reference_record(models, art, config, counters, worker_rows))
        except DivergenceError:
            return f"diverged:round={r}", records, worker_rows
    return "ok", records, worker_rows


def jsonl(rows) -> bytes:
    return "".join(json.dumps(row) + "\n" for row in rows).encode()


def reference_suite(config) -> tuple[dict, list]:
    """({file name: bytes}, [(method, seed, status)]) of the suite ``config`` describes."""
    spec = config.dataset.synthetic
    dataset = synthetic_blobs(spec.dim, spec.n_examples, spec.separation, spec.seed)
    files, runs = {}, []
    for seed in config.seeds:
        art = prepare_seed_artifacts(dataset, config, seed)
        for method in config.methods:
            status, records, worker_rows = reference_run(method, seed, art, config)
            stem = f"{method}_seed{seed}"
            lines = [",".join(COLUMNS)] + [",".join(repr(record[c]) for c in COLUMNS) for record in records]
            files[f"{stem}.csv"] = ("\n".join(lines) + "\n").encode()
            files[f"{stem}.jsonl"] = jsonl(records)
            if config.eval_per_worker and not status.startswith("skipped"):
                files[f"{stem}_workers.jsonl"] = jsonl(worker_rows)
            runs.append((method, seed, status))
    return files, runs


@st.composite
def tiny_configs(draw) -> dict:
    """A valid raw config: d <= 12, at most 4 workers, 4 rounds and 2 seeds."""
    d, n_examples = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    if draw(st.integers(0, 3)):
        taus = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        periods, comm = draw(st.integers(1, 2)), math.lcm(*taus) * draw(st.integers(0, 2))
        k = draw(st.integers(1, d))
    else:  # a shape every method allows
        taus, periods, comm, k = [draw(st.integers(1, 3))] * draw(st.integers(1, 4)), 1, 0, d
    allowed = list(SPARSE)
    if k == d:
        allowed.append("fedavg_full")
        if len(set(taus)) == 1 and periods == 1 and comm == 0:
            allowed.append("sync_sgd")
    val_fraction = draw(st.sampled_from([0.0, 0.1, 0.3]))
    partition = {"mode": draw(st.sampled_from(["shared", "shard", "dirichlet"]))}
    if partition["mode"] == "dirichlet":
        partition["alpha"] = draw(st.sampled_from([0.05, 0.5, 5.0]))
        n_train = n_examples - int(n_examples * val_fraction + 1e-9)
        if partition["alpha"] >= 0.5 and n_train >= 3 * len(taus):
            partition["min_examples"] = draw(st.integers(0, 1))
    return {
        "dataset": {"synthetic": {
            "dim": d, "n_examples": n_examples, "seed": draw(st.integers(0, 99)),
            "separation": draw(st.sampled_from([0.5, 2.0, 10.0])),
        }},
        "normalize": draw(st.booleans()),
        "val_fraction": val_fraction,
        "partition": partition,
        "step_times": taus,
        "compute_periods": periods,
        "comm_seconds": comm,
        "methods": draw(st.lists(st.sampled_from(allowed), min_size=1, unique=True)),
        "stepsize": draw(st.sampled_from([0.05, 1.0, 1e99, 1e101, 1e308])),
        "batch_size": draw(st.integers(1, 8)),
        "sparsity": k / d,
        "rounds": draw(st.sampled_from([1, 2, 3, 4, 0])),
        "seeds": draw(st.lists(st.integers(0, 99), min_size=1, max_size=2, unique=True)),
        "regularizer": draw(st.sampled_from([{}, {"strength": 0.05, "scale": 1.0}, {"strength": 0.5, "scale": 0.1}])),
        "value_bit_width": draw(st.integers(1, 64)),
        "eval_every": draw(st.integers(1, 3)),
        "eval_per_worker": draw(st.booleans()),
    }


@settings(max_examples=100, deadline=None)
@given(raw=tiny_configs())
def test_run_suite_writes_the_straight_line_reference_bytes(raw):
    with tempfile.TemporaryDirectory() as out:
        config, issues = validate_config({"name": "reference", **raw, "output_dir": out})
        assert not issues
        manifest = json.loads(run_suite(config).read_text(encoding="utf-8"))
        written = {p.name: p.read_bytes() for p in Path(out).iterdir() if p.name != "manifest.json"}
    files, runs = reference_suite(config)
    assert [(run["method"], run["seed"], run["status"]) for run in manifest["runs"]] == runs
    assert written.keys() == files.keys()
    for name, data in files.items():
        assert written[name] == data, name


@st.composite
def extreme_configs(draw) -> dict:
    """``tiny_configs`` widened with extreme values, some of which ``validate_config`` rejects."""
    raw = draw(tiny_configs())
    raw["dataset"]["synthetic"]["separation"] = draw(st.sampled_from([2.0, 1e100, 1e154, 1e200, 1e308]))
    raw["normalize"] = draw(st.booleans())
    raw["val_fraction"] = draw(st.sampled_from([0.0, 0.3, 0.9, 0.99]))
    raw["stepsize"] = draw(st.sampled_from([0.05, 1e99, 1e200, 1e308]))
    if raw["partition"]["mode"] == "dirichlet":
        raw["partition"]["min_examples"] = draw(st.integers(0, 12))
    raw["theory"] = {"epsilon": draw(st.sampled_from([0.01, 1e-300, 1e300])), "estimate_draws": 20}
    if draw(st.booleans()):  # pinned: the first pair gives a contraction below 1 at any mask, the others may not
        raw["theory"]["alpha"], raw["theory"]["beta"] = draw(st.sampled_from([(1e-9, 1e-9), (0.3, 0.3), (5.0, 1e-3)]))
    return raw


# the one training row standardizes to zeros, so L = 0 and the stepsize's square overflows in the rate bound
FLAT_LOSS = {
    "dataset": {"synthetic": {"dim": 1, "n_examples": 7, "separation": 5.0, "seed": 2}},
    "step_times": [3], "comm_seconds": 6, "methods": ["fedavg_full"], "val_fraction": 0.9, "sparsity": 0.01,
    "batch_size": 4, "rounds": 3, "seeds": [1], "stepsize": 1.0e308,
}
# epsilon**1.5 is past float range in the round complexity
HUGE_EPSILON = {**FLAT_LOSS, "val_fraction": 0.1, "stepsize": 0.1, "theory": {"epsilon": 1.0e300}}
# the initial full gradient's backward product overflows
HUGE_FEATURES = {
    "dataset": {"synthetic": {"dim": 3, "n_examples": 17, "separation": 1.0e308, "seed": 2}},
    "step_times": [1], "comm_seconds": 2, "methods": ["overlap_delay_corrected"], "val_fraction": 0.5,
    "normalize": False, "batch_size": 1, "sparsity": 1.0, "rounds": 2, "seeds": [2], "eval_every": 2,
}

# gap * L * noise_var overflows in the round complexity, whose count is finite
HUGE_NOISE_TERM = {
    "dataset": {"synthetic": {"dim": 2, "n_examples": 20, "separation": 1.0e100, "seed": 1}},
    "normalize": False, "step_times": [1, 2], "comm_seconds": 2, "methods": ["overlap_delay_corrected"],
    "sparsity": 0.5, "rounds": 2, "seeds": [0], "theory": {"epsilon": 1.0e300},
}
# the sum of the squared gradient norms overflows in the estimate, whose mean is finite
HUGE_GRADIENT_SUM = {
    **HUGE_NOISE_TERM, "dataset": {"synthetic": {"dim": 2, "n_examples": 20, "separation": 1.0e154, "seed": 1}},
}


@settings(max_examples=150, deadline=None)
@given(raw=extreme_configs())
@example(raw=FLAT_LOSS)
@example(raw=HUGE_EPSILON)
@example(raw=HUGE_FEATURES)
@example(raw=HUGE_NOISE_TERM)
@example(raw=HUGE_GRADIENT_SUM)
def test_an_accepted_config_ends_in_a_one_line_error_or_none(raw):
    # the CLI prints each of these errors as one line; any other exception is a traceback, and the suite
    # turns a warning into an error
    with tempfile.TemporaryDirectory() as out:
        config, issues = validate_config({"name": "extreme", **raw, "output_dir": out})
        if issues:
            return
        for action in (run_suite, theory_report):
            try:
                result = action(config)
            except (ConfigurationError, DatasetError, DivergenceError):
                continue
            if action is theory_report:
                assert "NaN" not in json.dumps(result)
