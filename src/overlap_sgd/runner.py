"""Suite orchestration: shared data artifacts, per-(method, seed) runs,
metric files, and the replayable manifest."""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, data_issues, rand_k_size
from .data import (
    Dataset,
    apply_normalization,
    compute_normalization,
    load_libsvm,
    partition_dirichlet,
    partition_shard,
    partition_shared,
    split_train_val,
    synthetic_blobs,
)
from .engine import round_mask, run_round
from .errors import ConfigurationError, DivergenceError
from .metrics import RunRecorder, atomic_write_bytes, write_metrics
from .objective import LogisticOracle, dataset_loss
from .theory import (
    BoundParams,
    ProblemConstants,
    estimate_gradient_stats,
    logistic_smoothness,
    max_stepsize,
    rate_bound,
    round_complexity,
    tune_bound_params,
)
from .timing import TimingPlan, build_plan

__all__ = ["run_suite", "resolve_dataset", "theory_report"]

logger = logging.getLogger(__name__)


def resolve_dataset(config: ExperimentConfig) -> Dataset:
    spec = config.dataset
    if spec.synthetic is not None:
        s = spec.synthetic
        return synthetic_blobs(s.dim, s.n_examples, s.separation, s.seed)
    return load_libsvm(spec.path, dimension=spec.dimension)


def _resolve(config: ExperimentConfig) -> tuple[Dataset, TimingPlan, int]:
    """(dataset, plan, mask_size) once every rule that needs the loaded data holds."""
    dataset = resolve_dataset(config)
    plan = build_plan(config.step_times, config.compute_periods, config.comm_seconds)
    issues = data_issues(config, plan, dataset.dim, dataset.n_examples)
    if issues:
        raise ConfigurationError("\n".join(str(issue) for issue in issues))
    return dataset, plan, rand_k_size(config.sparsity, dataset.dim)


def _sha256_arrays(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a)
    return h.hexdigest()


@dataclass(frozen=True)
class SeedArtifacts:
    """Everything a seed shares across methods, with fairness hashes."""

    train: Dataset
    val: Dataset
    pools: tuple[np.ndarray, ...]  # per-worker example indices into train
    x0: np.ndarray
    hashes: dict
    oracle: LogisticOracle  # keyed by (worker, round, step), so every method shares it


def _seed_split(dataset: Dataset, config: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset]:
    train, val = split_train_val(dataset, config.val_fraction, seed)
    if config.normalize:  # both splits by train's statistics, each in place
        mean, stdev = compute_normalization(train)
        train, val = (apply_normalization(part, mean, stdev) for part in (train, val))
    return train, val


def prepare_seed_artifacts(dataset: Dataset, config: ExperimentConfig, seed: int) -> SeedArtifacts:
    train, val = _seed_split(dataset, config, seed)
    spec = config.partition
    if spec.mode == "shared":
        pools = partition_shared(train.n_examples, config.n_workers)
    elif spec.mode == "shard":
        pools = partition_shard(train.n_examples, config.n_workers, seed)
    else:
        pools = partition_dirichlet(
            train,
            config.n_workers,
            spec.alpha,
            seed,
            min_examples=spec.min_examples,
        )
    x0 = np.zeros(train.dim)
    hashes = {
        "train": _sha256_arrays(train.features, train.labels),
        "val": _sha256_arrays(val.features, val.labels) if val.n_examples else "",
        "partition": _sha256_arrays(*pools),
        "init": _sha256_arrays(x0),
    }
    oracle = LogisticOracle(
        dataset=train,
        batch_size=config.batch_size,
        regularizer=config.regularizer,
        worker_pools=pools,
        root_seed=seed,
    )
    return SeedArtifacts(train=train, val=val, pools=pools, x0=x0, hashes=hashes, oracle=oracle)


def _run_methods(
    config: ExperimentConfig, plan: TimingPlan, mask_size: int, seed: int, artifacts: SeedArtifacts
) -> list[RunRecorder]:
    """Every method of ``config`` on one seed, round-major.

    Round ``r`` runs for every method still running before round ``r + 1``
    starts, with the round's mask drawn once and every method stepped in
    one ``run_round`` call, so each of the round's draws serves all of
    them.  A method that diverges, in round ``r`` or in the evaluation after
    it (or before round 0), stops alone as ``diverged:round=<r>``.  A
    partition that starves a worker skips every run.
    """
    runs = [
        RunRecorder(method, np.tile(artifacts.x0, (plan.n_workers, 1)), artifacts.train, artifacts.val, config)
        for method in config.methods
    ]
    empty = [w for w, pool in enumerate(artifacts.pools) if pool.size == 0]
    if empty:  # extreme partitions can starve a worker; record it and move on
        for run in runs:
            run.status = f"skipped:workers-without-examples={empty}"
    for r in range(config.rounds):
        live = [run for run in runs if run.status == "ok"]
        if not live:
            break
        mask = round_mask(seed, r, artifacts.x0.size, mask_size)
        _play_round(live, r, mask, config, plan, artifacts.oracle, seed)
    return runs


def _play_round(
    live: list[RunRecorder], r: int, mask, config: ExperimentConfig, plan: TimingPlan, oracle, seed: int
) -> None:
    """Round ``r`` of the live runs, which then measure it in their order; its
    outcomes are dropped on return, before the next round starts.

    If the round diverges, each run replays it alone: the starts are untouched
    and every draw is keyed, so each run gets the outcome, or meets the error,
    it gets alone."""

    def play(runs):
        return run_round({run.method: run.models for run in runs}, plan, mask, config.stepsize, oracle, r)

    try:
        outcomes = play(live)
    except DivergenceError:
        outcomes = {}
    due = (r + 1) % config.eval_every == 0 or r == config.rounds - 1
    for run in live:
        try:  # a non-finite model found by a step or by an evaluation stops the run
            if r == 0:
                run.measure_initial()
            outcome = (outcomes or play([run]))[run.method]
            if due:
                run.measure_round(outcome)
            else:
                run.advance(outcome)
        except DivergenceError as exc:
            logger.warning("%s seed %s: %s", run.method, seed, exc)
            run.status = f"diverged:round={r}"


def run_suite(config: ExperimentConfig) -> Path:
    """Run every (method, seed) pair under identical data artifacts; returns
    the path of the manifest, which names every run's files and status.

    Each seed runs its methods round-major (see ``_run_methods``), so every
    keyed minibatch and mask is drawn once per seed however many methods
    use it.  Writes one CSV + JSONL per pair, in the order of ``methods``
    within each seed, plus a manifest that can be fed back to ``run`` to
    reproduce the outputs byte for byte.  ``output_dir`` is created only
    once the first seed's data artifacts exist.
    """
    dataset, plan, mask_size = _resolve(config)
    out_dir = Path(config.output_dir)
    dim, n_examples = dataset.dim, dataset.n_examples

    runs: list[dict] = []
    artifact_hashes: dict[str, dict] = {}
    for i, seed in enumerate(config.seeds):
        artifacts = prepare_seed_artifacts(dataset, config, seed)
        if i == len(config.seeds) - 1:
            del dataset  # every split is taken
        out_dir.mkdir(parents=True, exist_ok=True)
        artifact_hashes[str(seed)] = artifacts.hashes
        for run in _run_methods(config, plan, mask_size, seed, artifacts):
            stem = f"{run.method}_seed{seed}"
            csv, jsonl = f"{stem}.csv", f"{stem}.jsonl"
            write_metrics(run.records, out_dir / csv, out_dir / jsonl)
            if config.eval_per_worker and not run.status.startswith("skipped"):
                payload = "".join(json.dumps(row) + "\n" for row in run.worker_rows)
                atomic_write_bytes(out_dir / f"{stem}_workers.jsonl", payload.encode("utf-8"))
            runs.append({"method": run.method, "seed": seed, "csv": csv, "jsonl": jsonl, "status": run.status})
            logger.info("finished %s seed %s (%s)", run.method, seed, run.status)
        del artifacts, run  # this seed's data goes before the next split is taken

    manifest = {
        "config": config.to_dict(),
        "derived": {
            "dim": dim,
            "n_examples": n_examples,
            "mask_size": mask_size,
            "base_period": plan.base_period,
            "pre_steps": list(plan.pre_steps),
            "overlap_steps": list(plan.overlap_steps),
            "total_steps": list(plan.total_steps),
            "round_seconds": plan.round_seconds,
        },
        "artifacts": artifact_hashes,
        "runs": runs,
    }
    manifest_path = out_dir / "manifest.json"
    atomic_write_bytes(
        manifest_path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
    return manifest_path


def theory_report(config: ExperimentConfig) -> dict:
    """Constants, bound terms, and complexities for a config, as one mapping.

    L is the closed-form logistic bound; the noise and second-moment
    constants are Monte Carlo estimates at the zero initial model over the
    first seed's training split, and are labeled as such.
    """
    dataset, plan, mask_size = _resolve(config)
    train, _ = _seed_split(dataset, config, config.seeds[0])
    reg = config.regularizer
    x0 = np.zeros(train.dim)
    smooth = logistic_smoothness(train, reg)
    # each draw is compared with the full training gradient, so it samples the whole training split
    whole = LogisticOracle(train, config.batch_size, reg, partition_shared(train.n_examples, 1), config.seeds[0])
    noise_var, grad_bound = estimate_gradient_stats(whole, x0, n_draws=config.theory.estimate_draws)
    consts = ProblemConstants(
        smoothness=smooth,
        noise_var=noise_var,
        grad_bound=grad_bound,
        # f(x0) - 0 bounds the gap, as the logistic loss and the penalty are non-negative
        initial_gap=dataset_loss(train.features @ x0, train) + reg.value(x0),
    )

    if config.theory.alpha is not None:  # validate_config requires both or neither
        bp = BoundParams(alpha=config.theory.alpha, beta=config.theory.beta, k=mask_size, d=dataset.dim)
    else:
        bp = tune_bound_params(mask_size, dataset.dim, plan)

    derived = {f.name: getattr(plan, f.name) for f in fields(plan) if not f.init}
    report: dict = {
        "constants": {
            **asdict(consts),
            "note": "smoothness is a closed-form upper bound; the rest are Monte Carlo estimates at x0",
        },
        # the plan's derived aggregates: the Fractions print as floats, the integers as ints
        "timing": {
            **{k: v if isinstance(v, int) else float(v) for k, v in derived.items()},
            "round_seconds": plan.round_seconds,
        },
        "bound_params": {
            **asdict(bp),
            "contraction": bp.contraction,
            "pre_weight": bp.pre_weight,
            "overlap_weight": bp.overlap_weight,
        },
        "max_stepsize": max_stepsize(consts, plan),
    }
    try:
        rb = rate_bound(consts, plan, bp, config.stepsize, config.n_workers, config.rounds)
        report["rate_bound"] = {"stepsize": config.stepsize, "rounds": config.rounds, **asdict(rb)}
    except ConfigurationError as exc:
        report["rate_bound"] = {"stepsize": config.stepsize, "violation": str(exc)}
    rounds_needed = round_complexity(
        consts, plan, bp, config.theory.epsilon, config.n_workers, c_round=config.theory.c_round
    )
    report["complexity"] = {
        "epsilon": config.theory.epsilon,
        "c_round": config.theory.c_round,
        "rounds": rounds_needed,
        "seconds": rounds_needed * plan.round_seconds,
    }
    return report
