"""Suite orchestration: shared data artifacts, per-(method, seed) runs,
metric files, and the replayable manifest."""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, rand_k_size
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
from .engine import Method, run_round, validate_method_plan
from .errors import DatasetError, DivergenceError, ParseError
from .metrics import MetricsRecord, RunRecorder, atomic_write_bytes, write_metrics
from .objective import LogisticOracle
from .theory import (
    BoundParams,
    ProblemConstants,
    estimate_gradient_stats,
    initial_gap_upper_bound,
    logistic_smoothness,
    max_stepsize,
    rate_bound,
    round_complexity,
    tune_bound_params,
)
from .timing import TimingPlan, aggregates, build_plan

__all__ = ["RunReport", "SuiteResult", "run_suite", "run_single", "resolve_dataset", "theory_report"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunReport:
    method: str
    seed: int
    csv_path: str
    jsonl_path: str
    status: str  # "ok", "diverged:round=<r>", or "skipped:<reason>"
    records: tuple[MetricsRecord, ...]


@dataclass(frozen=True)
class SuiteResult:
    manifest_path: str
    runs: tuple[RunReport, ...]

    @property
    def any_diverged(self) -> bool:
        return any(r.status.startswith("diverged") for r in self.runs)


def resolve_dataset(config: ExperimentConfig) -> Dataset:
    spec = config.dataset
    if spec.synthetic is not None:
        s = spec.synthetic
        return synthetic_blobs(s.dim, s.n_examples, s.separation, s.seed)
    try:
        return load_libsvm(spec.path, dimension=spec.dimension)
    except (FileNotFoundError, ParseError) as exc:
        raise DatasetError(f"could not load dataset {spec.path}: {exc}") from exc


def _sha256_arrays(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class SeedArtifacts:
    """Everything a seed shares across methods, with fairness hashes."""

    train: Dataset
    val: Dataset
    pools: tuple[np.ndarray, ...]  # per-worker example indices into train
    x0: np.ndarray
    hashes: dict


def prepare_seed_artifacts(dataset: Dataset, config: ExperimentConfig, seed: int) -> SeedArtifacts:
    train, val = split_train_val(dataset, config.val_fraction, seed)
    if config.normalize:
        stats = compute_normalization(train)
        train = apply_normalization(train, stats)
        val = apply_normalization(val, stats) if val.n_examples else val
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
    return SeedArtifacts(train=train, val=val, pools=pools, x0=x0, hashes=hashes)


def run_single(
    method: Method,
    plan: TimingPlan,
    mask_size: int,
    stepsize: float,
    rounds: int,
    root_seed: int,
    oracle,
    recorder: RunRecorder,
    x0: np.ndarray,
    eval_every: int,
) -> tuple[list[MetricsRecord], str]:
    """Drive one (method, seed) trajectory; returns (records, status)."""
    method = Method(method)
    if rounds == 0:
        return [], "ok"
    models = np.tile(x0, (plan.n_workers, 1))
    records = [recorder.measure_initial(models)]
    for r in range(rounds):
        try:
            outcome = run_round(models, method, plan, mask_size, stepsize, oracle, root_seed, r)
        except DivergenceError as exc:
            logger.warning("%s seed %s: %s", method.value, root_seed, exc)
            return records, f"diverged:round={r}"
        due = (r + 1) % eval_every == 0 or r == rounds - 1
        if due:
            records.append(recorder.measure_round(outcome))
        else:
            recorder.advance(outcome)
        models = outcome.next_models
    return records, "ok"


def run_suite(config: ExperimentConfig) -> SuiteResult:
    """Run every (method, seed) pair under identical data artifacts.

    Writes one CSV + JSONL per pair plus a manifest that can be fed back
    to ``run`` to reproduce the outputs byte for byte.
    """
    dataset = resolve_dataset(config)
    plan = build_plan(config.step_times, config.compute_periods, config.comm_seconds)
    mask_size = rand_k_size(config.sparsity, dataset.dim)
    for m in config.methods:
        validate_method_plan(Method(m), plan, mask_size, dataset.dim)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    reports: list[RunReport] = []
    artifact_hashes: dict[str, dict] = {}
    for seed in config.seeds:
        artifacts = prepare_seed_artifacts(dataset, config, seed)
        artifact_hashes[str(seed)] = artifacts.hashes
        empty_pools = [w for w, a in enumerate(artifacts.pools) if a.size == 0]
        for method in config.methods:
            if empty_pools:
                # extreme partitions can starve a worker; record it and move on
                records, status = [], f"skipped:workers-without-examples={empty_pools}"
            else:
                oracle = LogisticOracle(
                    dataset=artifacts.train,
                    batch_size=config.batch_size,
                    regularizer=config.regularizer,
                    worker_pools=artifacts.pools,
                    root_seed=seed,
                )
                recorder = RunRecorder(
                    train=artifacts.train,
                    val=artifacts.val,
                    regularizer=config.regularizer,
                    batch_size=config.batch_size,
                    n_workers=config.n_workers,
                    mask_size=mask_size,
                    value_bit_width=config.value_bit_width,
                    collect_per_worker=config.eval_per_worker,
                )
                records, status = run_single(
                    Method(method),
                    plan,
                    mask_size,
                    config.stepsize,
                    config.rounds,
                    seed,
                    oracle,
                    recorder,
                    artifacts.x0,
                    eval_every=config.eval_every,
                )
            stem = f"{method}_seed{seed}"
            csv_path = out_dir / f"{stem}.csv"
            jsonl_path = out_dir / f"{stem}.jsonl"
            write_metrics(records, csv_path, jsonl_path)
            if config.eval_per_worker and not empty_pools:
                payload = "".join(json.dumps(row) + "\n" for row in recorder.worker_rows)
                atomic_write_bytes(out_dir / f"{stem}_workers.jsonl", payload.encode("utf-8"))
            reports.append(
                RunReport(
                    method=method,
                    seed=seed,
                    csv_path=str(csv_path),
                    jsonl_path=str(jsonl_path),
                    status=status,
                    records=tuple(records),
                )
            )
            logger.info("finished %s seed %s (%s)", method, seed, status)

    manifest = {
        "config": config.to_dict(),
        "derived": {
            "dim": dataset.dim,
            "n_examples": dataset.n_examples,
            "mask_size": mask_size,
            "base_period": plan.base_period,
            "pre_steps": list(plan.pre_steps),
            "overlap_steps": list(plan.overlap_steps),
            "total_steps": list(plan.total_steps),
            "round_seconds": plan.round_seconds,
        },
        "artifacts": artifact_hashes,
        "runs": [
            {
                "method": r.method,
                "seed": r.seed,
                "csv": Path(r.csv_path).name,
                "jsonl": Path(r.jsonl_path).name,
                "status": r.status,
            }
            for r in reports
        ],
    }
    manifest_path = out_dir / "manifest.json"
    atomic_write_bytes(
        manifest_path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
    return SuiteResult(manifest_path=str(manifest_path), runs=tuple(reports))


def theory_report(config: ExperimentConfig) -> dict:
    """Constants, bound terms, and complexities for a config, as one mapping.

    L is the closed-form logistic bound; the noise and second-moment
    constants are Monte Carlo estimates at the zero initial model and are
    labeled as such.
    """
    dataset = resolve_dataset(config)
    plan = build_plan(config.step_times, config.compute_periods, config.comm_seconds)
    agg = aggregates(plan)
    mask_size = rand_k_size(config.sparsity, dataset.dim)

    seed = config.seeds[0]
    artifacts = prepare_seed_artifacts(dataset, config, seed)
    reg = config.regularizer
    oracle = LogisticOracle(
        dataset=artifacts.train,
        batch_size=config.batch_size,
        regularizer=reg,
        worker_pools=artifacts.pools,
        root_seed=seed,
    )
    smooth = logistic_smoothness(artifacts.train, reg)
    noise_var, grad_bound = estimate_gradient_stats(
        oracle, artifacts.train, reg, artifacts.x0, n_draws=config.theory.estimate_draws
    )
    gap = initial_gap_upper_bound(artifacts.train, reg, artifacts.x0)
    consts = ProblemConstants(
        smoothness=smooth,
        noise_var=noise_var,
        grad_bound=max(grad_bound, 1e-12),
        initial_gap=gap,
    )

    if config.theory.alpha is not None:  # validate_config requires both or neither
        bp = BoundParams(alpha=config.theory.alpha, beta=config.theory.beta, k=mask_size, d=dataset.dim)
    else:
        bp = tune_bound_params(mask_size, dataset.dim, agg)

    ceiling = max_stepsize(consts, agg)
    report: dict = {
        "constants": {
            "smoothness_bound": consts.smoothness,
            "noise_var_estimate": consts.noise_var,
            "grad_bound_estimate": consts.grad_bound,
            "initial_gap_estimate": consts.initial_gap,
            "note": "smoothness is a closed-form upper bound; the rest are Monte Carlo estimates at x0",
        },
        # the Fraction aggregates print as floats, the integer ones as ints
        "timing": {
            **{k: v if isinstance(v, int) else float(v) for k, v in asdict(agg).items()},
            "round_seconds": plan.round_seconds,
        },
        "bound_params": {
            "alpha": bp.alpha,
            "beta": bp.beta,
            "mask_size": mask_size,
            "dim": dataset.dim,
            "density": bp.density,
            "residual": bp.residual,
            "contraction": bp.contraction,
            "pre_weight": bp.pre_weight,
            "overlap_weight": bp.overlap_weight,
        },
        "max_stepsize": ceiling,
    }
    if config.stepsize <= ceiling and config.rounds >= 1:
        rb = rate_bound(consts, agg, bp, config.stepsize, config.n_workers, config.rounds)
        report["rate_bound"] = {"stepsize": config.stepsize, "rounds": config.rounds, **asdict(rb)}
    else:
        report["rate_bound"] = {
            "stepsize": config.stepsize,
            "violation": f"stepsize exceeds the admissible maximum {ceiling}"
            if config.stepsize > ceiling
            else "rounds must be >= 1",
        }
    rounds_needed = round_complexity(
        consts, agg, bp, config.theory.epsilon, config.n_workers, c_round=config.theory.c_round
    )
    report["complexity"] = {
        "epsilon": config.theory.epsilon,
        "c_round": config.theory.c_round,
        "rounds": rounds_needed,
        "seconds": rounds_needed * plan.round_seconds,
        "harmonic_step_time": float(agg.harmonic_step_time),
    }
    return report
