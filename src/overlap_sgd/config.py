"""Experiment configuration: schema, validation, and loading.

Configs are plain YAML mappings (a manifest's ``config`` block is accepted
too, so a finished run can be replayed from its manifest alone).
Validation collects every problem instead of failing on the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import yaml

from .engine import Method, method_plan_problems
from .errors import ConfigurationError
from .timing import build_plan

__all__ = [
    "SyntheticSpec",
    "DatasetSpec",
    "TheoryOptions",
    "ExperimentConfig",
    "ConfigIssue",
    "validate_config",
    "load_config_file",
    "rand_k_size",
]


def rand_k_size(sparsity: float, dim: int) -> int:
    """Mask size for a sparsity fraction: max(1, half-up round of p * d)."""
    return max(1, int(math.floor(sparsity * dim + 0.5)))


@dataclass(frozen=True)
class SyntheticSpec:
    dim: int = 100
    n_examples: int = 8000
    separation: float = 2.0
    seed: int = 7


@dataclass(frozen=True)
class DatasetSpec:
    path: str | None = None
    dimension: int | None = None  # optional width override for libsvm files
    synthetic: SyntheticSpec | None = None


@dataclass(frozen=True)
class TheoryOptions:
    alpha: float | None = None     # None -> grid-searched
    beta: float | None = None
    c_round: float = 12.0
    epsilon: float = 1e-2
    estimate_draws: int = 200


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    dataset: DatasetSpec
    step_times: tuple[int, ...]
    methods: tuple[str, ...]
    output_dir: str
    normalize: bool = True
    val_fraction: float = 0.1
    partition_mode: str = "shared"          # shared | shard | dirichlet
    dirichlet_alpha: float | None = None
    dirichlet_min_examples: int = 0
    n_workers: int = 0                       # 0 -> len(step_times)
    compute_periods: int = 1                 # local compute window, in base periods
    comm_seconds: int = 0
    stepsize: float = 0.1
    batch_size: int = 256
    sparsity: float = 1.0                    # fraction of coordinates communicated
    rounds: int = 1
    seeds: tuple[int, ...] = (0,)
    regularizer_strength: float = 0.0
    regularizer_scale: float = 1.0
    value_bit_width: int = 32
    eval_every: int = 1
    eval_per_worker: bool = False
    theory: TheoryOptions = field(default_factory=TheoryOptions)

    def to_dict(self) -> dict:
        """Round-trippable mapping in the exact schema validate_config reads."""
        dataset: dict[str, Any] = {}
        if self.dataset.synthetic is not None:
            s = self.dataset.synthetic
            dataset["synthetic"] = {
                "dim": s.dim,
                "n_examples": s.n_examples,
                "separation": s.separation,
                "seed": s.seed,
            }
        else:
            dataset["path"] = self.dataset.path
            if self.dataset.dimension is not None:
                dataset["dimension"] = self.dataset.dimension
        partition: dict[str, Any] = {"mode": self.partition_mode}
        if self.dirichlet_alpha is not None:
            partition["alpha"] = self.dirichlet_alpha
        if self.dirichlet_min_examples:
            partition["min_examples"] = self.dirichlet_min_examples
        return {
            "name": self.name,
            "dataset": dataset,
            "normalize": self.normalize,
            "val_fraction": self.val_fraction,
            "partition": partition,
            "n_workers": self.n_workers,
            "step_times": list(self.step_times),
            "compute_periods": self.compute_periods,
            "comm_seconds": self.comm_seconds,
            "methods": list(self.methods),
            "stepsize": self.stepsize,
            "batch_size": self.batch_size,
            "sparsity": self.sparsity,
            "rounds": self.rounds,
            "seeds": list(self.seeds),
            "regularizer": {"strength": self.regularizer_strength, "scale": self.regularizer_scale},
            "value_bit_width": self.value_bit_width,
            "eval_every": self.eval_every,
            "eval_per_worker": self.eval_per_worker,
            "output_dir": self.output_dir,
            "theory": {
                "alpha": self.theory.alpha,
                "beta": self.theory.beta,
                "c_round": self.theory.c_round,
                "epsilon": self.theory.epsilon,
                "estimate_draws": self.theory.estimate_draws,
            },
        }


@dataclass(frozen=True)
class ConfigIssue:
    field: str
    message: str
    hint: str = ""

    def __str__(self) -> str:
        text = f"{self.field}: {self.message}"
        if self.hint:
            text += f" ({self.hint})"
        return text


_KNOWN_KEYS = {
    "name",
    "dataset",
    "normalize",
    "val_fraction",
    "partition",
    "n_workers",
    "step_times",
    "compute_periods",
    "comm_seconds",
    "methods",
    "stepsize",
    "batch_size",
    "sparsity",
    "rounds",
    "seeds",
    "regularizer",
    "value_bit_width",
    "eval_every",
    "eval_per_worker",
    "output_dir",
    "theory",
}

_METHOD_NAMES = {m.value for m in Method}


def _as_int_list(value) -> list[int] | None:
    if not isinstance(value, (list, tuple)) or not value:
        return None
    out = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, int):
            return None
        out.append(v)
    return out


def validate_config(raw: Mapping[str, Any]) -> tuple[ExperimentConfig | None, list[ConfigIssue]]:
    """Check every cross-field constraint; returns (config, issues).

    The config is None whenever issues is non-empty.
    """
    issues: list[ConfigIssue] = []

    def bad(field_name: str, message: str, hint: str = ""):
        issues.append(ConfigIssue(field_name, message, hint))

    def count(key: str, default: int, least: int):
        """An integer field that must be at least ``least`` (0 or 1)."""
        value = raw.get(key, default)
        if not isinstance(value, int) or value < least:
            bad(key, "must be a positive integer" if least else "must be a non-negative integer")
        return value

    if not isinstance(raw, Mapping):
        return None, [ConfigIssue("<root>", "config must be a mapping")]

    for key in raw:
        if key not in _KNOWN_KEYS:
            bad(key, "unknown configuration key")

    name = raw.get("name", "run")
    if not isinstance(name, str) or not name:
        bad("name", "must be a non-empty string")

    # dataset: exactly one of a file path or a synthetic spec
    dataset_raw = raw.get("dataset")
    dataset = None
    if not isinstance(dataset_raw, Mapping):
        bad("dataset", "must be a mapping with 'path' or 'synthetic'")
    else:
        path = dataset_raw.get("path")
        synth_raw = dataset_raw.get("synthetic")
        if (path is None) == (synth_raw is None):
            bad("dataset", "provide exactly one of 'path' or 'synthetic'")
        elif path is not None:
            # opened as given, relative to the working directory, as run and theory do
            if not Path(str(path)).is_file():
                bad("dataset.path", f"no such file: {path}")
            dim_override = dataset_raw.get("dimension")
            if dim_override is not None and (not isinstance(dim_override, int) or dim_override < 1):
                bad("dataset.dimension", "must be a positive integer")
            dataset = DatasetSpec(path=str(path), dimension=dim_override)
        else:
            if not isinstance(synth_raw, Mapping):
                bad("dataset.synthetic", "must be a mapping")
            else:
                try:
                    spec = SyntheticSpec(
                        dim=int(synth_raw.get("dim", 100)),
                        n_examples=int(synth_raw.get("n_examples", 8000)),
                        separation=float(synth_raw.get("separation", 2.0)),
                        seed=int(synth_raw.get("seed", 7)),
                    )
                    if spec.dim < 1 or spec.n_examples < 1:
                        bad("dataset.synthetic", "dim and n_examples must be positive")
                    else:
                        dataset = DatasetSpec(synthetic=spec)
                except (TypeError, ValueError):
                    bad("dataset.synthetic", "dim/n_examples/seed must be integers, separation a number")

    normalize = raw.get("normalize", True)
    if not isinstance(normalize, bool):
        bad("normalize", "must be a boolean")

    val_fraction = raw.get("val_fraction", 0.1)
    if not isinstance(val_fraction, (int, float)) or not 0.0 <= float(val_fraction) < 1.0:
        bad("val_fraction", "must be in [0, 1)")

    partition_raw = raw.get("partition", {"mode": "shared"})
    partition_mode = "shared"
    dirichlet_alpha = None
    dirichlet_min_examples = 0
    if not isinstance(partition_raw, Mapping) or "mode" not in partition_raw:
        bad("partition", "must be a mapping with a 'mode' key")
    else:
        partition_mode = partition_raw["mode"]
        if partition_mode not in ("shared", "shard", "dirichlet"):
            bad("partition.mode", f"unknown mode {partition_mode!r}", "use shared, shard, or dirichlet")
        if partition_mode == "dirichlet":
            alpha = partition_raw.get("alpha")
            if not isinstance(alpha, (int, float)) or alpha <= 0:
                bad("partition.alpha", "dirichlet mode needs alpha > 0")
            else:
                dirichlet_alpha = float(alpha)
            min_ex = partition_raw.get("min_examples", 0)
            if not isinstance(min_ex, int) or min_ex < 0:
                bad("partition.min_examples", "must be a non-negative integer")
            else:
                dirichlet_min_examples = min_ex
        elif "min_examples" in partition_raw:
            bad("partition.min_examples", "only meaningful for dirichlet mode")

    step_times = _as_int_list(raw.get("step_times"))
    if step_times is None or any(t < 1 for t in step_times):
        bad("step_times", "must be a non-empty list of positive integers")
        step_times = []

    n_workers = raw.get("n_workers", len(step_times))
    if not isinstance(n_workers, int) or n_workers < 1:
        bad("n_workers", "must be a positive integer")
    elif step_times and n_workers != len(step_times):
        bad("n_workers", f"is {n_workers} but step_times lists {len(step_times)} workers")

    compute_periods = count("compute_periods", 1, least=1)
    comm_seconds = count("comm_seconds", 0, least=0)

    methods_raw = raw.get("methods")
    methods: list[str] = []
    if not isinstance(methods_raw, (list, tuple)) or not methods_raw:
        bad("methods", "must be a non-empty list of method names")
    else:
        for m in methods_raw:
            if m not in _METHOD_NAMES:
                bad("methods", f"unknown method {m!r}", f"choose from {sorted(_METHOD_NAMES)}")
            else:
                methods.append(m)

    stepsize = raw.get("stepsize", 0.1)
    if not isinstance(stepsize, (int, float)) or stepsize <= 0:
        bad("stepsize", "must be a positive number")

    batch_size = count("batch_size", 256, least=1)

    sparsity = raw.get("sparsity", 1.0)
    if not isinstance(sparsity, (int, float)) or not 0.0 < float(sparsity) <= 1.0:
        bad("sparsity", "must be in (0, 1]")
        sparsity = 1.0

    rounds = count("rounds", 1, least=0)

    seeds = _as_int_list(raw.get("seeds", [0]))
    if seeds is None:
        bad("seeds", "must be a non-empty list of integers")
        seeds = [0]
    elif len(set(seeds)) != len(seeds):
        bad("seeds", "must not contain duplicates")

    reg_raw = raw.get("regularizer", {})
    reg_strength, reg_scale = 0.0, 1.0
    if not isinstance(reg_raw, Mapping):
        bad("regularizer", "must be a mapping with 'strength' and 'scale'")
    else:
        reg_strength = reg_raw.get("strength", 0.0)
        reg_scale = reg_raw.get("scale", 1.0)
        if not isinstance(reg_strength, (int, float)) or reg_strength < 0:
            bad("regularizer.strength", "must be >= 0")
        if not isinstance(reg_scale, (int, float)) or reg_scale <= 0:
            bad("regularizer.scale", "must be > 0")

    value_bit_width = count("value_bit_width", 32, least=1)
    eval_every = count("eval_every", 1, least=1)

    eval_per_worker = raw.get("eval_per_worker", False)
    if not isinstance(eval_per_worker, bool):
        bad("eval_per_worker", "must be a boolean")

    output_dir = raw.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        bad("output_dir", "must be a non-empty path string")

    theory_raw = raw.get("theory", {})
    theory = TheoryOptions()
    if not isinstance(theory_raw, Mapping):
        bad("theory", "must be a mapping")
    else:
        try:
            theory = TheoryOptions(
                alpha=None if theory_raw.get("alpha") is None else float(theory_raw["alpha"]),
                beta=None if theory_raw.get("beta") is None else float(theory_raw["beta"]),
                c_round=float(theory_raw.get("c_round", 12.0)),
                epsilon=float(theory_raw.get("epsilon", 1e-2)),
                estimate_draws=int(theory_raw.get("estimate_draws", 200)),
            )
            if theory.epsilon <= 0 or theory.c_round <= 0 or theory.estimate_draws < 2:
                bad("theory", "c_round and epsilon must be positive, estimate_draws >= 2")
        except (TypeError, ValueError):
            bad("theory", "alpha/beta/c_round/epsilon must be numbers")

    if issues:
        return None, issues

    # timing and method rules live with the code that enforces them
    try:
        plan = build_plan(step_times, compute_periods, comm_seconds)
    except ConfigurationError as exc:
        return None, [ConfigIssue("timing", str(exc))]
    # a libsvm file without 'dimension' has no d until run_suite loads it
    dim = dataset.synthetic.dim if dataset.synthetic is not None else dataset.dimension
    if dim is not None:
        mask_size = rand_k_size(float(sparsity), dim)
        for m in methods:
            for problem in method_plan_problems(Method(m), plan, mask_size, dim):
                bad("methods", problem)
    if issues:
        return None, issues

    config = ExperimentConfig(
        name=name,
        dataset=dataset,
        normalize=normalize,
        val_fraction=float(val_fraction),
        partition_mode=partition_mode,
        dirichlet_alpha=dirichlet_alpha,
        dirichlet_min_examples=dirichlet_min_examples,
        n_workers=n_workers,
        step_times=tuple(step_times),
        compute_periods=compute_periods,
        comm_seconds=comm_seconds,
        methods=tuple(methods),
        stepsize=float(stepsize),
        batch_size=batch_size,
        sparsity=float(sparsity),
        rounds=rounds,
        seeds=tuple(seeds),
        regularizer_strength=float(reg_strength),
        regularizer_scale=float(reg_scale),
        value_bit_width=value_bit_width,
        eval_every=eval_every,
        eval_per_worker=eval_per_worker,
        output_dir=output_dir,
        theory=theory,
    )
    return config, []


def load_config_file(path) -> tuple[ExperimentConfig | None, list[ConfigIssue]]:
    """Load a YAML config, or a manifest (its ``config`` block is replayed)."""
    text = Path(path).read_text(encoding="utf-8")
    raw = yaml.safe_load(text)
    if isinstance(raw, Mapping) and "config" in raw and "runs" in raw:
        raw = raw["config"]
    if raw is None:
        return None, [ConfigIssue("<root>", "empty config file")]
    return validate_config(raw)
