"""Experiment configuration: schema and validation.

Configs are plain YAML mappings, read by the CLI (which also accepts a
manifest's ``config`` block, so a finished run can be replayed from its
manifest alone).  The dataclasses below are the schema: each mapping
accepts exactly the fields of its dataclass, and every default is the one
stated on its field.  Validation collects every problem instead of failing
on the first.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from .core import SEED_MODULUS
from .data import check_min_examples, validation_size
from .engine import Method, method_plan_problems
from .errors import ConfigurationError
from .objective import RegularizerParams
from .theory import BoundParams
from .timing import TimingPlan, build_plan

__all__ = [
    "SyntheticSpec",
    "DatasetSpec",
    "PartitionSpec",
    "TheoryOptions",
    "ExperimentConfig",
    "ConfigIssue",
    "validate_config",
    "data_issues",
    "blocking_file",
    "read_synthetic_spec",
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
class PartitionSpec:
    mode: str = "shared"          # shared | shard | dirichlet
    alpha: float | None = None    # dirichlet concentration (dirichlet mode only)
    min_examples: int = 0         # redraw until every worker has this many (dirichlet mode only)


@dataclass(frozen=True)
class TheoryOptions:
    alpha: float | None = None     # None -> grid-searched
    beta: float | None = None
    c_round: float = 12.0
    epsilon: float = 1e-2
    estimate_draws: int = 200


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    step_times: tuple[int, ...]
    methods: tuple[str, ...]
    output_dir: str
    name: str = "run"
    normalize: bool = True
    val_fraction: float = 0.1
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    compute_periods: int = 1                 # local compute window, in base periods
    comm_seconds: int = 0
    stepsize: float = 0.1
    batch_size: int = 256
    sparsity: float = 1.0                    # fraction of coordinates communicated
    rounds: int = 1
    seeds: tuple[int, ...] = (0,)
    regularizer: RegularizerParams = field(default_factory=RegularizerParams)
    value_bit_width: int = 32
    eval_every: int = 1
    eval_per_worker: bool = False
    theory: TheoryOptions = field(default_factory=TheoryOptions)

    @property
    def n_workers(self) -> int:
        return len(self.step_times)

    def to_dict(self) -> dict:
        """Round-trippable mapping in the exact schema validate_config reads."""
        out = asdict(self)
        # left out rather than written as null: unset dataset keys, an unset
        # partition alpha and a min_examples of 0
        out["dataset"] = {k: v for k, v in out["dataset"].items() if v is not None}
        out["partition"] = {k: v for k, v in out["partition"].items() if v}
        out["n_workers"] = self.n_workers
        return out


@dataclass(frozen=True)
class ConfigIssue:
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


_METHOD_NAMES = tuple(m.value for m in Method)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or float, not a bool, in float range: not ``.nan``, ``.inf`` or a 400-digit int."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _as_int_list(value) -> list[int] | None:
    if not isinstance(value, (list, tuple)) or not value or not all(map(_is_int, value)):
        return None
    return list(value)


class _Fields:
    """Typed reads from one config mapping, with the defaults of its dataclass.

    Keys the dataclass lacks are reported as unknown.  A value of the wrong
    type, or outside its range, is reported under ``prefix + key`` and
    reads as None.
    """

    def __init__(self, raw: Mapping, cls, prefix: str, issues: list, extra: tuple = ()):
        self.raw, self.prefix, self.issues = raw, prefix, issues
        self.defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
        known = {f.name for f in fields(cls)} | set(extra)
        for key in raw:
            if key not in known:
                self.bad(key, "unknown configuration key")

    def bad(self, key: str, message: str) -> None:
        """Report a problem; returns None, which is what a bad field reads as."""
        self.issues.append(ConfigIssue(self.prefix + key, message))

    def get(self, key: str):
        return self.raw.get(key, self.defaults.get(key))

    def _checked(self, key: str, valid, message: str):
        value = self.get(key)
        return value if valid(value) else self.bad(key, message)

    def integer(self, key: str, least: int | None = 1, message: str = "") -> int | None:
        """An int, not a bool, of at least ``least`` (any int if ``least`` is None)."""
        message = message or ("must be a positive integer" if least else "must be a non-negative integer")
        return self._checked(key, lambda v: _is_int(v) and (least is None or v >= least), message)

    def number(self, key: str, valid=lambda v: True, message: str = "must be a number") -> float | None:
        """A finite int or float, not a bool, for which ``valid`` holds; read as a float."""
        value = self._checked(key, lambda v: _is_number(v) and valid(v), message)
        return None if value is None else float(value)

    def boolean(self, key: str) -> bool | None:
        return self._checked(key, lambda v: isinstance(v, bool), "must be a boolean")


def _nested(raw: Mapping, key: str, cls, issues: list, message: str) -> _Fields:
    """The reader of the mapping under ``key``; of an empty one if it is absent or not a mapping."""
    value = raw.get(key, {})
    if not isinstance(value, Mapping):
        issues.append(ConfigIssue(key, message))
        value = {}
    return _Fields(value, cls, key + ".", issues)


def read_synthetic_spec(raw: Mapping, prefix: str = "") -> tuple[SyntheticSpec | None, list[ConfigIssue]]:
    """Read a synthetic-data spec: a config's ``dataset.synthetic`` or a ``gen-data`` file."""
    issues: list[ConfigIssue] = []
    read = _Fields(raw, SyntheticSpec, prefix, issues)
    spec = SyntheticSpec(
        dim=read.integer("dim"),
        n_examples=read.integer("n_examples"),
        separation=read.number("separation"),
        seed=read.integer("seed", least=None, message="must be an integer"),
    )
    return (None, issues) if issues else (spec, [])


def _read_dataset(raw, issues: list) -> DatasetSpec | None:
    """Exactly one of a LIBSVM ``path`` (optional ``dimension``) or a ``synthetic`` spec."""
    if not isinstance(raw, Mapping):
        issues.append(ConfigIssue("dataset", "must be a mapping with 'path' or 'synthetic'"))
        return None
    read = _Fields(raw, DatasetSpec, "dataset.", issues)
    path, synthetic = raw.get("path"), raw.get("synthetic")
    if (path is None) == (synthetic is None):
        issues.append(ConfigIssue("dataset", "provide exactly one of 'path' or 'synthetic'"))
        return None
    if path is not None:
        # opened as given, relative to the working directory, as run and theory do
        if not Path(str(path)).is_file():
            read.bad("path", f"no such file: {path}")
        dimension = None if raw.get("dimension") is None else read.integer("dimension")
        return DatasetSpec(path=str(path), dimension=dimension)
    if not isinstance(synthetic, Mapping):
        return read.bad("synthetic", "must be a mapping")
    spec, problems = read_synthetic_spec(synthetic, "dataset.synthetic.")
    issues.extend(problems)
    return DatasetSpec(synthetic=spec)


def _read_partition(raw: Mapping, issues: list) -> PartitionSpec | None:
    """A ``mode``, plus ``alpha`` and ``min_examples`` in dirichlet mode only."""
    value = raw.get("partition", {"mode": PartitionSpec.mode})
    if not isinstance(value, Mapping) or "mode" not in value:
        issues.append(ConfigIssue("partition", "must be a mapping with a 'mode' key"))
        return None
    read = _Fields(value, PartitionSpec, "partition.", issues)
    mode = value["mode"]
    if mode not in ("shared", "shard", "dirichlet"):
        read.bad("mode", f"unknown mode {mode!r} (use shared, shard, or dirichlet)")
    if mode == "dirichlet":
        alpha = read.number("alpha", lambda a: a > 0, "dirichlet mode needs alpha > 0")
        return PartitionSpec(mode, alpha, read.integer("min_examples", least=0))
    for key in ("alpha", "min_examples"):
        if key in value:
            read.bad(key, "only meaningful for dirichlet mode")
    return PartitionSpec(mode)


def validate_config(raw: Mapping[str, Any]) -> tuple[ExperimentConfig | None, list[ConfigIssue]]:
    """Check every field and cross-field constraint; returns (config, issues).

    The config is None whenever issues is non-empty.
    """
    if not isinstance(raw, Mapping):
        return None, [ConfigIssue("<root>", "config must be a mapping")]
    issues: list[ConfigIssue] = []
    read = _Fields(raw, ExperimentConfig, "", issues, extra=("n_workers",))

    name = read.get("name")
    if not isinstance(name, str) or not name:
        read.bad("name", "must be a non-empty string")

    step_times = _as_int_list(raw.get("step_times"))
    if step_times is None or any(t < 1 for t in step_times):
        read.bad("step_times", "must be a non-empty list of positive integers")
        step_times = []
    if "n_workers" in raw:
        n_workers = read.integer("n_workers")
        if n_workers is not None and step_times and n_workers != len(step_times):
            read.bad("n_workers", f"is {n_workers} but step_times lists {len(step_times)} workers")

    methods = raw.get("methods")
    if not isinstance(methods, (list, tuple)) or not methods:
        read.bad("methods", "must be a non-empty list of method names")
        methods = []
    for m in methods:
        if m not in _METHOD_NAMES:
            read.bad("methods", f"unknown method {m!r} (choose from {sorted(_METHOD_NAMES)})")
    if any(methods.count(m) > 1 for m in methods):
        read.bad("methods", "must not contain duplicates")

    seeds = _as_int_list(read.get("seeds"))
    if seeds is None:
        read.bad("seeds", "must be a non-empty list of integers")
    elif len({s % SEED_MODULUS for s in seeds}) != len(seeds):
        read.bad("seeds", "must not contain duplicates (a seed is taken modulo 2**64)")

    reg = _nested(
        raw, "regularizer", RegularizerParams, issues, "must be a mapping with 'strength' and 'scale'"
    )
    values = (reg.number("strength"), reg.number("scale"))
    # the range rules are the constructor's
    regularizer = None if None in values else _checked(issues, "regularizer", RegularizerParams, *values)

    th = _nested(raw, "theory", TheoryOptions, issues, "must be a mapping")
    pinned = {k: th.number(k) for k in ("alpha", "beta") if th.get(k) is not None}
    if len(pinned) == 1:
        read.bad("theory", "pin both alpha and beta, or neither")
    theory = TheoryOptions(
        **pinned,
        c_round=th.number("c_round", lambda v: v > 0, "must be a positive number"),
        epsilon=th.number("epsilon", lambda v: v > 0, "must be a positive number"),
        estimate_draws=th.integer("estimate_draws", least=2, message="must be an integer >= 2"),
    )

    output_dir = raw.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        read.bad("output_dir", "must be a non-empty path string")
    elif (blocker := blocking_file(Path(output_dir))) is not None:  # run creates output_dir
        read.bad("output_dir", f"not a directory: {blocker}")

    config = ExperimentConfig(
        name=name,
        dataset=_read_dataset(raw.get("dataset"), issues),
        step_times=tuple(step_times),
        methods=tuple(methods),
        output_dir=output_dir,
        normalize=read.boolean("normalize"),
        val_fraction=read.number("val_fraction", lambda v: 0 <= v < 1, "must be in [0, 1)"),
        partition=_read_partition(raw, issues),
        compute_periods=read.integer("compute_periods"),
        comm_seconds=read.integer("comm_seconds", least=0),
        stepsize=read.number("stepsize", lambda v: v > 0, "must be a positive number"),
        batch_size=read.integer("batch_size"),
        sparsity=read.number("sparsity", lambda v: 0 < v <= 1, "must be in (0, 1]"),
        rounds=read.integer("rounds", least=0),
        seeds=tuple(seeds or ()),
        regularizer=regularizer,
        value_bit_width=read.integer("value_bit_width"),
        eval_every=read.integer("eval_every"),
        eval_per_worker=read.boolean("eval_per_worker"),
        theory=theory,
    )
    if issues:
        return None, issues

    # timing, method and bound rules live with the code that enforces them
    plan = _checked(issues, "timing", build_plan, config.step_times, config.compute_periods, config.comm_seconds)
    # a libsvm file without 'dimension' has no d, nor n, until run and theory load it
    synthetic = config.dataset.synthetic
    dim = synthetic.dim if synthetic else config.dataset.dimension
    if plan is not None and dim is not None:
        issues.extend(data_issues(config, plan, dim, synthetic.n_examples if synthetic else None))
    return (None, issues) if issues else (config, [])


def data_issues(config: ExperimentConfig, plan: TimingPlan, dim: int, n: int | None) -> list[ConfigIssue]:
    """The rules that need the data's shape: each method's plan rules at the
    config's mask size, the contraction of a pinned alpha/beta pair, and,
    when the example count ``n`` is known, a training split that is not empty
    and can give every worker ``partition.min_examples``."""
    mask_size = rand_k_size(config.sparsity, dim)
    issues = [
        ConfigIssue("methods", problem)
        for m in config.methods
        for problem in method_plan_problems(Method(m), plan, mask_size, dim)
    ]
    if config.theory.alpha is not None:
        _checked(issues, "theory", BoundParams, config.theory.alpha, config.theory.beta, mask_size, dim)
    n_val = None if n is None else _checked(issues, "val_fraction", validation_size, n, config.val_fraction)
    if n_val is not None:
        min_examples = config.partition.min_examples
        _checked(issues, "partition.min_examples", check_min_examples, n - n_val, config.n_workers, min_examples)
    return issues


def _checked(issues: list, field_name: str, rule, *args):
    """``rule(*args)``, or None once its ConfigurationError is an issue of ``field_name``."""
    try:
        return rule(*args)
    except ConfigurationError as exc:
        issues.append(ConfigIssue(field_name, str(exc)))


def blocking_file(directory: Path) -> Path | None:
    """The nearest existing ancestor of ``directory``, itself included, if it
    is not a directory: creating ``directory`` would then fail."""
    existing = next((p for p in (directory, *directory.parents) if p.exists()), None)
    return None if existing is None or existing.is_dir() else existing
