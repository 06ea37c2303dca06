"""Experiment configuration: schema and validation.

Configs are plain YAML mappings, read by the CLI (which also accepts a
manifest's ``config`` block, so a finished run can be replayed from its
manifest alone).  The dataclasses below are the schema: each mapping
accepts exactly the fields of its dataclass, and a field states its default
and, in its metadata, the rule its value alone must meet.  Validation
collects every problem instead of failing on the first.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from .core import SEED_MODULUS
from .data import check_min_examples, validation_size
from .engine import METHODS, method_plan_problems
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
    "rand_k_size",
]


def rand_k_size(sparsity: float, dim: int) -> int:
    """Mask size for a sparsity fraction: max(1, half-up round of p * d)."""
    return max(1, int(math.floor(sparsity * dim + 0.5)))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or float, not a bool, in float range: not ``.nan``, ``.inf`` or a 400-digit int."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _rule(accept, message: str, convert=None) -> dict:
    """A field's accepted values, as its dataclass metadata: a value ``accept``
    rejects is reported as ``message``; one it takes reads as ``convert(value)``."""
    return {"accept": accept, "message": message, "convert": convert or (lambda v: v)}


def _int(least: int | None = 1, message: str = "") -> dict:
    """An int, not a bool, of at least ``least`` (any int if ``least`` is None)."""
    message = message or ("must be a positive integer" if least else "must be a non-negative integer")
    return _rule(lambda v: _is_int(v) and (least is None or v >= least), message)


def _num(valid=lambda v: True, message: str = "must be a number") -> dict:
    """A finite int or float, not a bool, for which ``valid`` holds; read as a float."""
    return _rule(lambda v: _is_number(v) and valid(v), message, float)


def _list(message: str, item: Mapping | None = None) -> dict:
    """A non-empty list whose every entry the rule ``item`` accepts, if one is given; read as a tuple."""
    accept = item["accept"] if item else (lambda v: True)
    return _rule(lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(accept, v)), message, tuple)


def _text(message: str) -> dict:
    return _rule(lambda v: isinstance(v, str) and v != "", message)


def _bool() -> dict:
    return _rule(lambda v: isinstance(v, bool), "must be a boolean")


def path_issue(value) -> str | None:
    """Why ``value`` cannot name a file or directory, or None if it can; a NUL
    byte, which no OS takes in a path, makes open and mkdir raise ValueError."""
    if not isinstance(value, str) or not value:
        return "must be a non-empty path string"
    if "\0" in value:
        return "must not contain a NUL byte"
    try:  # a missing path is False; a path the OS rejects (e.g. too long) raises
        Path(value).exists()
    except OSError as exc:
        return f"unusable path: {exc.strerror}"
    return None


@dataclass(frozen=True)
class SyntheticSpec:
    dim: int = field(default=100, metadata=_int())
    n_examples: int = field(default=8000, metadata=_int())
    separation: float = field(default=2.0, metadata=_num())
    seed: int = field(default=7, metadata=_int(None, "must be an integer"))


@dataclass(frozen=True)
class DatasetSpec:
    path: str | None = None
    dimension: int | None = None  # optional width override for libsvm files
    synthetic: SyntheticSpec | None = None


@dataclass(frozen=True)
class PartitionSpec:
    mode: str = "shared"          # shared | shard | dirichlet
    # dirichlet mode only: the concentration, and a redraw until every worker has min_examples
    alpha: float | None = field(default=None, metadata=_num(lambda a: a > 0, "dirichlet mode needs alpha > 0"))
    min_examples: int = field(default=0, metadata=_int(0))


@dataclass(frozen=True)
class TheoryOptions:
    alpha: float | None = None     # None -> grid-searched
    beta: float | None = None
    c_round: float = field(default=12.0, metadata=_num(lambda v: v > 0, "must be a positive number"))
    epsilon: float = field(default=1e-2, metadata=_num(lambda v: v > 0, "must be a positive number"))
    estimate_draws: int = field(default=200, metadata=_int(2, "must be an integer >= 2"))


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    step_times: tuple[int, ...] = field(metadata=_list("must be a non-empty list of positive integers", _int()))
    methods: tuple[str, ...] = field(metadata=_list("must be a non-empty list of method names"))
    output_dir: str
    name: str = field(default="run", metadata=_text("must be a non-empty string"))
    normalize: bool = field(default=True, metadata=_bool())
    val_fraction: float = field(default=0.1, metadata=_num(lambda v: 0 <= v < 1, "must be in [0, 1)"))
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    compute_periods: int = field(default=1, metadata=_int())  # local compute window, in base periods
    comm_seconds: int = field(default=0, metadata=_int(0))
    stepsize: float = field(default=0.1, metadata=_num(lambda v: v > 0, "must be a positive number"))
    batch_size: int = field(default=256, metadata=_int())
    # fraction of coordinates communicated
    sparsity: float = field(default=1.0, metadata=_num(lambda v: 0 < v <= 1, "must be in (0, 1]"))
    rounds: int = field(default=1, metadata=_int(0))
    seeds: tuple[int, ...] = field(default=(0,), metadata=_list("must be a non-empty list of integers", _int(None)))
    regularizer: RegularizerParams = field(default_factory=RegularizerParams)
    value_bit_width: int = field(default=32, metadata=_int())
    eval_every: int = field(default=1, metadata=_int())
    eval_per_worker: bool = field(default=False, metadata=_bool())
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


class _Fields:
    """Reads from one config mapping, each by the rule on its dataclass field,
    with the defaults of that dataclass.  Keys the dataclass lacks are reported
    as unknown; a value its rule rejects is reported under ``prefix + key`` and
    reads as None."""

    def __init__(self, raw: Mapping, cls, prefix: str, issues: list, extra: tuple = ()):
        self.raw, self.prefix, self.issues = raw, prefix, issues
        self.defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
        self.rules = {f.name: f.metadata for f in fields(cls) if f.metadata}
        known = {f.name for f in fields(cls)} | set(extra)
        for key in raw:
            if key not in known:
                self.bad(key, "unknown configuration key")

    def bad(self, key: str, message: str) -> None:
        """Report a problem; returns None, which is what a bad field reads as."""
        self.issues.append(ConfigIssue(f"{self.prefix}{key}", message))  # YAML keys need not be strings

    def get(self, key: str):
        return self.raw.get(key, self.defaults.get(key))

    def read(self, key: str, rule: Mapping | None = None):
        """The value under ``key``, read by ``rule`` or else by the rule on its field."""
        value, rule = self.get(key), rule or self.rules[key]
        return rule["convert"](value) if rule["accept"](value) else self.bad(key, rule["message"])

    def ruled(self) -> dict:
        """Every field that carries a rule, read by it, in field order."""
        return {key: self.read(key) for key in self.rules}


def _nested(raw: Mapping, key: str, cls, issues: list, message: str) -> _Fields:
    """The reader of the mapping under ``key``; of an empty one if it is absent or not a mapping."""
    value = raw.get(key, {})
    if not isinstance(value, Mapping):
        issues.append(ConfigIssue(key, message))
        value = {}
    return _Fields(value, cls, key + ".", issues)


def _read_dataset(raw, issues: list) -> DatasetSpec | None:
    """Exactly one of a LIBSVM ``path`` (optional ``dimension``) or a ``synthetic`` spec."""
    if not isinstance(raw, Mapping):
        issues.append(ConfigIssue("dataset", "must be a mapping with 'path' or 'synthetic'"))
        return None
    read = _Fields(raw, DatasetSpec, "dataset.", issues)
    path, dimension, synthetic = raw.get("path"), raw.get("dimension"), raw.get("synthetic")
    if (path is None) == (synthetic is None):
        issues.append(ConfigIssue("dataset", "provide exactly one of 'path' or 'synthetic'"))
        return None
    if path is not None:
        # opened as given, relative to the working directory, as run and theory do
        if (problem := path_issue(path)) is not None:
            read.bad("path", problem)
        elif not Path(path).is_file():
            read.bad("path", f"no such file: {path}")
        return DatasetSpec(path, None if dimension is None else read.read("dimension", _int()))
    if dimension is not None:
        read.bad("dimension", "only meaningful with 'path'")
    if not isinstance(synthetic, Mapping):
        return read.bad("synthetic", "must be a mapping")
    values = _Fields(synthetic, SyntheticSpec, "dataset.synthetic.", issues).ruled()
    return DatasetSpec(synthetic=SyntheticSpec(**values))  # a bad value reads as None; the issue voids the config


def _read_partition(raw: Mapping, issues: list) -> PartitionSpec | None:
    """A ``mode``, plus the ruled ``alpha`` and ``min_examples`` in dirichlet mode only."""
    value = raw.get("partition", {"mode": PartitionSpec.mode})
    if not isinstance(value, Mapping) or "mode" not in value:
        issues.append(ConfigIssue("partition", "must be a mapping with a 'mode' key"))
        return None
    read = _Fields(value, PartitionSpec, "partition.", issues)
    mode = value["mode"]
    if mode not in ("shared", "shard", "dirichlet"):
        read.bad("mode", f"unknown mode {mode!r} (use shared, shard, or dirichlet)")
    if mode == "dirichlet":
        return PartitionSpec(mode, **read.ruled())
    for key in read.rules:
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
    values = read.ruled()  # the fields whose rule is their own, in field order; the rest join below

    step_times = values["step_times"] or ()
    n_workers = read.read("n_workers", _int()) if "n_workers" in raw else None
    if n_workers is not None and step_times and n_workers != len(step_times):
        read.bad("n_workers", f"is {n_workers} but step_times lists {len(step_times)} workers")

    methods = values["methods"] or ()
    for m in methods:
        if m not in METHODS:
            read.bad("methods", f"unknown method {m!r} (choose from {sorted(METHODS)})")
    if any(methods.count(m) > 1 for m in methods):
        read.bad("methods", "must not contain duplicates")

    if (seeds := values["seeds"]) and len({s % SEED_MODULUS for s in seeds}) != len(seeds):
        read.bad("seeds", "must not contain duplicates (a seed is taken modulo 2**64)")

    reg = _nested(
        raw, "regularizer", RegularizerParams, issues, "must be a mapping with 'strength' and 'scale'"
    )
    args = [reg.read(key, _num()) for key in ("strength", "scale")]
    # the range rules are the constructor's
    values["regularizer"] = None if None in args else _checked(issues, "regularizer", RegularizerParams, *args)

    th = _nested(raw, "theory", TheoryOptions, issues, "must be a mapping")
    pinned = {k: th.read(k, _num()) for k in ("alpha", "beta") if th.get(k) is not None}
    if len(pinned) == 1:
        read.bad("theory", "pin both alpha and beta, or neither")
    values["theory"] = TheoryOptions(**pinned, **th.ruled())

    output_dir = raw.get("output_dir")
    if (problem := path_issue(output_dir)) is not None:
        read.bad("output_dir", problem)
    elif (blocker := blocking_file(Path(output_dir))) is not None:  # run creates output_dir
        read.bad("output_dir", f"not a directory: {blocker}")

    dataset, partition = _read_dataset(raw.get("dataset"), issues), _read_partition(raw, issues)
    if issues:
        return None, issues
    config = ExperimentConfig(**values, dataset=dataset, output_dir=output_dir, partition=partition)

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
    and can give every worker ``partition.min_examples``, and a batch that
    holds no more examples than the dataset or the default batch does."""
    mask_size = rand_k_size(config.sparsity, dim)
    issues = [
        ConfigIssue("methods", problem)
        for m in config.methods
        for problem in method_plan_problems(m, plan, mask_size, dim)
    ]
    if config.theory.alpha is not None:
        _checked(issues, "theory", BoundParams, config.theory.alpha, config.theory.beta, mask_size, dim)
    default_batch = ExperimentConfig.batch_size  # each step gathers batch_size rows; the default fits any data
    if n is not None and config.batch_size > max(n, default_batch):
        message = f"{config.batch_size} exceeds both the dataset's {n} examples and the default {default_batch}"
        issues.append(ConfigIssue("batch_size", message))
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
