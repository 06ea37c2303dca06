"""Deterministic logical-time simulator for local SGD with sparse,
overlapped, delay-corrected model averaging, and its baselines."""

from .config import ExperimentConfig, rand_k_size, validate_config
from .core import Mask, RngStream, average, project_mask, sample_rand_k
from .data import Dataset, load_libsvm, parse_libsvm, synthetic_blobs
from .engine import (
    Method,
    RoundOutcome,
    local_steps,
    merge_delay_corrected,
    merge_overwrite,
    run_round,
)
from .errors import ConfigurationError, DatasetError, DivergenceError, ParseError
from .metrics import MetricsRecord, RunRecorder
from .objective import LogisticOracle, QuadraticOracle, RegularizerParams, full_gradient
from .runner import run_suite, theory_report
from .theory import BoundParams, ProblemConstants, rate_bound, round_complexity
from .timing import TimingAggregates, TimingPlan, aggregates, build_plan

__version__ = "0.1.0"
