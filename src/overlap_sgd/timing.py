"""Integer-grid worker timing: per-round step counts and their aggregates.

Worker ``i`` finishes one stochastic-gradient step every ``step_times[i]``
seconds.  A round consists of ``compute_periods`` base periods of local
compute (the base period is the lcm of the step times) followed by a
communication window of ``comm_seconds``, itself a multiple of the base
period.  All counts below are exact integers; aggregate ratios are exact
rationals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigurationError

__all__ = ["TimingPlan", "build_plan", "MAX_BASE_PERIOD"]

# The integer-grid model assumes modest step times; reject pathological lcms.
MAX_BASE_PERIOD = 2**32


@dataclass(frozen=True)
class TimingPlan:
    """Per-round step counts for one worker fleet, and their exact aggregates.

    pre_steps[i]     local steps before communication starts (tau_i divides
                     compute_periods * base_period exactly)
    overlap_steps[i] local steps that fit inside the communication window
    total_steps[i]   pre_steps[i] + overlap_steps[i], always >= 1

    Derived from the counts on construction:
    mean_pre / mean_total   average pre-communication / total step counts
    max_total               largest total step count of any worker
    sum_sq_pre, sum_sq_overlap   sums of squared pre / overlap step counts
    drift_sq_sum            sum over workers of 0^2 + 1^2 + ... + (H_i-1)^2,
                            the within-round drift weight
    harmonic_step_time      n / sum(1 / step_times[i]); satisfies
                            harmonic_step_time * mean_total == round_seconds
    """

    step_times: tuple[int, ...]
    compute_periods: int
    comm_seconds: int
    base_period: int
    pre_steps: tuple[int, ...]
    overlap_steps: tuple[int, ...]
    total_steps: tuple[int, ...]
    mean_pre: Fraction = field(init=False)
    mean_total: Fraction = field(init=False)
    max_total: int = field(init=False)
    sum_sq_pre: int = field(init=False)
    sum_sq_overlap: int = field(init=False)
    drift_sq_sum: int = field(init=False)
    harmonic_step_time: Fraction = field(init=False)

    def __post_init__(self):
        n = self.n_workers
        object.__setattr__(self, "mean_pre", Fraction(sum(self.pre_steps), n))
        object.__setattr__(self, "mean_total", Fraction(sum(self.total_steps), n))
        object.__setattr__(self, "max_total", max(self.total_steps))
        object.__setattr__(self, "sum_sq_pre", sum(v * v for v in self.pre_steps))
        object.__setattr__(self, "sum_sq_overlap", sum(v * v for v in self.overlap_steps))
        object.__setattr__(self, "drift_sq_sum", sum((h - 1) * h * (2 * h - 1) // 6 for h in self.total_steps))
        object.__setattr__(self, "harmonic_step_time", Fraction(n) / sum(Fraction(1, t) for t in self.step_times))
        # Exact identities on the rationals; a failure means the plan is corrupt.
        if self.harmonic_step_time * self.mean_total != self.round_seconds:
            raise ConfigurationError("corrupt timing plan: harmonic_step_time * mean_total != round_seconds")
        if (self.drift_sq_sum == 0) != all(h == 1 for h in self.total_steps):
            raise ConfigurationError(f"corrupt timing plan: total steps {self.total_steps}")

    @property
    def n_workers(self) -> int:
        return len(self.step_times)

    @property
    def round_seconds(self) -> int:
        """Logical duration of one round, identical for every worker."""
        return self.compute_periods * self.base_period + self.comm_seconds


def _count(value, least: int, message: str) -> int:
    """``value`` as a Python int, if it is a Python or NumPy integer >= ``least``; a bool or float is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigurationError(message)
    return int(value)


def build_plan(step_times, compute_periods: int, comm_seconds: int) -> TimingPlan:
    """Validate the timing inputs and derive all per-round step counts."""
    taus = tuple(step_times)
    if len(taus) < 1:
        raise ConfigurationError("need at least one worker step time")
    taus = tuple(_count(t, 1, f"step times must be positive integers, got {taus}") for t in taus)
    compute_periods = _count(compute_periods, 1, f"compute_periods must be a positive integer, got {compute_periods}")
    comm_seconds = _count(comm_seconds, 0, f"comm_seconds must be a non-negative integer, got {comm_seconds}")

    base = math.lcm(*taus)
    if base > MAX_BASE_PERIOD:
        raise ConfigurationError(
            f"lcm of step times is {base}, above the supported maximum {MAX_BASE_PERIOD}"
        )
    if comm_seconds % base != 0:
        lo = (comm_seconds // base) * base
        raise ConfigurationError(
            f"comm_seconds must be a multiple of {base} (got {comm_seconds}; "
            f"nearest valid values are {lo} and {lo + base})"
        )

    window = compute_periods * base
    pre = tuple(window // t for t in taus)
    over = tuple(comm_seconds // t for t in taus)
    total = tuple(n + q for n, q in zip(pre, over))
    return TimingPlan(
        step_times=taus,
        compute_periods=compute_periods,
        comm_seconds=comm_seconds,
        base_period=base,
        pre_steps=pre,
        overlap_steps=over,
        total_steps=total,
    )
