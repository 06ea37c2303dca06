"""Closed-form convergence-rate machinery.

Evaluates the non-convex rate bound term by term, the stepsize ceiling,
and the round complexity implied by a timing plan, plus
empirical estimators for the problem constants on real datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .objective import RegularizerParams, dataset_loss, full_gradient
from .timing import TimingAggregates
from .data import Dataset

__all__ = [
    "BoundParams",
    "ProblemConstants",
    "RateBound",
    "max_stepsize",
    "rate_bound",
    "round_complexity",
    "tune_bound_params",
    "logistic_smoothness",
    "estimate_gradient_stats",
    "initial_gap_upper_bound",
]


@dataclass(frozen=True)
class BoundParams:
    """Analysis parameters for a mask of size k out of d coordinates.

    density    = k / d, the communicated fraction
    residual   = 1 - density
    contraction = residual * (1 + alpha) * (1 + beta); must be < 1
    pre_weight = residual * (1 + beta) * (1 + 1/alpha), multiplies the
                 squared pre-communication step counts
    overlap_weight = 1 + residual / beta, multiplies the squared overlap
                 step counts
    """

    alpha: float
    beta: float
    k: int
    d: int

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigurationError("alpha and beta must be positive")
        if not 1 <= self.k <= self.d:
            raise ConfigurationError(f"mask size {self.k} outside [1, {self.d}]")
        if self.contraction >= 1.0:
            raise ConfigurationError(
                f"contraction {self.contraction:.6g} >= 1; decrease alpha/beta or residual"
            )

    @property
    def density(self) -> float:
        return self.k / self.d

    @property
    def residual(self) -> float:
        return (self.d - self.k) / self.d

    @property
    def contraction(self) -> float:
        return self.residual * (1.0 + self.alpha) * (1.0 + self.beta)

    @property
    def pre_weight(self) -> float:
        return self.residual * (1.0 + self.beta) * (1.0 + 1.0 / self.alpha)

    @property
    def overlap_weight(self) -> float:
        return 1.0 + self.residual / self.beta


@dataclass(frozen=True)
class ProblemConstants:
    smoothness: float       # L
    noise_var: float        # sigma^2, variance of one stochastic gradient
    grad_bound: float       # G, with E||g||^2 <= G^2
    initial_gap: float      # f(x0) - inf f

    def __post_init__(self):
        if self.smoothness <= 0:
            raise ConfigurationError("smoothness must be positive")
        if self.noise_var < 0 or self.initial_gap < 0:
            raise ConfigurationError("noise_var and initial_gap must be non-negative")
        if self.grad_bound <= 0:
            raise ConfigurationError("grad_bound must be positive")
        for v in (self.smoothness, self.noise_var, self.grad_bound, self.initial_gap):
            if not math.isfinite(v):
                raise ConfigurationError("problem constants must be finite")


@dataclass(frozen=True)
class RateBound:
    opt_term: float        # 4 gap / (stepsize * mean_total * rounds)
    noise_term: float      # 4 L stepsize sigma^2 / n
    drift_term: float      # within-round drift, scales with drift_sq_sum
    staleness_term: float  # sparse + delayed synchronization penalty
    total: float


def max_stepsize(consts: ProblemConstants, agg: TimingAggregates) -> float:
    """Largest admissible stepsize, 1 / (8 L max_total)."""
    return 1.0 / (8.0 * consts.smoothness * agg.max_total)


def rate_bound(
    consts: ProblemConstants,
    agg: TimingAggregates,
    bp: BoundParams,
    stepsize: float,
    n: int,
    rounds: int,
) -> RateBound:
    """The four-term bound on the average squared gradient norm."""
    if rounds < 1 or n < 1:
        raise ConfigurationError("need n >= 1 and rounds >= 1")
    ceiling = max_stepsize(consts, agg)
    if not 0 < stepsize <= ceiling:
        raise ConfigurationError(
            f"stepsize {stepsize} violates the admissible maximum {ceiling} "
            f"(1 / (8 * L * max_total))"
        )
    L = consts.smoothness
    g_sq = consts.grad_bound**2
    mean_total = float(agg.mean_total)
    opt = 4.0 * consts.initial_gap / (stepsize * mean_total * rounds)
    noise = 4.0 * L * stepsize * consts.noise_var / n
    drift = 6.0 * L**2 * stepsize**2 * g_sq * agg.drift_sq_sum / (n * mean_total)
    staleness = (
        6.0
        * L**2
        * stepsize**2
        * g_sq
        * agg.max_total
        * (bp.pre_weight * agg.sum_sq_pre + bp.overlap_weight * agg.sum_sq_overlap)
        / ((n * mean_total) * (1.0 - bp.contraction))
    )
    return RateBound(
        opt_term=opt,
        noise_term=noise,
        drift_term=drift,
        staleness_term=staleness,
        total=opt + noise + drift + staleness,
    )


def accumulated_dispersion(agg: TimingAggregates, bp: BoundParams) -> float:
    """X = drift_sq_sum + max_total * (pre_weight*S_N + overlap_weight*S_Q) / (1 - c)."""
    return agg.drift_sq_sum + agg.max_total * (
        bp.pre_weight * agg.sum_sq_pre + bp.overlap_weight * agg.sum_sq_overlap
    ) / (1.0 - bp.contraction)


def round_complexity(
    consts: ProblemConstants,
    agg: TimingAggregates,
    bp: BoundParams,
    epsilon: float,
    n: int,
    c_round: float = 12.0,
) -> int:
    """Rounds sufficient to drive the expected squared gradient below epsilon."""
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if n < 1:
        raise ConfigurationError("need n >= 1")
    gap_l = consts.initial_gap * consts.smoothness
    mean_total = float(agg.mean_total)
    term_noise = gap_l * consts.noise_var / (n * epsilon * mean_total)
    spread = gap_l * consts.grad_bound * math.sqrt(accumulated_dispersion(agg, bp))
    scale = epsilon**1.5 * mean_total * math.sqrt(n * mean_total)  # 0.0 once epsilon**1.5 underflows
    term_disp = spread / scale if scale else (math.inf if spread else 0.0)
    term_opt = gap_l * agg.max_total / (epsilon * mean_total)
    rounds = c_round * (term_noise + term_disp + term_opt)
    if not math.isfinite(rounds):
        raise ConfigurationError(f"round complexity is not a finite number at epsilon={epsilon}, c_round={c_round}")
    return int(math.ceil(rounds))


def tune_bound_params(
    k: int,
    d: int,
    agg: TimingAggregates,
    grid: int = 40,
) -> BoundParams:
    """Grid-search (alpha, beta) minimizing the staleness weight subject to
    contraction < 1.  With a full mask any choice works; (1, 1) is returned."""
    if k == d:
        return BoundParams(alpha=1.0, beta=1.0, k=k, d=d)
    residual = (d - k) / d
    # contraction < 1 needs (1+alpha)(1+beta) < 1/residual
    budget = 1.0 / residual
    best = None
    best_val = math.inf
    candidates = np.exp(np.linspace(math.log(1e-4), math.log(budget - 1.0), grid))
    for alpha in candidates:
        for beta in candidates:
            if (1.0 + alpha) * (1.0 + beta) >= budget:
                continue
            bp = BoundParams(alpha=float(alpha), beta=float(beta), k=k, d=d)
            val = (bp.pre_weight * agg.sum_sq_pre + bp.overlap_weight * agg.sum_sq_overlap) / (
                1.0 - bp.contraction
            )
            if val < best_val:
                best, best_val = bp, val
    if best is None:
        raise ConfigurationError(f"no admissible (alpha, beta) found for residual {residual}")
    return best


def logistic_smoothness(dataset: Dataset, reg: RegularizerParams) -> float:
    """Upper bound: max_i ||x_i||^2 / 4 plus the regularizer curvature bound."""
    row_sq = np.sum(dataset.features**2, axis=1)
    return float(row_sq.max()) / 4.0 + reg.curvature_bound()


def estimate_gradient_stats(
    oracle, dataset: Dataset, reg: RegularizerParams, w: np.ndarray, n_draws: int = 200
) -> tuple[float, float]:
    """Monte Carlo estimates (noise_var, grad_bound) at the point ``w``.

    Draws use the reserved round index -1 so they never collide with
    simulation streams.  These are estimates, not bounds.
    """
    exact = full_gradient(w, dataset, reg)
    sq_dev = 0.0
    sq_norm = 0.0
    for s in range(n_draws):
        g = oracle.gradient(w, 0, -1, s)
        sq_dev += float(np.sum((g - exact) ** 2))
        sq_norm += float(np.sum(g * g))
    noise_var = sq_dev / n_draws
    grad_bound = math.sqrt(sq_norm / n_draws)
    return noise_var, grad_bound


def initial_gap_upper_bound(dataset: Dataset, reg: RegularizerParams, x0: np.ndarray) -> float:
    """f(x0) - 0: valid because logistic loss and the penalty are non-negative."""
    return dataset_loss(x0, dataset) + reg.value(x0)
