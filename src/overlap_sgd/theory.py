"""Closed-form convergence-rate machinery.

Evaluates the non-convex rate bound term by term, the stepsize ceiling,
and the round complexity implied by a timing plan, plus
empirical estimators for the problem constants on real datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_finite
from .errors import ConfigurationError
from .objective import RegularizerParams, full_gradient
from .timing import TimingPlan
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
]

# Log-spaced points per axis of the (alpha, beta) search in tune_bound_params.
BOUND_GRID_POINTS = 40


@dataclass(frozen=True)
class BoundParams:
    """Analysis parameters for a mask of size k out of d coordinates.

    residual   = 1 - k / d, the fraction of coordinates a round does not send
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

    def staleness_weight(self, plan: TimingPlan) -> float:
        """pre_weight * S_N + overlap_weight * S_Q, the squared step counts weighted."""
        return self.pre_weight * plan.sum_sq_pre + self.overlap_weight * plan.sum_sq_overlap


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


def max_stepsize(consts: ProblemConstants, plan: TimingPlan) -> float:
    """Largest admissible stepsize, 1 / (8 L max_total)."""
    return 1.0 / (8.0 * consts.smoothness * plan.max_total)


def rate_bound(
    consts: ProblemConstants,
    plan: TimingPlan,
    bp: BoundParams,
    stepsize: float,
    n: int,
    rounds: int,
) -> RateBound:
    """The four-term bound on the average squared gradient norm."""
    ceiling = max_stepsize(consts, plan)
    if stepsize <= 0:
        raise ConfigurationError(f"stepsize must be positive, got {stepsize}")
    if stepsize > ceiling:
        raise ConfigurationError(f"stepsize exceeds the admissible maximum {ceiling}")
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    if n < 1:
        raise ConfigurationError("need n >= 1")
    L = consts.smoothness
    g_sq = consts.grad_bound**2
    mean_total = float(plan.mean_total)
    opt = 4.0 * consts.initial_gap / (stepsize * mean_total * rounds)
    noise = 4.0 * L * stepsize * consts.noise_var / n
    drift = 6.0 * L**2 * stepsize**2 * g_sq * plan.drift_sq_sum / (n * mean_total)
    staleness = (
        6.0
        * L**2
        * stepsize**2
        * g_sq
        * plan.max_total
        * bp.staleness_weight(plan)
        / ((n * mean_total) * (1.0 - bp.contraction))
    )
    return RateBound(
        opt_term=opt,
        noise_term=noise,
        drift_term=drift,
        staleness_term=staleness,
        total=opt + noise + drift + staleness,
    )


def accumulated_dispersion(plan: TimingPlan, bp: BoundParams) -> float:
    """X = drift_sq_sum + max_total * (pre_weight*S_N + overlap_weight*S_Q) / (1 - c)."""
    return plan.drift_sq_sum + plan.max_total * bp.staleness_weight(plan) / (1.0 - bp.contraction)


def round_complexity(
    consts: ProblemConstants,
    plan: TimingPlan,
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
    mean_total = float(plan.mean_total)
    term_noise = gap_l * consts.noise_var / (n * epsilon * mean_total)
    spread = gap_l * consts.grad_bound * math.sqrt(accumulated_dispersion(plan, bp))
    scale = epsilon**1.5 * mean_total * math.sqrt(n * mean_total)  # 0.0 once epsilon**1.5 underflows
    term_disp = spread / scale if scale else (math.inf if spread else 0.0)
    term_opt = gap_l * plan.max_total / (epsilon * mean_total)
    rounds = c_round * (term_noise + term_disp + term_opt)
    if not math.isfinite(rounds):
        raise ConfigurationError(f"round complexity is not a finite number at epsilon={epsilon}, c_round={c_round}")
    return int(math.ceil(rounds))


def tune_bound_params(k: int, d: int, plan: TimingPlan) -> BoundParams:
    """Grid-search (alpha, beta) minimizing the staleness weight subject to
    contraction < 1.  With a full mask any choice works; (1, 1) is returned."""
    if k == d:
        return BoundParams(alpha=1.0, beta=1.0, k=k, d=d)
    residual = (d - k) / d
    # contraction < 1 needs (1+alpha)(1+beta) < 1/residual
    budget = 1.0 / residual
    best = None
    best_val = math.inf
    # a mask so sparse that (1 + 1e-4)**2 >= budget starts where (low, low) is admissible
    low = 1e-4 if (1.0 + 1e-4) ** 2 < budget else (budget - 1.0) / 3
    candidates = np.exp(np.linspace(math.log(low), math.log(budget - 1.0), BOUND_GRID_POINTS))
    for alpha in candidates:
        for beta in candidates:
            if (1.0 + alpha) * (1.0 + beta) >= budget:
                continue
            bp = BoundParams(alpha=float(alpha), beta=float(beta), k=k, d=d)
            val = bp.staleness_weight(plan) / (1.0 - bp.contraction)
            if val < best_val:
                best, best_val = bp, val
    if best is None:
        raise ConfigurationError(f"no admissible (alpha, beta) found for residual {residual}")
    return best


def logistic_smoothness(dataset: Dataset, reg: RegularizerParams) -> float:
    """Upper bound: max_i ||x_i||^2 / 4 plus the regularizer curvature bound."""
    with np.errstate(over="ignore"):  # data whose squares overflow is reported below, once
        smooth = float(np.sum(dataset.features**2, axis=1).max()) / 4.0 + reg.curvature_bound()
    check_finite(smooth, "smoothness bound")
    return smooth


def estimate_gradient_stats(oracle, w: np.ndarray, n_draws: int = 200) -> tuple[float, float]:
    """Monte Carlo estimates (noise_var, grad_bound) at the point ``w``.

    The draws are compared with the exact gradient over the oracle's own
    dataset and regularizer.  Draws use the reserved round index -1 so they
    never collide with simulation streams.  These are estimates, not bounds.
    """
    data = oracle.dataset
    exact = full_gradient(w, data.features @ w, data, oracle.regularizer)
    sq_dev = 0.0
    sq_norm = 0.0
    for s in range(n_draws):
        g = oracle.gradient(w, 0, -1, s)
        sq_dev += float(np.sum((g - exact) ** 2))
        sq_norm += float(np.sum(g * g))
    noise_var = sq_dev / n_draws
    grad_bound = math.sqrt(sq_norm / n_draws)
    return noise_var, grad_bound
