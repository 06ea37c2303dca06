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
        # zero is valid throughout: L = 0 is a flat loss, and G = 0 a zero gradient
        if not all(0.0 <= v < math.inf for v in (self.smoothness, self.noise_var, self.grad_bound, self.initial_gap)):
            raise ConfigurationError(f"problem constants must be finite and non-negative, got {self}")


@dataclass(frozen=True)
class RateBound:
    opt_term: float        # 4 gap / (stepsize * mean_total * rounds)
    noise_term: float      # 4 L stepsize sigma^2 / n
    drift_term: float      # within-round drift, scales with drift_sq_sum
    staleness_term: float  # sparse + delayed synchronization penalty
    total: float


def max_stepsize(consts: ProblemConstants, plan: TimingPlan) -> float:
    """Largest admissible stepsize, 1 / (8 L max_total); a flat loss (L = 0) has no ceiling."""
    L, total = consts.smoothness, plan.max_total  # where 8 L max_total overflows, divide in steps: tiny, not 0.0
    return (1.0 / (8.0 * L * total) or 0.125 / L / total) if L else math.inf


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
    mean_total = float(plan.mean_total)
    opt = 4.0 * consts.initial_gap / (stepsize * mean_total * rounds)
    noise = 4.0 * L * stepsize * consts.noise_var / n
    try:
        scale = 6.0 * L**2 * stepsize**2 * consts.grad_bound**2
    except OverflowError:  # a square past float range; stepsize <= ceiling keeps L * stepsize <= 1/8
        scale = 6.0 * (L * stepsize) ** 2 * consts.grad_bound**2
    drift = scale * plan.drift_sq_sum / (n * mean_total)
    staleness = scale * plan.max_total * bp.staleness_weight(plan) / ((n * mean_total) * (1.0 - bp.contraction))
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
    # epsilon divides first, so a huge epsilon keeps the products of the constants in float range
    gap_l_per_eps = consts.initial_gap * consts.smoothness / epsilon
    mean_total = float(plan.mean_total)
    term_noise = gap_l_per_eps * consts.noise_var / (n * mean_total)
    # 0 when G or X is, so the dispersion term is 0 too, whatever epsilon (inf * 0 would be NaN)
    spread = consts.grad_bound * math.sqrt(accumulated_dispersion(plan, bp)) / math.sqrt(epsilon)
    term_disp = gap_l_per_eps * spread / (mean_total * math.sqrt(n * mean_total))
    term_opt = gap_l_per_eps * plan.max_total / mean_total
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
    # a mask so sparse that (1 + 1e-4)**2 >= budget starts where (low, low) is admissible
    low = 1e-4 if (1.0 + 1e-4) ** 2 < budget else (budget - 1.0) / 3
    candidates = np.exp(np.linspace(math.log(low), math.log(budget - 1.0), BOUND_GRID_POINTS))
    admissible = [
        BoundParams(alpha=float(alpha), beta=float(beta), k=k, d=d)
        for alpha in candidates
        for beta in candidates
        if (1.0 + alpha) * (1.0 + beta) < budget
    ]
    if not admissible:
        raise ConfigurationError(f"no admissible (alpha, beta) found for residual {residual}")
    # min keeps the first of equal values, alpha-major: the least alpha, then the least beta
    return min(admissible, key=lambda bp: bp.staleness_weight(plan) / (1.0 - bp.contraction))


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
    # each term is scaled by an exact power of two <= 1 / n_draws, so a sum cannot overflow while its mean
    # fits; power-of-two scaling commutes with rounding, so (without subnormal terms) the means keep their bits
    scale = 2.0 ** -math.ceil(math.log2(n_draws))
    sq_dev = 0.0
    sq_norm = 0.0
    for s in range(n_draws):
        g = oracle.gradient(w, 0, -1, s)
        sq_dev += float(np.sum((g - exact) ** 2)) * scale
        sq_norm += float(np.sum(g * g)) * scale
    noise_var = sq_dev / n_draws / scale
    grad_bound = math.sqrt(sq_norm / n_draws / scale)
    return noise_var, grad_bound
