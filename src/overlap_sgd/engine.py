"""The round state machine.

One round: every worker runs its pre-communication local steps, the
masked models are averaged by the (simulated) server, overlap methods keep
stepping while the message is in flight, and the configured merge rule
produces the next round's starting models.  The worker models are the rows
of one float64 ``(n, d)`` array; a round reads it and returns new arrays.
Everything is a deterministic sequential state transition on logical time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Mask, RngStream, average, project_mask, sample_rand_k
from .errors import ConfigurationError, DivergenceError
from .timing import TimingPlan

__all__ = [
    "Method",
    "RoundOutcome",
    "OVERLAP_METHODS",
    "local_steps",
    "merge_delay_corrected",
    "merge_overwrite",
    "method_plan_problems",
    "validate_method_plan",
    "run_round",
]

# Runs abort once any coordinate leaves this range; prevents silent NaNs.
DIVERGENCE_LIMIT = 1e100


class Method(str, Enum):
    SYNC_SGD = "sync_sgd"
    FEDAVG_FULL = "fedavg_full"
    LOCAL_SPARSE = "local_sparse"
    OVERLAP_OVERWRITE = "overlap_overwrite"
    OVERLAP_DELAY_CORRECTED = "overlap_delay_corrected"


# Overlap methods keep taking local steps during the communication window;
# the other (blocking) methods idle.
OVERLAP_METHODS = frozenset({Method.OVERLAP_OVERWRITE, Method.OVERLAP_DELAY_CORRECTED})


@dataclass(frozen=True)
class RoundOutcome:
    """Everything one round produced; model arrays are ``(n, d)`` and may
    share memory with each other (for ``sync_sgd`` all three are one array),
    so callers treat them as read-only.

    next_models   merged per-worker models starting the next round
    sent          models after the pre-communication steps (what gets
                  compressed)
    latest        models when the server message arrives (the same array
                  as ``sent`` for blocking methods, which take no overlap
                  steps)
    mask          the shared coordinate mask drawn for this round
    duration      logical seconds the round occupied
    steps         local steps executed per worker
    avg_grad_sum  sum over step indices of the worker-averaged applied
                  gradients; the mean model moves by exactly
                  -stepsize * avg_grad_sum each round
    """

    next_models: np.ndarray
    sent: np.ndarray
    latest: np.ndarray
    mask: Mask
    duration: int
    steps: tuple[int, ...]
    avg_grad_sum: np.ndarray


def _guard(w: np.ndarray, round_index: int, worker: int) -> None:
    if not np.all(np.isfinite(w)) or np.any(np.abs(w) > DIVERGENCE_LIMIT):
        raise DivergenceError(
            f"worker {worker} diverged in round {round_index}",
            round_index=round_index,
            worker=worker,
        )


def local_steps(
    w: np.ndarray,
    count: int,
    stepsize: float,
    oracle,
    worker: int = 0,
    round_index: int = 0,
    first_step: int = 0,
) -> np.ndarray:
    """Advance ``w`` in place by ``count`` SGD steps; return their gradient sum.

    Step ``t`` (for t in [first_step, first_step + count)) draws its sample
    from the stream keyed by (worker, round_index, t), so trajectories
    compose: running N then Q steps with consecutive indices equals running
    N + Q steps at once.
    """
    if count < 0:
        raise ConfigurationError(f"step count must be >= 0, got {count}")
    if stepsize <= 0:
        raise ConfigurationError(f"stepsize must be positive, got {stepsize}")
    grad_sum = np.zeros_like(w)
    for t in range(first_step, first_step + count):
        g = oracle.gradient(w, worker, round_index, t)
        w -= stepsize * g
        _guard(w, round_index, worker)
        grad_sum += g
    return grad_sum


def merge_delay_corrected(
    latest: np.ndarray, sent: np.ndarray, sent_avg: np.ndarray, s: Mask
) -> np.ndarray:
    """latest + Proj_s(sent_avg - sent), for one model or a stack of them.

    On masked coordinates each worker moves to the delayed average plus its
    own overlap progress (latest - sent); off-mask coordinates keep the
    newest local value.
    """
    if latest.shape != sent.shape or latest.shape[-1:] != sent_avg.shape:
        raise ConfigurationError("merge inputs must share one dimension")
    out = latest.copy()
    idx = s.indices
    out[..., idx] = sent_avg[idx] + (latest[..., idx] - sent[..., idx])
    return out


def merge_overwrite(latest: np.ndarray, message: np.ndarray, s: Mask) -> np.ndarray:
    """Replace masked coordinates with the server message; keep the rest."""
    if latest.shape[-1:] != message.shape:
        raise ConfigurationError("merge inputs must share one dimension")
    out = latest.copy()
    out[..., s.indices] = message[s.indices]
    return out


def method_plan_problems(method: Method, plan: TimingPlan, mask_size: int, dim: int) -> list[str]:
    """Every reason ``method`` cannot run on ``plan`` with a k-of-d mask."""
    problems = []
    if not 1 <= mask_size <= dim:
        problems.append(f"mask size {mask_size} outside [1, {dim}]")
    if method is Method.SYNC_SGD:
        wants = []
        if len(set(plan.step_times)) != 1:
            wants.append("equal step_times")
        if plan.compute_periods != 1:
            wants.append("compute_periods == 1")
        if plan.comm_seconds != 0:
            wants.append("comm_seconds == 0")
        if mask_size != dim:
            wants.append(f"a full mask (k == d, got k={mask_size}, d={dim})")
        if wants:
            problems.append("sync_sgd requires " + ", ".join(wants))
    elif method is Method.FEDAVG_FULL and mask_size != dim:
        problems.append(f"fedavg_full requires a full mask (k == d, got k={mask_size}, d={dim})")
    return problems


def validate_method_plan(method: Method, plan: TimingPlan, mask_size: int, dim: int) -> None:
    """Reject method/plan combinations before round 0."""
    problems = method_plan_problems(method, plan, mask_size, dim)
    if problems:
        raise ConfigurationError("; ".join(problems))


def run_round(
    start: np.ndarray,
    method: Method,
    plan: TimingPlan,
    mask_size: int,
    stepsize: float,
    oracle,
    root_seed: int,
    round_index: int,
) -> RoundOutcome:
    """Execute one round of ``method`` from the ``(n, d)`` models ``start``.

    ``start`` is not modified.  The mask is drawn once from the
    round-keyed stream and shared by all workers; sample streams are keyed
    (worker, round, step index), so methods that take the same steps see
    the same randomness.
    """
    method = Method(method)
    if start.ndim != 2 or start.shape[0] != plan.n_workers:
        raise ConfigurationError(
            f"start models have shape {start.shape} but plan has {plan.n_workers} workers"
        )
    n, dim = start.shape
    validate_method_plan(method, plan, mask_size, dim)
    mask = sample_rand_k(dim, mask_size, RngStream(root_seed, ("mask", round_index)).generator())

    if method is Method.SYNC_SGD:
        # one gradient per worker at the common point, averaged, one global step
        common = start[0]
        if np.any(start != common):
            raise ConfigurationError("sync_sgd requires identical worker models")
        avg_grad_sum = average([oracle.gradient(common, i, round_index, 0) for i in range(n)])
        merged = common - stepsize * avg_grad_sum
        _guard(merged, round_index, worker=-1)
        sent = latest = next_models = np.tile(merged, (n, 1))
        steps = (1,) * n
    else:
        grad_sum = np.zeros(dim)
        sent = start.copy()
        for i in range(n):
            grad_sum += local_steps(sent[i], plan.pre_steps[i], stepsize, oracle, i, round_index)
        sent_avg = average(sent)
        if method in OVERLAP_METHODS:
            latest = sent.copy()
            for i in range(n):
                grad_sum += local_steps(
                    latest[i], plan.overlap_steps[i], stepsize, oracle, i, round_index, plan.pre_steps[i]
                )
            steps = plan.total_steps
        else:
            latest = sent
            steps = plan.pre_steps
        avg_grad_sum = grad_sum / n
        if method is Method.OVERLAP_DELAY_CORRECTED:
            next_models = merge_delay_corrected(latest, sent, sent_avg, mask)
        else:
            # fedavg_full, local_sparse (latest is sent), overlap_overwrite
            next_models = merge_overwrite(latest, project_mask(sent_avg, mask), mask)

    return RoundOutcome(
        next_models=next_models,
        sent=sent,
        latest=latest,
        mask=mask,
        duration=plan.round_seconds,
        steps=steps,
        avg_grad_sum=avg_grad_sum,
    )
