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

import numpy as np

from .core import Mask, RngStream, average, project_mask, sample_rand_k
from .errors import ConfigurationError, DivergenceError
from .timing import TimingPlan

__all__ = [
    "METHODS",
    "RoundOutcome",
    "OVERLAP_METHODS",
    "local_steps",
    "merge_delay_corrected",
    "merge_overwrite",
    "method_plan_problems",
    "round_mask",
    "run_round",
]

# Runs abort once any coordinate leaves this range; prevents silent NaNs.
DIVERGENCE_LIMIT = 1e100


METHODS = ("sync_sgd", "fedavg_full", "local_sparse", "overlap_overwrite", "overlap_delay_corrected")

# Overlap methods keep taking local steps during the communication window;
# the other (blocking) methods idle.
OVERLAP_METHODS = frozenset({"overlap_overwrite", "overlap_delay_corrected"})


@dataclass(frozen=True)
class RoundOutcome:
    """Everything one round produced.  Model arrays are ``(n, d)``; ``sent``
    and ``latest`` are read-only views of arrays the round's methods share,
    and need not be contiguous.

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
    if not np.abs(w).max() <= DIVERGENCE_LIMIT:  # a NaN makes the max NaN, which fails the test
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

    ``w`` is one ``(d,)`` model or an ``(m, d)`` stack of models that step
    together; each row moves exactly as it would alone.  Step ``t`` (for t in
    [first_step, first_step + count)) draws its sample from the stream keyed
    by (worker, round_index, t), so trajectories compose: running N then Q
    steps with consecutive indices equals running N + Q steps at once.
    """
    if count < 0:
        raise ConfigurationError(f"step count must be >= 0, got {count}")
    if stepsize <= 0:
        raise ConfigurationError(f"stepsize must be positive, got {stepsize}")
    grad_sum = np.zeros_like(w)
    with np.errstate(over="ignore"):  # an overflowing step leaves an infinity for _guard to report
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


def method_plan_problems(method: str, plan: TimingPlan, mask_size: int, dim: int) -> list[str]:
    """Every reason ``method`` cannot run on ``plan`` with a k-of-d mask."""
    wants = []
    if method == "sync_sgd":
        if len(set(plan.step_times)) != 1:
            wants.append("equal step_times")
        if plan.compute_periods != 1:
            wants.append("compute_periods == 1")
        if plan.comm_seconds != 0:
            wants.append("comm_seconds == 0")
    if method in ("sync_sgd", "fedavg_full") and mask_size != dim:
        wants.append(f"a full mask (k == d, got k={mask_size}, d={dim})")
    if not wants:
        return []
    return [f"{method} requires " + ", ".join(wants)]


def round_mask(root_seed: int, round_index: int, dim: int, mask_size: int) -> Mask:
    """The k-of-d mask of round ``round_index``, shared by all its workers and methods."""
    return sample_rand_k(dim, mask_size, RngStream(root_seed, ("mask", round_index)).generator())


def run_round(
    starts: dict,
    plan: TimingPlan,
    mask: Mask,
    stepsize: float,
    oracle,
    round_index: int,
) -> dict:
    """Execute one round of every method in ``starts``, a mapping from a name
    in ``METHODS`` to its ``(n, d)`` start models; return ``{method:
    RoundOutcome}`` in the same order.

    The starts are not modified, and the caller draws the round's ``mask``
    (see ``round_mask``).  Sample streams are keyed (worker, round, step
    index), so methods that take the same steps see the same randomness, and
    the methods step in lockstep: one worker-major ``(n, m, d)`` array holds
    every model, overlap methods first, and worker ``i``'s ``(m, d)`` block
    takes each keyed gradient once.  Every outcome is bit for bit the one its
    method gets alone.  A ``DivergenceError`` names the worker and round of
    the first step that left the range, not the method; running each method's
    round alone finds which ones diverge.
    """
    if not starts:
        raise ConfigurationError("a round needs at least one method")
    n, dim = plan.n_workers, mask.d
    for key, start in starts.items():
        if key not in METHODS:
            raise ConfigurationError(f"unknown method {key!r}")
        if start.ndim != 2 or start.shape[0] != n:
            raise ConfigurationError(f"start models have shape {start.shape} but plan has {n} workers")
        if start.shape[1] != dim:
            raise ConfigurationError(f"mask dimension {dim} does not match model dimension {start.shape[1]}")
        problems = method_plan_problems(key, plan, mask.indices.size, dim)
        if problems:
            raise ConfigurationError("; ".join(problems))

    order = sorted(starts, key=lambda key: key not in OVERLAP_METHODS)  # stable: overlap methods first
    q = sum(key in OVERLAP_METHODS for key in starts)
    # sent[i, j] is worker i's model of method order[j]; row j of grad_sum sums its
    # gradients: every worker's pre-communication steps, then every overlap step
    grad_sum = np.zeros((len(order), dim))
    sent = latest = np.stack([starts[key] for key in order], axis=1)
    for i, block in enumerate(sent):
        grad_sum += local_steps(block, plan.pre_steps[i], stepsize, oracle, i, round_index)
    if q:  # the overlap rows keep stepping while the message is in flight
        latest = sent[:, :q].copy()
        for i, block in enumerate(latest):
            first = plan.pre_steps[i]
            grad_sum[:q] += local_steps(block, plan.overlap_steps[i], stepsize, oracle, i, round_index, first)
    sent.flags.writeable = latest.flags.writeable = False  # the outcomes' views inherit this

    outcomes = {}
    for j, key in enumerate(order):
        sent_j = sent[:, j]
        latest_j = latest[:, j] if j < q else sent_j
        # every row is within DIVERGENCE_LIMIT, so this average is finite
        sent_avg = average(sent_j)
        if key == "overlap_delay_corrected":
            next_models = merge_delay_corrected(latest_j, sent_j, sent_avg, mask)
        else:
            # sync_sgd, fedavg_full, local_sparse (latest is sent), overlap_overwrite
            next_models = merge_overwrite(latest_j, project_mask(sent_avg, mask), mask)
        outcomes[key] = RoundOutcome(
            next_models=next_models,
            sent=sent_j,
            latest=latest_j,
            mask=mask,
            duration=plan.round_seconds,
            steps=plan.total_steps if j < q else plan.pre_steps,
            avg_grad_sum=grad_sum[j] / n,
        )
    return {key: outcomes[key] for key in starts}
