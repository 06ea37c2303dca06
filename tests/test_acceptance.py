"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The heavier criteria drive the full CLI / suite pipeline end to end.
"""

import time
from pathlib import Path

import numpy as np
import yaml

from conftest import make_logistic_oracle, make_quadratic_oracle
from overlap_sgd.cli import main
from overlap_sgd.config import rand_k_size, validate_config
from overlap_sgd.core import RngStream, average, project_mask, sample_rand_k
from overlap_sgd.data import synthetic_blobs
from overlap_sgd.engine import Method, merge_delay_corrected, run_round
from overlap_sgd.errors import ConfigurationError
from overlap_sgd.objective import RegularizerParams, dataset_loss, full_gradient
from overlap_sgd.runner import run_suite
from overlap_sgd.theory import (
    BoundParams,
    ProblemConstants,
    max_stepsize,
    rate_bound,
)
from overlap_sgd.timing import aggregates, build_plan


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def ordering_config(tmp_path, methods, compute_periods=3, comm_seconds=6, tag="run"):
    raw = {
        "name": f"acceptance-{tag}",
        "dataset": {"synthetic": {"dim": 100, "n_examples": 8000, "separation": 2.0, "seed": 7}},
        "normalize": True,
        "val_fraction": 0.1,
        "partition": {"mode": "shared"},
        "step_times": [1, 2, 3, 6],
        "compute_periods": compute_periods,
        "comm_seconds": comm_seconds,
        "methods": list(methods),
        "stepsize": 0.1,
        "batch_size": 256,
        "sparsity": 0.3,
        "rounds": 20,
        "seeds": [1, 2, 3, 4, 5],
        "output_dir": str(tmp_path / f"out-{tag}"),
    }
    config, issues = validate_config(raw)
    assert not issues, issues
    return config


def mean_final_losses(result):
    by_method = {}
    for run in result.runs:
        assert run.status == "ok"
        by_method.setdefault(run.method, []).append(run.records[-1].train_loss)
    return {m: float(np.mean(v)) for m, v in by_method.items()}


def test_criterion_01_average_evolution_identity():
    """Mean model moves by exactly -stepsize * (recorded averaged gradients)."""
    started = time.time()
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(2, 51))
        taus = tuple(int(t) for t in rng.integers(1, 4, size=n))
        m_periods = int(rng.integers(1, 3))
        plan_base = build_plan(taus, 1, 0).base_period
        zeta = int(rng.integers(0, 3)) * plan_base
        plan = build_plan(taus, m_periods, zeta)
        k = int(rng.integers(1, d + 1))
        eta = float(rng.uniform(0.01, 0.2))
        if trial % 2 == 0:
            oracle = make_quadratic_oracle(dim=d, noise=0.5, seed=trial, curvature=1.0)
        else:
            blobs = synthetic_blobs(dim=d, n_examples=30, separation=1.2, seed=trial)
            oracle = make_logistic_oracle(blobs, n_workers=n, batch_size=4, seed=trial)
        models = [rng.standard_normal(d) for _ in range(n)]
        for r in range(2):
            mean_before = average(models)
            out = run_round(
                np.stack(models), Method.OVERLAP_DELAY_CORRECTED, plan, k, eta, oracle, trial, r
            )
            mean_after = average(list(out.next_models))
            resid = np.linalg.norm(mean_after - (mean_before - eta * out.avg_grad_sum))
            tol = 1e-10 * (1.0 + np.linalg.norm(mean_before))
            worst = max(worst, resid / tol)
            assert resid <= tol
            models = [m.copy() for m in out.next_models]
    elapsed = time.time() - started
    report(1, "average-evolution identity", worst <= 1.0 and elapsed < 10.0,
           f"worst resid/tol {worst:.3g}, {elapsed:.1f}s")


def test_criterion_02_mask_expectation_identity():
    """Resampling only the mask: E[next disagreement] = residual*Z + density*V."""
    started = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(5, 31))
        k = int(rng.integers(1, d + 1))
        taus = tuple(int(t) for t in rng.integers(1, 4, size=n))
        base = build_plan(taus, 1, 0).base_period
        plan = build_plan(taus, 1, base)  # one comm window so overlap moves differ
        oracle = make_quadratic_oracle(dim=d, noise=0.6, seed=trial + 1, curvature=1.0)
        models = [rng.standard_normal(d) for _ in range(n)]
        out = run_round(
            np.stack(models), Method.OVERLAP_DELAY_CORRECTED, plan, k, 0.1, oracle, trial + 1, 0
        )
        sent = np.stack(out.sent)
        latest = np.stack(out.latest)
        sent_avg = average(list(out.sent))
        overlap_moves = latest - sent
        z_disp = float(((latest - latest.mean(axis=0)) ** 2).sum())
        v_disp = float(((overlap_moves - overlap_moves.mean(axis=0)) ** 2).sum())
        density = k / d
        target = (1.0 - density) * z_disp + density * v_disp

        # vectorized resampling, pinned bitwise to the production merge
        corrected = sent_avg + (latest - sent)  # the on-mask value, per worker
        gen = RngStream(trial + 1, ("resample",)).generator()
        probe = sample_rand_k(d, k, gen)
        broadcast = latest.copy()
        broadcast[:, probe.indices] = corrected[:, probe.indices]
        merged = [merge_delay_corrected(z, y, sent_avg, probe) for z, y in zip(latest, sent)]
        np.testing.assert_array_equal(broadcast, np.stack(merged))

        total = 0.0
        draws = 10_000
        for _ in range(draws):
            idx = sample_rand_k(d, k, gen).indices
            nxt = latest.copy()
            nxt[:, idx] = corrected[:, idx]
            total += float(((nxt - nxt.mean(axis=0)) ** 2).sum())
        rel = abs(total / draws - target) / target
        worst = max(worst, rel)
        assert rel <= 0.02, (trial, rel)
    elapsed = time.time() - started
    report(2, "mask-expectation identity", worst <= 0.02 and elapsed < 30.0,
           f"worst rel dev {worst:.4f}, {elapsed:.1f}s")


def test_criterion_03_minibatch_equivalence():
    """Equal speeds, one step, no delay, full mask: all methods coincide."""
    started = time.time()
    d, n, rounds = 20, 4, 50
    blobs = synthetic_blobs(dim=d, n_examples=60, separation=1.2, seed=5)
    oracle = make_logistic_oracle(blobs, n_workers=n, batch_size=8, seed=31)
    plan = build_plan((3, 3, 3, 3), 1, 0)
    methods = (
        Method.SYNC_SGD,
        Method.LOCAL_SPARSE,
        Method.OVERLAP_OVERWRITE,
        Method.OVERLAP_DELAY_CORRECTED,
    )
    models = {m: [np.zeros(d) for _ in range(n)] for m in methods}
    worst = 0.0
    for r in range(rounds):
        for m in methods:
            out = run_round(np.stack(models[m]), m, plan, d, 0.05, oracle, 31, r)
            models[m] = [v.copy() for v in out.next_models]
        ref = np.stack(models[Method.SYNC_SGD])
        for m in methods:
            worst = max(worst, float(np.abs(np.stack(models[m]) - ref).max()))
    elapsed = time.time() - started
    report(3, "synchronized-minibatch equivalence", worst <= 1e-12 and elapsed < 5.0,
           f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_step_count_exactness():
    plan = build_plan((1, 2, 3, 6), 3, 6)
    stress = build_plan((1, 2, 3, 6), 1, 96)
    ok = (
        plan.pre_steps == (18, 9, 6, 3)
        and plan.overlap_steps == (6, 3, 2, 1)
        and plan.round_seconds == 24
        and stress.overlap_steps == (96, 48, 32, 16)
    )
    report(4, "step-count exactness", ok,
           f"pre {plan.pre_steps}, overlap {plan.overlap_steps}, stress {stress.overlap_steps}")


def test_criterion_05_method_ordering(tmp_path):
    """Delay-corrected <= overwrite <= blocking sparse on final mean train loss."""
    started = time.time()
    config = ordering_config(
        tmp_path, ["local_sparse", "overlap_overwrite", "overlap_delay_corrected"], tag="ordering"
    )
    losses = mean_final_losses(run_suite(config))
    dc = losses["overlap_delay_corrected"]
    ow = losses["overlap_overwrite"]
    ls = losses["local_sparse"]
    elapsed = time.time() - started
    report(5, "method ordering", dc < ow < ls and elapsed < 120.0,
           f"dc {dc:.6f} < ow {ow:.6f} < ls {ls:.6f}, {elapsed:.1f}s")


def test_criterion_06_long_delay_amplification(tmp_path):
    """The delay-corrected advantage grows when communication dominates."""
    started = time.time()
    methods = ["overlap_overwrite", "overlap_delay_corrected"]
    long_delay = mean_final_losses(
        run_suite(ordering_config(tmp_path, methods, compute_periods=2, comm_seconds=24, tag="long"))
    )
    short_delay = mean_final_losses(
        run_suite(ordering_config(tmp_path, methods, compute_periods=8, comm_seconds=6, tag="short"))
    )
    gap_long = long_delay["overlap_overwrite"] - long_delay["overlap_delay_corrected"]
    gap_short = short_delay["overlap_overwrite"] - short_delay["overlap_delay_corrected"]
    elapsed = time.time() - started
    report(6, "long-delay amplification", gap_long > gap_short and elapsed < 240.0,
           f"gap long {gap_long:.2e} > gap short {gap_short:.2e}, {elapsed:.1f}s")


def test_criterion_07_rand_k_statistics():
    started = time.time()
    d, k, draws = 10, 3, 100_000
    x = np.linspace(0.5, 1.5, d)
    gen = RngStream(4242, ("randk",)).generator()
    counts = np.zeros(d)
    projected_sum = np.zeros(d)
    for _ in range(draws):
        mask = sample_rand_k(d, k, gen)
        counts[list(mask.indices)] += 1
        projected_sum += project_mask(x, mask)
    freq = counts / draws
    freq_dev = float(np.abs(freq - k / d).max())
    mean_rel_dev = float((np.abs(projected_sum / draws - (k / d) * x) / ((k / d) * x)).max())
    elapsed = time.time() - started
    report(7, "rand-k statistics", freq_dev <= 0.01 and mean_rel_dev <= 0.02,
           f"freq dev {freq_dev:.4f}, projected rel dev {mean_rel_dev:.4f}, {elapsed:.1f}s")


def test_criterion_08_gradient_correctness():
    rng = np.random.default_rng(99)
    worst = 0.0
    for reg in (RegularizerParams(), RegularizerParams(strength=0.5, scale=0.7)):
        blobs = synthetic_blobs(dim=8, n_examples=40, separation=1.0, seed=int(reg.strength * 10))
        for _ in range(25):
            w = rng.uniform(-1.5, 1.5, size=8)
            analytic = full_gradient(w, blobs, reg)
            fd = np.zeros_like(w)
            for j in range(8):
                up, down = w.copy(), w.copy()
                up[j] += 1e-6
                down[j] -= 1e-6
                fd[j] = (
                    (dataset_loss(up, blobs) + reg.value(up))
                    - (dataset_loss(down, blobs) + reg.value(down))
                ) / 2e-6
            rel = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
            worst = max(worst, float(rel))
    report(8, "gradient correctness", worst <= 1e-5, f"worst rel err {worst:.2e}")


def test_criterion_09_theory_specializations():
    # full mask: residual-driven constants collapse exactly
    bp_full = BoundParams(alpha=0.3, beta=0.9, k=12, d=12)
    exact_full = (bp_full.contraction, bp_full.pre_weight, bp_full.overlap_weight) == (0.0, 0.0, 1.0)

    # no communication window: no overlap contribution in the staleness term
    agg0 = aggregates(build_plan((1, 2), 2, 0))
    no_overlap = agg0.sum_sq_overlap == 0

    consts = ProblemConstants(smoothness=2.0, noise_var=1.0, grad_bound=2.0, initial_gap=3.0)

    # synchronized single-step regime: classic two-term rate exactly
    agg_mb = aggregates(build_plan((1, 1), 1, 0))
    bp_mb = BoundParams(alpha=1.0, beta=1.0, k=4, d=4)
    eta = max_stepsize(consts, agg_mb)
    rb = rate_bound(consts, agg_mb, bp_mb, eta, n=2, rounds=9)
    classic = (
        rb.drift_term == 0.0
        and rb.staleness_term == 0.0
        and rb.total == 4 * consts.initial_gap / (eta * 9) + 4 * consts.smoothness * eta * consts.noise_var / 2
    )

    # stepsize gate: equality admitted, anything above rejected
    agg = aggregates(build_plan((1, 2, 3, 6), 3, 6))
    bp = BoundParams(alpha=0.1, beta=0.1, k=3, d=10)
    ceiling = max_stepsize(consts, agg)
    rate_bound(consts, agg, bp, ceiling, n=4, rounds=5)
    try:
        rate_bound(consts, agg, bp, ceiling * (1.0 + 1e-9), n=4, rounds=5)
        gate = False
    except ConfigurationError:
        gate = True

    ok = exact_full and no_overlap and classic and gate
    report(9, "theory specializations", ok,
           f"full-mask {exact_full}, no-overlap {no_overlap}, classic {classic}, gate {gate}")


def test_criterion_10_communication_accounting(tmp_path):
    def tiny_config(sparsity, tag):
        raw = {
            "name": f"acct-{tag}",
            "dataset": {"synthetic": {"dim": 100, "n_examples": 400, "separation": 2.0, "seed": 3}},
            "normalize": True,
            "val_fraction": 0.1,
            "partition": {"mode": "shared"},
            "step_times": [1, 2, 3, 6],
            "compute_periods": 3,
            "comm_seconds": 6,
            "methods": ["overlap_delay_corrected", "local_sparse"],
            "stepsize": 0.1,
            "batch_size": 16,
            "sparsity": sparsity,
            "rounds": 3,
            "seeds": [0],
            "output_dir": str(tmp_path / f"acct-{tag}"),
        }
        config, issues = validate_config(raw)
        assert not issues, issues
        return config

    plan = build_plan((1, 2, 3, 6), 3, 6)
    n, rounds, width, batch = 4, 3, 32, 16
    res_sparse = run_suite(tiny_config(0.01, "p001"))
    res_dense = run_suite(tiny_config(0.3, "p030"))
    k_sparse, k_dense = rand_k_size(0.01, 100), rand_k_size(0.3, 100)

    def final(result, method):
        return [r for r in result.runs if r.method == method][0].records[-1]

    f_sparse = final(res_sparse, "overlap_delay_corrected")
    f_dense = final(res_dense, "overlap_delay_corrected")
    ratio_exact = f_sparse.comm_bits * k_dense == f_dense.comm_bits * k_sparse
    closed_bits = (
        f_sparse.comm_bits == 2 * n * k_sparse * width * rounds
        and f_dense.comm_bits == 2 * n * k_dense * width * rounds
    )
    closed_examples = (
        f_dense.processed_examples == batch * rounds * sum(plan.total_steps)
        and final(res_dense, "local_sparse").processed_examples
        == batch * rounds * sum(plan.pre_steps)
    )
    ok = ratio_exact and closed_bits and closed_examples
    report(10, "communication accounting", ok,
           f"bits {f_sparse.comm_bits}/{f_dense.comm_bits} = k {k_sparse}/{k_dense}")


def test_criterion_11_determinism(tmp_path, capsys):
    raw = {
        "name": "determinism",
        "dataset": {"synthetic": {"dim": 30, "n_examples": 500, "separation": 1.5, "seed": 2}},
        "normalize": True,
        "val_fraction": 0.1,
        "partition": {"mode": "dirichlet", "alpha": 0.5},
        "step_times": [1, 2],
        "compute_periods": 2,
        "comm_seconds": 2,
        "methods": ["local_sparse", "overlap_overwrite", "overlap_delay_corrected"],
        "stepsize": 0.1,
        "batch_size": 8,
        "sparsity": 0.4,
        "rounds": 4,
        "seeds": [3, 4],
        "output_dir": str(tmp_path / "det"),
    }
    cfg_path = tmp_path / "det.yaml"
    cfg_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    out_dir = Path(raw["output_dir"])

    assert main(["run", str(cfg_path)]) == 0
    first = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert main(["run", str(cfg_path)]) == 0
    second = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    capsys.readouterr()
    same = first == second
    kinds = {Path(nm).suffix for nm in first}
    report(11, "byte-identical reruns", same and {".csv", ".jsonl", ".json"} <= kinds,
           f"{len(first)} files compared")
