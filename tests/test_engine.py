import numpy as np
import pytest

from conftest import make_logistic_oracle, make_quadratic_oracle
from overlap_sgd.core import Mask, RngStream, average, project_mask, sample_rand_k
from overlap_sgd.data import synthetic_blobs
from overlap_sgd.engine import (
    Method,
    local_steps,
    merge_delay_corrected,
    merge_overwrite,
    method_plan_problems,
    run_round,
    validate_method_plan,
)
from overlap_sgd.errors import ConfigurationError, DivergenceError
from overlap_sgd.metrics import disagreement
from overlap_sgd.timing import build_plan


class TestRunLocalSteps:
    def test_zero_steps_returns_start(self):
        oracle = make_quadratic_oracle(dim=3)
        w = np.array([1.0, 2.0, 3.0])
        grad_sum = local_steps(w, 0, 0.1, oracle)
        np.testing.assert_array_equal(w, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(grad_sum, np.zeros(3))

    def test_deterministic_quadratic_contraction(self):
        # two noiseless steps on 0.5 * w^2 shrink the iterate by (1 - lr)^2
        oracle = make_quadratic_oracle(dim=1)
        w = np.array([1.0])
        grad_sum = local_steps(w, 2, 0.1, oracle)
        np.testing.assert_allclose(w, [0.81], rtol=1e-14)
        np.testing.assert_allclose(grad_sum, [1.9], rtol=1e-14)

    def test_trajectory_composition(self, tiny_oracle):
        full = np.zeros(8)
        local_steps(full, 3, 0.05, tiny_oracle, worker=1, round_index=2)
        split = np.zeros(8)
        local_steps(split, 2, 0.05, tiny_oracle, worker=1, round_index=2)
        local_steps(split, 1, 0.05, tiny_oracle, worker=1, round_index=2, first_step=2)
        np.testing.assert_array_equal(full, split)

    def test_advances_one_row_of_a_stack(self, tiny_oracle):
        alone = np.ones(8)
        local_steps(alone, 3, 0.05, tiny_oracle, worker=1)
        stack = np.ones((2, 8))
        local_steps(stack[1], 3, 0.05, tiny_oracle, worker=1)
        np.testing.assert_array_equal(stack[1], alone)
        np.testing.assert_array_equal(stack[0], np.ones(8))

    def test_rejects_bad_arguments(self, tiny_oracle):
        with pytest.raises(ConfigurationError):
            local_steps(np.zeros(8), -1, 0.1, tiny_oracle)
        with pytest.raises(ConfigurationError):
            local_steps(np.zeros(8), 1, 0.0, tiny_oracle)

    def test_divergence_guard(self):
        # |1 - lr * a| = 999 per step: blows past the guard within two rounds
        oracle = make_quadratic_oracle(dim=1, curvature=1e3)
        with pytest.raises(DivergenceError):
            local_steps(np.array([1.0]), 200, 1.0, oracle, round_index=5)


class TestMergeRules:
    def test_delay_corrected_single_worker_keeps_latest(self):
        sent = np.array([1.0, 2.0])
        latest = np.array([3.0, 4.0])
        out = merge_delay_corrected(latest, sent, sent_avg=sent, s=Mask([0], 2))
        np.testing.assert_array_equal(out, latest)

    def test_delay_corrected_hand_example(self):
        out = merge_delay_corrected(
            latest=np.array([2.0, 5.0]),
            sent=np.array([1.0, 0.0]),
            sent_avg=np.array([2.0, 0.0]),
            s=Mask([0], 2),
        )
        np.testing.assert_array_equal(out, [3.0, 5.0])

    def test_delay_corrected_average_identity_two_workers(self):
        # merged average equals the average of the latest models exactly
        sent = [np.array([1.0, 0.0]), np.array([3.0, 0.0])]
        latest = [np.array([2.0, 5.0]), np.array([4.0, 7.0])]
        sent_avg = average(sent)
        np.testing.assert_array_equal(sent_avg, [2.0, 0.0])
        mask = Mask([0], 2)
        merged = [merge_delay_corrected(z, y, sent_avg, mask) for z, y in zip(latest, sent)]
        np.testing.assert_array_equal(merged[0], [3.0, 5.0])
        np.testing.assert_array_equal(average(merged), average(latest))
        np.testing.assert_array_equal(average(merged), [3.0, 6.0])

    def test_delay_corrected_full_mask_no_overlap_is_plain_averaging(self):
        sent = np.array([1.0, 2.0])
        sent_avg = np.array([5.0, 6.0])
        out = merge_delay_corrected(sent.copy(), sent, sent_avg, Mask([0, 1], 2))
        np.testing.assert_array_equal(out, sent_avg)

    def test_overwrite_hand_example(self):
        out = merge_overwrite(
            latest=np.array([4.0, 7.0]),
            message=np.array([2.0, 0.0]),
            s=Mask([0], 2),
        )
        np.testing.assert_array_equal(out, [2.0, 7.0])

    def test_overwrite_single_worker_discards_overlap_progress(self):
        sent = np.array([1.0, 2.0])
        latest = np.array([3.0, 4.0])
        mask = Mask([0], 2)
        message = project_mask(sent, mask)
        out = merge_overwrite(latest, message, mask)
        np.testing.assert_array_equal(out, [1.0, 4.0])

    def test_overwrite_off_mask_passthrough(self):
        out = merge_overwrite(np.array([9.0, 8.0]), np.array([1.0, 0.0]), Mask([0], 2))
        assert out[1] == 8.0

    def test_merge_rules_differ_by_overlap_progress_on_mask(self):
        # single worker: off-mask equal, on-mask differs by exactly latest - sent
        gen = RngStream(3, ("merge-demo",)).generator()
        sent = gen.standard_normal(6)
        latest = gen.standard_normal(6)
        mask = Mask([1, 4], 6)
        ow = merge_overwrite(latest, project_mask(sent, mask), mask)
        dc = merge_delay_corrected(latest, sent, sent, mask)
        off = [0, 2, 3, 5]
        np.testing.assert_array_equal(ow[off], dc[off])
        on = list(mask.indices)
        np.testing.assert_allclose(dc[on] - ow[on], latest[on] - sent[on], rtol=1e-14)


class TestMergeStack:
    def test_stack_merge_equals_row_by_row(self):
        gen = RngStream(5, ("stack-demo",)).generator()
        latest = gen.standard_normal((3, 7))
        sent = gen.standard_normal((3, 7))
        sent_avg = average(sent)
        mask = Mask([0, 3, 6], 7)
        message = project_mask(sent_avg, mask)
        dc = merge_delay_corrected(latest, sent, sent_avg, mask)
        ow = merge_overwrite(latest, message, mask)
        for i in range(3):
            np.testing.assert_array_equal(dc[i], merge_delay_corrected(latest[i], sent[i], sent_avg, mask))
            np.testing.assert_array_equal(ow[i], merge_overwrite(latest[i], message, mask))

    def test_stack_merge_rejects_mismatched_width(self):
        mask = Mask([0], 2)
        with pytest.raises(ConfigurationError):
            merge_delay_corrected(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(3), mask)
        with pytest.raises(ConfigurationError):
            merge_overwrite(np.zeros((2, 2)), np.zeros(3), mask)


class TestRunRound:
    def test_start_models_are_not_modified(self):
        oracle = make_quadratic_oracle(dim=5, noise=0.3, seed=2)
        cases = [
            (Method.SYNC_SGD, build_plan((1, 1), 1, 0), 5, np.ones((2, 5))),
            (Method.FEDAVG_FULL, build_plan((1, 2), 1, 2), 5, np.arange(10.0).reshape(2, 5)),
            (Method.LOCAL_SPARSE, build_plan((1, 2), 1, 2), 2, np.arange(10.0).reshape(2, 5)),
            (Method.OVERLAP_OVERWRITE, build_plan((1, 2), 1, 2), 2, np.arange(10.0).reshape(2, 5)),
            (Method.OVERLAP_DELAY_CORRECTED, build_plan((1, 2), 1, 2), 2, np.arange(10.0).reshape(2, 5)),
        ]
        for method, plan, mask_size, start in cases:
            before = start.copy()
            out = run_round(start, method, plan, mask_size, 0.05, oracle, 2, 0)
            np.testing.assert_array_equal(start, before)
            assert out.next_models.shape == out.sent.shape == out.latest.shape == (2, 5)

    def test_rejects_start_shape_mismatch(self):
        oracle = make_quadratic_oracle(dim=4)
        plan = build_plan((1, 2), 1, 0)
        with pytest.raises(ConfigurationError, match="2 workers"):
            run_round(np.ones((3, 4)), Method.LOCAL_SPARSE, plan, 2, 0.1, oracle, 0, 0)

    def test_mean_of_merged_equals_mean_of_latest(self):
        oracle = make_quadratic_oracle(dim=12, noise=0.3, seed=4)
        plan = build_plan((1, 2, 4), 1, 4)
        start = np.stack([np.ones(12)] * 3)
        out = run_round(start, Method.OVERLAP_DELAY_CORRECTED, plan, 5, 0.05, oracle, 4, 0)
        merged_mean = average(list(out.next_models))
        latest_mean = average(list(out.latest))
        resid = np.linalg.norm(merged_mean - latest_mean)
        assert resid <= 1e-12 * (1.0 + np.linalg.norm(latest_mean))

    def test_average_evolution_identity(self):
        oracle = make_quadratic_oracle(dim=6, noise=0.5, seed=8)
        plan = build_plan((1, 3), 1, 3)
        models = [np.full(6, 2.0)] * 2
        for r in range(5):
            start = np.stack(models)
            out = run_round(start, Method.OVERLAP_DELAY_CORRECTED, plan, 2, 0.04, oracle, 8, r)
            mean_before = average(models)
            mean_after = average(list(out.next_models))
            predicted = mean_before - 0.04 * out.avg_grad_sum
            assert np.linalg.norm(mean_after - predicted) <= 1e-10 * (1 + np.linalg.norm(mean_before))
            models = [m.copy() for m in out.next_models]

    def test_identical_init_has_zero_disagreement(self):
        assert disagreement(np.stack([np.ones(4)] * 3)) == 0.0

    def test_step_accounting(self):
        oracle = make_quadratic_oracle(dim=4, noise=0.1, seed=1)
        plan = build_plan((1, 2), 2, 2)
        for method, expected in [
            (Method.OVERLAP_DELAY_CORRECTED, plan.total_steps),
            (Method.OVERLAP_OVERWRITE, plan.total_steps),
            (Method.LOCAL_SPARSE, plan.pre_steps),
            (Method.FEDAVG_FULL, plan.pre_steps),
        ]:
            mask_size = 4 if method is Method.FEDAVG_FULL else 2
            models = [np.ones(4)] * 2
            total = np.zeros(2, dtype=int)
            for r in range(3):
                start = np.stack(models)
                out = run_round(start, method, plan, mask_size, 0.05, oracle, 2, r)
                total += np.array(out.steps)
                models = [m.copy() for m in out.next_models]
            np.testing.assert_array_equal(total, 3 * np.array(expected))

    def test_blocking_methods_have_no_overlap_drift(self):
        oracle = make_quadratic_oracle(dim=4, noise=0.2, seed=6)
        plan = build_plan((1, 2), 1, 2)
        start = np.stack([np.ones(4)] * 2)
        out = run_round(start, Method.LOCAL_SPARSE, plan, 2, 0.05, oracle, 6, 0)
        assert disagreement(out.latest - out.sent) == 0.0
        assert disagreement(out.sent - start) > 0.0

    def test_round_duration_shared_by_all_methods(self):
        oracle = make_quadratic_oracle(dim=4, noise=0.0, seed=0)
        plan = build_plan((1, 2), 3, 4)
        for method in (Method.LOCAL_SPARSE, Method.OVERLAP_OVERWRITE):
            start = np.stack([np.ones(4)] * 2)
            out = run_round(start, method, plan, 2, 0.05, oracle, 0, 0)
            assert out.duration == plan.round_seconds == 10

    def test_baseline_coincidence_no_delay_full_mask(self):
        # comm_seconds=0 and a full mask: the three sparse methods and
        # dense averaging walk the same trajectory under matched keys
        blobs = synthetic_blobs(dim=6, n_examples=40, separation=1.2, seed=5)
        oracle = make_logistic_oracle(blobs, n_workers=3, batch_size=4, seed=17)
        plan = build_plan((1, 2, 3), 2, 0)
        trajectories = {}
        for method in (
            Method.LOCAL_SPARSE,
            Method.OVERLAP_OVERWRITE,
            Method.OVERLAP_DELAY_CORRECTED,
            Method.FEDAVG_FULL,
        ):
            models = [np.zeros(6)] * 3
            snaps = []
            for r in range(4):
                start = np.stack(models)
                out = run_round(start, method, plan, 6, 0.1, oracle, 17, r)
                models = [m.copy() for m in out.next_models]
                snaps.append(np.stack(models))
            trajectories[method] = np.stack(snaps)
        ref = trajectories[Method.FEDAVG_FULL]
        for method, traj in trajectories.items():
            np.testing.assert_array_equal(traj, ref), method

    def test_minibatch_equivalence_small(self):
        blobs = synthetic_blobs(dim=5, n_examples=30, separation=1.0, seed=2)
        oracle = make_logistic_oracle(blobs, n_workers=2, batch_size=4, seed=21)
        plan = build_plan((2, 2), 1, 0)
        sync_models = [np.zeros(5)] * 2
        dc_models = [np.zeros(5)] * 2
        for r in range(10):
            out_sync = run_round(np.stack(sync_models), Method.SYNC_SGD, plan, 5, 0.1, oracle, 21, r)
            out_dc = run_round(
                np.stack(dc_models), Method.OVERLAP_DELAY_CORRECTED, plan, 5, 0.1, oracle, 21, r
            )
            sync_models = [m.copy() for m in out_sync.next_models]
            dc_models = [m.copy() for m in out_dc.next_models]
            dev = max(
                np.abs(a - b).max() for a, b in zip(sync_models, dc_models)
            )
            assert dev <= 1e-12

    def test_single_worker_merge_rules_via_run_round(self):
        # same seed, one worker: the merges agree off-mask and differ by
        # exactly the overlap movement on-mask
        oracle = make_quadratic_oracle(dim=6, noise=0.4, seed=14)
        plan = build_plan((2,), 1, 2)
        outs = {}
        for method in (Method.OVERLAP_OVERWRITE, Method.OVERLAP_DELAY_CORRECTED):
            outs[method] = run_round(np.stack([np.ones(6)]), method, plan, 2, 0.1, oracle, 14, 0)
        ow, dc = outs[Method.OVERLAP_OVERWRITE], outs[Method.OVERLAP_DELAY_CORRECTED]
        assert ow.mask == dc.mask
        np.testing.assert_array_equal(ow.latest[0], dc.latest[0])
        on = list(ow.mask.indices)
        off = np.setdiff1d(np.arange(6), ow.mask.indices)
        np.testing.assert_array_equal(ow.next_models[0][off], dc.next_models[0][off])
        overlap_move = dc.latest[0] - dc.sent[0]
        np.testing.assert_allclose(
            dc.next_models[0][on] - ow.next_models[0][on], overlap_move[on], rtol=1e-12
        )

    def test_mask_shared_across_workers_and_methods(self):
        oracle = make_quadratic_oracle(dim=10, noise=0.1, seed=3)
        plan = build_plan((1, 1), 1, 1)
        a = run_round(np.stack([np.ones(10)] * 2), Method.OVERLAP_OVERWRITE, plan, 3, 0.05, oracle, 9, 4)
        b = run_round(
            np.stack([np.ones(10)] * 2), Method.OVERLAP_DELAY_CORRECTED, plan, 3, 0.05, oracle, 9, 4
        )
        assert a.mask == b.mask

    def test_sync_step_divergence_names_no_worker(self):
        # the one global step leaves the guard's range: worker -1 is the sync step
        oracle = make_quadratic_oracle(dim=3, noise=0.0, seed=0, curvature=1e3)
        with pytest.raises(DivergenceError) as exc:
            run_round(np.full((2, 3), 1e99), Method.SYNC_SGD, build_plan((1, 1), 1, 0), 3, 1.0, oracle, 0, 7)
        assert (exc.value.worker, exc.value.round_index) == (-1, 7)

    def test_sync_requires_identical_states(self):
        oracle = make_quadratic_oracle(dim=3, noise=0.0, seed=0)
        plan = build_plan((1, 1), 1, 0)
        start = np.stack([np.zeros(3), np.ones(3)])
        with pytest.raises(ConfigurationError, match="identical"):
            run_round(start, Method.SYNC_SGD, plan, 3, 0.1, oracle, 0, 0)

    def test_method_plan_incompatibilities(self):
        plan_uneq = build_plan((1, 2), 1, 0)
        with pytest.raises(ConfigurationError, match="sync_sgd requires"):
            validate_method_plan(Method.SYNC_SGD, plan_uneq, 4, 4)
        plan_eq = build_plan((1, 1), 1, 0)
        with pytest.raises(ConfigurationError, match="full mask"):
            validate_method_plan(Method.SYNC_SGD, plan_eq, 2, 4)
        with pytest.raises(ConfigurationError, match="fedavg_full requires"):
            validate_method_plan(Method.FEDAVG_FULL, plan_uneq, 2, 4)

    def test_method_plan_problems_lists_every_rule(self):
        plan = build_plan((1, 2), 2, 2)
        problems = method_plan_problems(Method.SYNC_SGD, plan, 3, 4)
        assert len(problems) == 1
        for want in ("equal step_times", "compute_periods == 1", "comm_seconds == 0", "k == d"):
            assert want in problems[0]
        assert method_plan_problems(Method.FEDAVG_FULL, plan, 4, 4) == []
        assert "k == d" in method_plan_problems(Method.FEDAVG_FULL, plan, 3, 4)[0]
        assert method_plan_problems(Method.LOCAL_SPARSE, plan, 5, 4) == ["mask size 5 outside [1, 4]"]
        assert method_plan_problems(Method.OVERLAP_DELAY_CORRECTED, plan, 1, 4) == []

    def test_round_matches_straight_line_reference(self):
        # re-derive one full round with raw loops (no engine helpers) and
        # demand bitwise agreement for all three sparse methods
        taus, m_periods, zeta, k, eta, seed = (1, 2), 2, 2, 3, 0.07, 123
        plan = build_plan(taus, m_periods, zeta)
        d, n = 6, 2
        from overlap_sgd.objective import QuadraticOracle

        oracle = QuadraticOracle(a_diag=np.linspace(0.5, 2.0, d), noise_sigma=0.3, root_seed=seed)
        x0 = [np.arange(d, dtype=float), -np.ones(d)]

        mask = sample_rand_k(d, k, RngStream(seed, ("mask", 4)).generator())
        idx = list(mask.indices)
        sent_ref, latest_ref = [], []
        for i in range(n):
            w = x0[i].copy()
            for t in range(plan.pre_steps[i]):
                g = oracle.a_diag * w + 0.3 * RngStream(seed, ("sample", i, 4, t)).generator().standard_normal(d)
                w = w - eta * g
            sent_ref.append(w.copy())
            for t in range(plan.pre_steps[i], plan.total_steps[i]):
                g = oracle.a_diag * w + 0.3 * RngStream(seed, ("sample", i, 4, t)).generator().standard_normal(d)
                w = w - eta * g
            latest_ref.append(w.copy())
        sent_avg = (sent_ref[0].copy() + sent_ref[1]) / n

        expected = {}
        merged = [z.copy() for z in latest_ref]
        for i, z in enumerate(merged):
            z[idx] = sent_avg[idx] + (latest_ref[i][idx] - sent_ref[i][idx])
        expected[Method.OVERLAP_DELAY_CORRECTED] = merged
        merged = [z.copy() for z in latest_ref]
        for z in merged:
            z[idx] = sent_avg[idx]
        expected[Method.OVERLAP_OVERWRITE] = merged
        merged = [y.copy() for y in sent_ref]
        for y in merged:
            y[idx] = sent_avg[idx]
        expected[Method.LOCAL_SPARSE] = merged

        for method, want in expected.items():
            out = run_round(
                np.stack(x0), method, plan, k, eta, oracle, seed, round_index=4
            )
            assert out.mask == mask
            for i in range(n):
                np.testing.assert_array_equal(out.sent[i], sent_ref[i])
                np.testing.assert_array_equal(out.next_models[i], want[i])

    def test_mask_expectation_identity_small(self):
        # holding one round's trajectories fixed, the mean disagreement over
        # resampled masks matches residual * Z + density * V
        oracle = make_quadratic_oracle(dim=8, noise=0.6, seed=12)
        plan = build_plan((1, 2), 1, 2)
        gen = RngStream(12, ("init",)).generator()
        models = [gen.standard_normal(8) for _ in range(2)]
        start = np.stack(models)
        out = run_round(start, Method.OVERLAP_DELAY_CORRECTED, plan, 3, 0.1, oracle, 12, 0)
        sent = list(out.sent)
        latest = list(out.latest)
        sent_avg = average(sent)
        k, d = 3, 8
        target = (1 - k / d) * disagreement(out.latest) + (k / d) * disagreement(out.latest - out.sent)
        draws, total = 4000, 0.0
        resample = RngStream(12, ("resample",)).generator()
        for _ in range(draws):
            mask = sample_rand_k(d, k, resample)
            merged = [merge_delay_corrected(z, y, sent_avg, mask) for z, y in zip(latest, sent)]
            total += disagreement(merged)
        assert total / draws == pytest.approx(target, rel=0.05)
