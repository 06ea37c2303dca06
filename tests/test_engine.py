import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import QuadraticOracle, make_logistic_oracle, make_quadratic_oracle, one_round
from overlap_sgd.core import Mask, RngStream, average, project_mask, sample_rand_k
from overlap_sgd.data import synthetic_blobs
from overlap_sgd.engine import (
    DIVERGENCE_LIMIT,
    METHODS,
    RoundOutcome,
    _guard,
    local_steps,
    merge_delay_corrected,
    merge_overwrite,
    method_plan_problems,
    round_mask,
    run_round,
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

    @pytest.mark.parametrize("logistic", [True, False])
    def test_a_stack_steps_as_its_rows_do(self, tiny_oracle, logistic):
        oracle = tiny_oracle if logistic else make_quadratic_oracle(dim=8, noise=0.4, seed=3)
        stack = np.random.default_rng(5).standard_normal((3, 8))
        rows = stack.copy()
        sums = local_steps(stack, 4, 0.05, oracle, worker=1, round_index=2, first_step=1)
        for j in range(3):
            row_sum = local_steps(rows[j], 4, 0.05, oracle, worker=1, round_index=2, first_step=1)
            assert stack[j].tobytes() == rows[j].tobytes()
            assert sums[j].tobytes() == row_sum.tobytes()

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

    def test_an_overflowing_step_is_reported_by_the_guard_alone(self):
        # 1e308 * 10 overflows to inf: the guard raises, and NumPy prints no RuntimeWarning
        oracle = make_quadratic_oracle(dim=3)
        with pytest.raises(DivergenceError) as info:
            local_steps(np.full(3, 10.0), 1, 1e308, oracle, worker=1, round_index=2)
        assert (info.value.round_index, info.value.worker) == (2, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0000001e100, -1.0000001e100])
    def test_guard_names_the_round_and_worker(self, bad):
        w = np.array([0.5, bad, -2.0])
        with pytest.raises(DivergenceError) as info:
            _guard(w, round_index=7, worker=3)
        assert (info.value.round_index, info.value.worker) == (7, 3)
        assert str(info.value) == "worker 3 diverged in round 7"

    def test_guard_allows_the_limit_itself(self):
        _guard(np.array([DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT, 0.0]), round_index=0, worker=0)


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


@st.composite
def fleet_shapes(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    d = draw(st.integers(min_value=1, max_value=40))
    k = draw(st.integers(min_value=1, max_value=d))
    return n, d, k


class TestMergeProperties:
    @given(shape=fleet_shapes(), seed=st.integers(min_value=0, max_value=2**32))
    @example(shape=(3, 1, 1), seed=0)
    @example(shape=(4, 9, 9), seed=1)
    def test_stack_merges_equal_row_by_row(self, shape, seed):
        n, d, k = shape
        gen = RngStream(seed, ("merge-property",)).generator()
        latest, sent = gen.standard_normal((2, n, d))
        mask = sample_rand_k(d, k, gen)
        sent_avg = average(sent)
        message = project_mask(sent_avg, mask)
        dc = merge_delay_corrected(latest, sent, sent_avg, mask)
        ow = merge_overwrite(latest, message, mask)
        for i in range(n):
            np.testing.assert_array_equal(dc[i], merge_delay_corrected(latest[i], sent[i], sent_avg, mask))
            np.testing.assert_array_equal(ow[i], merge_overwrite(latest[i], message, mask))

    @given(
        shape=fleet_shapes(),
        seed=st.integers(min_value=0, max_value=2**32),
        step_times=st.lists(st.integers(min_value=1, max_value=3), min_size=6, max_size=6),
    )
    @example(shape=(3, 1, 1), seed=0, step_times=[1, 2, 3, 1, 2, 3])
    @example(shape=(4, 9, 9), seed=1, step_times=[1, 2, 3, 1, 2, 3])
    def test_delay_corrected_mean_equals_mean_of_latest(self, shape, seed, step_times):
        n, d, k = shape
        taus = step_times[:n]  # one per worker
        plan = build_plan(taus, 1, math.lcm(*taus))
        start = RngStream(seed, ("start-property",)).generator().standard_normal((n, d))
        oracle = make_quadratic_oracle(dim=d, noise=0.3, seed=seed)
        out = one_round(start, "overlap_delay_corrected", plan, round_mask(seed, 0, d, k), 0.05, oracle, 0)
        latest_mean = average(out.latest)
        resid = np.linalg.norm(average(out.next_models) - latest_mean)
        assert resid <= 1e-12 * (1.0 + np.linalg.norm(latest_mean))

    @settings(max_examples=150, deadline=None)
    @given(
        shape=fleet_shapes(),
        seed=st.integers(min_value=0, max_value=2**32),
        step_times=st.lists(st.integers(min_value=1, max_value=3), min_size=6, max_size=6),
        compute_periods=st.integers(min_value=1, max_value=2),
        comm_bases=st.integers(min_value=0, max_value=2),
        method=st.sampled_from(
            ["local_sparse", "overlap_overwrite", "overlap_delay_corrected", "fedavg_full"]
        ),
        logistic=st.booleans(),
    )
    @example(
        shape=(1, 1, 1), seed=0, step_times=[1] * 6, compute_periods=1, comm_bases=0,
        method="overlap_overwrite", logistic=True,
    )
    def test_mean_model_identities(self, shape, seed, step_times, compute_periods, comm_bases, method, logistic):
        # criterion 01's identity, with the merge identities, for every merging method on both oracles
        n, d, k = shape
        k = d if method == "fedavg_full" else k
        taus = step_times[:n]
        plan = build_plan(taus, compute_periods, comm_bases * math.lcm(*taus))
        if logistic:
            oracle = make_logistic_oracle(synthetic_blobs(d, 30, 1.2, seed), n_workers=n, batch_size=4, seed=seed)
        else:
            oracle = make_quadratic_oracle(dim=d, noise=0.5, seed=seed)
        start = RngStream(seed, ("start-property",)).generator().standard_normal((n, d))
        mask = round_mask(seed, 0, d, k)
        out = one_round(start, method, plan, mask, 0.05, oracle, 0)

        def close(actual, expected):
            return np.linalg.norm(actual - expected) <= 1e-10 * (1.0 + np.linalg.norm(expected))

        latest = average(out.latest)
        assert close(latest, average(start) - 0.05 * out.avg_grad_sum)
        if method == "overlap_delay_corrected":
            assert close(average(out.next_models), latest)
        else:
            on_mask = np.isin(np.arange(d), mask.indices)
            assert close(average(out.next_models), np.where(on_mask, average(out.sent), latest))


def assert_same_outcome(got, alone):
    for field in fields(RoundOutcome):
        a, b = getattr(got, field.name), getattr(alone, field.name)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name
        elif isinstance(a, Mask):
            assert (a.d, a.indices.tobytes()) == (b.d, b.indices.tobytes())
        else:
            assert a == b, field.name
    assert (got.latest is got.sent) == (alone.latest is alone.sent)
    for outcome in (got, alone):  # views of the round's shared arrays are read-only; the merged models are not
        flags = (outcome.sent.flags.writeable, outcome.latest.flags.writeable, outcome.next_models.flags.writeable)
        assert flags == (False, False, True)


SPARSE_METHODS = ("local_sparse", "overlap_overwrite", "overlap_delay_corrected")


def assert_diverges_in_lockstep_and_alone(starts, diverging, plan):
    """The lockstep round and ``diverging``'s round alone raise at the same step; the rest run together."""
    oracle, mask = make_quadratic_oracle(dim=3, curvature=1e3), round_mask(0, 3, 3, 2)
    for round_starts in (starts, {diverging: starts[diverging]}):
        with pytest.raises(DivergenceError) as info:
            run_round(round_starts, plan, mask, 0.1, oracle, 3)
        assert (info.value.worker, info.value.round_index) == (1, 3)
    rest = {m: start for m, start in starts.items() if m != diverging}
    assert list(run_round(rest, plan, mask, 0.1, oracle, 3)) == list(rest)


class TestLockstep:
    @settings(max_examples=80, deadline=None)
    @given(
        shape=fleet_shapes(),
        seed=st.integers(min_value=0, max_value=2**32),
        step_times=st.lists(st.integers(min_value=1, max_value=3), min_size=6, max_size=6),
        compute_periods=st.integers(min_value=1, max_value=2),
        comm_bases=st.integers(min_value=0, max_value=2),
        full_mask=st.booleans(),
        methods=st.permutations(METHODS),
        count=st.integers(min_value=1, max_value=len(METHODS)),
        oracle_kind=st.sampled_from(["logistic", "regularized", "quadratic"]),
    )
    @example(
        shape=(2, 4, 4), seed=0, step_times=[1] * 6, compute_periods=1, comm_bases=0, full_mask=True,
        methods=METHODS[::-1], count=len(METHODS), oracle_kind="logistic",
    )
    def test_each_outcome_is_the_one_its_method_gets_alone(
        self, shape, seed, step_times, compute_periods, comm_bases, full_mask, methods, count, oracle_kind
    ):
        n, d, k = shape
        k = d if full_mask else k
        taus = step_times[:n]
        plan = build_plan(taus, compute_periods, comm_bases * math.lcm(*taus))
        allowed = [m for m in methods if not method_plan_problems(m, plan, k, d)][:count]
        if oracle_kind == "quadratic":
            oracle = make_quadratic_oracle(dim=d, noise=0.5, seed=seed)
        else:
            blobs = synthetic_blobs(d, 30, 1.2, seed)
            strength = 0.3 if oracle_kind == "regularized" else 0.0
            oracle = make_logistic_oracle(blobs, n_workers=n, batch_size=4, seed=seed, strength=strength)
        gen = RngStream(seed, ("lockstep-starts",)).generator()
        starts = {m: gen.standard_normal((n, d)) for m in allowed}
        before = {m: start.copy() for m, start in starts.items()}
        mask = round_mask(seed, 3, d, k)
        together = run_round(starts, plan, mask, 0.05, oracle, 3)
        assert list(together) == allowed
        for m in allowed:
            assert starts[m].tobytes() == before[m].tobytes()
            assert_same_outcome(together[m], one_round(starts[m], m, plan, mask, 0.05, oracle, 3))

    @pytest.mark.parametrize("diverging", SPARSE_METHODS)
    def test_a_diverging_method_raises_in_lockstep_and_alone(self, diverging):
        # each step multiplies a model by -99; worker 1's start at 1e99 crosses the limit on its first step
        starts = {m: np.ones((2, 3)) for m in SPARSE_METHODS}
        starts[diverging] = np.array([[1.0, 1.0, 1.0], [1.0, 1e99, 1.0]])
        assert_diverges_in_lockstep_and_alone(starts, diverging, build_plan((1, 2), 1, 2))

    @pytest.mark.parametrize("diverging", ["overlap_overwrite", "overlap_delay_corrected"])
    def test_a_method_diverging_in_its_overlap_steps_raises_in_lockstep_and_alone(self, diverging):
        # each step multiplies a model by -99: worker 1's row at 1e96 stays in range through its two
        # pre-communication steps (9.8e99) and leaves it on its one overlap step
        big = np.array([[1.0, 1.0, 1.0], [1.0, 1e96, 1.0]])
        starts = {m: np.ones((2, 3)) for m in SPARSE_METHODS}
        starts[diverging] = starts["local_sparse"] = big
        assert_diverges_in_lockstep_and_alone(starts, diverging, build_plan((1, 1), 2, 1))

    def test_rejects_an_empty_round(self):
        with pytest.raises(ConfigurationError, match="at least one method"):
            run_round({}, build_plan((1,), 1, 0), round_mask(0, 0, 2, 1), 0.1, make_quadratic_oracle(dim=2), 0)


class TestRunRound:
    def test_start_models_are_not_modified(self):
        oracle = make_quadratic_oracle(dim=5, noise=0.3, seed=2)
        cases = [
            ("sync_sgd", build_plan((1, 1), 1, 0), 5, np.ones((2, 5))),
            ("fedavg_full", build_plan((1, 2), 1, 2), 5, np.arange(10.0).reshape(2, 5)),
            ("local_sparse", build_plan((1, 2), 1, 2), 2, np.arange(10.0).reshape(2, 5)),
            ("overlap_overwrite", build_plan((1, 2), 1, 2), 2, np.arange(10.0).reshape(2, 5)),
            ("overlap_delay_corrected", build_plan((1, 2), 1, 2), 2, np.arange(10.0).reshape(2, 5)),
        ]
        for method, plan, mask_size, start in cases:
            before = start.copy()
            out = one_round(start, method, plan, round_mask(2, 0, 5, mask_size), 0.05, oracle, 0)
            np.testing.assert_array_equal(start, before)
            assert out.next_models.shape == out.sent.shape == out.latest.shape == (2, 5)

    def test_rejects_start_shape_mismatch(self):
        oracle = make_quadratic_oracle(dim=4)
        plan = build_plan((1, 2), 1, 0)
        with pytest.raises(ConfigurationError, match="2 workers"):
            one_round(np.ones((3, 4)), "local_sparse", plan, round_mask(0, 0, 4, 2), 0.1, oracle, 0)

    def test_mean_of_merged_equals_mean_of_latest(self):
        oracle = make_quadratic_oracle(dim=12, noise=0.3, seed=4)
        plan = build_plan((1, 2, 4), 1, 4)
        start = np.stack([np.ones(12)] * 3)
        out = one_round(start, "overlap_delay_corrected", plan, round_mask(4, 0, 12, 5), 0.05, oracle, 0)
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
            out = one_round(start, "overlap_delay_corrected", plan, round_mask(8, r, 6, 2), 0.04, oracle, r)
            mean_before = average(models)
            mean_after = average(list(out.next_models))
            predicted = mean_before - 0.04 * out.avg_grad_sum
            assert np.linalg.norm(mean_after - predicted) <= 1e-10 * (1 + np.linalg.norm(mean_before))
            models = [m.copy() for m in out.next_models]

    def test_identical_init_has_zero_disagreement(self):
        assert disagreement(np.stack([np.ones(4)] * 3), average([np.ones(4)] * 3)) == 0.0

    def test_step_accounting(self):
        oracle = make_quadratic_oracle(dim=4, noise=0.1, seed=1)
        plan = build_plan((1, 2), 2, 2)
        for method, expected in [
            ("overlap_delay_corrected", plan.total_steps),
            ("overlap_overwrite", plan.total_steps),
            ("local_sparse", plan.pre_steps),
            ("fedavg_full", plan.pre_steps),
        ]:
            mask_size = 4 if method == "fedavg_full" else 2
            models = [np.ones(4)] * 2
            total = np.zeros(2, dtype=int)
            for r in range(3):
                start = np.stack(models)
                out = one_round(start, method, plan, round_mask(2, r, 4, mask_size), 0.05, oracle, r)
                total += np.array(out.steps)
                models = [m.copy() for m in out.next_models]
            np.testing.assert_array_equal(total, 3 * np.array(expected))

    def test_blocking_methods_have_no_overlap_drift(self):
        oracle = make_quadratic_oracle(dim=4, noise=0.2, seed=6)
        plan = build_plan((1, 2), 1, 2)
        start = np.stack([np.ones(4)] * 2)
        out = one_round(start, "local_sparse", plan, round_mask(6, 0, 4, 2), 0.05, oracle, 0)
        assert disagreement(out.latest - out.sent, average(out.latest - out.sent)) == 0.0
        assert disagreement(out.sent - start, average(out.sent - start)) > 0.0

    def test_round_duration_shared_by_all_methods(self):
        oracle = make_quadratic_oracle(dim=4, noise=0.0, seed=0)
        plan = build_plan((1, 2), 3, 4)
        for method in ("local_sparse", "overlap_overwrite"):
            start = np.stack([np.ones(4)] * 2)
            out = one_round(start, method, plan, round_mask(0, 0, 4, 2), 0.05, oracle, 0)
            assert out.duration == plan.round_seconds == 10

    def test_baseline_coincidence_no_delay_full_mask(self):
        # comm_seconds=0 and a full mask: the three sparse methods and
        # dense averaging walk the same trajectory under matched keys
        blobs = synthetic_blobs(dim=6, n_examples=40, separation=1.2, seed=5)
        oracle = make_logistic_oracle(blobs, n_workers=3, batch_size=4, seed=17)
        plan = build_plan((1, 2, 3), 2, 0)
        trajectories = {}
        for method in (
            "local_sparse",
            "overlap_overwrite",
            "overlap_delay_corrected",
            "fedavg_full",
        ):
            models = [np.zeros(6)] * 3
            snaps = []
            for r in range(4):
                start = np.stack(models)
                out = one_round(start, method, plan, round_mask(17, r, 6, 6), 0.1, oracle, r)
                models = [m.copy() for m in out.next_models]
                snaps.append(np.stack(models))
            trajectories[method] = np.stack(snaps)
        ref = trajectories["fedavg_full"]
        for method, traj in trajectories.items():
            np.testing.assert_array_equal(traj, ref), method

    def test_minibatch_equivalence_small(self):
        # sync_sgd is the one-step blocking round: bit-equal to fedavg_full,
        # and within rounding of the delay-corrected merge
        blobs = synthetic_blobs(dim=5, n_examples=30, separation=1.0, seed=2)
        oracle = make_logistic_oracle(blobs, n_workers=2, batch_size=4, seed=21)
        plan = build_plan((2, 2), 1, 0)
        methods = ("sync_sgd", "fedavg_full", "overlap_delay_corrected")
        models = {m: np.zeros((2, 5)) for m in methods}
        for r in range(10):
            mask = round_mask(21, r, 5, 5)
            outs = {m: one_round(models[m], m, plan, mask, 0.1, oracle, r) for m in methods}
            sync, start = outs["sync_sgd"], models["sync_sgd"]
            assert sync.latest is sync.sent
            for i in range(2):
                np.testing.assert_array_equal(sync.sent[i], start[i] - 0.1 * oracle.gradient(start[i], i, r, 0))
            models = {m: out.next_models.copy() for m, out in outs.items()}
            np.testing.assert_array_equal(models["fedavg_full"], models["sync_sgd"])
            dev = np.abs(models["overlap_delay_corrected"] - models["sync_sgd"]).max()
            assert dev <= 1e-12

    def test_single_worker_merge_rules_via_run_round(self):
        # same seed, one worker: the merges agree off-mask and differ by
        # exactly the overlap movement on-mask
        oracle = make_quadratic_oracle(dim=6, noise=0.4, seed=14)
        plan = build_plan((2,), 1, 2)
        outs = {}
        for method in ("overlap_overwrite", "overlap_delay_corrected"):
            outs[method] = one_round(np.stack([np.ones(6)]), method, plan, round_mask(14, 0, 6, 2), 0.1, oracle, 0)
        ow, dc = outs["overlap_overwrite"], outs["overlap_delay_corrected"]
        np.testing.assert_array_equal(ow.mask.indices, dc.mask.indices)
        np.testing.assert_array_equal(ow.latest[0], dc.latest[0])
        on = list(ow.mask.indices)
        off = np.setdiff1d(np.arange(6), ow.mask.indices)
        np.testing.assert_array_equal(ow.next_models[0][off], dc.next_models[0][off])
        overlap_move = dc.latest[0] - dc.sent[0]
        np.testing.assert_allclose(
            dc.next_models[0][on] - ow.next_models[0][on], overlap_move[on], rtol=1e-12
        )

    def test_round_mask_is_the_round_keyed_rand_k_draw(self):
        for seed, r, d, k in [(9, 4, 10, 3), (0, 0, 1, 1), (2**64 + 9, 4, 10, 3), (5, 7, 1000, 1000)]:
            mask = round_mask(seed, r, d, k)
            want = sample_rand_k(d, k, RngStream(seed, ("mask", r)).generator())
            assert mask.d == want.d == d
            np.testing.assert_array_equal(mask.indices, want.indices)

    def test_run_round_opens_no_mask_stream(self, monkeypatch):
        keys = []
        generator = RngStream.generator
        oracle = make_quadratic_oracle(dim=10, noise=0.1, seed=3)
        mask = round_mask(9, 4, 10, 3)
        monkeypatch.setattr(RngStream, "generator", lambda stream: keys.append(stream.key) or generator(stream))
        for method in ("local_sparse", "overlap_overwrite", "overlap_delay_corrected"):
            out = one_round(np.ones((2, 10)), method, build_plan((1, 1), 1, 1), mask, 0.05, oracle, 4)
            assert out.mask is mask
        assert sorted(set(keys)) == [("sample", w, 4, t) for w in range(2) for t in range(2)]

    def test_rejects_a_mask_over_another_dimension(self):
        oracle = make_quadratic_oracle(dim=4)
        plan = build_plan((1, 2), 1, 0)
        with pytest.raises(ConfigurationError, match="mask dimension 5 does not match model dimension 4"):
            one_round(np.zeros((2, 4)), "local_sparse", plan, round_mask(0, 0, 5, 2), 0.1, oracle, 0)

    def test_sync_step_divergence_names_the_first_worker(self):
        # sync_sgd steps each worker like every other method, so the guard
        # names the first worker whose one step leaves its range
        oracle = make_quadratic_oracle(dim=3, noise=0.0, seed=0, curvature=1e3)
        with pytest.raises(DivergenceError) as exc:
            plan = build_plan((1, 1), 1, 0)
            one_round(np.full((2, 3), 1e99), "sync_sgd", plan, round_mask(0, 7, 3, 3), 1.0, oracle, 7)
        assert (exc.value.worker, exc.value.round_index) == (0, 7)

    def test_method_plan_incompatibilities(self):
        # run_round rejects them, and a name outside METHODS, before round 0 takes a step
        oracle = make_quadratic_oracle(dim=4)
        start = np.zeros((2, 4))
        plan_uneq = build_plan((1, 2), 1, 0)
        with pytest.raises(ConfigurationError, match="sync_sgd requires"):
            one_round(start, "sync_sgd", plan_uneq, round_mask(0, 0, 4, 4), 0.1, oracle, 0)
        plan_eq = build_plan((1, 1), 1, 0)
        with pytest.raises(ConfigurationError, match="full mask"):
            one_round(start, "sync_sgd", plan_eq, round_mask(0, 0, 4, 2), 0.1, oracle, 0)
        with pytest.raises(ConfigurationError, match="fedavg_full requires"):
            one_round(start, "fedavg_full", plan_uneq, round_mask(0, 0, 4, 2), 0.1, oracle, 0)
        with pytest.raises(ConfigurationError, match="unknown method 'bogus'"):
            one_round(start, "bogus", plan_uneq, round_mask(0, 0, 4, 2), 0.1, oracle, 0)

    def test_method_plan_problems_lists_every_rule(self):
        plan = build_plan((1, 2), 2, 2)
        problems = method_plan_problems("sync_sgd", plan, 3, 4)
        assert len(problems) == 1
        for want in ("equal step_times", "compute_periods == 1", "comm_seconds == 0", "k == d"):
            assert want in problems[0]
        assert method_plan_problems("fedavg_full", plan, 4, 4) == []
        assert "k == d" in method_plan_problems("fedavg_full", plan, 3, 4)[0]
        assert method_plan_problems("sync_sgd", build_plan((1, 1), 1, 0), 4, 4) == []
        assert method_plan_problems("overlap_delay_corrected", plan, 1, 4) == []

    def test_round_matches_straight_line_reference(self):
        # re-derive one full round with raw loops (no engine helpers) and
        # demand bitwise agreement for all three sparse methods
        taus, m_periods, zeta, k, eta, seed = (1, 2), 2, 2, 3, 0.07, 123
        plan = build_plan(taus, m_periods, zeta)
        d, n = 6, 2
        oracle = QuadraticOracle(a_diag=np.linspace(0.5, 2.0, d), noise_sigma=0.3, root_seed=seed)
        x0 = [np.arange(d, dtype=float), -np.ones(d)]

        mask = sample_rand_k(d, k, RngStream(seed, ("mask", 4)).generator())
        idx = list(mask.indices)
        sent_ref, latest_ref = [], []
        pre_sums, overlap_sums = [np.zeros(d) for _ in range(n)], [np.zeros(d) for _ in range(n)]
        for i in range(n):
            w = x0[i].copy()
            for t in range(plan.pre_steps[i]):
                g = oracle.a_diag * w + 0.3 * RngStream(seed, ("sample", i, 4, t)).generator().standard_normal(d)
                w = w - eta * g
                pre_sums[i] += g
            sent_ref.append(w.copy())
            for t in range(plan.pre_steps[i], plan.total_steps[i]):
                g = oracle.a_diag * w + 0.3 * RngStream(seed, ("sample", i, 4, t)).generator().standard_normal(d)
                w = w - eta * g
                overlap_sums[i] += g
            latest_ref.append(w.copy())
        sent_avg = (sent_ref[0].copy() + sent_ref[1]) / n
        # one accumulator folds each worker's pre-communication sum in worker order, then each overlap sum
        blocking_sum = np.zeros(d) + pre_sums[0] + pre_sums[1]
        avg_grad_sums = {
            "local_sparse": blocking_sum / n,
            "overlap_overwrite": (blocking_sum + overlap_sums[0] + overlap_sums[1]) / n,
        }
        avg_grad_sums["overlap_delay_corrected"] = avg_grad_sums["overlap_overwrite"]

        expected = {}
        merged = [z.copy() for z in latest_ref]
        for i, z in enumerate(merged):
            z[idx] = sent_avg[idx] + (latest_ref[i][idx] - sent_ref[i][idx])
        expected["overlap_delay_corrected"] = merged
        merged = [z.copy() for z in latest_ref]
        for z in merged:
            z[idx] = sent_avg[idx]
        expected["overlap_overwrite"] = merged
        merged = [y.copy() for y in sent_ref]
        for y in merged:
            y[idx] = sent_avg[idx]
        expected["local_sparse"] = merged

        for method, want in expected.items():
            out = one_round(np.stack(x0), method, plan, round_mask(seed, 4, d, k), eta, oracle, round_index=4)
            np.testing.assert_array_equal(out.mask.indices, mask.indices)
            assert out.avg_grad_sum.tobytes() == avg_grad_sums[method].tobytes()
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
        out = one_round(start, "overlap_delay_corrected", plan, round_mask(12, 0, 8, 3), 0.1, oracle, 0)
        sent = list(out.sent)
        latest = list(out.latest)
        sent_avg = average(sent)
        k, d = 3, 8
        target = (1 - k / d) * disagreement(out.latest, average(latest)) + (k / d) * disagreement(
            out.latest - out.sent, average(out.latest - out.sent)
        )
        draws, total = 4000, 0.0
        resample = RngStream(12, ("resample",)).generator()
        for _ in range(draws):
            mask = sample_rand_k(d, k, resample)
            merged = [merge_delay_corrected(z, y, sent_avg, mask) for z, y in zip(latest, sent)]
            total += disagreement(merged, average(merged))
        assert total / draws == pytest.approx(target, rel=0.05)
