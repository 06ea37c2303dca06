from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from overlap_sgd.errors import ConfigurationError
from overlap_sgd.theory import time_complexity
from overlap_sgd.timing import TimingPlan, aggregates, build_plan

small_taus = st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=5)


def test_reference_fleet():
    plan = build_plan((1, 2, 3, 6), 3, 6)
    assert plan.base_period == 6
    assert plan.pre_steps == (18, 9, 6, 3)
    assert plan.overlap_steps == (6, 3, 2, 1)
    assert plan.total_steps == (24, 12, 8, 4)
    assert plan.round_seconds == 24


def test_long_delay_stress_fleet():
    plan = build_plan((1, 2, 3, 6), 1, 96)
    assert plan.pre_steps == (6, 3, 2, 1)
    assert plan.overlap_steps == (96, 48, 32, 16)


def test_single_step_fleet():
    plan = build_plan((1, 1), 1, 0)
    assert plan.base_period == 1
    assert plan.pre_steps == (1, 1)
    assert plan.overlap_steps == (0, 0)
    assert plan.total_steps == (1, 1)


def test_reference_aggregates():
    agg = aggregates(build_plan((1, 2, 3, 6), 3, 6))
    assert agg.mean_total == 12
    assert agg.max_total == 24
    assert agg.sum_sq_pre == 450
    assert agg.sum_sq_overlap == 50
    assert agg.drift_sq_sum == 4984
    assert agg.harmonic_step_time == 2


def test_single_step_aggregates():
    agg = aggregates(build_plan((1, 1), 1, 0))
    assert agg.mean_total == 1
    assert agg.max_total == 1
    assert agg.sum_sq_pre == 2
    assert agg.sum_sq_overlap == 0
    assert agg.drift_sq_sum == 0


def test_two_step_drift_weight():
    # one worker, H = 2: drift weight is 0^2 + 1^2 = 1
    plan = build_plan((2,), 1, 2)
    assert plan.pre_steps == (1,)
    assert plan.overlap_steps == (1,)
    assert aggregates(plan).drift_sq_sum == sum(t * t for t in range(2))


def test_comm_window_must_align_with_base_period():
    with pytest.raises(ConfigurationError, match=r"multiple of 6.*0 and 6"):
        build_plan((1, 2, 3, 6), 3, 5)


def test_rejects_pathological_lcm():
    with pytest.raises(ConfigurationError, match="lcm"):
        build_plan((2**20 + 7, 2**20 - 3), 1, 0)


def test_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        build_plan((), 1, 0)
    with pytest.raises(ConfigurationError):
        build_plan((0, 1), 1, 0)
    with pytest.raises(ConfigurationError):
        build_plan((1,), 0, 0)
    with pytest.raises(ConfigurationError):
        build_plan((1,), 1, -1)


@given(taus=small_taus, m=st.integers(1, 5), zeta_mult=st.integers(0, 4))
def test_time_alignment_is_exact(taus, m, zeta_mult):
    plan = build_plan(taus, m, zeta_mult * build_plan(taus, 1, 0).base_period)
    for tau, n, q in zip(plan.step_times, plan.pre_steps, plan.overlap_steps):
        assert tau * n == m * plan.base_period
        assert tau * q == plan.comm_seconds
    agg = aggregates(plan)
    assert agg.harmonic_step_time * agg.mean_total == plan.round_seconds
    assert (agg.drift_sq_sum == 0) == all(h == 1 for h in plan.total_steps)


@given(taus=small_taus, m=st.integers(1, 4))
def test_zero_delay_kills_overlap(taus, m):
    plan = build_plan(taus, m, 0)
    assert all(q == 0 for q in plan.overlap_steps)
    assert aggregates(plan).sum_sq_overlap == 0


@given(taus=small_taus, m=st.integers(1, 4), zeta_mult=st.integers(0, 3))
def test_monotonicity(taus, m, zeta_mult):
    base = build_plan(taus, 1, 0).base_period
    plan = build_plan(taus, m, zeta_mult * base)
    bigger_m = build_plan(taus, 2 * m, zeta_mult * base)
    assert all(b == 2 * a for a, b in zip(plan.pre_steps, bigger_m.pre_steps))
    longer_comm = build_plan(taus, m, (zeta_mult + 1) * base)
    for tau, q0, q1 in zip(plan.step_times, plan.overlap_steps, longer_comm.overlap_steps):
        assert q1 == q0 + base // tau


def test_harmonic_mean_is_exact_rational():
    agg = aggregates(build_plan((2, 3), 1, 6))
    assert agg.harmonic_step_time == Fraction(12, 5)


def test_corrupt_plan_raises_configuration_error():
    # pre_steps of a (1, 2) fleet over a 2-second window are (2, 1), not (2, 2);
    # the explicit checks must hold under ``python -O`` too
    good = build_plan((1, 2), 1, 0)
    corrupt = TimingPlan(
        step_times=good.step_times,
        compute_periods=good.compute_periods,
        comm_seconds=good.comm_seconds,
        base_period=good.base_period,
        pre_steps=(2, 2),
        overlap_steps=(0, 0),
        total_steps=(2, 2),
    )
    with pytest.raises(ConfigurationError, match="corrupt timing plan"):
        aggregates(corrupt)
    with pytest.raises(ConfigurationError, match="corrupt timing plan"):
        time_complexity(3, corrupt)
