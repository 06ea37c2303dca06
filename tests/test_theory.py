import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_logistic_oracle
from overlap_sgd.data import synthetic_blobs
from overlap_sgd.errors import ConfigurationError
from overlap_sgd.objective import RegularizerParams, full_gradient
from overlap_sgd.theory import (
    BoundParams,
    ProblemConstants,
    accumulated_dispersion,
    estimate_gradient_stats,
    logistic_smoothness,
    max_stepsize,
    rate_bound,
    round_complexity,
    tune_bound_params,
)
from overlap_sgd.timing import aggregates, build_plan

CONSTS = ProblemConstants(smoothness=2.0, noise_var=1.5, grad_bound=3.0, initial_gap=4.0)


class TestBoundParams:
    def test_rejects_contraction_at_least_one(self):
        # residual 0.7 with alpha=beta=0.3 gives 0.7 * 1.3 * 1.3 = 1.183
        with pytest.raises(ConfigurationError, match="contraction"):
            BoundParams(alpha=0.3, beta=0.3, k=3, d=10)

    def test_full_mask_is_exact(self):
        bp = BoundParams(alpha=2.0, beta=5.0, k=7, d=7)
        assert bp.residual == 0.0
        assert bp.contraction == 0.0
        assert bp.pre_weight == 0.0
        assert bp.overlap_weight == 1.0

    def test_reference_values(self):
        bp = BoundParams(alpha=0.1, beta=0.1, k=3, d=10)
        assert bp.residual == pytest.approx(0.7, rel=1e-15)
        assert bp.contraction == pytest.approx(0.7 * 1.1 * 1.1, rel=1e-15)
        assert bp.pre_weight == pytest.approx(0.7 * 1.1 * 11.0, rel=1e-15)
        assert bp.overlap_weight == pytest.approx(8.0, rel=1e-15)

    def test_accumulated_dispersion_reference(self):
        # independent recomputation of X for the reference fleet at p = 0.3
        agg = aggregates(build_plan((1, 2, 3, 6), 3, 6))
        bp = BoundParams(alpha=0.1, beta=0.1, k=3, d=10)
        expected = 4984 + 24 * (bp.pre_weight * 450 + bp.overlap_weight * 50) / (1 - bp.contraction)
        assert accumulated_dispersion(agg, bp) == pytest.approx(expected, rel=1e-12)
        by_hand = 4984 + 24 * (8.47 * 450 + 8 * 50) / 0.153
        assert accumulated_dispersion(agg, bp) == pytest.approx(by_hand, rel=1e-3)


class TestRateBound:
    def test_stepsize_validator_boundary(self):
        agg = aggregates(build_plan((1, 2), 2, 2))
        ceiling = max_stepsize(CONSTS, agg)
        assert ceiling == 1.0 / (8.0 * 2.0 * agg.max_total)
        bp = BoundParams(alpha=1.0, beta=1.0, k=2, d=2)
        rate_bound(CONSTS, agg, bp, ceiling, n=2, rounds=5)  # accepted at equality
        with pytest.raises(ConfigurationError, match="admissible maximum"):
            rate_bound(CONSTS, agg, bp, ceiling * (1 + 1e-9), n=2, rounds=5)

    def test_zero_delay_drops_overlap_part(self):
        agg = aggregates(build_plan((1, 2), 2, 0))
        assert agg.sum_sq_overlap == 0
        bp = BoundParams(alpha=0.05, beta=0.05, k=1, d=8)
        eta = max_stepsize(CONSTS, agg)
        rb = rate_bound(CONSTS, agg, bp, eta, n=2, rounds=5)
        pre_only = (
            6 * CONSTS.smoothness**2 * eta**2 * CONSTS.grad_bound**2 * agg.max_total
            * bp.pre_weight * agg.sum_sq_pre
            / ((2 * float(agg.mean_total)) * (1 - bp.contraction))
        )
        assert rb.staleness_term == pytest.approx(pre_only, rel=1e-12)

    def test_full_mask_leaves_only_overlap_part(self):
        agg = aggregates(build_plan((1, 2), 1, 2))
        bp = BoundParams(alpha=1.0, beta=1.0, k=6, d=6)
        eta = max_stepsize(CONSTS, agg)
        rb = rate_bound(CONSTS, agg, bp, eta, n=2, rounds=5)
        expected = (
            6 * CONSTS.smoothness**2 * eta**2 * CONSTS.grad_bound**2 * agg.max_total
            * agg.sum_sq_overlap / (2 * float(agg.mean_total))
        )
        assert rb.staleness_term == pytest.approx(expected, rel=1e-12)

    def test_single_step_specialization_is_classic_rate(self):
        # equal speeds, one step per round, no delay, full mask: only the
        # optimization and noise terms survive
        agg = aggregates(build_plan((1, 1, 1), 1, 0))
        bp = BoundParams(alpha=1.0, beta=1.0, k=4, d=4)
        eta = max_stepsize(CONSTS, agg)
        rb = rate_bound(CONSTS, agg, bp, eta, n=3, rounds=7)
        assert rb.drift_term == 0.0
        assert rb.staleness_term == 0.0
        assert rb.total == rb.opt_term + rb.noise_term
        assert rb.opt_term == pytest.approx(4 * CONSTS.initial_gap / (eta * 7), rel=1e-12)
        assert rb.noise_term == pytest.approx(4 * CONSTS.smoothness * eta * CONSTS.noise_var / 3, rel=1e-12)

    def test_all_terms_nonnegative(self):
        agg = aggregates(build_plan((1, 2, 3, 6), 3, 6))
        bp = BoundParams(alpha=0.1, beta=0.1, k=3, d=10)
        rb = rate_bound(CONSTS, agg, bp, max_stepsize(CONSTS, agg), n=4, rounds=20)
        for term in (rb.opt_term, rb.noise_term, rb.drift_term, rb.staleness_term):
            assert term >= 0.0

    def test_bound_nonincreasing_in_workers(self):
        agg = aggregates(build_plan((1, 2), 1, 2))
        bp = BoundParams(alpha=0.05, beta=0.05, k=1, d=4)
        eta = max_stepsize(CONSTS, agg)
        totals = [rate_bound(CONSTS, agg, bp, eta, n=n, rounds=10).total for n in (1, 2, 4, 8)]
        assert totals == sorted(totals, reverse=True)

    def test_bound_nondecreasing_in_residual(self):
        agg = aggregates(build_plan((1, 2), 1, 2))
        eta = 1.0 / (8.0 * CONSTS.smoothness * agg.max_total)
        totals = []
        for k in (10, 9, 8):  # decreasing density, increasing residual
            bp = BoundParams(alpha=0.5, beta=0.5, k=k, d=10)
            totals.append(rate_bound(CONSTS, agg, bp, eta, n=2, rounds=10).total)
        assert totals == sorted(totals)


class TestComplexities:
    def test_deterministic_descent_shape(self):
        # single worker, one step per round, no noise, no dispersion
        agg = aggregates(build_plan((1,), 1, 0))
        bp = BoundParams(alpha=1.0, beta=1.0, k=5, d=5)
        consts = ProblemConstants(smoothness=2.0, noise_var=0.0, grad_bound=1.0, initial_gap=3.0)
        eps = 0.01
        got = round_complexity(consts, agg, bp, eps, n=1, c_round=12.0)
        assert got == math.ceil(12.0 * consts.initial_gap * consts.smoothness / eps)

    def test_doubling_workers_halves_noise_bound_rounds(self):
        agg = aggregates(build_plan((1,), 1, 0))
        bp = BoundParams(alpha=1.0, beta=1.0, k=5, d=5)
        consts = ProblemConstants(smoothness=1.0, noise_var=1e6, grad_bound=1.0, initial_gap=1.0)
        r1 = round_complexity(consts, agg, bp, 0.1, n=1)
        r2 = round_complexity(consts, agg, bp, 0.1, n=2)
        assert r1 / r2 == pytest.approx(2.0, rel=1e-5)

    @pytest.mark.parametrize("epsilon, c_round", [(1e-300, 12.0), (0.01, 1e308)])
    def test_unbounded_round_count_is_a_config_error(self, epsilon, c_round):
        agg = aggregates(build_plan((1, 2, 3, 6), 3, 6))
        bp = BoundParams(alpha=0.1, beta=0.1, k=3, d=10)
        with pytest.raises(ConfigurationError, match="not a finite number"):
            round_complexity(CONSTS, agg, bp, epsilon, n=2, c_round=c_round)

    def test_zero_dispersion_term_survives_an_underflowing_epsilon(self):
        # full mask, one worker, no overlap: the dispersion term is 0 even where
        # epsilon**1.5 underflows to 0.0, and the round count stays finite
        agg = aggregates(build_plan((1,), 1, 0))
        bp = BoundParams(alpha=1.0, beta=1.0, k=5, d=5)
        consts = ProblemConstants(smoothness=2.0, noise_var=0.0, grad_bound=1.0, initial_gap=3.0)
        got = round_complexity(consts, agg, bp, 1e-300, n=1, c_round=12.0)
        assert got == pytest.approx(12.0 * 6.0 / 1e-300, rel=1e-12)

    # the wall-clock complexity theory_report prints is rounds * round_seconds
    def test_time_complexity_reference(self):
        plan = build_plan((1, 2, 3, 6), 3, 6)
        assert 20 * plan.round_seconds == 480
        assert aggregates(plan).harmonic_step_time == 2

    def test_time_complexity_unit_fleet(self):
        plan = build_plan((1,), 1, 0)
        assert 7 * plan.round_seconds == 7
        assert aggregates(plan).harmonic_step_time == 1

    def test_harmonic_identity_holds_for_awkward_fleet(self):
        plan = build_plan((2, 3, 7), 5, 42)
        agg = aggregates(plan)
        assert Fraction(13 * plan.round_seconds) == 13 * agg.harmonic_step_time * agg.mean_total


class TestTuning:
    def test_tuned_params_admissible(self):
        agg = aggregates(build_plan((1, 2, 3, 6), 3, 6))
        bp = tune_bound_params(3, 10, agg)
        assert bp.contraction < 1.0

    def test_tuned_params_beat_naive_choice(self):
        agg = aggregates(build_plan((1, 2, 3, 6), 3, 6))
        tuned = tune_bound_params(3, 10, agg)
        naive = BoundParams(alpha=0.1, beta=0.1, k=3, d=10)
        def weight(bp):
            return (bp.pre_weight * agg.sum_sq_pre + bp.overlap_weight * agg.sum_sq_overlap) / (
                1 - bp.contraction
            )
        assert weight(tuned) <= weight(naive)

    def test_full_mask_shortcut(self):
        agg = aggregates(build_plan((1,), 1, 0))
        bp = tune_bound_params(4, 4, agg)
        assert bp.contraction == 0.0


class TestEstimates:
    def test_logistic_smoothness_bound_dominates_hessian(self):
        blobs = synthetic_blobs(dim=5, n_examples=50, separation=1.0, seed=3)
        reg = RegularizerParams(strength=0.2, scale=0.5)
        bound = logistic_smoothness(blobs, reg)
        # numerical curvature along random directions never exceeds the bound
        gen = np.random.default_rng(0)
        w = gen.standard_normal(5) * 0.2
        for _ in range(10):
            u = gen.standard_normal(5)
            u /= np.linalg.norm(u)
            g1 = full_gradient(w + 1e-5 * u, blobs, reg)
            g0 = full_gradient(w - 1e-5 * u, blobs, reg)
            curv = float(u @ (g1 - g0)) / 2e-5
            assert curv <= bound + 1e-6

    def test_gradient_stats_estimates(self):
        blobs = synthetic_blobs(dim=5, n_examples=200, separation=1.0, seed=4)
        oracle = make_logistic_oracle(blobs, n_workers=1, batch_size=5, seed=2)
        reg = RegularizerParams()
        w = np.zeros(5)
        noise_var, grad_bound = estimate_gradient_stats(oracle, blobs, reg, w, n_draws=2000)
        assert noise_var > 0
        exact = np.linalg.norm(full_gradient(w, blobs, reg))
        # E||g||^2 = ||grad||^2 + noise_var; the estimator should agree
        assert grad_bound**2 == pytest.approx(exact**2 + noise_var, rel=0.1)

    def test_constants_validation(self):
        with pytest.raises(ConfigurationError):
            ProblemConstants(smoothness=0.0, noise_var=1.0, grad_bound=1.0, initial_gap=1.0)
        with pytest.raises(ConfigurationError):
            ProblemConstants(smoothness=1.0, noise_var=-1.0, grad_bound=1.0, initial_gap=1.0)
