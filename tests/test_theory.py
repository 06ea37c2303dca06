import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml

import overlap_sgd.theory as theory_mod
from conftest import make_logistic_oracle
from overlap_sgd.config import rand_k_size, validate_config
from overlap_sgd.data import synthetic_blobs
from overlap_sgd.errors import ConfigurationError
from overlap_sgd.objective import RegularizerParams, full_gradient
from overlap_sgd.theory import (
    BOUND_GRID_POINTS,
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
from overlap_sgd.timing import build_plan

CONSTS = ProblemConstants(smoothness=2.0, noise_var=1.5, grad_bound=3.0, initial_gap=4.0)
BUNDLED = [
    validate_config(yaml.safe_load(path.read_text(encoding="utf-8")))[0]
    for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
]
# (k, d, plan) of each bundled config, and two one-coordinate masks where (1 + 1e-4)**2 >= 1 / residual
TUNER_CASES = {
    **{
        c.name: (rand_k_size(c.sparsity, c.dataset.synthetic.dim), c.dataset.synthetic.dim,
                 build_plan(c.step_times, c.compute_periods, c.comm_seconds))
        for c in BUNDLED
    },
    "k1-d1e4": (1, 10000, build_plan((1, 2, 3, 6), 3, 6)),
    "k1-d1e5": (1, 100000, build_plan((1, 2, 3, 6), 3, 6)),
}


class TestBoundParams:
    def test_rejects_contraction_at_least_one(self):
        # residual 0.7 with alpha=beta=0.3 gives 0.7 * 1.3 * 1.3 = 1.183
        with pytest.raises(ConfigurationError, match="contraction"):
            BoundParams(alpha=0.3, beta=0.3, k=3, d=10)

    @pytest.mark.parametrize("k, d", [(0, 5), (6, 5)])
    def test_rejects_a_mask_size_outside_one_to_d(self, k, d):
        with pytest.raises(ConfigurationError, match=rf"mask size {k} outside \[1, {d}\]"):
            BoundParams(alpha=0.1, beta=0.1, k=k, d=d)

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
        plan = build_plan((1, 2, 3, 6), 3, 6)
        bp = BoundParams(alpha=0.1, beta=0.1, k=3, d=10)
        expected = 4984 + 24 * (bp.pre_weight * 450 + bp.overlap_weight * 50) / (1 - bp.contraction)
        assert accumulated_dispersion(plan, bp) == pytest.approx(expected, rel=1e-12)
        by_hand = 4984 + 24 * (8.47 * 450 + 8 * 50) / 0.153
        assert accumulated_dispersion(plan, bp) == pytest.approx(by_hand, rel=1e-3)


class TestRateBound:
    def test_stepsize_validator_boundary(self):
        plan = build_plan((1, 2), 2, 2)
        ceiling = max_stepsize(CONSTS, plan)
        assert ceiling == 1.0 / (8.0 * 2.0 * plan.max_total)
        bp = BoundParams(alpha=1.0, beta=1.0, k=2, d=2)
        rate_bound(CONSTS, plan, bp, ceiling, n=2, rounds=5)  # accepted at equality
        with pytest.raises(ConfigurationError, match="admissible maximum"):
            rate_bound(CONSTS, plan, bp, ceiling * (1 + 1e-9), n=2, rounds=5)

    @pytest.mark.parametrize("smoothness", [6.25e306, 1e308])
    def test_a_ceiling_whose_product_overflows_stays_positive(self, smoothness):
        # 8 L max_total overflows (at 1e308, 8 L alone does), while the ceiling itself is a positive subnormal
        consts = ProblemConstants(smoothness=smoothness, noise_var=1.5, grad_bound=3.0, initial_gap=4.0)
        plan = build_plan((1, 2), 2, 2)
        assert math.isinf(8.0 * smoothness * plan.max_total)
        ceiling = max_stepsize(consts, plan)
        assert 0.0 < ceiling == pytest.approx(float(1 / (8 * Fraction(smoothness) * plan.max_total)), rel=1e-12)
        bp = BoundParams(alpha=1.0, beta=1.0, k=2, d=2)
        with pytest.raises(ConfigurationError, match=rf"^stepsize exceeds the admissible maximum {ceiling}$"):
            rate_bound(consts, plan, bp, ceiling * 2, n=2, rounds=5)

    @pytest.mark.parametrize(
        "stepsize, n, rounds, message",
        [
            (0.0, 2, 5, "stepsize must be positive, got 0.0"),
            (-1e-3, 2, 5, "stepsize must be positive, got -0.001"),
            (1e-3, 2, 0, "rounds must be >= 1"),
            (1e-3, 0, 5, "need n >= 1"),
        ],
    )
    def test_rejects_inputs_outside_the_theorem(self, stepsize, n, rounds, message):
        plan = build_plan((1, 2), 1, 2)
        bp = BoundParams(alpha=1.0, beta=1.0, k=2, d=2)
        with pytest.raises(ConfigurationError, match=message):
            rate_bound(CONSTS, plan, bp, stepsize, n=n, rounds=rounds)

    @pytest.mark.parametrize("smoothness", [0.0, 1e-170, 1e170])
    def test_a_square_past_float_range_keeps_the_four_terms_finite(self, smoothness):
        # stepsize**2 (at L = 0 or a tiny L) or L**2 (at a huge L) overflows; at the ceiling L * stepsize is
        # 1 / (8 max_total), so the drift and staleness terms keep their size, and no 0 * inf makes a NaN
        consts = ProblemConstants(smoothness=smoothness, noise_var=1.5, grad_bound=3.0, initial_gap=4.0)
        plan = build_plan((1, 2), 1, 2)
        bp = BoundParams(alpha=0.1, beta=0.1, k=1, d=4)
        stepsize = 1e308 if smoothness == 0.0 else max_stepsize(consts, plan)
        rb = rate_bound(consts, plan, bp, stepsize, n=2, rounds=5)
        assert all(math.isfinite(v) for v in vars(rb).values())
        scale = 6.0 * (smoothness * stepsize) ** 2 * consts.grad_bound**2
        assert rb.drift_term == pytest.approx(scale * plan.drift_sq_sum / (2 * float(plan.mean_total)), rel=1e-12)
        if smoothness == 0.0:  # a flat loss: only the optimisation term is left, and stepsize * T * R overflows
            assert (rb.noise_term, rb.drift_term, rb.staleness_term, rb.total) == (0.0, 0.0, 0.0, rb.opt_term)

    def test_zero_delay_drops_overlap_part(self):
        plan = build_plan((1, 2), 2, 0)
        assert plan.sum_sq_overlap == 0
        bp = BoundParams(alpha=0.05, beta=0.05, k=1, d=8)
        eta = max_stepsize(CONSTS, plan)
        rb = rate_bound(CONSTS, plan, bp, eta, n=2, rounds=5)
        pre_only = (
            6 * CONSTS.smoothness**2 * eta**2 * CONSTS.grad_bound**2 * plan.max_total
            * bp.pre_weight * plan.sum_sq_pre
            / ((2 * float(plan.mean_total)) * (1 - bp.contraction))
        )
        assert rb.staleness_term == pytest.approx(pre_only, rel=1e-12)

    def test_full_mask_leaves_only_overlap_part(self):
        plan = build_plan((1, 2), 1, 2)
        bp = BoundParams(alpha=1.0, beta=1.0, k=6, d=6)
        eta = max_stepsize(CONSTS, plan)
        rb = rate_bound(CONSTS, plan, bp, eta, n=2, rounds=5)
        expected = (
            6 * CONSTS.smoothness**2 * eta**2 * CONSTS.grad_bound**2 * plan.max_total
            * plan.sum_sq_overlap / (2 * float(plan.mean_total))
        )
        assert rb.staleness_term == pytest.approx(expected, rel=1e-12)

    def test_single_step_specialization_is_classic_rate(self):
        # equal speeds, one step per round, no delay, full mask: only the
        # optimization and noise terms survive
        plan = build_plan((1, 1, 1), 1, 0)
        bp = BoundParams(alpha=1.0, beta=1.0, k=4, d=4)
        eta = max_stepsize(CONSTS, plan)
        rb = rate_bound(CONSTS, plan, bp, eta, n=3, rounds=7)
        assert rb.drift_term == 0.0
        assert rb.staleness_term == 0.0
        assert rb.total == rb.opt_term + rb.noise_term
        assert rb.opt_term == pytest.approx(4 * CONSTS.initial_gap / (eta * 7), rel=1e-12)
        assert rb.noise_term == pytest.approx(4 * CONSTS.smoothness * eta * CONSTS.noise_var / 3, rel=1e-12)

    def test_all_terms_nonnegative(self):
        plan = build_plan((1, 2, 3, 6), 3, 6)
        bp = BoundParams(alpha=0.1, beta=0.1, k=3, d=10)
        rb = rate_bound(CONSTS, plan, bp, max_stepsize(CONSTS, plan), n=4, rounds=20)
        for term in (rb.opt_term, rb.noise_term, rb.drift_term, rb.staleness_term):
            assert term >= 0.0

    def test_bound_nonincreasing_in_workers(self):
        plan = build_plan((1, 2), 1, 2)
        bp = BoundParams(alpha=0.05, beta=0.05, k=1, d=4)
        eta = max_stepsize(CONSTS, plan)
        totals = [rate_bound(CONSTS, plan, bp, eta, n=n, rounds=10).total for n in (1, 2, 4, 8)]
        assert totals == sorted(totals, reverse=True)

    def test_bound_nondecreasing_in_residual(self):
        plan = build_plan((1, 2), 1, 2)
        eta = 1.0 / (8.0 * CONSTS.smoothness * plan.max_total)
        totals = []
        for k in (10, 9, 8):  # decreasing density, increasing residual
            bp = BoundParams(alpha=0.5, beta=0.5, k=k, d=10)
            totals.append(rate_bound(CONSTS, plan, bp, eta, n=2, rounds=10).total)
        assert totals == sorted(totals)


class TestComplexities:
    def test_deterministic_descent_shape(self):
        # single worker, one step per round, no noise, no dispersion
        plan = build_plan((1,), 1, 0)
        bp = BoundParams(alpha=1.0, beta=1.0, k=5, d=5)
        consts = ProblemConstants(smoothness=2.0, noise_var=0.0, grad_bound=1.0, initial_gap=3.0)
        eps = 0.01
        got = round_complexity(consts, plan, bp, eps, n=1, c_round=12.0)
        assert got == math.ceil(12.0 * consts.initial_gap * consts.smoothness / eps)

    def test_doubling_workers_halves_noise_bound_rounds(self):
        plan = build_plan((1,), 1, 0)
        bp = BoundParams(alpha=1.0, beta=1.0, k=5, d=5)
        consts = ProblemConstants(smoothness=1.0, noise_var=1e6, grad_bound=1.0, initial_gap=1.0)
        r1 = round_complexity(consts, plan, bp, 0.1, n=1)
        r2 = round_complexity(consts, plan, bp, 0.1, n=2)
        assert r1 / r2 == pytest.approx(2.0, rel=1e-5)

    @pytest.mark.parametrize("epsilon, c_round", [(1e-300, 12.0), (0.01, 1e308)])
    def test_unbounded_round_count_is_a_config_error(self, epsilon, c_round):
        plan = build_plan((1, 2, 3, 6), 3, 6)
        bp = BoundParams(alpha=0.1, beta=0.1, k=3, d=10)
        with pytest.raises(ConfigurationError, match="not a finite number"):
            round_complexity(CONSTS, plan, bp, epsilon, n=2, c_round=c_round)

    @pytest.mark.parametrize("epsilon, n, message", [(0.0, 2, "epsilon must be positive"), (0.1, 0, "need n >= 1")])
    def test_rejects_inputs_outside_the_theorem(self, epsilon, n, message):
        plan = build_plan((1, 2), 1, 2)
        bp = BoundParams(alpha=1.0, beta=1.0, k=2, d=2)
        with pytest.raises(ConfigurationError, match=message):
            round_complexity(CONSTS, plan, bp, epsilon, n=n)

    def test_an_overflowing_epsilon_drops_the_dispersion_term(self):
        # epsilon**1.5 overflows, the mirror of the underflow below: the dispersion term is 0, and the
        # noise and optimisation terms are tiny, so one round suffices
        plan = build_plan((1, 2, 3, 6), 3, 6)
        bp = BoundParams(alpha=0.1, beta=0.1, k=3, d=10)
        assert round_complexity(CONSTS, plan, bp, 1e300, n=2) == 1

    def test_zero_dispersion_term_survives_an_underflowing_epsilon(self):
        # full mask, one worker, no overlap: the dispersion term is 0 even where
        # epsilon**1.5 underflows to 0.0, and the round count stays finite
        plan = build_plan((1,), 1, 0)
        bp = BoundParams(alpha=1.0, beta=1.0, k=5, d=5)
        consts = ProblemConstants(smoothness=2.0, noise_var=0.0, grad_bound=1.0, initial_gap=3.0)
        got = round_complexity(consts, plan, bp, 1e-300, n=1, c_round=12.0)
        assert got == pytest.approx(12.0 * 6.0 / 1e-300, rel=1e-12)

    def test_a_finite_count_whose_products_overflow_stays_finite(self):
        # the constants of a synthetic set at separation 1e100: gap * L * noise_var is past float range,
        # but divided by epsilon = 1e300 first the noise term is about 1.7e65
        plan = build_plan((1, 2), 1, 2)
        bp = BoundParams(alpha=0.2, beta=0.2, k=1, d=2)
        consts = ProblemConstants(smoothness=6.25e198, noise_var=2.4e167, grad_bound=2.5e99, initial_gap=math.log(2))
        exact = 12 * (
            Fraction(consts.initial_gap) * Fraction(consts.smoothness) / Fraction(1e300) / plan.mean_total
        ) * (Fraction(consts.noise_var) / 2 + plan.max_total)  # the dispersion term is below 1e-150
        assert round_complexity(consts, plan, bp, 1e300, n=2) == pytest.approx(float(exact), rel=1e-12)

    # the wall-clock complexity theory_report prints is rounds * round_seconds
    def test_time_complexity_reference(self):
        plan = build_plan((1, 2, 3, 6), 3, 6)
        assert 20 * plan.round_seconds == 480
        assert plan.harmonic_step_time == 2

    def test_time_complexity_unit_fleet(self):
        plan = build_plan((1,), 1, 0)
        assert 7 * plan.round_seconds == 7
        assert plan.harmonic_step_time == 1

    def test_harmonic_identity_holds_for_awkward_fleet(self):
        plan = build_plan((2, 3, 7), 5, 42)
        assert Fraction(13 * plan.round_seconds) == 13 * plan.harmonic_step_time * plan.mean_total


class TestTuning:
    def test_tuned_params_admissible(self):
        plan = build_plan((1, 2, 3, 6), 3, 6)
        bp = tune_bound_params(3, 10, plan)
        assert bp.contraction < 1.0

    def test_tuned_params_beat_naive_choice(self):
        plan = build_plan((1, 2, 3, 6), 3, 6)
        tuned = tune_bound_params(3, 10, plan)
        naive = BoundParams(alpha=0.1, beta=0.1, k=3, d=10)
        def weight(bp):
            return (bp.pre_weight * plan.sum_sq_pre + bp.overlap_weight * plan.sum_sq_overlap) / (
                1 - bp.contraction
            )
        assert weight(tuned) <= weight(naive)

    @pytest.mark.parametrize("d", [10000, 100000])
    def test_one_coordinate_mask_has_admissible_params(self, d):
        # (1 + 1e-4)**2 already exceeds 1 / residual, below the old grid's first point
        plan = build_plan((1, 2, 3, 6), 3, 6)
        assert tune_bound_params(1, d, plan).contraction < 1.0

    def test_full_mask_shortcut(self):
        plan = build_plan((1,), 1, 0)
        bp = tune_bound_params(4, 4, plan)
        assert bp.contraction == 0.0

    def test_an_empty_grid_is_a_config_error(self, monkeypatch):
        monkeypatch.setattr(theory_mod, "BOUND_GRID_POINTS", 0)
        with pytest.raises(ConfigurationError, match="no admissible"):
            tune_bound_params(3, 10, build_plan((1, 2), 1, 2))

    @pytest.mark.parametrize("case", sorted(TUNER_CASES))
    def test_picks_what_a_hand_kept_minimum_picks(self, case):
        k, d, plan = TUNER_CASES[case]
        assert tune_bound_params(k, d, plan) == hand_kept_minimum(k, d, plan)


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
            up, down = w + 1e-5 * u, w - 1e-5 * u
            g1 = full_gradient(up, blobs.features @ up, blobs, reg)
            g0 = full_gradient(down, blobs.features @ down, blobs, reg)
            curv = float(u @ (g1 - g0)) / 2e-5
            assert curv <= bound + 1e-6

    def test_gradient_stats_estimates(self):
        blobs = synthetic_blobs(dim=5, n_examples=200, separation=1.0, seed=4)
        oracle = make_logistic_oracle(blobs, n_workers=1, batch_size=5, seed=2)
        reg = RegularizerParams()
        w = np.zeros(5)
        noise_var, grad_bound = estimate_gradient_stats(oracle, w, n_draws=2000)
        assert noise_var > 0
        exact = np.linalg.norm(full_gradient(w, blobs.features @ w, blobs, reg))
        # E||g||^2 = ||grad||^2 + noise_var; the estimator should agree
        assert grad_bound**2 == pytest.approx(exact**2 + noise_var, rel=0.1)

    def test_gradient_stats_keep_the_bits_of_the_plain_means(self):
        blobs = synthetic_blobs(dim=5, n_examples=200, separation=1.0, seed=4)
        oracle = make_logistic_oracle(blobs, n_workers=1, batch_size=5, seed=2)
        w = np.zeros(5)
        exact = full_gradient(w, blobs.features @ w, blobs, oracle.regularizer)
        draws = [oracle.gradient(w, 0, -1, s) for s in range(200)]
        assert estimate_gradient_stats(oracle, w, n_draws=200) == (
            sum(float(np.sum((g - exact) ** 2)) for g in draws) / 200,
            math.sqrt(sum(float(np.sum(g * g)) for g in draws) / 200),
        )

    def test_gradient_stats_whose_sum_overflows_have_a_finite_mean(self):
        # each squared norm is about 6.25e306, so 200 of them add up past float range
        blobs = synthetic_blobs(dim=2, n_examples=20, separation=1.0e154, seed=1)
        oracle = make_logistic_oracle(blobs, n_workers=1, batch_size=5, seed=0)
        noise_var, grad_bound = estimate_gradient_stats(oracle, np.zeros(2))
        assert math.isfinite(noise_var)
        assert grad_bound == pytest.approx(2.5e153, rel=1e-12)

    def test_constants_validation(self):
        with pytest.raises(ConfigurationError):
            ProblemConstants(smoothness=-1.0, noise_var=1.0, grad_bound=1.0, initial_gap=1.0)
        ProblemConstants(smoothness=0.0, noise_var=1.0, grad_bound=1.0, initial_gap=1.0)  # a flat loss
        with pytest.raises(ConfigurationError):
            ProblemConstants(smoothness=1.0, noise_var=-1.0, grad_bound=1.0, initial_gap=1.0)


def hand_kept_minimum(k: int, d: int, plan) -> BoundParams:
    """The tuner as a 40 x 40 loop that keeps the first point, alpha-major, of least weight by a strict <."""
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
