import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_logistic_oracle
from overlap_sgd.data import Dataset, synthetic_blobs
from overlap_sgd.errors import ConfigurationError
from overlap_sgd.objective import (
    LogisticOracle,
    QuadraticOracle,
    RegularizerParams,
    dataset_accuracy,
    dataset_loss,
    full_gradient,
    logistic_loss,
)


def finite_difference(fn, w, step=1e-6):
    grad = np.zeros_like(w)
    for j in range(w.size):
        up, down = w.copy(), w.copy()
        up[j] += step
        down[j] -= step
        grad[j] = (fn(up) - fn(down)) / (2 * step)
    return grad


class TestLogisticLoss:
    def test_zero_model_gives_log_two(self):
        x = np.array([3.0, -1.0])
        assert logistic_loss(np.zeros(2), (x, 1.0)) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_saturated_correct_classification(self):
        w = np.array([50.0])
        assert logistic_loss(w, (np.array([1.0]), 1.0)) < 1e-20

    def test_moderate_negative_margin(self):
        # y=+1, <x, w> = -1: loss is log(1 + e), checked against the naive form
        w = np.array([-1.0])
        val = logistic_loss(w, (np.array([1.0]), 1.0))
        assert val == pytest.approx(math.log(1.0 + math.e), rel=1e-12)
        assert val == pytest.approx(1.313262, abs=1e-6)

    def test_stable_at_extreme_margins(self):
        for margin in (-1e4, 1e4):
            w = np.array([margin])
            assert math.isfinite(logistic_loss(w, (np.array([1.0]), 1.0)))
            data = Dataset(np.array([[margin]]), np.array([1.0]))
            assert np.all(np.isfinite(full_gradient(np.array([1.0]), data)))


class TestFullGradient:
    def test_zero_model_single_example(self):
        x = np.array([2.0, -1.0, 0.5])
        data = Dataset(x[None, :], np.array([1.0]))
        np.testing.assert_allclose(full_gradient(np.zeros(3), data), -x / 2.0, rtol=1e-12)

    def test_regularizer_gradient_vanishes_at_origin(self):
        reg = RegularizerParams(strength=0.7, scale=0.5)
        np.testing.assert_array_equal(reg.gradient(np.zeros(4)), np.zeros(4))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_finite_differences(self, data):
        blobs = synthetic_blobs(dim=6, n_examples=25, separation=1.0, seed=2)
        strength = data.draw(st.sampled_from([0.0, 0.4]))
        reg = RegularizerParams(strength=strength, scale=0.8)
        w = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                    min_size=6,
                    max_size=6,
                )
            )
        )
        analytic = full_gradient(w, blobs, reg)
        fd = finite_difference(lambda v: dataset_loss(v, blobs) + reg.value(v), w)
        assert np.linalg.norm(fd - analytic) <= 1e-5 * max(1.0, np.linalg.norm(analytic))


class TestRegularizer:
    def test_bounded_by_strength_times_dim(self):
        reg = RegularizerParams(strength=0.3, scale=1.0)
        for scale in (0.1, 1.0, 100.0, 1e6):
            w = np.full(5, scale)
            assert 0.0 <= reg.value(w) <= 0.3 * 5
        assert reg.value(np.full(5, 1e9)) == pytest.approx(0.3 * 5, rel=1e-9)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            RegularizerParams(strength=-1.0)
        with pytest.raises(ConfigurationError):
            RegularizerParams(strength=1.0, scale=0.0)


class TestStochasticGradient:
    def test_single_example_dataset_equals_full_gradient(self):
        data = Dataset(np.array([[1.0, -2.0]]), np.array([-1.0]))
        oracle = make_logistic_oracle(data, n_workers=1, batch_size=4, seed=0)
        w = np.array([0.3, 0.1])
        np.testing.assert_allclose(
            oracle.gradient(w, 0, 0, 0), full_gradient(w, data), rtol=1e-12
        )

    def test_determinism(self, tiny_blobs):
        oracle = make_logistic_oracle(tiny_blobs, n_workers=2, batch_size=8, seed=9)
        w = np.linspace(-1, 1, tiny_blobs.dim)
        g1 = oracle.gradient(w, 1, 4, 2)
        g2 = oracle.gradient(w, 1, 4, 2)
        np.testing.assert_array_equal(g1, g2)
        assert not np.array_equal(g1, oracle.gradient(w, 1, 4, 3))

    def test_unbiasedness_monte_carlo(self, tiny_blobs):
        oracle = make_logistic_oracle(tiny_blobs, n_workers=1, batch_size=8, seed=123)
        w = np.linspace(-0.5, 0.5, tiny_blobs.dim)
        exact = full_gradient(w, tiny_blobs)
        total = np.zeros_like(w)
        draws = 10_000
        for s in range(draws):
            total += oracle.gradient(w, 0, 0, s)
        rel = np.linalg.norm(total / draws - exact) / np.linalg.norm(exact)
        assert rel < 0.02

    def test_empty_pool_is_an_error(self, tiny_blobs):
        oracle = LogisticOracle(
            dataset=tiny_blobs,
            batch_size=4,
            regularizer=RegularizerParams(),
            worker_pools=(np.empty(0, dtype=np.int64),),
            root_seed=0,
        )
        with pytest.raises(ConfigurationError, match="no examples"):
            oracle.gradient(np.zeros(tiny_blobs.dim), 0, 0, 0)


class TestQuadraticOracle:
    def test_identity_quadratic_without_noise(self):
        w = np.array([2.0, 3.0])
        oracle = QuadraticOracle(a_diag=np.ones(2), noise_sigma=0.0, root_seed=0)
        np.testing.assert_array_equal(oracle.gradient(w, 0, 0, 0), w)

    def test_stationary_point(self):
        oracle = QuadraticOracle(a_diag=np.ones(3), noise_sigma=0.0, root_seed=0)
        np.testing.assert_array_equal(oracle.gradient(np.zeros(3), 0, 0, 0), np.zeros(3))

    def test_noise_second_moment(self):
        d, sigma, draws = 4, 0.7, 100_000
        w = np.array([1.0, -1.0, 2.0, 0.0])
        a = np.ones(d)
        oracle = QuadraticOracle(a_diag=a, noise_sigma=sigma, root_seed=77)
        total = 0.0
        for s in range(draws):
            g = oracle.gradient(w, 0, 0, s)
            total += float(np.sum((g - a * w) ** 2))
        assert total / draws == pytest.approx(sigma**2 * d, rel=0.03)

    def test_rejects_nonpositive_curvature(self):
        with pytest.raises(ConfigurationError):
            QuadraticOracle(a_diag=np.array([1.0, 0.0]), noise_sigma=0.0, root_seed=0)
        oracle = QuadraticOracle(a_diag=np.ones(2), noise_sigma=0.0, root_seed=0)
        with pytest.raises(ConfigurationError):
            oracle.gradient(np.ones(3), 0, 0, 0)


def test_accuracy_tie_rule_predicts_positive():
    data = Dataset(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
    assert dataset_accuracy(np.zeros(1), data) == 0.5
