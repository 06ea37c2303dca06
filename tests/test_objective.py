import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import QuadraticOracle, make_logistic_oracle
from overlap_sgd.core import RngStream
from overlap_sgd.data import Dataset, synthetic_blobs
from overlap_sgd.errors import ConfigurationError, DivergenceError
from overlap_sgd.objective import (
    LogisticOracle,
    RegularizerParams,
    _rowwise,
    _sigmoid,
    dataset_accuracy,
    dataset_loss,
    full_gradient,
)


def finite_difference(fn, w, step=1e-6):
    grad = np.zeros_like(w)
    for j in range(w.size):
        up, down = w.copy(), w.copy()
        up[j] += step
        down[j] -= step
        grad[j] = (fn(up) - fn(down)) / (2 * step)
    return grad


def one_example(x, y):
    return Dataset(np.asarray(x, dtype=float)[None, :], np.array([y]))


class TestLogisticLoss:
    def test_zero_model_gives_log_two(self):
        data = one_example([3.0, -1.0], 1.0)
        assert dataset_loss(data.features @ np.zeros(2), data) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_saturated_correct_classification(self):
        w, data = np.array([50.0]), one_example([1.0], 1.0)
        assert dataset_loss(data.features @ w, data) < 1e-20

    def test_moderate_negative_margin(self):
        # y=+1, <x, w> = -1: loss is log(1 + e), checked against the naive form
        w, data = np.array([-1.0]), one_example([1.0], 1.0)
        val = dataset_loss(data.features @ w, data)
        assert val == pytest.approx(math.log(1.0 + math.e), rel=1e-12)
        assert val == pytest.approx(1.313262, abs=1e-6)

    def test_stable_at_extreme_margins(self):
        for margin in (-1e4, 1e4):
            w, data = np.array([margin]), one_example([1.0], 1.0)
            assert math.isfinite(dataset_loss(data.features @ w, data))
            w, data = np.array([1.0]), Dataset(np.array([[margin]]), np.array([1.0]))
            assert np.all(np.isfinite(full_gradient(w, data.features @ w, data)))


def two_branch_sigmoid(t):
    """Reference: each sign of t through its own overflow-free branch."""
    out = np.empty_like(t, dtype=np.float64)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestSigmoid:
    def test_bit_identical_to_the_two_branch_formula(self):
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123], dtype=np.uint64)
        special = np.concatenate(
            [
                [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0, 710.0, -710.0],
                [5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300],
                nans.view(np.float64),
            ]
        )
        rng = np.random.default_rng(17)
        vectors = [special] + [scale * rng.standard_normal(10_000) for scale in (1e-3, 1.0, 30.0, 1e3)]
        with np.errstate(over="ignore", invalid="ignore"):
            for t in vectors:
                np.testing.assert_array_equal(_sigmoid(t).view(np.uint64), two_branch_sigmoid(t).view(np.uint64))


class TestFullGradient:
    def test_zero_model_single_example(self):
        x = np.array([2.0, -1.0, 0.5])
        data = Dataset(x[None, :], np.array([1.0]))
        w = np.zeros(3)
        np.testing.assert_allclose(full_gradient(w, data.features @ w, data), -x / 2.0, rtol=1e-12)

    def test_regularizer_gradient_vanishes_at_origin(self):
        reg = RegularizerParams(strength=0.7, scale=0.5)
        np.testing.assert_array_equal(reg.gradient(np.zeros(4)), np.zeros(4))

    def test_a_disabled_penalty_has_a_zero_gradient_everywhere(self):
        w = np.array([3.0, -0.5, 1e99])
        assert RegularizerParams().gradient(w).tobytes() == np.zeros(3).tobytes()

    def test_an_empty_dataset_has_no_gradient(self):
        empty = Dataset(np.empty((0, 3)), np.empty(0))
        with pytest.raises(ConfigurationError, match="empty dataset"):
            full_gradient(np.zeros(3), np.empty(0), empty)

    def test_an_overflowing_gradient_is_reported_once_without_a_warning(self):
        # at w = 0 each row weighs 1/2, so the backward product sums to 2e308; the suite turns a RuntimeWarning
        # into an error
        data = Dataset(np.full((4, 2), 1e308), np.ones(4))
        w = np.zeros(2)
        with pytest.raises(DivergenceError, match="non-finite values in full gradient"):
            full_gradient(w, data.features @ w, data)

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
        analytic = full_gradient(w, blobs.features @ w, blobs, reg)
        fd = finite_difference(lambda v: dataset_loss(blobs.features @ v, blobs) + reg.value(v), w)
        assert np.linalg.norm(fd - analytic) <= 1e-5 * max(1.0, np.linalg.norm(analytic))


class TestRegularizer:
    def test_bounded_by_strength_times_dim(self):
        reg = RegularizerParams(strength=0.3, scale=1.0)
        for scale in (0.1, 1.0, 100.0, 1e6):
            w = np.full(5, scale)
            assert 0.0 <= reg.value(w) <= 0.3 * 5
        assert reg.value(np.full(5, 1e9)) == pytest.approx(0.3 * 5, rel=1e-9)

    def test_gradient_past_the_square_overflow_is_zero_without_a_warning(self):
        # (w^2 + scale^2)^2 overflows once |w| > ~1e77, inside the divergence guard's 1e100;
        # the term's limit is 0, and the suite turns a RuntimeWarning into an error
        reg = RegularizerParams(strength=0.05, scale=1.0)
        grad = reg.gradient(np.array([1e99, -1e99, 0.5]))
        assert grad.tobytes() == np.array([0.0, -0.0, 0.05 * 2.0 * 0.5 / 1.25**2]).tobytes()

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
            oracle.gradient(w, 0, 0, 0), full_gradient(w, data.features @ w, data), rtol=1e-12
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
        exact = full_gradient(w, tiny_blobs.features @ w, tiny_blobs)
        total = np.zeros_like(w)
        draws = 10_000
        for s in range(draws):
            total += oracle.gradient(w, 0, 0, s)
        rel = np.linalg.norm(total / draws - exact) / np.linalg.norm(exact)
        assert rel < 0.02

    @pytest.mark.parametrize(
        "rows, batch_size, message",
        [(4, 0, "batch_size must be >= 1, got 0"), (0, 1, "oracle over an empty dataset")],
    )
    def test_rejects_an_empty_batch_and_an_empty_dataset(self, rows, batch_size, message):
        with pytest.raises(ConfigurationError, match=message):
            make_logistic_oracle(Dataset(np.ones((rows, 2)), np.ones(rows)), n_workers=1, batch_size=batch_size, seed=0)

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

    def test_a_caching_oracle_is_freed_with_its_last_reference(self, tiny_blobs):
        # the oracle must not sit in a reference cycle, or each seed's train set outlives it until a GC pass
        oracle = LogisticOracle(
            dataset=tiny_blobs,
            batch_size=4,
            regularizer=RegularizerParams(),
            worker_pools=(np.arange(tiny_blobs.n_examples),),
            root_seed=0,
        )
        oracle.gradient(np.zeros(tiny_blobs.dim), 0, 0, 0)
        freed = weakref.ref(oracle)
        gc.disable()
        try:
            del oracle
            assert freed() is None
        finally:
            gc.enable()


@pytest.fixture
def opened_keys(monkeypatch):
    """The key of every stream opened while the test runs."""
    keys = []
    generator = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda stream: keys.append(stream.key) or generator(stream))
    return keys


class TestStackedGradient:
    @pytest.mark.parametrize(
        "rows, cols, m",
        [(256, 100, 1), (256, 100, 2), (256, 100, 3), (256, 5000, 3), (8, 100_000, 3)]
        + [(rows, cols, m) for rows, cols in ((7200, 100), (64, 100_000)) for m in (1, 5)],
    )
    def test_a_stacked_product_keeps_each_rows_bits(self, rows, cols, m):
        # the workloads' batch and train-split shapes, forward and backward: a BLAS that took the stack
        # as one matrix-matrix product would change the bits, and every output digest with them
        rng = np.random.default_rng(rows * cols + m)
        matrix = rng.standard_normal((rows, cols))
        models, weights = rng.standard_normal((m, cols)), rng.standard_normal((m, rows))
        assert _rowwise(matrix, models).tobytes() == np.stack([matrix @ v for v in models]).tobytes()
        assert _rowwise(matrix.T, weights).tobytes() == np.stack([matrix.T @ u for u in weights]).tobytes()
        assert _rowwise(matrix, models[0]).tobytes() == (matrix @ models[0]).tobytes()

    @pytest.mark.parametrize("strength", [0.0, 0.4])
    def test_a_logistic_stack_equals_its_rows_and_opens_one_stream(self, tiny_blobs, opened_keys, strength):
        oracle = make_logistic_oracle(tiny_blobs, n_workers=2, batch_size=8, seed=3, strength=strength, scale=0.7)
        stack = np.random.default_rng(1).standard_normal((3, tiny_blobs.dim))
        stacked = oracle.gradient(stack, 1, 2, 5)
        assert opened_keys == [("sample", 1, 2, 5)]
        assert stacked.shape == stack.shape
        for row, got in zip(stack, stacked):
            assert got.tobytes() == oracle.gradient(row, 1, 2, 5).tobytes()

    def test_a_quadratic_stack_adds_its_one_draw_to_every_row(self, opened_keys):
        oracle = QuadraticOracle(a_diag=np.linspace(0.5, 2.0, 5), noise_sigma=0.3, root_seed=4)
        stack = np.random.default_rng(2).standard_normal((4, 5))
        stacked = oracle.gradient(stack, 0, 1, 2)
        assert opened_keys == [("sample", 0, 1, 2)]
        for row, got in zip(stack, stacked):
            assert got.tobytes() == oracle.gradient(row, 0, 1, 2).tobytes()
        with pytest.raises(ConfigurationError, match="dimension mismatch"):
            oracle.gradient(np.ones((2, 4)), 0, 0, 0)


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
    assert dataset_accuracy(data.features @ np.zeros(1), data) == 0.5
