import gzip
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import serialize_libsvm
from overlap_sgd.core import RngStream
from overlap_sgd.data import (
    STDEV_FLOOR,
    Dataset,
    apply_normalization,
    compute_normalization,
    load_libsvm,
    parse_libsvm,
    partition_dirichlet,
    partition_shard,
    partition_shared,
    split_train_val,
    synthetic_blobs,
)
from overlap_sgd.errors import ConfigurationError, DatasetError


class TestParseLibsvm:
    def test_basic_line(self):
        data = parse_libsvm("+1 1:0.5 3:2.0\n", dimension=3)
        np.testing.assert_array_equal(data.features, [[0.5, 0.0, 2.0]])
        np.testing.assert_array_equal(data.labels, [1.0])

    def test_label_mapping(self):
        data = parse_libsvm("0 2:1\n1 1:1\n")
        np.testing.assert_array_equal(data.labels, [-1.0, 1.0])

    def test_plus_minus_labels_kept(self):
        data = parse_libsvm("-1 1:1\n+1 1:2\n")
        np.testing.assert_array_equal(data.labels, [-1.0, 1.0])

    def test_empty_input(self):
        with pytest.raises(DatasetError, match="no examples"):
            parse_libsvm("\n\n")

    def test_malformed_token_reports_line(self):
        with pytest.raises(DatasetError, match="line 2"):
            parse_libsvm("+1 1:1\n-1 1:oops\n")

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_non_finite_label_is_a_bad_label(self, label):
        with pytest.raises(DatasetError, match=f"^line 2: bad label '{label}'$"):
            parse_libsvm(f"1 1:0.5\n{label} 1:0.3\n1 1:0.2\n")

    def test_indices_must_increase(self):
        with pytest.raises(DatasetError, match="strictly increasing"):
            parse_libsvm("+1 2:1 2:3\n")
        with pytest.raises(DatasetError, match="1-based"):
            parse_libsvm("+1 0:1\n")

    def test_non_binary_labels(self):
        with pytest.raises(DatasetError, match="binary"):
            parse_libsvm("1 1:1\n2 1:1\n3 1:1\n")

    def test_dimension_override_too_small(self):
        with pytest.raises(ConfigurationError, match="smaller than"):
            parse_libsvm("+1 5:1\n-1 1:1\n", dimension=3)

    def test_round_trip(self):
        original = synthetic_blobs(dim=5, n_examples=20, seed=4)
        again = parse_libsvm(serialize_libsvm(original), dimension=5)
        np.testing.assert_array_equal(again.features, original.features)
        np.testing.assert_array_equal(again.labels, original.labels)

    def test_gzip_load(self, tmp_path):
        path = tmp_path / "tiny.libsvm.gz"
        with gzip.open(path, "wb") as fh:
            fh.write(b"+1 1:1.5\n-1 2:2.5\n")
        data = load_libsvm(path)
        np.testing.assert_array_equal(data.features, [[1.5, 0.0], [0.0, 2.5]])


class TestSplit:
    def test_zero_fraction(self, tiny_blobs):
        train, val = split_train_val(tiny_blobs, 0.0, seed=1)
        assert val.n_examples == 0
        assert train.n_examples == tiny_blobs.n_examples

    def test_sizes_and_disjointness(self):
        data = synthetic_blobs(dim=3, n_examples=10, seed=0)
        train, val = split_train_val(data, 0.1, seed=5)
        assert val.n_examples == 1
        assert train.n_examples == 9
        combined = np.vstack([train.features, val.features])
        assert {tuple(r) for r in combined} == {tuple(r) for r in data.features}

    def test_deterministic(self, tiny_blobs):
        a = split_train_val(tiny_blobs, 0.25, seed=7)
        b = split_train_val(tiny_blobs, 0.25, seed=7)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)

    def test_fraction_range(self, tiny_blobs):
        with pytest.raises(ConfigurationError):
            split_train_val(tiny_blobs, 1.0, seed=0)
        # 60 * 0.99999999999 floors to 60, leaving no example for training
        with pytest.raises(ConfigurationError, match="leaves none of the 60 examples"):
            split_train_val(tiny_blobs, 0.99999999999, seed=0)

    def test_floor_is_robust_to_float_noise(self):
        # 100 * 0.29 is 28.999...996 in binary; the split must still take 29
        data = synthetic_blobs(dim=2, n_examples=100, seed=1)
        _, val = split_train_val(data, 0.29, seed=0)
        assert val.n_examples == 29


def column_values():
    """Finite floats across a wide dynamic range, with zeros of both signs."""
    return st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
        st.floats(-1e-150, 1e-150, allow_nan=False, allow_infinity=False),
    )


@st.composite
def feature_matrices(draw):
    n, d = draw(st.integers(1, 300)), draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-100, 100, size=d) + rng.standard_normal(d)
    for j in draw(st.lists(st.integers(0, d - 1), max_size=4)):
        x[:, j] = draw(column_values())  # a constant column: zeros of either sign, or any one value
    for j in draw(st.lists(st.integers(0, d - 1), max_size=4)):
        x[draw(st.integers(0, n - 1)), j] = draw(column_values())
    return x


def assert_numpy_stats(features):
    mean, stdev = compute_normalization(Dataset(features, np.ones(len(features))))
    expected_stdev = np.maximum(features.std(axis=0), STDEV_FLOOR)
    assert mean.tobytes() == features.mean(axis=0).tobytes()
    assert stdev.tobytes() == expected_stdev.tobytes()


class TestNormalization:
    def test_train_stats(self, tiny_blobs):
        train = Dataset(tiny_blobs.features.copy(), tiny_blobs.labels)
        out = apply_normalization(train, *compute_normalization(train))
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_becomes_zero(self):
        feats = np.column_stack([np.full(8, 3.0), np.arange(8.0)])
        labels = np.array([1.0] * 4 + [-1.0] * 4)
        data = Dataset(feats, labels)
        out = apply_normalization(data, *compute_normalization(data))
        np.testing.assert_array_equal(out.features[:, 0], np.zeros(8))

    @pytest.mark.parametrize("val_fraction", [0.0, 0.25])
    def test_standardizes_in_place_bit_for_bit(self, tiny_blobs, val_fraction):
        # val_fraction 0 leaves a (0, d) validation split, which passes through
        train, val = split_train_val(tiny_blobs, val_fraction, seed=3)
        mean, stdev = compute_normalization(train)
        for part in (train, val):
            features = part.features
            before = features.copy()
            out = apply_normalization(part, mean, stdev)
            assert out is part and out.features is features  # written in place
            assert features.size == 0 or np.shares_memory(out.features, features)
            expected = (before - mean) / stdev
            assert (out.features.shape, out.features.tobytes()) == (expected.shape, expected.tobytes())
            np.testing.assert_array_equal(out.labels, part.labels)
        assert val.n_examples == (0 if val_fraction == 0.0 else 15)

    @settings(max_examples=200, deadline=None)
    @given(feature_matrices())
    def test_stats_are_bit_equal_to_numpy(self, features):
        assert_numpy_stats(features)

    @pytest.mark.parametrize(
        "shape",
        # a tile holds 2**17 // min(d, 8192) rows (1310 at d = 100) of a chunk of up to 8192 columns; d == 1 sums
        # pairwise in one tile of any length, and a 1-column tail joins the chunk before it (d = 8193), as it too
        # would sum pairwise
        [(65537, 1), (65537, 2), (65537, 5), (65537, 7), (64, 2049), (64, 2 * 2048 + 1), (3, 100001),
         (2**17 + 1, 1), (1309, 100), (1311, 100), (100, 8193), (100, 8194), (1, 8193), (2, 8193), (64, 100000)],
        ids=str,
    )
    def test_stats_are_bit_equal_to_numpy_at_block_edges(self, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        assert_numpy_stats(rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, size=shape[1]) + 3.0)

    def test_the_variance_holds_one_tile_of_scratch(self):
        # std(axis=0) would hold a 51 MB (n, d) copy; a tile and its carried row are about 1 MiB
        features = np.random.default_rng(0).standard_normal((64, 100000))
        tracemalloc.start()
        try:
            mean, stdev = compute_normalization(Dataset(features, np.ones(64)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - mean.nbytes - stdev.nbytes < 2 * 2**20

    @pytest.mark.parametrize(
        "column, problem",
        [
            (np.full(65537, 1e308), "its training mean overflows"),
            (np.tile([-1e307, 1e307], 65537 // 2 + 1)[:65537], "its training stdev overflows"),
        ],
        ids=["mean", "stdev"],
    )
    def test_an_overflowing_column_is_named(self, column, problem):
        # the fourth of five columns, in the second block of two-column blocks
        features = np.random.default_rng(1).standard_normal((65537, 5))
        features[:, 3] = column
        features[:, 4] = column  # a later bad column is not the one named
        with pytest.raises(DatasetError, match=f"^feature 4 cannot be standardized: {problem}$"):
            compute_normalization(Dataset(features, np.ones(65537)))

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_an_overflowing_standardized_value_is_named(self, value):
        # stdevs 1e-12 (floored), 1, 1e-12, 1e-12: feature 1 reaches 1e12, 2 stays 1e308, 3 and 4 overflow
        train = Dataset(np.array([[0.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]]), np.array([1.0, -1.0]))
        val = Dataset(np.array([[0.0, 0.0, 0.0, 0.0], [1.0, value, value, value]]), np.array([1.0, -1.0]))
        with pytest.raises(DatasetError, match="^feature 3 cannot be standardized: a standardized value overflows$"):
            apply_normalization(val, *compute_normalization(train))

    def test_validation_reuses_train_stats(self, tiny_blobs):
        train, val = split_train_val(tiny_blobs, 0.2, seed=3)
        out_val = apply_normalization(val, *compute_normalization(train))
        # validation columns are not re-centered on their own statistics
        assert abs(out_val.features.mean()) > 0


class TestPartitions:
    def test_shared_references_everything(self):
        pools = partition_shared(10, 3)
        assert len(pools) == 3
        for a in pools:
            np.testing.assert_array_equal(a, np.arange(10))
        # one read-only array, shared by every worker
        assert all(a is pools[0] for a in pools)
        assert pools[0].dtype == np.dtype(np.int64)
        with pytest.raises(ValueError, match="read-only"):
            pools[0][0] = 1

    def test_shard_covers_disjointly(self):
        pools = partition_shard(23, 4, seed=2)
        assert [a.dtype for a in pools] == [np.dtype(np.int64)] * 4
        joined = np.concatenate(pools)
        assert joined.size == 23
        np.testing.assert_array_equal(np.sort(joined), np.arange(23))

    def test_dirichlet_covers_disjointly(self, tiny_blobs):
        pools = partition_dirichlet(tiny_blobs, 4, alpha=0.5, seed=8)
        joined = np.concatenate(pools)
        assert joined.size == tiny_blobs.n_examples
        np.testing.assert_array_equal(np.sort(joined), np.arange(tiny_blobs.n_examples))

    def test_huge_alpha_is_nearly_uniform(self):
        data = synthetic_blobs(dim=2, n_examples=400, seed=9)
        pools = partition_dirichlet(data, 2, alpha=1e6, seed=1)
        sizes = [a.size for a in pools]
        assert abs(sizes[0] - sizes[1]) <= 4

    def test_tiny_alpha_is_strongly_skewed(self):
        data = synthetic_blobs(dim=2, n_examples=2000, seed=10)
        skewed_workers = 0
        total_workers = 0
        for seed in range(5):
            pools = partition_dirichlet(data, 4, alpha=0.03, seed=seed)
            for a in pools:
                if a.size == 0:
                    continue
                labels = data.labels[a]
                majority = max(np.mean(labels == 1.0), np.mean(labels == -1.0))
                total_workers += 1
                if majority > 0.8:
                    skewed_workers += 1
        assert skewed_workers > total_workers / 2

    def test_zero_example_worker_gets_an_empty_pool(self):
        # 5 examples over 20 workers: most pools are empty, and the runner, not the partition, reports it
        data = synthetic_blobs(dim=2, n_examples=5, seed=0)
        pools = partition_dirichlet(data, 20, alpha=0.5, seed=0)
        assert len(pools) == 20 and any(a.size == 0 for a in pools)
        assert [a.dtype for a in pools] == [np.dtype(np.int64)] * 20
        np.testing.assert_array_equal(np.sort(np.concatenate(pools)), np.arange(5))

    def test_min_examples_resamples_until_satisfied(self):
        data = synthetic_blobs(dim=2, n_examples=2000, seed=10)
        pools = partition_dirichlet(data, 4, alpha=0.03, seed=1, min_examples=10)
        assert min(a.size for a in pools) >= 10
        joined = np.sort(np.concatenate(pools))
        np.testing.assert_array_equal(joined, np.arange(2000))

    def test_min_examples_unsatisfiable(self):
        data = synthetic_blobs(dim=2, n_examples=10, seed=0)
        with pytest.raises(ConfigurationError, match="unsatisfiable"):
            partition_dirichlet(data, 4, alpha=1.0, seed=0, min_examples=5)

    def test_dirichlet_rejects_bad_alpha(self, tiny_blobs):
        with pytest.raises(ConfigurationError):
            partition_dirichlet(tiny_blobs, 2, alpha=0.0, seed=0)

    def test_deterministic(self, tiny_blobs):
        a = partition_dirichlet(tiny_blobs, 3, alpha=0.3, seed=6)
        b = partition_dirichlet(tiny_blobs, 3, alpha=0.3, seed=6)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestSyntheticBlobs:
    @pytest.mark.parametrize("dim, n_examples", [(0, 5), (3, 0)])
    def test_needs_a_coordinate_and_an_example(self, dim, n_examples):
        with pytest.raises(ConfigurationError, match="needs dim >= 1 and n_examples >= 1"):
            synthetic_blobs(dim, n_examples)

    def test_shapes_and_labels(self):
        data = synthetic_blobs(dim=7, n_examples=33, seed=1)
        assert data.features.shape == (33, 7)
        assert set(np.unique(data.labels)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("dim, n_examples, separation, seed", [(1, 1, 2.0, 0), (7, 33, 1.5, 1), (300, 257, 3.0, 9)])
    def test_bits_match_the_shift_product(self, dim, n_examples, separation, seed):
        gen = RngStream(seed, ("synthetic",)).generator()
        direction = gen.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        labels = gen.integers(0, 2, size=n_examples) * 2 - 1
        features = gen.standard_normal((n_examples, dim))
        features += (separation / 2.0) * labels[:, None] * direction[None, :]
        data = synthetic_blobs(dim, n_examples, separation, seed)
        digest = [hashlib.sha256(a.tobytes()).hexdigest() for a in (data.features, data.labels)]
        assert digest == [hashlib.sha256(a.tobytes()).hexdigest() for a in (features, labels.astype(np.float64))]

    @pytest.mark.parametrize("make", [lambda: synthetic_blobs(3, 4), lambda: parse_libsvm("1 1:2\n-1 2:3\n")])
    def test_the_raw_data_is_read_only(self, make):
        data = make()
        for array in (data.features, data.labels):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        train, _ = split_train_val(data, 0.0, seed=0)
        assert train.features.flags.writeable  # a split is a copy, standardized in place

    def test_deterministic(self):
        a = synthetic_blobs(dim=4, n_examples=10, seed=3)
        b = synthetic_blobs(dim=4, n_examples=10, seed=3)
        np.testing.assert_array_equal(a.features, b.features)

    def test_separation_is_learnable(self):
        data = synthetic_blobs(dim=5, n_examples=500, separation=4.0, seed=2)
        mean_pos = data.features[data.labels == 1.0].mean(axis=0)
        mean_neg = data.features[data.labels == -1.0].mean(axis=0)
        assert np.linalg.norm(mean_pos - mean_neg) == pytest.approx(4.0, abs=0.5)
