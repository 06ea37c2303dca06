import gzip

import numpy as np
import pytest
import warnings

from overlap_sgd.data import (
    Dataset,
    apply_normalization,
    compute_normalization,
    load_libsvm,
    parse_libsvm,
    partition_dirichlet,
    partition_shard,
    partition_shared,
    serialize_libsvm,
    split_train_val,
    synthetic_blobs,
)
from overlap_sgd.errors import ConfigurationError, ParseError


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
        with pytest.raises(ParseError, match="no examples"):
            parse_libsvm("\n\n")

    def test_malformed_token_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("+1 1:1\n-1 1:oops\n")

    def test_indices_must_increase(self):
        with pytest.raises(ParseError, match="strictly increasing"):
            parse_libsvm("+1 2:1 2:3\n")
        with pytest.raises(ParseError, match="1-based"):
            parse_libsvm("+1 0:1\n")

    def test_non_binary_labels(self):
        with pytest.raises(ConfigurationError, match="binary"):
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

    def test_floor_is_robust_to_float_noise(self):
        # 100 * 0.29 is 28.999...996 in binary; the split must still take 29
        data = synthetic_blobs(dim=2, n_examples=100, seed=1)
        _, val = split_train_val(data, 0.29, seed=0)
        assert val.n_examples == 29


class TestNormalization:
    def test_train_stats(self, tiny_blobs):
        stats = compute_normalization(tiny_blobs)
        out = apply_normalization(tiny_blobs, stats)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_becomes_zero(self):
        feats = np.column_stack([np.full(8, 3.0), np.arange(8.0)])
        labels = np.array([1.0] * 4 + [-1.0] * 4)
        data = Dataset(feats, labels)
        out = apply_normalization(data, compute_normalization(data))
        np.testing.assert_array_equal(out.features[:, 0], np.zeros(8))

    def test_validation_reuses_train_stats(self, tiny_blobs):
        train, val = split_train_val(tiny_blobs, 0.2, seed=3)
        stats = compute_normalization(train)
        out_val = apply_normalization(val, stats)
        # validation columns are not re-centered on their own statistics
        assert abs(out_val.features.mean()) > 0


class TestPartitions:
    def test_shared_references_everything(self):
        pools = partition_shared(10, 3)
        assert len(pools) == 3
        for a in pools:
            np.testing.assert_array_equal(a, np.arange(10))

    def test_shard_covers_disjointly(self):
        pools = partition_shard(23, 4, seed=2)
        assert [a.dtype for a in pools] == [np.dtype(np.int64)] * 4
        joined = np.concatenate(pools)
        assert joined.size == 23
        np.testing.assert_array_equal(np.sort(joined), np.arange(23))

    @pytest.mark.filterwarnings("ignore:worker .* received zero examples")
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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
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

    def test_zero_example_worker_warns(self):
        data = synthetic_blobs(dim=2, n_examples=5, seed=0)
        with pytest.warns(UserWarning, match="zero examples"):
            partition_dirichlet(data, 20, alpha=0.5, seed=0)

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
    def test_shapes_and_labels(self):
        data = synthetic_blobs(dim=7, n_examples=33, seed=1)
        assert data.features.shape == (33, 7)
        assert set(np.unique(data.labels)) <= {-1.0, 1.0}

    def test_deterministic(self):
        a = synthetic_blobs(dim=4, n_examples=10, seed=3)
        b = synthetic_blobs(dim=4, n_examples=10, seed=3)
        np.testing.assert_array_equal(a.features, b.features)

    def test_separation_is_learnable(self):
        data = synthetic_blobs(dim=5, n_examples=500, separation=4.0, seed=2)
        mean_pos = data.features[data.labels == 1.0].mean(axis=0)
        mean_neg = data.features[data.labels == -1.0].mean(axis=0)
        assert np.linalg.norm(mean_pos - mean_neg) == pytest.approx(4.0, abs=0.5)
