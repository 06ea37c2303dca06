import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from overlap_sgd.core import Mask, RngStream, _KeySequence, average, project_mask, sample_rand_k
from overlap_sgd.errors import ConfigurationError

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vec(*values):
    return np.asarray(values, dtype=np.float64)


class TestMask:
    def test_full_mask_projection_is_identity(self):
        x = vec(5.0, 6.0, 7.0)
        np.testing.assert_array_equal(project_mask(x, Mask(np.arange(3), 3)), x)

    def test_single_index(self):
        x = vec(5.0, 6.0, 7.0)
        np.testing.assert_array_equal(project_mask(x, Mask([1], 3)), vec(0.0, 6.0, 0.0))

    def test_complement_reconstructs(self):
        x = vec(1.0, 1.0)
        s, rest = Mask([0], 2), Mask([1], 2)
        np.testing.assert_array_equal(project_mask(x, rest), vec(0.0, 1.0))
        np.testing.assert_array_equal(project_mask(x, s) + project_mask(x, rest), x)

    def test_invalid_masks(self):
        with pytest.raises(ConfigurationError):
            Mask((0, 0), 3)
        with pytest.raises(ConfigurationError):
            Mask((3,), 3)
        with pytest.raises(ConfigurationError, match=r"shape \(0,\), expected \(k,\) with 1 <= k <= 3"):
            Mask((), 3)

    def test_projection_needs_a_vector_of_the_masks_dimension(self):
        with pytest.raises(ConfigurationError, match="mask dimension 3 does not match vector length 4"):
            project_mask(np.ones(4), Mask([1], 3))

    @pytest.mark.parametrize(
        "indices, d",
        [
            (np.array([1, 0], dtype=np.int64), 2),      # unsorted
            (np.array([1, 1], dtype=np.int64), 2),      # duplicate
            (np.array([3], dtype=np.int64), 1),         # past the end
            (np.array([-1, 1], dtype=np.int64), 2),     # negative
            (np.array([], dtype=np.int64), 3),          # empty
            (np.array([0, 1, 2], dtype=np.int64), 2),   # more indices than d
            (np.array([[0, 1]], dtype=np.int64), 2),    # not one-dimensional
            (np.array([0.5, 1.7]), 3),                  # not integers: never truncated to [0, 1]
            (np.array([0, 2**63], dtype=np.uint64), 3),  # too large for int64: never wrapped negative
        ],
    )
    def test_invalid_ndarray_indices(self, indices, d):
        with pytest.raises(ConfigurationError):
            Mask(indices, d)

    def test_non_integer_and_oversized_indices_say_what_is_wrong(self):
        with pytest.raises(ConfigurationError, match="must be integers, got float64"):
            Mask([0.5, 1.7], 3)
        with pytest.raises(ConfigurationError, match="must be integers, got bool"):
            Mask([True], 3)
        with pytest.raises(ConfigurationError, match=r"out of range \[0, 3\)"):
            Mask(np.array([0, 2**63], dtype=np.uint64), 3)
        np.testing.assert_array_equal(Mask(np.array([0, 2], dtype=np.uint64), 3).indices, [0, 2])

    def test_indices_are_a_read_only_int64_copy(self):
        given_idx = np.array([0, 2], dtype=np.int32)
        m = Mask(given_idx, 3)
        assert m.indices.dtype == np.int64
        assert not m.indices.flags.writeable
        with pytest.raises(ValueError):
            m.indices[0] = 1
        assert given_idx.flags.writeable
        assert not sample_rand_k(10, 4, RngStream(0, ("ro",)).generator()).indices.flags.writeable

    @given(st.data())
    def test_idempotence_and_decomposition(self, data):
        d = data.draw(st.integers(min_value=2, max_value=12))
        k = data.draw(st.integers(min_value=1, max_value=d - 1))
        idx = data.draw(
            st.lists(st.integers(min_value=0, max_value=d - 1), min_size=k, max_size=k, unique=True)
        )
        x = vec(*data.draw(st.lists(finite_floats, min_size=d, max_size=d)))
        s = Mask(sorted(idx), d)
        rest = Mask(np.setdiff1d(np.arange(d), idx), d)
        once = project_mask(x, s)
        np.testing.assert_array_equal(project_mask(once, s), once)
        np.testing.assert_array_equal(once + project_mask(x, rest), x)


def reference_rand_k(d, k, gen):
    """The partial Fisher-Yates loop with one scalar draw per swap."""
    pool = np.arange(d)
    for i in range(k):
        j = i + int(gen.integers(0, d - i))
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(int(v) for v in pool[:k])


def assert_matches_reference(d, k, seed):
    gen, ref_gen = (RngStream(seed, ("reference", d, k)).generator() for _ in range(2))
    assert sample_rand_k(d, k, gen).indices.tolist() == reference_rand_k(d, k, ref_gen)
    # the stream is left exactly where the scalar loop leaves it
    assert gen.integers(0, 1 << 62) == ref_gen.integers(0, 1 << 62)


@st.composite
def mask_sizes(draw):
    d = draw(st.integers(min_value=1, max_value=300))
    k = draw(st.integers(min_value=1, max_value=d))
    return d, k


class TestSampleRandK:
    @given(size=mask_sizes(), seed=st.integers(min_value=0, max_value=2**32))
    @example(size=(1, 1), seed=0)
    @example(size=(300, 300), seed=1)
    @example(size=(7, 7), seed=2)
    def test_matches_scalar_fisher_yates(self, size, seed):
        assert_matches_reference(*size, seed)

    def test_matches_scalar_fisher_yates_large(self):
        assert_matches_reference(100_000, 30_000, 5)

    def test_only_subset_when_k_equals_d(self):
        for trial in range(5):
            m = sample_rand_k(3, 3, RngStream(trial, ("mask", trial)).generator())
            np.testing.assert_array_equal(m.indices, [0, 1, 2])

    def test_determinism_for_matching_stream(self):
        a = sample_rand_k(2, 1, RngStream(42, ("mask", 7)).generator())
        b = sample_rand_k(2, 1, RngStream(42, ("mask", 7)).generator())
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_k_out_of_range(self):
        with pytest.raises(ConfigurationError):
            sample_rand_k(4, 0, RngStream(0, ("m",)).generator())
        with pytest.raises(ConfigurationError):
            sample_rand_k(4, 5, RngStream(0, ("m",)).generator())

    def test_inclusion_frequency(self):
        # d=4, k=2: per-coordinate inclusion 0.5 within +-0.01 at 1e5 draws
        draws = 100_000
        counts = np.zeros(4)
        gen = RngStream(2024, ("mask-freq",)).generator()
        for _ in range(draws):
            counts[list(sample_rand_k(4, 2, gen).indices)] += 1
        np.testing.assert_allclose(counts / draws, 0.5, atol=0.01)

    def test_uniform_over_subsets(self):
        # beyond per-coordinate inclusion: every C(5,2) subset equally likely
        import collections

        gen = RngStream(7, ("subsets",)).generator()
        counts = collections.Counter()
        draws = 30_000
        for _ in range(draws):
            counts[tuple(sample_rand_k(5, 2, gen).indices)] += 1
        assert len(counts) == 10
        expected = draws / 10
        assert max(abs(c - expected) / expected for c in counts.values()) < 0.06

    def test_projection_unbiasedness(self):
        # Monte Carlo mean of Proj(x) approaches (k/d) x on every coordinate
        d, k, draws = 6, 2, 100_000
        x = np.linspace(1.0, 2.0, d)
        gen = RngStream(99, ("unbias",)).generator()
        total = np.zeros(d)
        for _ in range(draws):
            total += project_mask(x, sample_rand_k(d, k, gen))
        rel = np.abs(total / draws - (k / d) * x) / ((k / d) * x)
        assert rel.max() < 0.02


def swap_replay_rand_k(d, k, gen):
    """The partial Fisher-Yates loop over native ints, one scalar draw per swap:
    positions below k in a list, displaced positions from k on in a dict, so
    it reaches any d in O(k) memory."""
    head = list(range(k))
    tail = {}
    for i in range(k):
        j = i + int(gen.integers(0, d - i))
        if j < k:
            head[i], head[j] = head[j], head[i]
        else:
            head[i], tail[j] = tail.get(j, j), head[i]
    return sorted(head)


class ScriptedOffsets:
    """A stand-in generator whose ``integers(0, high)`` hands out the given
    offsets in order, one per element of ``high``; ``used`` is its stream position."""

    def __init__(self, offsets):
        self.offsets = list(offsets)
        self.used = 0

    def integers(self, low, high):
        high = np.asarray(high)
        out = np.array(self.offsets[self.used : self.used + high.size], dtype=np.int64).reshape(high.shape)
        assert low == 0 and out.size == high.size and (out < high).all() and (out >= 0).all()
        self.used += high.size
        return out if high.ndim else int(out)


def chain(d, k):
    """Swap i targets slot i + 1, so slot 0's value walks the whole head: the deepest fixed-point walk."""
    return [1] * (k - 1) + [1 if k < d else 0]


WORST_CASES = {
    "one-tail-position": (50, 20, [37 - i for i in range(20)]),
    "one-tail-position-after-head-swaps": (50, 20, [1, 1, 1] + [49 - i for i in range(3, 20)]),
    "head-chain": (50, 20, chain(50, 20)),
    "head-chain-long": (10**6, 4097, chain(10**6, 4097)),
    "head-chain-k-equals-d": (20, 20, chain(20, 20)),
    "k-equals-d-reversal": (20, 20, [19 - 2 * i if i < 10 else 0 for i in range(20)]),
    "k-equals-d-no-swaps": (9, 9, [0] * 9),
    "huge-d": (2**62, 3, [2**62 - 1, 2**62 - 2, 1]),
    "huge-d-chain": (2**62, 3, [1, 1, 2**62 - 3]),
}


class TestSampleRandKWorstCases:
    @pytest.mark.parametrize("case", sorted(WORST_CASES))
    def test_matches_swap_replay_on_scripted_offsets(self, case):
        d, k, offsets = WORST_CASES[case]
        gen, ref_gen = ScriptedOffsets(offsets), ScriptedOffsets(offsets)
        assert sample_rand_k(d, k, gen).indices.tolist() == swap_replay_rand_k(d, k, ref_gen)
        assert gen.used == ref_gen.used == k

    def test_huge_d_matches_swap_replay_on_a_stream(self):
        for seed in range(5):
            gen, ref_gen = (RngStream(seed, ("huge", 2**62)).generator() for _ in range(2))
            assert sample_rand_k(2**62, 3, gen).indices.tolist() == swap_replay_rand_k(2**62, 3, ref_gen)
            assert gen.integers(0, 1 << 62) == ref_gen.integers(0, 1 << 62)

    def test_swap_replay_matches_scalar_fisher_yates(self):
        for d, k in [(1, 1), (7, 7), (50, 20), (300, 120)]:
            gen, ref_gen = (RngStream(d, ("replay", k)).generator() for _ in range(2))
            assert swap_replay_rand_k(d, k, gen) == reference_rand_k(d, k, ref_gen)

    @pytest.mark.parametrize("dtype", [np.uint64, np.int32, np.uint8])
    def test_numpy_integer_sizes_give_the_python_int_mask(self, dtype):
        gen, ref_gen = (RngStream(3, ("dtype",)).generator() for _ in range(2))
        m = sample_rand_k(dtype(50), dtype(20), gen)
        assert m.indices.tolist() == sample_rand_k(50, 20, ref_gen).indices.tolist()
        assert m.d == 50 and type(m.d) is int

    @pytest.mark.parametrize("d, k", [(True, True), (2, True), (True, 1), (4.0, 2), (4, 2.0)])
    def test_bools_and_floats_are_not_sizes(self, d, k):
        with pytest.raises(ConfigurationError, match="d and k must be integers"):
            sample_rand_k(d, k, RngStream(0, ("m",)).generator())


class TestRngStream:
    def test_same_key_same_stream(self):
        a = RngStream(1, ("sample", 0, 0, 0)).generator().integers(0, 1 << 30, size=8)
        b = RngStream(1, ("sample", 0, 0, 0)).generator().integers(0, 1 << 30, size=8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        a = RngStream(1, ("sample", 0, 0, 0)).generator().integers(0, 1 << 30, size=8)
        b = RngStream(1, ("sample", 0, 0, 1)).generator().integers(0, 1 << 30, size=8)
        c = RngStream(2, ("sample", 0, 0, 0)).generator().integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_bad_key_parts(self):
        with pytest.raises(ConfigurationError):
            RngStream(0, (1.5,)).generator()

    def test_root_seed_wraps_to_64_bits(self):
        a = RngStream(2**64 + 5, ("s",)).generator().integers(0, 1 << 30, size=4)
        b = RngStream(5, ("s",)).generator().integers(0, 1 << 30, size=4)
        np.testing.assert_array_equal(a, b)
        RngStream(-3, ("s",)).generator()  # negative seeds are usable too


    def test_live_generators_keep_their_own_streams(self):
        def fresh(stream):
            return np.random.Generator(np.random.Philox(key=stream._philox_key()))

        streams = [RngStream(3, ("held", 0)), RngStream(3, ("held", 1))]
        held = [s.generator() for s in streams]
        refs = [fresh(s) for s in streams]
        for i in range(20):
            RngStream(4, ("between", i)).generator().integers(0, 10, size=3)
            for gen, ref in zip(held, refs):
                np.testing.assert_array_equal(gen.integers(0, 1 << 30, size=5), ref.integers(0, 1 << 30, size=5))
                np.testing.assert_array_equal(gen.standard_normal(2), ref.standard_normal(2))
        for i in range(1000):
            stream = RngStream(5, ("churn", i))
            np.testing.assert_array_equal(
                stream.generator().integers(0, 1 << 30, size=3), fresh(stream).integers(0, 1 << 30, size=3)
            )
        for gen, ref in zip(held, refs):
            np.testing.assert_array_equal(gen.integers(0, 1 << 30, size=5), ref.integers(0, 1 << 30, size=5))

    def test_a_bit_generator_taken_out_is_never_rekeyed(self):
        stream = RngStream(6, ("taken",))
        bit_generator = stream.generator().bit_generator
        RngStream(6, ("after",)).generator().integers(0, 10, size=4)
        expected = np.random.Generator(np.random.Philox(key=stream._philox_key())).integers(0, 1 << 30, size=5)
        np.testing.assert_array_equal(np.random.Generator(bit_generator).integers(0, 1 << 30, size=5), expected)

    def test_key_sequence_hands_out_only_the_philox_key(self):
        key = RngStream(7, ("seq",))._philox_key()
        assert _KeySequence(key).generate_state(2, np.uint64) is key
        with pytest.raises(ValueError, match="2 uint64 words"):
            _KeySequence(key).generate_state(4)


class TestAverage:
    def test_single_element(self):
        np.testing.assert_array_equal(average([vec(1.0, 3.0)]), vec(1.0, 3.0))

    def test_mean(self):
        np.testing.assert_array_equal(average([vec(0.0, 0.0), vec(2.0, 4.0)]), vec(1.0, 2.0))

    def test_two_worker_sent_average(self):
        # the value reused by the merge-rule example in test_engine
        np.testing.assert_array_equal(average([vec(1.0, 0.0), vec(3.0, 0.0)]), vec(2.0, 0.0))

    def test_empty_is_usage_error(self):
        with pytest.raises(ValueError):
            average([])

    def test_mismatched_shapes(self):
        with pytest.raises(ConfigurationError):
            average([vec(1.0), vec(1.0, 2.0)])

    def test_inputs_unmodified(self):
        vs = [vec(1.0, 2.0), vec(3.0, 4.0)]
        average(vs)
        np.testing.assert_array_equal(vs[0], vec(1.0, 2.0))
