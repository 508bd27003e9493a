import numpy as np
from hypothesis import example, given, settings, strategies as st

from annsim import randomness
from annsim.randomness import (
    PublicCoin,
    Stream,
    absorb,
    absorb_block,
    bernoulli_block,
    bernoulli_matrix,
    coin_for_trial,
    raw64,
    raw64_block,
    splitmix64,
)


class TestGeneratorIdentity:
    """Golden values pin the frozen generator constants."""

    def test_splitmix64_golden(self):
        # Known SplitMix64 outputs for the sequence seeded at 1234567:
        # state_n = seed + n * GOLDEN, output = finalize(state_n).
        seed = 1234567
        golden = 0x9E3779B97F4A7C15
        first = splitmix64((seed + golden) & (2**64 - 1))
        assert first == raw64(seed, 0)
        assert raw64(seed, 0) != raw64(seed, 1)

    def test_raw64_block_matches_scalar(self):
        key = 987654321
        block = raw64_block(key, 5, 64)
        for i, v in enumerate(block):
            assert int(v) == raw64(key, 5 + i)

    def test_absorb_block_matches_scalar(self):
        vals = np.arange(50, dtype=np.uint64)
        block = absorb_block(7777, vals)
        for i, v in enumerate(block):
            assert int(v) == absorb(7777, i)

    def test_bernoulli_matrix_matches_rows(self):
        keys = absorb_block(31337, np.arange(9, dtype=np.uint64))
        mat = bernoulli_matrix(keys, 130, 0.25)
        for r in range(9):
            row = bernoulli_block(int(keys[r]), 0, 130, 0.25)
            assert (mat[r] == row).all()


class TestBernoulliMatrixBlocks:
    """bernoulli_matrix evaluates its streams in column blocks; every block
    boundary and the ragged tail must give the same bits as one row at a time."""

    @staticmethod
    def block_width(rows: int) -> int:
        return randomness._BLOCK_BYTES // (8 * rows)

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(1, 336),
        blocks=st.integers(0, 3),
        tail=st.integers(0, 70),
        p=st.sampled_from([0.0, 2.0**-20, 0.25, 1.0 - 2.0**-53, 1.0]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(rows=1, blocks=2, tail=5, p=0.25, seed=1)
    @example(rows=300, blocks=3, tail=17, p=2.0**-20, seed=2)
    @example(rows=300, blocks=2, tail=1, p=1.0, seed=3)
    @example(rows=64, blocks=1, tail=0, p=0.0, seed=4)
    @example(rows=336, blocks=2, tail=3, p=1.0 - 2.0**-53, seed=5)
    @example(rows=7, blocks=0, tail=1, p=0.25, seed=6)
    def test_rows_match_bernoulli_block(self, rows, blocks, tail, p, seed):
        count = blocks * self.block_width(rows) + tail
        keys = absorb_block(seed, np.arange(rows, dtype=np.uint64))
        mat = bernoulli_matrix(keys, count, p)
        assert mat.shape == (rows, count) and mat.dtype == np.uint8
        for r in range(rows):
            assert np.array_equal(mat[r], bernoulli_block(int(keys[r]), 0, count, p))

    def test_extreme_rates(self):
        keys = absorb_block(5, np.arange(3, dtype=np.uint64))
        count = self.block_width(3) + 9
        assert not bernoulli_matrix(keys, count, 0.0).any()
        assert bernoulli_matrix(keys, count, 1.0).all()

    def test_cut_compares_the_top_53_bits(self):
        # w < thr << 11 must equal (w >> 11) < thr exactly at the cut: a
        # word whose top 53 bits equal thr fails even with low bits zero,
        # and one whose top 53 bits are thr - 1 passes even with all low
        # bits set. Streams whose first word sits on either side of the
        # boundary pin the comparison's direction and width.
        keys = absorb_block(11, np.arange(64, dtype=np.uint64))
        words = np.array([raw64(int(k), 0) for k in keys], dtype=np.uint64)
        for r, w in enumerate(words):
            top = int(w) >> 11
            for thr in (top, top + 1):
                p = thr / 2.0**53
                got = bernoulli_matrix(keys[r : r + 1], 1, p)[0, 0]
                assert got == (thr > top) == bernoulli_block(int(keys[r]), 0, 1, p)[0]


class TestCoinDerivation:
    def test_same_inputs_same_coin(self):
        assert coin_for_trial(9, 0, 0) == coin_for_trial(9, 0, 0)

    def test_trials_diverge(self):
        a = coin_for_trial(9, 0, 0)
        b = coin_for_trial(9, 1, 0)
        bits_a = bernoulli_block(a.stream_key(1), 0, 1024, 0.5)
        bits_b = bernoulli_block(b.stream_key(1), 0, 1024, 0.5)
        assert (bits_a != bits_b).any()

    def test_repetitions_diverge(self):
        a = coin_for_trial(9, 0, 0)
        b = coin_for_trial(9, 0, 1)
        assert a.seed != b.seed
        bits_a = raw64_block(a.seed, 0, 16)
        bits_b = raw64_block(b.seed, 0, 16)
        assert (bits_a != bits_b).any()

    def test_role_domain_separation(self):
        coin = coin_for_trial(5, 0, 0)
        assert coin.row_key("main", 0, 0) != coin.row_key("aux", 0, 0)

    def test_row_keys_match_scalar(self):
        coin = coin_for_trial(5, 3, 1)
        block = coin.row_keys("aux", 2, 17)
        for r in range(17):
            assert int(block[r]) == coin.row_key("aux", 2, r)


class TestStatelessness:
    def test_random_access_equals_sequential(self):
        key = 2024
        seq = [raw64(key, n) for n in range(100)]
        assert raw64(key, 73) == seq[73]
        assert [int(v) for v in raw64_block(key, 0, 100)] == seq


class TestUniformity:
    def test_monobit_frequency(self):
        # 10^6 raw bits before any thinning stay within 3 sigma of 1/2.
        words = raw64_block(PublicCoin(123).stream_key(99), 0, 2**20 // 64)
        ones = int(np.bitwise_count(words).sum())
        total = len(words) * 64
        sigma = 0.5 * np.sqrt(total)
        assert abs(ones - total / 2) <= 3 * sigma

    def test_bernoulli_density(self):
        bits = bernoulli_block(555, 0, 10**6, 0.25)
        ones = int(bits.sum())
        sigma = np.sqrt(10**6 * 0.25 * 0.75)
        assert abs(ones - 250000) <= 3 * sigma


class TestStream:
    def test_below_is_in_range(self):
        s = Stream(42)
        draws = [s.below(10) for _ in range(500)]
        assert set(draws) <= set(range(10))
        assert len(set(draws)) == 10

    def test_distinct_indices(self):
        s = Stream(42)
        idx = s.distinct_indices(16, 64)
        assert len(idx) == 16 == len(set(idx))
        assert idx == sorted(idx)

    def test_shuffled_is_permutation(self):
        s = Stream(7)
        items = list(range(40))
        out = s.shuffled(items)
        assert sorted(out) == items
        assert out != items  # astronomically unlikely to be identity
