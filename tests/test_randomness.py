import json
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from annsim import _native, randomness
from annsim.core import pack_words
from annsim.randomness import (
    PublicCoin,
    Stream,
    absorb,
    absorb_block,
    bernoulli_matrix,
    coin_for_trial,
    raw64,
    raw64_block,
    raw64_block_numpy,
    splitmix64,
)
from annsim.sketch import SketchMatrix, derive_matrix, sketch_apply_batch

from conftest import make_instance
from reference_oracle import _db_bits, _parity_product

_GOLDEN = 0x9E3779B97F4A7C15


def bernoulli_block(key: int, start: int, count: int, p: float) -> np.ndarray:
    """The generator's reference: Bernoulli(p) bits of stream words
    start..start+count-1, each 1 when the word's top 53 bits fall below
    floor(p * 2^53), as uint8."""
    top53 = raw64_block_numpy(key, start, count) >> np.uint64(11)
    return (top53 < randomness._threshold(p)).astype(np.uint8)


def bernoulli_words(key: int, count: int, p: float) -> np.ndarray:
    """bernoulli_block's bits of stream words 0..count-1, packed as
    bernoulli_matrix packs one row."""
    return pack_words(bernoulli_block(key, 0, count, p)[None])[0]


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
            row = bernoulli_words(int(keys[r]), 130, 0.25)
            assert (mat[r] == row).all()

    @pytest.mark.parametrize("count", [*range(1, 130), 4100])
    @pytest.mark.parametrize("p", [0.25, 0.3, 1.0])
    def test_words_pack_rows_with_zero_tails(self, count, p):
        # Bit c % 64 of word c // 64 is entry c; bits above count are zero,
        # even at p = 1, where every entry is 1. Every last-word length from
        # 1 to 64 is covered, wherever the compiler splits the 64-entry loop
        # into a vector body and a scalar tail.
        keys = absorb_block(count, np.arange(5, dtype=np.uint64))
        mat = bernoulli_matrix(keys, count, p)
        assert mat.shape == (5, (count + 63) // 64) and mat.dtype == np.uint64
        want = pack_words(np.stack([bernoulli_block(int(k), 0, count, p) for k in keys]))
        assert np.array_equal(mat, want)
        if count % 64:
            assert not (mat[:, -1] >> np.uint64(count % 64)).any()


class TestBernoulliMatrixBlocks:
    """bernoulli_matrix evaluates its streams in column blocks; every block
    boundary and the ragged tail must give the same bits as one row at a time."""

    @staticmethod
    def block_width(rows: int) -> int:
        return randomness._BLOCK_BYTES // (8 * rows)

    # TestBernoulliMatrixBlocksNumpy runs this method too, under another class;
    # the examples are valid for both kernels, so that is not a hazard here.
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
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
        assert mat.shape == (rows, (count + 63) // 64) and mat.dtype == np.uint64
        for r in range(rows):
            assert np.array_equal(mat[r], bernoulli_words(int(keys[r]), count, p))

    def test_extreme_rates(self):
        keys = absorb_block(5, np.arange(3, dtype=np.uint64))
        count = self.block_width(3) + 9
        assert not bernoulli_matrix(keys, count, 0.0).any()
        assert np.array_equal(bernoulli_matrix(keys, count, 1.0),
                              pack_words(np.ones((3, count), dtype=np.uint8)))

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

    def test_a_word_equal_to_the_cut_fails(self):
        # Streams whose first word has its low 11 bits clear, at the rate
        # whose cut is that word: the comparison is strict, so the bit is 0.
        keys = absorb_block(13, np.arange(1 << 14, dtype=np.uint64))
        words = randomness._finalize(keys + np.uint64(_GOLDEN), np.empty_like(keys))
        exact = keys[(words & np.uint64(0x7FF)) == 0]
        assert len(exact) > 0
        for key in exact:
            p = (raw64(int(key), 0) >> 11) / 2.0**53
            assert bernoulli_block(int(key), 0, 1, p)[0] == 0
            assert bernoulli_matrix(np.array([key]), 3, p)[0, 0] & 1 == 0


class TestFinalizerSkip:
    """bernoulli_matrix drops the finalizer's last xorshift, w = x ^ (x >> 31),
    when the cut thr << 11 is a multiple of 2^33: w and x agree on bits 33..63,
    so they fall on the same side of such a cut. Both kernels apply the rule
    (the C one by its branch on the cut), so this class pins the C branch and
    TestFinalizerSkipNumpy the numpy one."""

    @pytest.mark.parametrize("cut", [2**33, 2**34, 3 * 2**33, 2**53, 2**63, 2**64 - 2**33,
                                     0x9E3779B9 << 33, 0x7FFFFFFF << 33])
    def test_rule_at_cuts_that_are_multiples_of_2_to_33(self, cut):
        for x in (cut - 1, cut, cut + 2**33 - 1, cut + 2**33):
            x &= 2**64 - 1
            w = x ^ (x >> 31)
            assert (w < cut) == (x < cut), hex(x)

    def test_rule_fails_off_the_multiples(self):
        # At a cut with any of its low 33 bits set, some word lands on the
        # other side once the last step is applied.
        cut = 2**40 + 2**8
        x = 2**40
        assert (x < cut) != ((x ^ (x >> 31)) < cut)

    @pytest.mark.parametrize("k", range(2, 32))
    def test_power_of_two_rates_match_bernoulli_block(self, k):
        rows = 5
        count = randomness._BLOCK_BYTES // (8 * rows) + 37
        keys = absorb_block(1000 + k, np.arange(rows, dtype=np.uint64))
        mat = bernoulli_matrix(keys, count, 2.0**-k)
        for r in range(rows):
            assert np.array_equal(mat[r], bernoulli_words(int(keys[r]), count, 2.0**-k))

    @pytest.mark.parametrize("p", [0.3, 1 / 12, 0.25 + 2.0**-40, 2.0**-31 * 3, 2.0**-32, 1e-12])
    def test_other_rates_match_bernoulli_block(self, p):
        rows = 4
        count = randomness._BLOCK_BYTES // (8 * rows) + 11
        keys = absorb_block(77, np.arange(rows, dtype=np.uint64))
        mat = bernoulli_matrix(keys, count, p)
        for r in range(rows):
            assert np.array_equal(mat[r], bernoulli_words(int(keys[r]), count, p))

    def test_cut_one_bit_off_the_rule(self):
        # Cuts that are multiples of 2^32 but not of 2^33: when bit 63 of x is
        # set, the last step flips bit 32, so x and w straddle a cut that
        # shares x's bits 33..63 and has bit 32 set.
        keys = absorb_block(29, np.arange(64, dtype=np.uint64))
        straddled = 0
        for key in keys:
            first = np.array([(int(key) + _GOLDEN) % 2**64], dtype=np.uint64)
            x = int(randomness._mix(first, np.empty_like(first))[0])
            if not x >> 63:
                continue
            cut = (x >> 33) << 33 | 1 << 32
            p = (cut >> 11) / 2.0**53
            want = bernoulli_block(int(key), 0, 1, p)[0]
            assert want != (x < cut)
            assert bernoulli_matrix(np.array([key]), 1, p)[0, 0] == want
            straddled += 1
        assert straddled > 10

    def test_cut_between_the_last_two_steps(self):
        # A word whose value before and after the last xorshift straddles the
        # cut: only the full finalizer gets it right, and such a cut is never
        # a multiple of 2^33.
        keys = absorb_block(23, np.arange(32, dtype=np.uint64))
        for key in keys:
            w = raw64(int(key), 0)
            first = np.array([(int(key) + _GOLDEN) % 2**64], dtype=np.uint64)
            x = int(randomness._mix(first, np.empty_like(first))[0])
            assert x ^ (x >> 31) == w
            thr = max(w, x) >> 11
            assert (thr << 11) % 2**33 != 0
            p = thr / 2.0**53
            want = bernoulli_block(int(key), 0, 1, p)[0]
            assert want == (w < thr << 11)
            assert bernoulli_matrix(np.array([key]), 1, p)[0, 0] == want


@pytest.mark.usefixtures("numpy_kernel")
class TestGeneratorIdentityNumpy(TestGeneratorIdentity):
    """TestGeneratorIdentity on the numpy kernel."""


@pytest.mark.usefixtures("numpy_kernel")
class TestBernoulliMatrixBlocksNumpy(TestBernoulliMatrixBlocks):
    """TestBernoulliMatrixBlocks on the numpy kernel."""


@pytest.mark.usefixtures("numpy_kernel")
class TestFinalizerSkipNumpy(TestFinalizerSkip):
    """TestFinalizerSkip on the numpy kernel."""


class TestNativeKernel:
    """bernoulli_matrix, raw64_block and sketch_apply_batch build their C
    twins together on first use, and all three fall back to their numpy
    kernels, with the same bits, wherever that build or the load of any twin
    fails."""

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_native_kernel_loads_where_cc_exists(self):
        # Without this, a broken build would quietly send the classes above
        # and their Numpy twins through the same numpy kernels.
        assert _native.status() == "native"

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_kernels_write_every_word_of_their_output(self):
        # The wrappers hand the C kernels np.empty arrays: a kernel that ORs
        # bits into words it has not cleared would keep whatever the
        # allocator left there, so here every word starts with all bits set.
        native = _native.kernels()
        keys = absorb_block(3, np.arange(4, dtype=np.uint64))
        for p in (0.25, 0.3):
            out = np.full((4, 3), ~np.uint64(0))
            native.bernoulli_matrix(keys, 4, 130, int(randomness._threshold(p)) << 11, out)
            assert np.array_equal(out, pack_words(randomness.bernoulli_matrix_numpy(keys, 130, p)))
        db, _ = make_instance(n=20, d=300, seed=5)
        m = derive_matrix(coin_for_trial(5, 0, 0), "main", 0, 70, 300, 2.0)
        out = np.full((20, 2), ~np.uint64(0))
        # The scratch is the word list of one group of rows: nwords words.
        native.sketch_apply_batch(db.words, 20, m.packed, 70, 5, np.full(5, ~np.uint64(0)), out)
        assert np.array_equal(out, pack_words(_parity_product(_db_bits(db), m.bits_matrix())))
        out = np.full(65, ~np.uint64(0))
        native.raw64_block((7 + 3 * _GOLDEN) % 2**64, 65, out)
        assert np.array_equal(out, raw64_block_numpy(7, 2, 65))

    @pytest.mark.parametrize("breakage", ["no cc on PATH", "compile error", "symbol missing",
                                          "only bernoulli_matrix", "no raw64_block",
                                          "no sketch_apply_batch"])
    def test_failed_build_falls_back_to_the_same_bits(self, breakage, monkeypatch, tmp_path):
        monkeypatch.setattr(_native, "_state", None)
        source = _native._C_SOURCE
        if breakage == "no cc on PATH":
            monkeypatch.setenv("PATH", str(tmp_path))
        elif breakage == "compile error":
            monkeypatch.setattr(_native, "_C_SOURCE", "#error no kernel here\n")
        elif breakage == "symbol missing":
            monkeypatch.setattr(_native, "_C_SOURCE", "int not_the_kernel;\n")
        elif breakage == "only bernoulli_matrix":  # the generator loads, the others are missing
            monkeypatch.setattr(_native, "_C_SOURCE", source[: source.index("/* raw64_block")])
        else:  # the one kernel is built as a static function, which the library does not export
            name = breakage.removeprefix("no ")
            assert source.count(f"\nvoid {name}(") == 1
            monkeypatch.setattr(_native, "_C_SOURCE",
                                source.replace(f"\nvoid {name}(", f"\nstatic void {name}("))
        assert np.array_equal(raw64_block(11, 3, 70), raw64_block_numpy(11, 3, 70))
        keys = absorb_block(99, np.arange(6, dtype=np.uint64))
        for p in (0.25, 0.3, 1.0):
            mat = bernoulli_matrix(keys, 300, p)
            for r in range(6):
                assert np.array_equal(mat[r], bernoulli_words(int(keys[r]), 300, p))
        db, _ = make_instance(n=20, d=300, seed=5)
        coin = coin_for_trial(5, 0, 0)
        packed = np.vstack([derive_matrix(coin, "main", scale, 6, 300, 2.0).packed
                            for scale in (0, 6)] + [np.zeros((1, 5), dtype=np.uint64)])
        m = SketchMatrix(rows=13, dim=300, packed=packed)
        assert np.array_equal(sketch_apply_batch(m, db),
                              pack_words(_parity_product(_db_bits(db), m.bits_matrix())))
        assert _native.status().startswith("numpy (")
        assert _native.kernels() is None

    def test_import_and_validation_build_nothing(self):
        # set-up time (import plus validate_config) must not pay for the build:
        # no process starts and no shared library loads until the first matrix.
        code = textwrap.dedent("""
            import ctypes, json, subprocess
            events = []
            def spy(name, real):
                def wrapper(self, *args, **kwargs):
                    events.append(name)
                    return real(self, *args, **kwargs)
                return wrapper
            subprocess.Popen.__init__ = spy("process", subprocess.Popen.__init__)
            ctypes.CDLL.__init__ = spy("library", ctypes.CDLL.__init__)
            import numpy as np
            import annsim
            from annsim import _native, randomness
            from annsim.harness import DatasetSpec, ExperimentConfig, validate_config
            for cfg in (
                ExperimentConfig(algo="simple", n=256, d=2**14, gamma=4.0, k=2, trials=100,
                                 seed=1, c1=8.0, c2=8.0, check_assumptions=False),
                ExperimentConfig(algo="general", n=128, d=4096, gamma=4.0, k=8, trials=100,
                                 seed=1, override=(2, 4),
                                 dataset=DatasetSpec("planted", plant_dist=6, plant_gap=40)),
            ):
                validate_config(cfg)
            before, built = list(events), _native._state
            randomness.bernoulli_matrix(np.arange(2, dtype=np.uint64), 8, 0.25)
            print(json.dumps({"before": before, "built": built is not None,
                              "after": events, "path": _native.status()}))
        """)
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=300)
        assert res.returncode == 0, res.stderr
        seen = json.loads(res.stdout)
        assert seen["before"] == [] and not seen["built"]
        if seen["path"] == "native":  # the spies do see a build when one happens
            assert "process" in seen["after"] and "library" in seen["after"]


class TestRaw64Block:
    """raw64_block, the dataset stream, against its numpy kernel and the
    scalar raw64, across a word's worth of counts and starts past 2^32 and
    2^63; TestRaw64BlockNumpy runs it on the numpy kernel."""

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 4097])
    @pytest.mark.parametrize("start", [0, 5, 2**32 + 1, 2**63])
    def test_matches_numpy_and_scalar(self, start, count):
        key = PublicCoin(77).stream_key(randomness.TAG_DATA)
        got = raw64_block(key, start, count)
        assert got.dtype == np.uint64 and got.shape == (count,)
        assert np.array_equal(got, raw64_block_numpy(key, start, count))
        for i in {0, count // 2, count - 1} if count else ():
            assert int(got[i]) == raw64(key, start + i)


@pytest.mark.usefixtures("numpy_kernel")
class TestRaw64BlockNumpy(TestRaw64Block):
    """TestRaw64Block on the numpy kernel."""


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
        out = Stream(7).permutation(40)
        assert sorted(out) == list(range(40))
        assert out != list(range(40))  # astronomically unlikely to be identity
