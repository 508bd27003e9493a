import numpy as np
import pytest
from hypothesis import given, strategies as st

from annsim.core import (
    Database,
    Params,
    Point,
    fraction_at_most,
    hamming_dist,
    load_database,
    save_database,
    scale_count,
)
from annsim.errors import DimensionMismatch

from conftest import point_from_bits


def naive_hamming(p: Point, q: Point) -> int:
    return sum(p.bit(j) != q.bit(j) for j in range(p.dim))


class TestHammingDist:
    def test_identity_case(self):
        z = point_from_bits("0000")
        assert hamming_dist(z, z) == 0

    def test_full_complement(self):
        assert hamming_dist(point_from_bits("1010"), point_from_bits("0101")) == 4

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_matches_per_bit_loop(self, a, b):
        p, q = Point(64, a), Point(64, b)
        assert hamming_dist(p, q) == naive_hamming(p, q)

    @given(st.integers(0, 2**48 - 1), st.integers(0, 2**48 - 1), st.integers(0, 2**48 - 1))
    def test_metric_axioms(self, a, b, c):
        p, q, r = Point(48, a), Point(48, b), Point(48, c)
        assert hamming_dist(p, q) >= 0
        assert (hamming_dist(p, q) == 0) == (p == q)
        assert hamming_dist(p, q) == hamming_dist(q, p)
        assert hamming_dist(p, r) <= hamming_dist(p, q) + hamming_dist(q, r)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hamming_dist(Point(4, 1), Point(5, 1))


class TestPoint:
    def test_rejects_overflow_bits(self):
        with pytest.raises(ValueError):
            Point(4, 16)

    def test_packed_padding_is_zero(self):
        p = Point(70, (1 << 69) | 1)
        words = p.packed()
        assert len(words) == 2
        assert int(words[1]) >> 6 == 0  # bits 70..127 of the packing stay zero

    def test_hex_roundtrip_msb_first(self):
        p = Point(12, 0xABC)
        assert p.to_hex() == "abc"
        assert Point.from_hex("abc", 12) == p

    @given(st.integers(1, 300).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(0, 2**d - 1))))
    def test_hex_roundtrip_any_width(self, dim_value):
        dim, value = dim_value
        p = Point(dim, value)
        assert Point.from_hex(p.to_hex(), dim) == p

    @pytest.mark.parametrize("text, dim", [
        ("0x1f", 16), ("+0ab", 16), ("-0ab", 16), ("1_f", 12), (" ab", 12),
        ("ABC", 12), ("abC", 12), ("\u0661\u0662\u0663", 12), ("abcd", 12), ("ab", 12),
        ("fff", 9),
    ])
    def test_from_hex_rejects_noncanonical(self, text, dim):
        with pytest.raises(ValueError):
            Point.from_hex(text, dim)

    def test_hex_width(self):
        assert Point(9, 1).to_hex() == "001"


class TestScaleCount:
    def test_exact_power(self):
        assert scale_count(256, 2.0) == 8

    def test_between_powers(self):
        assert scale_count(1000, 2.0) == 10

    def test_fractional_alpha(self):
        # ln 100 / ln 1.5 = 11.357...
        assert scale_count(100, 1.5) == 12

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            scale_count(1, 2.0)

    @given(st.integers(2, 10**6), st.floats(1.01, 2.0))
    def test_bracketing_property(self, d, alpha):
        i = scale_count(d, alpha)
        assert alpha**i >= d
        assert i == 1 or alpha ** (i - 1) < d


class TestParams:
    def test_alpha_is_sqrt_gamma(self):
        p = Params(n=16, d=64, gamma=2.25, k=1)
        assert p.alpha == pytest.approx(1.5)

    def test_gamma_clamped_at_four(self):
        p = Params(n=16, d=64, gamma=9.0, k=1)
        assert p.alpha == 2.0
        assert p.gamma == 9.0  # reported ratio keeps the caller's value

    def test_row_counts(self):
        p = Params(n=256, d=64, gamma=4.0, k=1, c1=8.0, c2=8.0)
        assert p.r_main == 64
        assert p.r_aux(2.0) == 32

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=0, d=64, gamma=4.0, k=1),
            dict(n=4, d=1, gamma=4.0, k=1),
            dict(n=4, d=64, gamma=1.0, k=1),
            dict(n=4, d=64, gamma=4.0, k=0),
            dict(n=4, d=64, gamma=4.0, k=1, c=2.0),
        ],
    )
    def test_invalid_params(self, kw):
        with pytest.raises(ValueError):
            Params(**kw)


class TestDatabase:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Database([Point(4, 3), Point(4, 3)])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            Database([Point(4, 3), Point(5, 3)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Database([])

    @given(st.integers(1, 200).flatmap(
        lambda d: st.tuples(st.just(d), st.sets(st.integers(0, 2**d - 1), min_size=1, max_size=20))
    ))
    def test_packed_matches_per_point_words(self, dim_values):
        dim, values = dim_values
        db = Database([Point(dim, v) for v in sorted(values)])
        want = np.stack([p.packed() for p in db.points])
        assert db.packed.dtype == np.uint64 and np.array_equal(db.packed, want)
        assert db.words.flags.c_contiguous and np.array_equal(db.words, want.T)
        assert not db.packed.flags.writeable and not db.words.flags.writeable

    def test_file_roundtrip(self, tmp_path):
        db = Database([Point(12, v) for v in (0, 0xABC, 0x123, 0xFFF)])
        path = tmp_path / "db.txt"
        save_database(db, str(path))
        text = path.read_text()
        assert text.splitlines()[0] == "d=12 n=4"
        assert text.splitlines()[1] == "000"
        loaded = load_database(str(path))
        assert loaded.points == db.points

    @pytest.mark.parametrize("line", ["0x1f", "+01f", "01_f", "001F"])
    def test_load_rejects_noncanonical_hex(self, tmp_path, line):
        path = tmp_path / "db.txt"
        path.write_text(f"d=16 n=2\n0000\n{line}\n")
        with pytest.raises(ValueError, match="hex digits"):
            load_database(str(path))

    def test_load_rejects_bad_count(self, tmp_path):
        path = tmp_path / "db.txt"
        path.write_text("d=4 n=2\nf\n")
        with pytest.raises(ValueError):
            load_database(str(path))


class TestFractionAtMost:
    def test_zero_part_is_always_small(self):
        assert fraction_at_most(0, 0, 256, 2.0)

    def test_positive_part_of_empty_whole_is_large(self):
        assert not fraction_at_most(1, 0, 256, 2.0)

    def test_exact_boundary_counts_as_small(self):
        # 2 == 32 * 256^(-1/2) exactly
        assert fraction_at_most(2, 32, 256, 2.0)

    def test_just_above_boundary_is_large(self):
        assert not fraction_at_most(3, 32, 256, 2.0)

    def test_factor_scales_the_bound(self):
        assert fraction_at_most(4, 32, 256, 2.0, factor=2.0)
        assert not fraction_at_most(5, 32, 256, 2.0, factor=2.0)
