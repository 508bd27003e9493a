import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from annsim.core import (
    CALIBRATED_C1,
    CALIBRATED_C2,
    Database,
    Params,
    Point,
    first_occurrences,
    fraction_at_most,
    hamming_dist,
    pack_words,
)
from annsim.errors import DimensionMismatch
from annsim.near_search import near_scale

from conftest import point_from_bits


def naive_hamming(p: Point, q: Point) -> int:
    return sum((p.value >> j) & 1 != (q.value >> j) & 1 for j in range(p.dim))


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
        with pytest.raises(ValueError):
            Point(4, -1)  # (-1).bit_length() is 1, so only the sign test rejects it
        d = 1 << 14
        with pytest.raises(ValueError):
            Point(d, 1 << d)
        assert Point(d, (1 << d) - 1).value.bit_length() == d

    def test_packed_padding_is_zero(self):
        p = Point(70, (1 << 69) | 1)
        words = p.packed()
        assert len(words) == 2
        assert int(words[1]) >> 6 == 0  # bits 70..127 of the packing stay zero

    @given(st.integers(1, 200).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(st.integers(0, 2**d - 1), min_size=1, max_size=5))
    ))
    def test_pack_words_packs_bit_rows_like_points(self, dim_values):
        # Sketch bit rows and points share one word layout, padding included.
        dim, values = dim_values
        bits = np.array([[(v >> j) & 1 for j in range(dim)] for v in values], dtype=np.uint8)
        words = pack_words(bits)
        assert words.shape == (len(values), (dim + 63) // 64) and words.dtype == np.uint64
        assert np.array_equal(words, np.array([Point(dim, v).packed() for v in values]))

    def test_hex_roundtrip_msb_first(self):
        p = Point(12, 0xABC)
        assert p.to_hex() == "abc"
        assert int(p.to_hex(), 16) == p.value

    @given(st.integers(1, 300).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(0, 2**d - 1))))
    def test_hex_roundtrip_any_width(self, dim_value):
        dim, value = dim_value
        text = Point(dim, value).to_hex()
        assert len(text) == math.ceil(dim / 4) and int(text, 16) == value

    def test_hex_width(self):
        assert Point(9, 1).to_hex() == "001"


class TestScaleCount:
    """I = ceil(log_alpha d), from `Params.scale_count` alone."""

    def test_exact_power(self):
        assert Params(n=2, d=256, gamma=4.0, k=1).scale_count == 8

    def test_between_powers(self):
        assert Params(n=2, d=1000, gamma=4.0, k=1).scale_count == 10

    def test_fractional_alpha(self):
        # ln 100 / ln 1.5 = 11.357...
        assert Params(n=2, d=100, gamma=2.25, k=1).scale_count == 12

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            Params(n=2, d=1, gamma=4.0, k=1)


def fraction_grid(gamma: float, d: int, lam: float) -> tuple[int, list[int], int]:
    """I, floor(alpha^i) for i <= I+1, and the scale of lam clamped to
    [1, d], from Fraction arithmetic alone, with alpha^2 = min(gamma, 4)."""
    base = Fraction(min(gamma, 4.0))
    count = 1
    while base**count < d * d:
        count += 1
    radii = [math.isqrt(math.floor(base**i)) for i in range(count + 2)]
    bound = Fraction(min(max(lam, 1.0), d)) ** 2
    scale = 0
    while base**scale < bound:
        scale += 1
    return count, radii, scale


class TestExactScales:
    """Scale decisions in exact arithmetic: sqrt(3)**2 is 2.9999999999999996
    in floats, so every even power of alpha at gamma = 3 falls just short of
    the integer 3^(i/2)."""

    @pytest.mark.parametrize("d, count", [(3, 2), (9, 4), (729, 12)])
    def test_gamma_3_scale_count_at_powers_of_3(self, d, count):
        assert Params(n=16, d=d, gamma=3.0, k=1).scale_count == count

    def test_gamma_3_radii(self):
        p = Params(n=16, d=729, gamma=3.0, k=1)
        assert [p.radius(i) for i in range(7)] == [1, 1, 3, 5, 9, 15, 27]

    @pytest.mark.parametrize("lam, scale", [(3.0, 2), (9.0, 4), (2.9, 2), (3.1, 3), (1.0, 0)])
    def test_gamma_3_near_scale(self, lam, scale):
        assert near_scale(lam, Params(n=16, d=729, gamma=3.0, k=1)) == scale

    @settings(max_examples=150, deadline=None)
    @given(gamma=st.floats(1.0, 4.0, exclude_min=True), d=st.integers(2, 2**16),
           lam=st.floats(0.5, 2.0**17))
    @example(gamma=3.0, d=729, lam=27.0)
    @example(gamma=3.0, d=3**10, lam=243.0)
    @example(gamma=2.0, d=256, lam=16.0)
    @example(gamma=4.0, d=4096, lam=64.0)
    @example(gamma=1.21, d=1331, lam=1.331)
    def test_against_fraction_arithmetic(self, gamma, d, lam):
        # Grids of at most 300 scales keep the reference's powers small.
        assume(2 * math.log(d) <= 300 * math.log(gamma) and math.sqrt(gamma) > 1.0)
        p = Params(n=16, d=d, gamma=gamma, k=1)
        count, radii, scale = fraction_grid(gamma, d, lam)
        assert p.scale_count == count
        assert [p.radius(i) for i in range(count + 2)] == radii
        assert near_scale(lam, p) == scale


class TestParams:
    def test_alpha_is_sqrt_gamma(self):
        p = Params(n=16, d=64, gamma=2.25, k=1)
        assert p.alpha == pytest.approx(1.5)

    def test_gamma_clamped_at_four(self):
        p = Params(n=16, d=64, gamma=9.0, k=1)
        assert p.alpha == 2.0
        assert p.gamma == 9.0  # reported ratio keeps the caller's value

    def test_defaults_are_the_calibrated_factors(self):
        p = Params(n=256, d=128, gamma=4.0, k=1)
        assert (p.c1, p.c2) == (CALIBRATED_C1, CALIBRATED_C2)
        assert p.r_main == 384

    def test_row_counts(self):
        p = Params(n=256, d=64, gamma=4.0, k=1, c1=8.0, c2=8.0)
        assert p.r_main == 64
        assert replace(p, s=2.0).r_aux == 32

    @given(n=st.integers(1, 10**6), c1=st.floats(0.5, 200.0), c2=st.floats(0.5, 200.0),
           s=st.floats(0.25, 50.0), s2=st.floats(0.25, 50.0))
    def test_row_counts_are_kept_and_follow_replace(self, n, c1, c2, s, s2):
        # The kept counts are the formulas; replace() builds a record that
        # computes them afresh.
        p = Params(n=n, d=64, gamma=4.0, k=1, c1=c1, c2=c2, s=s)
        log_n = math.log2(max(n, 2))
        assert p.r_main == max(1, math.ceil(c1 * log_n))
        assert p.r_aux == max(1, math.ceil(c2 / s * log_n))
        assert (vars(p)["r_main"], vars(p)["r_aux"]) == (p.r_main, p.r_aux)
        q = replace(p, s=s2, n=n + 1)
        assert q.r_aux == max(1, math.ceil(c2 / s2 * math.log2(n + 1)))
        assert q.r_main == max(1, math.ceil(c1 * math.log2(n + 1)))
        with pytest.raises(ValueError, match="refinement depth s"):
            replace(p, s=None).r_aux

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=0, d=64, gamma=4.0, k=1),
            dict(n=4, d=1, gamma=4.0, k=1),
            dict(n=4, d=64, gamma=1.0, k=1),
            dict(n=4, d=64, gamma=4.0, k=0),
            dict(n=4, d=64, gamma=4.0, k=1, c=2.0),
            dict(n=4, d=64, gamma=4.0, k=1, c1=math.inf),
            dict(n=4, d=64, gamma=4.0, k=1, c2=math.nan),
            dict(n=4, d=64, gamma=4.0, k=1, c=math.nan),
            dict(n=4, d=64, gamma=math.nan, k=1),
            dict(n=4, d=64, gamma=4.0, k=1, s=0.0),
            dict(n=4, d=64, gamma=4.0, k=1, s=-1.0),
            dict(n=4, d=64, gamma=4.0, k=1, s=math.nan),
            dict(n=4, d=64, gamma=4.0, k=1, s=math.inf),
            dict(n=4, d=64, gamma=4.0, k=1, s=2.0, tau=1),
        ],
    )
    def test_invalid_params(self, kw):
        with pytest.raises(ValueError):
            Params(**kw)

    @pytest.mark.parametrize("name", ["r_aux", "s_int"])
    def test_refinement_properties_need_s(self, name):
        with pytest.raises(ValueError, match="refinement depth s"):
            getattr(Params(n=8, d=64, gamma=4.0, k=1), name)

    @pytest.mark.parametrize("s, s_int", [(0.3, 1), (2.0, 2), (2.4, 2), (4.875, 5)])
    def test_s_int_is_s_rounded_at_least_one(self, s, s_int):
        assert Params(n=4, d=64, gamma=4.0, k=1, s=s).s_int == s_int


class TestDatabase:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Database.from_points([Point(4, 3), Point(4, 3)])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            Database.from_points([Point(4, 3), Point(5, 3)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Database.from_points([])

    def test_rejects_bits_above_the_dimension(self):
        words = np.array([[1], [1 << 5]], dtype=np.uint64)
        Database(words, 6)
        with pytest.raises(ValueError, match="bits set beyond its dimension"):
            Database(words, 5)

    def test_rejects_words_of_another_width(self):
        with pytest.raises(ValueError, match="do not hold points of dimension 65"):
            Database(np.zeros((2, 1), dtype=np.uint64), 65)

    def test_rejects_duplicate_words(self):
        words = np.array([[1, 2], [3, 2], [1, 2]], dtype=np.uint64)
        with pytest.raises(ValueError, match="distinct"):
            Database(words, 128)

    def test_point_is_built_from_its_row_of_words(self):
        db = Database(np.array([[5, 1], [7, 0]], dtype=np.uint64), 65)
        assert [db.point(0), db.point(1)] == [Point(65, 5 | 1 << 64), Point(65, 7)]
        assert not hasattr(db, "points")

    @given(st.integers(1, 200).flatmap(
        lambda d: st.tuples(st.just(d), st.sets(st.integers(0, 2**d - 1), min_size=1, max_size=20))
    ))
    def test_packed_matches_per_point_words(self, dim_values):
        dim, values = dim_values
        points = [Point(dim, v) for v in sorted(values)]
        db = Database.from_points(points)
        assert [db.point(i) for i in range(db.n)] == points
        want = np.stack([p.packed() for p in points])
        assert db.packed.dtype == np.uint64 and np.array_equal(db.packed, want)
        assert db.words.flags.c_contiguous and np.array_equal(db.words, want.T)
        assert not db.packed.flags.writeable and not db.words.flags.writeable


class TestFirstOccurrences:
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=30))
    def test_matches_a_set(self, rows):
        # Three-valued words force duplicates and rows that share a first word.
        seen, want = set(), []
        for row in rows:
            want.append(row not in seen)
            seen.add(row)
        got = first_occurrences(np.array(rows, dtype=np.uint64))
        assert got.tolist() == want


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

    # Near misses that the float band used to admit: n^(1/s) is irrational
    # and part / whole lies within 1e-9 (in log) above n^(-1/s).
    @pytest.mark.parametrize("part, whole, n, s", [
        (346, 1645, 1999, 4.875),  # params_general at k = 41, c = 4
        (466, 2183, 2256, 5.0),    # 466^5 * 2256 > 2183^5
        (793, 3149, 3921, 6.0),
        (81, 1046, 1136, 2.75),
    ])
    def test_near_misses_inside_the_float_band_are_large(self, part, whole, n, s):
        a, b = Fraction(s).numerator, Fraction(s).denominator
        assert part**a * n**b > whole**a
        assert not fraction_at_most(part, whole, n, s)

    @settings(max_examples=300, deadline=None)
    @given(
        s=st.one_of(st.integers(1, 6).map(float), st.integers(8, 48).map(lambda e: e / 8)),
        n=st.integers(2, 2**20),
        part=st.integers(1, 5000),
        offset=st.integers(-2, 2),
        factor=st.sampled_from([1.0, 2.0]),
    )
    @example(s=4.875, n=1999, part=346, offset=0, factor=1.0)
    def test_matches_integer_arithmetic_near_the_bound(self, s, n, part, offset, factor):
        # whole near part * n^(1/s) / factor, where the answer turns.
        whole = max(1, round(part * n ** (1 / s) / factor) + offset)
        a, b = Fraction(s).numerator, Fraction(s).denominator
        f = Fraction(factor)
        want = part**a * n**b * f.denominator**a <= (f.numerator * whole) ** a
        assert fraction_at_most(part, whole, n, s, factor=factor) == want

    @settings(max_examples=100, deadline=None)
    @given(root=st.integers(2, 40), s=st.sampled_from([1.0, 2.0, 3.0, 2.5, 1.75]),
           part=st.integers(1, 1000))
    def test_exact_ties_are_small_and_one_less_whole_is_large(self, root, s, part):
        # n = root^a makes n^(1/s) = root^b an integer, so whole ties exactly.
        a, b = Fraction(s).numerator, Fraction(s).denominator
        n, whole = root**a, part * root**b
        assert fraction_at_most(part, whole, n, s)
        assert not fraction_at_most(part, whole - 1, n, s)
