import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from annsim.core import Params, Point, hamming_dist, pack_words
from annsim.errors import DimensionMismatch
from annsim.randomness import coin_for_trial
from annsim.sketch import (
    SketchMatrix,
    decision_threshold,
    derive_matrix,
    row_collision_prob,
    sketch_apply,
    sketch_apply_batch,
    sketch_apply_batch_numpy,
    sketch_rows,
    threshold,
)

from conftest import make_instance, point_from_bits
from reference_oracle import _db_bits, _matrix_bits, _parity_product


def empirical_density(matrix: SketchMatrix) -> float:
    """Fraction of ones in the matrix."""
    return float(np.bitwise_count(matrix.packed).sum()) / (matrix.rows * matrix.dim)


def mp_delta(beta, alpha):
    """Independent high-precision evaluation of the gap formula."""
    with mpmath.workdps(50):
        base = 1 - 1 / (2 * mpmath.mpf(beta))
        return float(
            mpmath.mpf(1) / 2 * base**beta * (1 - base ** ((alpha - 1) * beta))
        )


def landmark_gap(beta, alpha):
    """f(alpha*beta) - f(beta) for f = row_collision_prob at rate beta."""
    return row_collision_prob(beta, alpha * beta) - row_collision_prob(beta, beta)


class TestDeltaThreshold:
    """The gap between the landmarks against the module docstring's closed
    form, Delta * (1 - Delta^(alpha-1)) / 2 with Delta = (1-1/(2*beta))^beta."""

    def test_beta_one(self):
        assert landmark_gap(1, 2) == 0.125

    def test_beta_two_high_precision(self):
        assert landmark_gap(2, 2) == pytest.approx(0.123046875, abs=1e-15)
        assert landmark_gap(2, 2) == pytest.approx(mp_delta(2, 2), abs=1e-15)

    def test_alpha_one_vanishes(self):
        assert landmark_gap(5, 1) == 0.0

    def test_beta_below_one_rejected(self):
        with pytest.raises(ValueError):
            landmark_gap(0.5, 2)

    @pytest.mark.parametrize("beta", [1, 1.5, 4, 64, 1e6])
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_strictly_inside_unit_interval(self, beta, alpha):
        v = landmark_gap(beta, alpha)
        assert 0 < v < 0.5
        # float64 pow at beta ~ 1e6 carries ~1e-11 relative error
        assert v == pytest.approx(mp_delta(beta, alpha), rel=1e-9)


class TestDecisionThreshold:
    @pytest.mark.parametrize("beta", [1, 2, 8, 100])
    @pytest.mark.parametrize("alpha", [1.2, 1.7, 2.0])
    def test_midpoint_between_landmarks(self, beta, alpha):
        near = row_collision_prob(beta, beta)
        far = row_collision_prob(beta, alpha * beta)
        mid = decision_threshold(beta, alpha)
        assert near < mid < far
        # The gap formula is exactly the distance between the landmarks.
        assert far - near == pytest.approx(mp_delta(beta, alpha), abs=1e-15)


class TestThreshold:
    """One sketch test per (params, role, scale): the decision fraction at
    beta = alpha^scale times the role's row count."""

    @pytest.mark.parametrize("n, gamma, s", [(16, 4.0, 2.0), (256, 2.0, 3.0), (100, 3.0, 0.5)])
    def test_each_role_scales_the_decision_fraction_by_its_rows(self, n, gamma, s):
        params = Params(n=n, d=4096, gamma=gamma, k=3, s=s)
        assert params.r_main != params.r_aux  # so a swap of the roles' rows shows
        assert (sketch_rows(params, "main"), sketch_rows(params, "aux")) == (
            params.r_main, params.r_aux)
        for i in range(params.scale_count + 1):
            frac = decision_threshold(params.alpha**i, params.alpha)
            assert threshold(params, "main", i) == frac * params.r_main
            assert threshold(params, "aux", i) == frac * params.r_aux

    @pytest.mark.parametrize("role", ["member_exact", "Main", ""])
    def test_unknown_role_raises(self, role):
        params = Params(n=16, d=64, gamma=4.0, k=1, s=2.0)
        with pytest.raises(ValueError, match="unknown sketch role"):
            sketch_rows(params, role)
        with pytest.raises(ValueError, match="unknown sketch role"):
            threshold(params, role, 0)

    def test_aux_needs_the_refinement_depth(self):
        params = Params(n=16, d=64, gamma=4.0, k=1)
        assert threshold(params, "main", 0) > 0
        with pytest.raises(ValueError, match="refinement depth s"):
            threshold(params, "aux", 0)


class TestRowCollisionProb:
    def test_identical_points(self):
        assert row_collision_prob(3, 0) == 0.0

    def test_unit_rate_unit_distance(self):
        assert row_collision_prob(1, 1) == 0.25

    def test_monotone_in_distance(self):
        for lam in (1, 2, 4, 8):
            probs = [row_collision_prob(lam, h) for h in range(0, 60, 3)]
            assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_monte_carlo_agreement(self, coin):
        # lam=2 -> scale 1 at alpha=2; measure over 10^5 derived rows.
        lam, h, rows, d = 2.0, 3, 10**5, 64
        matrix = derive_matrix(coin, "main", 1, rows, d, 2.0)
        x = Point(d, 0)
        z = Point(d, (1 << h) - 1)
        est = hamming_dist(sketch_apply(matrix, x), sketch_apply(matrix, z)) / rows
        p = row_collision_prob(lam, h)
        assert abs(est - p) <= 3 * math.sqrt(p * (1 - p) / rows)


class TestDeriveMatrix:
    def test_deterministic(self, coin):
        a = derive_matrix(coin, "main", 1, 8, 96, 2.0)
        b = derive_matrix(coin, "main", 1, 8, 96, 2.0)
        assert (a.packed == b.packed).all()

    def test_roles_are_separated(self, coin):
        a = derive_matrix(coin, "main", 0, 8, 96, 2.0)
        b = derive_matrix(coin, "aux", 0, 8, 96, 2.0)
        assert (a.packed != b.packed).any()

    def test_scale_zero_density(self, coin):
        m = derive_matrix(coin, "main", 0, 1000, 1000, 2.0)
        sigma = math.sqrt(0.25 * 0.75 / 1_000_000)
        assert abs(empirical_density(m) - 0.25) <= 3 * sigma

    def test_padding_bits_are_zero(self, coin):
        m = derive_matrix(coin, "main", 0, 4, 70, 2.0)
        for r in range(4):
            assert int(m.packed[r][1]) >> 6 == 0


def explicit_matrix(rows_bits: list[str]) -> SketchMatrix:
    """Matrix from explicit row strings, coordinate 0 first."""
    dim = len(rows_bits[0])
    nwords = (dim + 63) // 64
    packed = np.zeros((len(rows_bits), nwords), dtype=np.uint64)
    for r, bits in enumerate(rows_bits):
        padded = np.zeros(nwords * 64, dtype=np.uint8)
        padded[: len(bits)] = [int(b) for b in bits]
        packed[r] = np.packbits(padded, bitorder="little").view(np.uint64)
    return SketchMatrix(rows=len(rows_bits), dim=dim, packed=packed)


class TestSketchApply:
    def test_zero_point_maps_to_zero(self, coin):
        m = derive_matrix(coin, "main", 0, 16, 64, 2.0)
        assert sketch_apply(m, Point(64, 0)).value == 0

    def test_identity_like_rows_copy_bits(self):
        m = explicit_matrix(["1000", "0100", "0010"])
        p = point_from_bits("1010")
        assert sketch_bits(m, p).tolist() == [1, 0, 1]

    def test_matches_naive_mod2_dot_product(self, coin):
        m = derive_matrix(coin, "main", 0, 16, 64, 2.0)
        p = Point(64, 0x123456789ABCDEF0)
        got = sketch_bits(m, p)
        for r in range(16):
            naive = sum(
                int(a) & int(b) for a, b in zip(_matrix_bits(m)[r], _bits_of(p))
            ) % 2
            assert got[r] == naive

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 7, 65, 129])
    def test_rows_past_the_last_group_of_four_match_the_naive_dot_product(self, coin, rows):
        # The kernel sketches rows 4 at a time; a last group of 1 to 3 rows
        # must neither read nor set the bits of the rows it lacks.
        m = derive_matrix(coin, "main", 0, rows, 100, 2.0)
        p = Point(100, 0x9E3779B97F4A7C15 << 30 | 0x123456789)
        got = sketch_bits(m, p)
        bits = _matrix_bits(m)
        assert got.tolist() == [sum(int(a) & b for a, b in zip(bits[r], _bits_of(p))) % 2
                                for r in range(rows)]

    def test_dimension_mismatch(self, coin):
        m = derive_matrix(coin, "main", 0, 8, 64, 2.0)
        with pytest.raises(DimensionMismatch):
            sketch_apply(m, Point(32, 1))

    def test_batch_matches_single(self, coin):
        db, _ = make_instance(n=24, d=96)
        m = derive_matrix(coin, "main", 1, 12, 96, 2.0)
        batch = sketch_apply_batch(m, db)
        for i in range(db.n):
            assert batch[i].tolist() == sketch_apply(m, db.point(i)).packed().tolist()


class TestSketchApplyBatchDifferential:
    """sketch_apply_batch (register tiles of 4 rows x 32 points over the
    words where a group's rows are nonzero) against the test reference's
    dense matmul and the per-point kernel."""

    @staticmethod
    def check(n, d, scale, rows, seed):
        db, _ = make_instance(n=n, d=d, seed=seed)
        m = derive_matrix(coin_for_trial(seed, 0, 0), "main", scale, rows, d, 2.0)
        batch = sketch_apply_batch(m, db)
        assert batch.shape == (n, (rows + 63) // 64) and batch.dtype == np.uint64
        want = pack_words(_parity_product(_db_bits(db), _matrix_bits(m)))
        assert np.array_equal(batch, want)
        for i in range(db.n):
            assert np.array_equal(batch[i], sketch_apply(m, db.point(i)).packed())
        return m

    # TestSketchApplyBatchDifferentialNumpy runs this method too, under another
    # class; the examples are valid for both kernels, so that is not a hazard here.
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(
        n=st.integers(1, 40),
        d=st.integers(8, 400),
        scale=st.integers(0, 12),
        rows=st.integers(1, 24),
        seed=st.integers(0, 2**32),
    )
    @example(n=1, d=130, scale=0, rows=8, seed=7)
    @example(n=17, d=64, scale=1, rows=5, seed=8)
    @example(n=33, d=333, scale=12, rows=24, seed=9)
    def test_matches_oracle_and_single(self, n, d, scale, rows, seed):
        self.check(n, d, scale, rows, seed)

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 130])
    def test_words_pack_parities_with_zero_tails(self, rows):
        # Bit r % 64 of word r // 64 of a point is row r's parity; pack_words
        # leaves the bits above rows zero, so equality checks them too.
        self.check(n=37, d=300, scale=2, rows=rows, seed=rows)

    def test_rows_of_every_density(self):
        # At d = 1000 and scale 9 (rate 1/2048) most rows are all zero and
        # the rest touch only a few of the 16 words.
        m = self.check(n=20, d=1000, scale=9, rows=48, seed=11)
        nonzero_words = np.count_nonzero(m.packed, axis=1)
        assert (nonzero_words == 0).any()
        assert ((nonzero_words > 0) & (nonzero_words < m.packed.shape[1])).any()
        dense = self.check(n=20, d=1000, scale=0, rows=8, seed=11)
        assert (np.count_nonzero(dense.packed, axis=1) == dense.packed.shape[1]).all()


class TestSketchApplyBatchRowKinds:
    """Matrices built row by row from dense, sparse and all-zero rows, so that
    sketch_apply_batch is exercised at every mix of row densities, against
    the oracle route and the per-point kernel."""

    @staticmethod
    def mixed_matrix(kinds: list[str], d: int, seed: int) -> SketchMatrix:
        rng = np.random.default_rng(seed)
        nwords = (d + 63) // 64
        packed = np.zeros((len(kinds), nwords), dtype=np.uint64)
        for r, kind in enumerate(kinds):
            if kind == "zero":
                continue
            nz = {
                "dense": nwords,
                "half": (nwords + 1) // 2,
                "sparse": max(1, rng.integers(0, (nwords + 1) // 2)),
                "one": 1,
            }[kind]
            cols = rng.choice(nwords, size=nz, replace=False)
            packed[r, cols] = rng.integers(1, 2**64, size=nz, dtype=np.uint64)
        if d % 64:
            packed[:, -1] &= np.uint64((1 << (d % 64)) - 1)
            # a masked word that came out zero would change the row's kind
            packed[(packed == 0).all(axis=1) & (np.array(kinds) != "zero"), 0] = 1
        return SketchMatrix(rows=len(kinds), dim=d, packed=packed)

    @staticmethod
    def check(m: SketchMatrix, db) -> None:
        batch = sketch_apply_batch(m, db)
        assert batch.shape == (db.n, (m.rows + 63) // 64) and batch.dtype == np.uint64
        assert np.array_equal(batch, pack_words(_parity_product(_db_bits(db), _matrix_bits(m))))
        for i in range(db.n):
            assert np.array_equal(batch[i], sketch_apply(m, db.point(i)).packed())

    # TestSketchApplyBatchRowKindsNumpy runs this method too, under another
    # class; the examples are valid for both kernels, so that is not a hazard here.
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(
        n=st.integers(1, 30),
        d=st.integers(5, 700),
        kinds=st.lists(st.sampled_from(["dense", "half", "sparse", "one", "zero"]),
                       min_size=1, max_size=20),
        seed=st.integers(0, 2**32),
    )
    @example(n=1, d=700, kinds=["sparse", "zero", "dense", "one", "sparse"], seed=1)
    @example(n=5, d=130, kinds=["one", "one", "zero", "one", "half", "one"], seed=2)
    @example(n=3, d=64, kinds=["zero", "zero"], seed=3)
    def test_matches_oracle_and_single(self, n, d, kinds, seed):
        db, _ = make_instance(n=n, d=d, seed=seed % 1000)
        self.check(self.mixed_matrix(kinds, d, seed), db)


class TestSketchApplyBatchTileEdges:
    """The C kernel takes rows in groups of 4 and points in tiles of 32,
    then one point at a time: every count around those edges, against the
    numpy kernel, the test reference's dense product and the per-point kernel."""

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 63, 64, 65, 257])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 128, 129, 384])
    def test_matches_numpy_oracle_and_single(self, rows, n):
        db, _ = make_instance(n=n, d=200, seed=rows * 1000 + n)
        coin = coin_for_trial(rows, n, 0)
        dense = derive_matrix(coin, "main", 0, rows, 200, 2.0).packed
        sparse = derive_matrix(coin, "main", 5, rows, 200, 2.0).packed
        # Groups of 4 rows alternate dense and sparse, and group 1 is all
        # zero: an all-zero group between two dense ones.
        group = np.arange(rows) // 4
        packed = np.where((group % 2 == 0)[:, None], dense, sparse)
        packed[group == 1] = 0
        m = SketchMatrix(rows=rows, dim=200, packed=packed)
        batch = sketch_apply_batch(m, db)
        assert batch.shape == (n, (rows + 63) // 64) and batch.dtype == np.uint64
        assert np.array_equal(batch, pack_words(sketch_apply_batch_numpy(m, db.words)))
        assert np.array_equal(batch, pack_words(_parity_product(_db_bits(db), _matrix_bits(m))))
        for i in {0, 31, 32, n - 1} & set(range(n)):  # tile ends and the tail's ends
            assert np.array_equal(batch[i], sketch_apply(m, db.point(i)).packed())


@pytest.mark.usefixtures("numpy_kernel")
class TestSketchApplyBatchTileEdgesNumpy(TestSketchApplyBatchTileEdges):
    """TestSketchApplyBatchTileEdges on the numpy kernel."""


@pytest.mark.usefixtures("numpy_kernel")
class TestSketchApplyBatchDifferentialNumpy(TestSketchApplyBatchDifferential):
    """TestSketchApplyBatchDifferential on the numpy kernel."""


@pytest.mark.usefixtures("numpy_kernel")
class TestSketchApplyBatchRowKindsNumpy(TestSketchApplyBatchRowKinds):
    """TestSketchApplyBatchRowKinds on the numpy kernel."""


@pytest.mark.parametrize("shape", [(2, 1), (2, 3), (3, 2)])
def test_packed_words_must_match_rows_and_dim(shape):
    # The batch kernels read rows x ceil(dim/64) words; the numpy one would
    # sketch with a short row's first word only, the C one read past its end.
    with pytest.raises(ValueError, match="do not match"):
        SketchMatrix(rows=2, dim=128, packed=np.ones(shape, dtype=np.uint64))


@pytest.mark.parametrize("bit", [70, 74, 127])
def test_bits_above_dim_are_refused(bit):
    # The oracle's column route would index a column past dim, and its
    # dense route would drop the bit.
    packed = np.zeros((4, 2), dtype=np.uint64)
    packed[3, bit // 64] = np.uint64(1) << np.uint64(bit % 64)
    with pytest.raises(ValueError, match="beyond dim 70"):
        SketchMatrix(rows=4, dim=70, packed=packed)
    packed[3, 1] = np.uint64(1) << np.uint64(69 - 64)
    assert _matrix_bits(SketchMatrix(rows=4, dim=70, packed=packed))[3, 69] == 1


class TestMatrixCache:
    """derive_matrix keeps its matrices on the coin they were drawn from."""

    def test_same_coin_returns_the_same_object(self):
        coin = coin_for_trial(31, 0, 0)
        a = derive_matrix(coin, "main", 2, 8, 200, 2.0)
        assert derive_matrix(coin, "main", 2, 8, 200, 2.0) is a
        assert coin.matrices == {("main", 2, 8, 200, 2.0): a}

    def test_another_coin_of_the_same_seed_derives_afresh(self):
        coin, twin = coin_for_trial(31, 1, 0), coin_for_trial(31, 1, 0)
        assert coin == twin and hash(coin) == hash(twin)
        a = derive_matrix(coin, "main", 1, 8, 200, 2.0)
        b = derive_matrix(twin, "main", 1, 8, 200, 2.0)
        assert b is not a and np.array_equal(b.packed, a.packed)
        assert coin.matrices[("main", 1, 8, 200, 2.0)] is a

    def test_roles_and_alphas_stay_apart(self):
        coin = coin_for_trial(31, 2, 0)
        main = derive_matrix(coin, "main", 1, 8, 200, 2.0)
        aux = derive_matrix(coin, "aux", 1, 8, 200, 2.0)
        other_alpha = derive_matrix(coin, "main", 1, 8, 200, 1.5)
        assert len({id(main), id(aux), id(other_alpha)}) == 3
        assert not np.array_equal(main.packed, aux.packed)
        assert not np.array_equal(main.packed, other_alpha.packed)
        assert len(coin.matrices) == 3


def sketch_bits(m: SketchMatrix, p: Point) -> np.ndarray:
    """The sketch of p as a uint8 array of length m.rows."""
    return np.array(_bits_of(sketch_apply(m, p)), dtype=np.uint8)


def _bits_of(p: Point):
    return [(p.value >> j) & 1 for j in range(p.dim)]


class TestSeparationProperty:
    def test_threshold_test_misclassification_rate(self):
        # 1000 random pairs at distance lam and 2*lam+1; the fraction of
        # separating rows must land on the correct side of the decision
        # threshold in at least 95% of pairs.
        lam, alpha, d, rows, pairs = 4, 2.0, 512, 200, 1000
        scale = 2  # alpha^2 = lam
        thr = decision_threshold(float(lam), alpha)
        rng = np.random.default_rng(20240811)
        errors = 0
        for trial in range(pairs):
            coin = coin_for_trial(801, trial, 0)
            matrix = derive_matrix(coin, "main", scale, rows, d, alpha)
            base = rng.integers(0, 2, size=d, dtype=np.uint8)
            near = base.copy()
            near[rng.choice(d, size=lam, replace=False)] ^= 1
            far = base.copy()
            far[rng.choice(d, size=2 * lam + 1, replace=False)] ^= 1
            px = _point_from_array(base)
            sx = sketch_apply(matrix, px)
            s_near = sketch_apply(matrix, _point_from_array(near))
            s_far = sketch_apply(matrix, _point_from_array(far))
            if hamming_dist(sx, s_near) > thr * rows:
                errors += 1
            if hamming_dist(sx, s_far) <= thr * rows:
                errors += 1
        assert errors / (2 * pairs) <= 0.05


def _point_from_array(bits: np.ndarray) -> Point:
    value = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    return Point(len(bits), value)
