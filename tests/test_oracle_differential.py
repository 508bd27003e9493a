"""The mask oracle against the frozenset oracle it replaced.

`reference_oracle` keeps the earlier `ScaleSets`, `check_assumption1` and
`check_assumption2` verbatim: one full product over every column with the
query as its own column, frozensets built pair by pair, and an i-major pair
loop. The production oracle XORs the query into the points and, at every
density, XORs the point columns at each matrix row's ones (the C column
kernel, or its numpy twin). It keeps its sets as boolean masks and checks
the pairs j-major. Both must give the same sets and verdicts, on the C
kernels and on the numpy kernels.
"""

import random
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import reference_oracle as ref
from annsim import _native, oracle
from annsim.core import Database, Params, Point, pack_words
from annsim.harness import DatasetSpec, gen_database
from annsim.oracle import (
    assumption1_failure,
    assumption2_failure,
    check_assumption1,
    check_assumption2,
    exact_sets,
)
from annsim.randomness import PublicCoin, coin_for_trial
from annsim.sketch import SketchMatrix, derive_matrix

from conftest import make_instance, make_params


def both(n=16, d=64, seed=3, s_real=2.0, **kw):
    """The production and reference sets of one small instance."""
    db, x = make_instance(n=n, d=d, seed=seed)
    params = make_params(n=n, d=d, s=s_real, **kw)
    coin = PublicCoin(seed)
    return (exact_sets(x, db, coin, params),
            ref.ScaleSets(x, db, coin, params, s_real=s_real))


def matrix_from_bits(bits: np.ndarray) -> SketchMatrix:
    rows, dim = bits.shape
    return SketchMatrix(rows, dim, pack_words(bits.astype(np.uint8)))


def assert_same_sets(new, old):
    top = new.top
    for i in range(top + 2):
        assert new.ball(i) == old.ball(i)
    for i in range(top + 1):
        assert new.sketch_ball(i) == old.sketch_ball(i)
        if new.params.s is not None:
            for j in range(top + 1):
                assert new.refined(i, j) == old.refined(i, j)


def assert_same_verdicts(new, old, n):
    assert check_assumption1(new) == ref.check_assumption1(old)
    if new.params.s is not None:
        assert check_assumption2(new) == ref.check_assumption2(old, old.s_real, n)


def with_words(rows, d, words, seed):
    """A (rows, d) matrix with exactly `words` nonzero 64-bit words at random
    places, the last word included, each holding one to four ones."""
    rng = np.random.default_rng(seed)
    per_row = -(-d // 64)
    bits = np.zeros((rows, 64 * per_row), dtype=bool)
    last = rows * per_row - 1
    for slot in np.append(rng.choice(last, words - 1, replace=False), last):
        r, w = divmod(int(slot), per_row)
        width = min(64, d - 64 * w)
        ones = rng.integers(1, min(4, width) + 1)
        bits[r, 64 * w + rng.choice(width, ones, replace=False)] = True
    return bits[:, :d]


def inject(new, old, balls, cand, aux):
    """Give both oracles the same sets: balls (top+2, n), candidates
    (top+1, n) and one aux-pass mask per scale (top+1, n)."""
    new.balls = balls
    new.candidates = cand
    new._aux_masks = dict(enumerate(aux))
    old.balls = [frozenset(np.flatnonzero(b).tolist()) for b in balls]
    old.approx = [frozenset(np.flatnonzero(c).tolist()) for c in cand]
    old._refined = {
        (i, j): frozenset(np.flatnonzero(cand[i] & aux[j]).tolist())
        for i in range(len(cand)) for j in range(len(aux))
    }


class TestRandomInstances:
    # TestRandomInstancesNumpy runs these methods too, under another class;
    # the examples are valid for both kernels, so that is not a hazard here.
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(
        n=st.integers(1, 40),
        d=st.integers(2, 200),
        gamma=st.sampled_from([1.5, 2.0, 4.0]),
        s_real=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        c=st.sampled_from([0.5, 2.0, 8.0]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(n=40, d=130, gamma=4.0, s_real=2.0, c=8.0, seed=1)
    @example(n=1, d=2, gamma=2.0, s_real=1.0, c=0.5, seed=2)
    def test_sets_and_verdicts_match(self, n, d, gamma, s_real, c, seed):
        assume(d >= 64 or n <= 2**d)
        db, x = gen_database(n, d, DatasetSpec(), seed)
        coin = PublicCoin(seed)
        params = Params(n=n, d=d, gamma=gamma, k=1, c1=c, c2=c, s=s_real)
        new = exact_sets(x, db, coin, params)
        old = ref.ScaleSets(x, db, coin, params, s_real=s_real)
        # Verdicts first, while the aux masks are still built lazily.
        assert_same_verdicts(new, old, n)
        assert_same_sets(new, old)
        for sc in range(params.scale_count + 1):
            for role, rows in (("main", params.r_main), ("aux", params.r_aux)):
                m = derive_matrix(coin, role, sc, rows, d, params.alpha)
                assert np.array_equal(new._sketch_dists(m), old._sketch_dists(m))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**64 - 1),
           c=st.sampled_from([0.5, 2.0, 8.0]))
    def test_no_aux_matrix_the_reference_would_not_derive(self, n, seed, c):
        db, x = make_instance(n=n, d=96, seed=seed)
        coin = PublicCoin(seed)
        params = make_params(n=n, d=96, c1=c, c2=c, s=2.0)
        new = exact_sets(x, db, coin, params)
        old = ref.ScaleSets(x, db, coin, params, s_real=2.0)
        # The reference builds every candidate set up front; the production
        # sets stop at the first sandwich break unless the sets are read.
        new.candidates
        derived = {}
        for name, module, sets, check in (
            ("new", oracle, new, check_assumption2),
            ("old", ref, old, lambda sets: ref.check_assumption2(sets, 2.0, n)),
        ):
            scales = derived[name] = set()

            def recording(coin, role, scale, *rest, _scales=scales):
                _scales.add(scale)
                return derive_matrix(coin, role, scale, *rest)

            with mock.patch.object(module, "derive_matrix", recording):
                derived[name, "verdict"] = check(sets)
        assert derived["new", "verdict"] == derived["old", "verdict"]
        assert derived["new"] <= derived["old"]


class TestSketchDists:
    """Matrices built by hand: all zero, a single nonzero word, single ones,
    one column, and few or many nonzero words."""

    D = 64

    def check(self, bits):
        new, old = both(d=self.D)
        m = matrix_from_bits(bits)
        dists = new._sketch_dists(m)
        assert np.array_equal(dists, old._sketch_dists(m))
        return dists

    def half_columns(self):
        rng = np.random.default_rng(5)
        bits = rng.random((12, self.D)) < 0.3
        bits[:, 1::2] = False
        bits[0, ::2] = True  # exactly D/2 nonzero columns
        bits[3] = False
        return bits

    def test_exactly_half_the_columns(self):
        self.check(self.half_columns())

    # 12 rows of 64 columns hold 12 words.
    @pytest.mark.parametrize("words", [2, 3, 4, 12])
    def test_nonzero_words(self, words):
        self.check(with_words(12, self.D, words, seed=words))

    def test_ones_in_one_word_take_the_column_route(self):
        bits = np.zeros((12, self.D), dtype=bool)
        bits[5, [0, 9, 40, 63]] = True  # one nonzero word, four ones
        self.check(bits)

    def test_all_zero_matrix(self):
        assert not self.check(np.zeros((9, self.D), dtype=bool)).any()

    @pytest.mark.parametrize("col", [0, 37, 63])
    def test_one_column_matrix(self, col):
        bits = np.zeros((10, self.D), dtype=bool)
        bits[[1, 4, 5, 9], col] = True
        self.check(bits)

    def test_rows_with_a_single_one(self):
        bits = np.zeros((16, self.D), dtype=bool)
        bits[np.arange(16), np.arange(16) * 3] = True
        self.check(bits)


class TestBlockEdges:
    """Hand-built dense cases with d around 2048 and 4096 (the edges of the
    column blocks of an earlier float32 product) and past them, with the
    query's complement among the points.

    The complement differs from the query in every coordinate, so its
    distance under a matrix is the number of rows with an odd number of
    ones.
    """

    @staticmethod
    def oracles(n, d, at, seed):
        """Both oracles on n random points of dimension d, point `at` being
        the query's complement."""
        rnd = random.Random(seed)
        x = Point(d, rnd.getrandbits(d))
        points = [Point(d, rnd.getrandbits(d)) for _ in range(n)]
        points[at] = Point(d, x.value ^ ((1 << d) - 1))
        db = Database.from_points(points)
        coin = PublicCoin(seed)
        params = make_params(n=n, d=d, c1=1.0, c2=1.0, s=2.0)
        return exact_sets(x, db, coin, params), ref.ScaleSets(x, db, coin, params, s_real=2.0)

    @staticmethod
    def check(new, old, bits):
        m = matrix_from_bits(bits)
        dists = new._sketch_dists(m)
        assert dists.shape == (new.db.n,)
        assert np.array_equal(dists, old._sketch_dists(m))
        return dists

    # (n, at): the complement first, last or inside an even or odd n, and alone.
    @pytest.mark.parametrize("n, at", [(2, 0), (2, 1), (3, 2), (5, 2), (5, 3), (1, 0)])
    @pytest.mark.parametrize("d", [2047, 2048, 2049, 4095, 4096, 4097])
    def test_all_ones_row_against_the_complement(self, n, at, d):
        new, old = self.oracles(n, d, at, seed=d + 10 * n + at)
        bits = np.random.default_rng(d).random((6, d)) < 0.5
        bits[0] = True
        bits[1] = False
        bits[1, : min(d, 2048)] = True  # one full first block
        bits[2] = False
        bits[2, 2048:] = True  # every block after the first
        dists = self.check(new, old, bits)
        assert dists[at] == np.count_nonzero(bits.sum(axis=1) % 2)
        # Alone, so that a wrong parity cannot cancel against another row's.
        for row in bits[:3]:
            self.check(new, old, row[None])

    def test_dense_columns_at_d_8200(self):
        # The first 4100 columns of 5 rows, about half ones, and a sixth row of zeros.
        new, old = self.oracles(5, 8200, 0, seed=4100)
        bits = np.zeros((6, 8200), dtype=bool)
        bits[:5, :4100] = np.random.default_rng(4100).random((5, 4100)) < 0.5
        bits[0, :4100] = True
        dists = self.check(new, old, bits)
        assert dists[0] == np.count_nonzero(bits.sum(axis=1) % 2)

    # 6 rows of 8190 columns (the last word partial) hold 6 * 128 words.
    @pytest.mark.parametrize("words", [191, 192, 193])
    def test_nonzero_words_at_d_8190(self, words):
        new, old = self.oracles(5, 8190, 0, seed=words)
        bits = with_words(6, 8190, words, seed=words)
        dists = self.check(new, old, bits)
        assert dists[0] == np.count_nonzero(bits.sum(axis=1) % 2)


ROW_KINDS = ("zero", "single", "last word", "sparse", "half", "full")


def rows_of(kinds, d, rng):
    """One matrix row per kind: all zero, a single one, ones only in the
    last word (partial when 64 does not divide d), a few ones, about d/2,
    or all ones."""
    bits = np.zeros((len(kinds), d), dtype=bool)
    last = 64 * ((d - 1) // 64)
    for row, kind in zip(bits, kinds):
        if kind == "single":
            row[rng.integers(d)] = True
        elif kind == "last word":
            row[rng.integers(last, d, size=3)] = True
        elif kind == "sparse":
            row[rng.integers(d, size=5)] = True
        elif kind == "half":
            row[:] = rng.random(d) < 0.5
        elif kind == "full":
            row[:] = True
    return bits


class TestColumnRoute:
    """The oracle's one route against the reference over the shapes its
    words pad: n around multiples of 64 (the last point word), d around them."""

    # TestColumnRouteNumpy runs this method too, under another class; the
    # examples are valid for both kernels, so that is not a hazard here.
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(
        n=st.sampled_from([1, 2, 63, 64, 65, 127, 128]),
        d=st.one_of(st.integers(7, 200), st.sampled_from([64, 128, 4097])),
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=12),
        last_nonzero=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=65, d=4097, kinds=["zero"] * 4, last_nonzero=False, seed=0)
    @example(n=128, d=4097, kinds=["last word", "zero", "single"], last_nonzero=True, seed=1)
    @example(n=1, d=70, kinds=["last word"], last_nonzero=True, seed=2)
    @example(n=63, d=200, kinds=["single", "zero", "sparse", "zero"], last_nonzero=True, seed=3)
    def test_distances_match_the_reference(self, n, d, kinds, last_nonzero, seed):
        assume(n <= 2**d)
        db, x = gen_database(n, d, DatasetSpec(), seed)
        coin = PublicCoin(seed)
        params = Params(n=n, d=d, gamma=4.0, k=1, c1=1.0, c2=1.0, s=2.0)
        new = exact_sets(x, db, coin, params)
        old = ref.ScaleSets(x, db, coin, params, s_real=2.0)
        rng = np.random.default_rng(seed)
        bits = rows_of(kinds, d, rng)
        if last_nonzero:
            bits[-1, rng.integers(d)] = True
        m = matrix_from_bits(bits)
        assert np.array_equal(new._sketch_dists(m), old._sketch_dists(m))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
class TestColumnKernel:
    """The C column kernel against its numpy twin over the shapes its words
    pad and its register tiles of 4 column words (256 points) split: n
    around multiples of 64 and past one and two tiles, d around multiples
    of 64, and rows at every density from all zero to all ones."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 63, 64, 65, 128, 129, 255, 256, 257, 320, 449, 520]),
        d=st.one_of(st.integers(2, 200), st.sampled_from([64, 128, 4097])),
        rates=st.lists(st.sampled_from([0.0, 1 / 512, 1 / 64, 1 / 16, 1 / 4, 1 / 2, 1.0]),
                       min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=257, d=130, rates=[0.0, 1.0, 1 / 4], seed=0)
    @example(n=520, d=4097, rates=[1.0, 1 / 512, 0.0, 1 / 2], seed=1)
    def test_c_twin_matches_the_numpy_twin(self, n, d, rates, seed):
        assert _native.status() == "native"
        rng = np.random.default_rng(seed)
        bits = rng.random((len(rates), d)) < np.array(rates)[:, None]
        points = (rng.random((n, d)) < 0.5).astype(np.uint8)
        # Point j at bit j % 64 of word j // 64 of its columns' rows.
        columns = pack_words(np.ascontiguousarray(points.T))
        m = matrix_from_bits(bits)
        dists = oracle.column_parities(m, columns, n)
        assert np.array_equal(dists, oracle.column_parities_numpy(m, columns, n))
        assert np.array_equal(dists, ref._parity_product(points, bits.astype(np.uint8)).sum(axis=1))


@pytest.mark.usefixtures("numpy_kernel")
class TestRandomInstancesNumpy(TestRandomInstances):
    """TestRandomInstances on the numpy kernels."""


@pytest.mark.usefixtures("numpy_kernel")
class TestSketchDistsNumpy(TestSketchDists):
    """TestSketchDists on the numpy kernels."""


@pytest.mark.usefixtures("numpy_kernel")
class TestBlockEdgesNumpy(TestBlockEdges):
    """TestBlockEdges on the numpy kernels."""


@pytest.mark.usefixtures("numpy_kernel")
class TestColumnRouteNumpy(TestColumnRoute):
    """TestColumnRoute on the numpy kernels."""


class TestFailureSites:
    """The verdicts name where they fail, on injected sets."""

    @staticmethod
    def nested(top, n=16):
        """Balls, candidates and aux masks all equal to the first 8 points."""
        inner = np.zeros(n, dtype=bool)
        inner[:8] = True
        return (np.tile(inner, (top + 2, 1)), np.tile(inner, (top + 1, 1)),
                np.tile(inner, (top + 1, 1)))

    @pytest.mark.parametrize("scale", [0, 2, 4])
    def test_sandwich_names_the_scale_and_the_side(self, scale):
        new, old = both(n=16, d=64, seed=4, s_real=1.0)
        balls, cand, aux = self.nested(new.top)
        inject(new, old, balls, cand, aux)
        assert assumption1_failure(new) is None
        cand[scale + 1, 9] = True  # sketch_ball(scale + 1) leaves ball(scale + 2)
        inject(new, old, balls, cand, aux)
        assert assumption1_failure(new) == (scale + 1, "sketch_ball ⊄ next ball")
        cand[scale, 3] = False  # ball(scale) leaves sketch_ball(scale)
        inject(new, old, balls, cand, aux)
        assert assumption1_failure(new) == (scale, "ball ⊄ sketch_ball")
        assert check_assumption1(new) is ref.check_assumption1(old) is False

    def test_sandwich_names_the_low_side_first_at_one_scale(self):
        new, old = both(n=16, d=64, seed=4, s_real=1.0)
        balls, cand, aux = self.nested(new.top)
        cand[1, 3] = False
        cand[1, 9] = True
        inject(new, old, balls, cand, aux)
        assert assumption1_failure(new) == (1, "ball ⊄ sketch_ball")

    @pytest.mark.parametrize("scale", [0, 1, 2])
    def test_refinement_names_the_included_pair(self, scale):
        # As test_only_the_diagonal_pair_fails: only (scale, scale) fails.
        new, old = both(n=16, d=64, seed=4, s_real=1.0)
        balls, cand, aux = self.nested(new.top)
        inject(new, old, balls, cand, aux)
        assert assumption2_failure(new) is None
        cand[scale, 8] = aux[scale, 8] = True
        inject(new, old, balls, cand, aux)
        assert assumption2_failure(new) == (scale, scale, "included")
        assert ref.check_assumption2(old, 1.0, 16) is False

    def test_refinement_names_the_missing_pair_past_vacuous_scales(self):
        # n = 256 and s = 2 allow 1 of a 16-point ball to be missing. Aux
        # test 1 drops 2 points; candidate sets 1 and 2 are empty, so the
        # first pair with j = 1 is (3, 1).
        new, old = both(n=256, d=64, seed=2)
        top, n = new.top, 256
        assert top >= 3
        ball = np.zeros(n, dtype=bool)
        ball[:16] = True
        cand = np.tile(ball, (top + 1, 1))
        cand[1:3] = False
        aux = np.tile(ball, (top + 1, 1))
        aux[1, :2] = False
        inject(new, old, np.tile(ball, (top + 2, 1)), cand, aux)
        assert assumption2_failure(new) == (3, 1, "missing")
        assert check_assumption2(new) is ref.check_assumption2(old, 2.0, n) is False


class TestInjectedSets:
    def test_forced_empty_candidate_sets(self):
        new, old = both(n=32, d=64, seed=11, c1=0.5, c2=0.5)
        top = new.top
        cand = new.candidates.copy()
        cand[::2] = False
        aux = np.array([new.aux_pass(j) for j in range(top + 1)])
        inject(new, old, new.balls.copy(), cand, aux)
        assert_same_sets(new, old)
        assert_same_verdicts(new, old, 32)
        inject(new, old, new.balls.copy(), np.zeros_like(cand), aux)
        assert check_assumption2(new) and ref.check_assumption2(old, 2.0, 32)

    @pytest.mark.parametrize("missing, verdict", [(1, True), (2, False)])
    def test_exact_fraction_tie(self, missing, verdict):
        # n = 256 and s = 2 give n^(1/s) = 16: missing 1 of a 16-point
        # ball is exactly the allowed fraction, and the tie passes.
        new, old = both(n=256, d=64, seed=2)
        top, n = new.top, 256
        ball = np.zeros(n, dtype=bool)
        ball[:16] = True
        aux = np.tile(ball, (top + 1, 1))
        aux[0, :missing] = False
        inject(new, old, np.tile(ball, (top + 2, 1)), np.tile(ball, (top + 1, 1)), aux)
        assert check_assumption2(new) is verdict
        assert ref.check_assumption2(old, 2.0, n) is verdict

    @pytest.mark.parametrize("scale", [0, 1, 2])
    def test_only_the_diagonal_pair_fails(self, scale):
        # Point 8 is in candidate set `scale` and passes aux test `scale`,
        # but lies outside every ball: pair (scale, scale) includes it from
        # the far side, and every other pair keeps it out.
        new, old = both(n=16, d=64, seed=4, s_real=1.0)
        top, n = new.top, 16
        inner = np.zeros(n, dtype=bool)
        inner[:8] = True
        cand = np.tile(inner, (top + 1, 1))
        aux = np.tile(inner, (top + 1, 1))
        cand[scale, 8] = aux[scale, 8] = True
        inject(new, old, np.tile(inner, (top + 2, 1)), cand, aux)
        assert ref.check_assumption2(old, 1.0, n) is False
        assert check_assumption2(new) is False


def bottom_up_failure(balls, cand):
    """The sandwich's first break as the bottom-up oracle found it, from
    every scale's masks at once: the lowest failing scale, low side first."""
    low = (balls[:-1] & ~cand).any(axis=1)
    high = (cand & ~balls[1:]).any(axis=1)
    failing = np.flatnonzero(low | high)
    if not failing.size:
        return None
    i = int(failing[0])
    return i, "ball ⊄ sketch_ball" if low[i] else "sketch_ball ⊄ next ball"


def top_break(balls, cand):
    """The highest scale where the sandwich breaks, or None."""
    failing = np.flatnonzero((balls[:-1] & ~cand).any(axis=1) | (cand & ~balls[1:]).any(axis=1))
    return int(failing[-1]) if failing.size else None


def main_scales_derived(fn, *args):
    """fn(*args), and the scales of the main matrices the oracle derived during it."""
    scales = set()

    def recording(coin, role, scale, *rest):
        if role == "main":
            scales.add(scale)
        return derive_matrix(coin, role, scale, *rest)

    with mock.patch.object(oracle, "derive_matrix", recording):
        result = fn(*args)
    return result, scales


class TestTopDown:
    """exact_sets builds the candidate sets from the top scale down and stops
    at the first sandwich break; the verdicts keep the bottom-up answers."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 40),
        d=st.integers(2, 200),
        gamma=st.sampled_from([1.5, 2.0, 4.0]),
        c=st.sampled_from([0.25, 0.5, 2.0, 8.0]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(n=40, d=130, gamma=4.0, c=0.5, seed=1)
    def test_verdict_and_site_match_the_bottom_up_oracle(self, n, d, gamma, c, seed):
        assume(d >= 64 or n <= 2**d)
        db, x = gen_database(n, d, DatasetSpec(), seed)
        coin = PublicCoin(seed)
        params = Params(n=n, d=d, gamma=gamma, k=1, c1=c, c2=c)
        new, built = main_scales_derived(exact_sets, x, db, coin, params)
        held = check_assumption1(new)
        failure = assumption1_failure(new)
        old = ref.ScaleSets(x, db, coin, params)
        assert held == (failure is None) == ref.check_assumption1(old)
        assert failure == bottom_up_failure(new.balls, new.candidates)
        b = top_break(new.balls, new.candidates)
        assert built == set(range(0 if b is None else b, new.top + 1))

    @pytest.mark.parametrize("low, high", [
        ((2,), ()), ((), (3,)), ((1,), (4,)), ((4,), (1,)), ((2,), (2,)), ((0, 3), (1, 5)),
    ], ids=["low", "high", "low-under-high", "high-under-low", "both-at-one", "several"])
    def test_injected_breaks(self, low, high):
        new, old = both(n=16, d=64, seed=4, s_real=1.0)
        balls, cand, aux = TestFailureSites.nested(new.top)
        for scale in low:
            cand[scale, 3] = False  # ball(scale) leaves sketch_ball(scale)
        for scale in high:
            cand[scale, 9] = True  # sketch_ball(scale) leaves ball(scale + 1)
        inject(new, old, balls, cand, aux)
        failure = assumption1_failure(new)
        assert failure is not None
        assert failure == bottom_up_failure(balls, cand)
        assert check_assumption1(new) is ref.check_assumption1(old) is False

    def test_no_main_matrix_below_the_break(self):
        # Starved rows break the sandwich; the build stops at the highest
        # failing scale b and derives no main matrix below it.
        params = make_params(n=64, d=256, c1=0.5)
        stops = []
        for seed in range(12):
            db, x = make_instance(n=64, d=256, seed=seed)
            coin = coin_for_trial(seed, 1, 0)
            sets, built = main_scales_derived(exact_sets, x, db, coin, params)
            b = top_break(sets.balls, sets.candidates)
            if b is not None:
                assert built == set(range(b, sets.top + 1))
                stops.append(b)
        assert any(b > 0 for b in stops)

    def test_the_verdicts_after_exact_sets_derive_no_main_matrix(self):
        params = make_params(n=64, d=256, c1=64.0, c2=64.0, s=2.0)
        verdicts = []
        for seed in range(6):
            db, x = make_instance(n=64, d=256, seed=seed)
            sets = exact_sets(x, db, coin_for_trial(seed, 1, 0), params)
            held, built = main_scales_derived(check_assumption1, sets)
            assert built == set()
            verdicts.append(held)
            if held:  # as run_repetition: the refinement bounds only after the sandwich
                _, built = main_scales_derived(check_assumption2, sets)
                assert built == set()
        assert set(verdicts) == {True, False}
