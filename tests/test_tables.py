import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from annsim.core import Database, Params, Point, hamming_dist
from annsim.harness import DatasetSpec, gen_database
from annsim.randomness import PublicCoin, coin_for_trial
from annsim.search_common import query_sketch
from annsim.sketch import derive_matrix, main_threshold, sketch_apply, sketch_apply_batch
from annsim.tables import (
    KIND_MEMBER_EXACT,
    KIND_MEMBER_NEAR1,
    AuxAddress,
    _candidate_mask,
    _refinement_mask,
    aux_cell,
    db_sketch_bits,
    main_cell,
    membership_cell,
    table_metadata,
)
from annsim.oracle import exact_sets

from conftest import make_instance, make_params


@pytest.fixture
def small():
    db, x = make_instance(n=16, d=64, seed=5)
    params = make_params(n=16, d=64, c1=8.0)
    coin = coin_for_trial(5, 0, 0)
    return db, x, params, coin


class TestMainCell:
    def test_own_sketch_hits_self(self, coin):
        params = make_params(n=1, d=64)
        x = Point(64, 0xDEADBEEF)
        db = Database([x])
        content = main_cell(db, coin, params, 2, query_sketch(coin, params, x, 2))
        assert content == x

    def test_lowest_index_wins_among_qualifiers(self, small):
        db, x, params, coin = small
        for scale in range(params.scale_count + 1):
            addr = query_sketch(coin, params, x, scale)
            content = main_cell(db, coin, params, scale, addr)
            bits = [sketch_apply_scale(db, coin, params, scale, i) for i in range(db.n)]
            thr = main_threshold(params, scale)
            qualifying = [
                i for i, sv in enumerate(bits)
                if (sv.value ^ addr.value).bit_count() <= thr
            ]
            if qualifying:
                assert content == db.points[qualifying[0]]
            else:
                assert content is None

    def test_far_address_is_empty(self, small):
        db, _, params, coin = small
        # All-ones address at scale 0: sketches concentrate near weight
        # r/4, so a full-weight address is past the threshold for every
        # point with overwhelming margin. Verify the premise point by
        # point before asserting the cell content.
        addr = Point(params.r_main, (1 << params.r_main) - 1)
        thr = main_threshold(params, 0)
        for i in range(db.n):
            sv = sketch_apply_scale(db, coin, params, 0, i)
            assert (sv.value ^ addr.value).bit_count() > thr
        assert main_cell(db, coin, params, 0, addr) is None

    def test_deterministic(self, small):
        db, x, params, coin = small
        addr = query_sketch(coin, params, x, 1)
        a = main_cell(db, coin, params, 1, addr)
        b = main_cell(db, coin, params, 1, addr)
        assert a == b

    def test_explicit_tiny_instance(self, coin):
        # d=8, n=2, r_main=4: enumerate both points against the threshold
        # computed by hand from the decision rule.
        params = Params(n=2, d=8, gamma=4.0, k=1, c1=4.0)
        assert params.r_main == 4
        p0, p1 = Point(8, 0b00001111), Point(8, 0b11110000)
        db = Database([p0, p1])
        for scale in range(params.scale_count + 1):
            thr = main_threshold(params, scale)
            a0 = sketch_apply_scale(db, coin, params, scale, 0)
            a1 = sketch_apply_scale(db, coin, params, scale, 1)
            content = main_cell(db, coin, params, scale, a1)
            d0 = (a0.value ^ a1.value).bit_count()
            expected = p0 if d0 <= thr else p1
            assert content == expected


def sketch_apply_scale(db, coin, params, scale, idx) -> Point:
    from annsim.sketch import derive_matrix

    m = derive_matrix(coin, "main", scale, params.r_main, params.d, params.alpha)
    return sketch_apply(m, db.points[idx])


class TestMembershipCell:
    def test_exact_member(self, small):
        db, _, params, coin = small
        assert membership_cell(db, KIND_MEMBER_EXACT, db.points[3]) == db.points[3]

    def test_near1_member(self, small):
        db, _, _, _ = small
        x = Point(64, db.points[5].value ^ (1 << 17))
        content = membership_cell(db, KIND_MEMBER_NEAR1, x)
        assert isinstance(content, Point)
        assert (content.value ^ x.value).bit_count() <= 1

    def test_near1_lowest_index(self):
        # Index 1 is at distance 1 of x while index 3 equals x: the lowest
        # index within the unit ball wins, not the exact match.
        pts = [Point(8, 0b1111), Point(8, 0b0001), Point(8, 0b1000), Point(8, 0)]
        db = Database(pts)
        x = Point(8, 0)
        assert membership_cell(db, KIND_MEMBER_NEAR1, x) == pts[1]

    def test_far_point_misses_both(self, small):
        db, _, _, _ = small
        x = None
        for mask in (0b111, 0b111000, 0b10101):
            cand = Point(64, db.points[0].value ^ mask)
            if min((cand.value ^ p.value).bit_count() for p in db.points) >= 2:
                x = cand
                break
        assert x is not None, "could not build a point at distance >= 2"
        assert membership_cell(db, KIND_MEMBER_EXACT, x) is None
        assert membership_cell(db, KIND_MEMBER_NEAR1, x) is None

    @pytest.mark.parametrize("d", [100, 200])
    def test_multiword_padded_matches_a_scan(self, d):
        # Several words per point, the last one padded: members, their
        # distance-1 neighbours (the top coordinate included) and points
        # at distance 2 against a first-match scan over the points.
        db, x = make_instance(n=24, d=d, seed=d)
        queries = [x, db.points[9], db.points[-1]]
        queries += [Point(d, p.value ^ (1 << j)) for p in db.points[:3] for j in (0, 63, d - 1)]
        queries += [Point(d, db.points[4].value ^ (0b11 << (d - 2)))]
        for q in queries:
            exact = next((p for p in db.points if p == q), None)
            near1 = next((p for p in db.points if hamming_dist(p, q) <= 1), None)
            assert membership_cell(db, KIND_MEMBER_EXACT, q) == exact
            assert membership_cell(db, KIND_MEMBER_NEAR1, q) == near1


def make_aux(db, x, params, coin, scales, s_real):
    from annsim.sketch import derive_matrix

    rows = params.r_aux(s_real)
    sketches = tuple(
        sketch_apply(derive_matrix(coin, "aux", sc, rows, params.d, params.alpha), x)
        for sc in scales
    )
    return AuxAddress(scales=tuple(scales), sketches=sketches,
                      group_bounds=(scales[0], scales[-1]))


def oracle_slot(sets, top, scales, s_real, s_int):
    """Selection rule recomputed from oracle set sizes."""
    from annsim.core import fraction_at_most

    c_size = len(sets.sketch_ball(top))
    for r, sc in enumerate(scales, start=1):
        if not fraction_at_most(len(sets.refined(top, sc)), c_size, sets.db.n, s_real):
            return r
    return s_int + 1


class TestAuxCell:
    def test_empty_candidates_gives_overflow(self, small):
        db, x, params, coin = small
        addr = Point(params.r_main, (1 << params.r_main) - 1)
        aux = make_aux(db, x, params, coin, [1, 2], s_real=2.0)
        content = aux_cell(db, coin, params, 0, addr, aux, s_int=2, s_real=2.0)
        assert content == 3

    def test_full_refinement_gives_one(self, small):
        db, x, params, coin = small
        top = params.scale_count
        addr = query_sketch(coin, params, x, top)
        # At the top scale every point passes both the candidate test and
        # the refinement test, so the first slot already holds everything.
        aux = make_aux(db, x, params, coin, [top - 1, top], s_real=2.0)
        content = aux_cell(db, coin, params, top, addr, aux, s_int=2, s_real=2.0)
        sets = exact_sets(x, db, coin, params, s_real=2.0)
        assert content == oracle_slot(sets, top, [top - 1, top], 2.0, 2)
        assert content == 1

    def test_middle_slot_selected(self, coin):
        # Crafted geometry: nobody within distance 1 (slot 1 small), a
        # cluster of 12 points well inside radius 32 (slot 2, scale 5,
        # keeps most of the candidate set), 4 points far away.
        d, n = 64, 16
        rng = np.random.default_rng(77)
        x = Point(d, 0)
        values = set()
        for _ in range(12):
            while True:
                idx = rng.choice(d, size=int(rng.integers(10, 18)), replace=False)
                v = sum(1 << int(j) for j in idx)
                if v not in values:
                    values.add(v)
                    break
        for _ in range(4):
            while True:
                idx = rng.choice(d, size=58, replace=False)
                v = sum(1 << int(j) for j in idx)
                if v not in values:
                    values.add(v)
                    break
        db = Database([Point(d, v) for v in sorted(values)])
        params = make_params(n=n, d=d, c1=16.0, c2=16.0)
        top = params.scale_count
        scales = [0, 5, 6]
        addr = query_sketch(coin, params, x, top)
        aux = make_aux(db, x, params, coin, scales, s_real=2.0)
        content = aux_cell(db, coin, params, top, addr, aux, s_int=3, s_real=2.0)
        sets = exact_sets(x, db, coin, params, s_real=2.0)
        assert content == oracle_slot(sets, top, scales, 2.0, 3)
        assert content == 2


class TestTablesMatchOracle:
    """The table route (packed sketch kernels, memoized per database) and the
    oracle route (dense float32 matmul over unpacked bits) build the same
    candidate and refinement sets on random small instances."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 40),
        d=st.integers(2, 300),
        gamma=st.sampled_from([2.0, 4.0]),
        s_real=st.sampled_from([1.0, 2.0, 3.0]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(n=40, d=130, gamma=4.0, s_real=2.0, seed=1)
    @example(n=1, d=2, gamma=2.0, s_real=1.0, seed=2)
    def test_candidate_and_refined_sets(self, n, d, gamma, s_real, seed):
        assume(d >= 64 or n <= 2**d)
        db, x = gen_database(n, d, DatasetSpec(), seed)
        coin = PublicCoin(seed)
        params = Params(n=n, d=d, gamma=gamma, k=1, c1=8.0, c2=8.0)
        sets = exact_sets(x, db, coin, params, s_real=s_real)
        rows = params.r_aux(s_real)
        for i in range(params.scale_count + 1):
            mask = _candidate_mask(db, coin, params, i, query_sketch(coin, params, x, i))
            assert frozenset(np.flatnonzero(mask).tolist()) == sets.sketch_ball(i)
            for j in range(i + 1):
                sk = sketch_apply(derive_matrix(coin, "aux", j, rows, d, params.alpha), x)
                refined = mask & _refinement_mask(db, coin, params, j, sk, s_real)
                assert frozenset(np.flatnonzero(refined).tolist()) == sets.refined(i, j)


class TestDatabaseSketchMemo:
    def test_memo_tells_alphas_apart(self):
        # gamma=4 and gamma=2 share r_main but not the matrices above scale
        # 0: one database and coin must not hand the second caller the
        # first caller's sketches.
        db, _ = make_instance(n=64, d=128, seed=8)
        coin = coin_for_trial(8, 0, 0)
        for gamma in (4.0, 2.0):
            params = make_params(n=64, d=128, gamma=gamma, c1=8.0)
            for scale in range(params.scale_count + 1):
                words = db_sketch_bits(db, coin, params, "main", scale, params.r_main)
                m = derive_matrix(coin, "main", scale, params.r_main, 128, params.alpha)
                assert np.array_equal(words, sketch_apply_batch(m, db))


class TestAuxAddress:
    def test_scales_must_increase(self, small):
        db, x, params, coin = small
        with pytest.raises(ValueError):
            make_aux(db, x, params, coin, [3, 3], s_real=2.0)

    def test_one_sketch_per_scale(self):
        with pytest.raises(ValueError):
            AuxAddress(scales=(1, 2), sketches=(Point(4, 0),), group_bounds=(1, 2))


class TestConditionalSandwich:
    def test_nonempty_cells_return_nearby_points_under_assumption1(self):
        from annsim.core import hamming_dist
        from annsim.oracle import check_assumption1
        from annsim.randomness import coin_for_trial

        checked = 0
        for seed in range(8):
            db, x = make_instance(n=32, d=64, seed=seed)
            params = make_params(n=32, d=64, c1=32.0)
            coin = coin_for_trial(seed, 0, 0)
            sets = exact_sets(x, db, coin, params)
            if not check_assumption1(sets):
                continue
            for i in range(params.scale_count + 1):
                content = main_cell(db, coin, params, i, query_sketch(coin, params, x, i))
                if content is not None:
                    checked += 1
                    assert hamming_dist(x, content) <= params.ball_radius(i + 1)
        assert checked > 0


class TestTableMetadata:
    def test_cell_counts_follow_construction(self):
        params = Params(n=16, d=64, gamma=4.0, k=2, c1=2.0, c2=2.0)
        meta = table_metadata(params, s_real=2.0)
        assert meta["main_tables"] == params.scale_count + 1
        assert meta["main_cells_per_table"] == 2**params.r_main
        assert meta["member_exact_cells"] == 256
        assert meta["aux_subtables"] == (params.scale_count + 1) * 2**params.r_main
