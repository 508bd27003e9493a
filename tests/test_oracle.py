import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from annsim import _native, oracle, sketch, tables
from annsim.core import Database, Params, Point
from annsim.errors import DimensionMismatch
from annsim.oracle import ScaleSets, check_assumption1, check_assumption2, exact_nn, exact_sets
from annsim.randomness import coin_for_trial
from annsim.search_common import query_sketch
from annsim.sketch import derive_matrix, sketch_rows
from annsim.tables import main_cell

from conftest import make_instance, make_params, point_from_bits


def scan_nn_by_strings(x: Point, db: Database):
    """Second, independently written linear scan over bit strings."""
    def dist(a: Point, b: Point) -> int:
        sa = format(a.value, f"0{a.dim}b")
        sb = format(b.value, f"0{b.dim}b")
        return sum(ca != cb for ca, cb in zip(sa, sb))

    best_i, best_d = 0, dist(x, db.point(0))
    for i in range(1, db.n):
        d = dist(x, db.point(i))
        if d < best_d:
            best_i, best_d = i, d
    return db.point(best_i), best_d


def tie_instance(d: int, n: int, near: int, seed: int) -> tuple[Point, Database]:
    """A query and min(n, 2^d) distinct points of dimension d in shuffled
    order. Up to `near` of them are the query with some of four fixed
    coordinates flipped, so that many points share a distance; the rest
    are uniform."""
    rnd = random.Random(seed)
    x = rnd.getrandbits(d)
    coords = rnd.sample(range(d), min(d, 4))
    flips = [sum(1 << c for b, c in enumerate(coords) if m >> b & 1)
             for m in range(2 ** len(coords))]
    n = min(n, 2**d)
    values = dict.fromkeys(x ^ f for f in rnd.sample(flips, min(near, n, len(flips))))
    while len(values) < n:
        values[rnd.getrandbits(d)] = None
    order = list(values)
    rnd.shuffle(order)
    return Point(d, x), Database.from_points([Point(d, v) for v in order])


class TestExactNN:
    def test_self_match(self):
        db, _ = make_instance(n=8, d=64)
        point, dist = exact_nn(db.point(4), db)
        assert point == db.point(4)
        assert dist == 0

    def test_three_bit_example(self):
        db = Database.from_points([point_from_bits("000"), point_from_bits("111")])
        point, dist = exact_nn(point_from_bits("001"), db)
        assert point == point_from_bits("000")
        assert dist == 1

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 300), n=st.integers(1, 24), near=st.integers(0, 16),
           seed=st.integers(0, 2**32 - 1))
    @example(d=65, n=1, near=0, seed=0)
    @example(d=130, n=16, near=16, seed=1)
    @example(d=2**16, n=1, near=1, seed=2)
    @example(d=2**16, n=6, near=4, seed=3)
    def test_against_independent_scan(self, d, n, near, seed):
        x, db = tie_instance(d, n, near, seed)
        assert exact_nn(x, db) == scan_nn_by_strings(x, db)

    @pytest.mark.parametrize("dim", [1, 65])
    def test_rejects_a_query_of_another_dimension(self, dim):
        db, _ = make_instance(n=8, d=64)
        with pytest.raises(DimensionMismatch):
            exact_nn(Point(dim, 1), db)


class TestExactSets:
    @pytest.mark.parametrize("dim", [1, 65])
    def test_rejects_a_query_of_another_dimension(self, dim, coin):
        db, _ = make_instance(n=8, d=64)
        with pytest.raises(DimensionMismatch):
            exact_sets(Point(dim, 1), db, coin, make_params(n=8, d=64, s=2.0))

    def test_rejects_params_of_another_dimension(self, coin):
        db, x = make_instance(n=8, d=64)
        with pytest.raises(DimensionMismatch):
            ScaleSets(x, db, coin, make_params(n=8, d=128, s=2.0))

    @pytest.mark.parametrize("columns", [63, 65])
    def test_sketch_distances_need_a_column_per_matrix_column(self, columns, coin):
        m = derive_matrix(coin, "main", 0, 4, 64, 2.0)
        with pytest.raises(DimensionMismatch):
            oracle.column_parities(m, np.zeros((columns, 1), dtype=np.uint64), 8)

    def test_aux_masks_need_the_refinement_depth(self, coin):
        db, x = make_instance(n=8, d=64)
        sets = exact_sets(x, db, coin, make_params(n=8, d=64))
        with pytest.raises(ValueError, match="refinement depth s"):
            sets.aux_pass(0)

    def test_singleton_database(self, coin):
        params = make_params(n=1, d=64)
        x = Point(64, 12345)
        sets = exact_sets(x, Database.from_points([x]), coin, params)
        for i in range(params.scale_count + 1):
            assert sets.ball(i) == frozenset({0})
            assert sets.sketch_ball(i) == frozenset({0})

    def test_top_ball_is_everything(self, coin):
        db, x = make_instance(n=24, d=64)
        params = make_params(n=24, d=64)
        sets = exact_sets(x, db, coin, params)
        assert sets.ball(params.scale_count) == frozenset(range(24))

    def test_ball_monotonicity(self, coin):
        db, x = make_instance(n=32, d=64, seed=9)
        params = make_params(n=32, d=64)
        sets = exact_sets(x, db, coin, params)
        for i in range(params.scale_count + 1):
            assert sets.ball(i) <= sets.ball(i + 1)

    def test_distance_alpha_squared_is_inside_ball_two_at_gamma_3(self, coin):
        # alpha = sqrt(3) rounds down, so the float alpha**2 is
        # 2.9999999999999996; the exact radius floor(alpha^2) is 3.
        x = Point(64, 0)
        db = Database.from_points([Point(64, 0b111), Point(64, 0b1111), Point(64, 0b1)])
        params = Params(n=3, d=64, gamma=3.0, k=1, c1=8.0)
        sets = exact_sets(x, db, coin, params)
        assert sets.ball(1) == frozenset({2})
        assert sets.ball(2) == frozenset({0, 2})
        assert sets.ball(3) == frozenset({0, 1, 2})

    def test_candidate_sets_match_virtual_cells(self):
        # Cross-module consistency: emptiness of the independently built
        # candidate set must agree with the virtual table content.
        for seed in range(8):
            db, x = make_instance(n=24, d=48, seed=seed)
            params = make_params(n=24, d=48, c1=8.0)
            coin = coin_for_trial(seed, 0, 0)
            sets = exact_sets(x, db, coin, params)
            for i in range(params.scale_count + 1):
                cell = main_cell(db, coin, params, i, query_sketch(coin, params, x, i))
                assert (cell is None) == (not sets.sketch_ball(i))
                if cell is not None:
                    idx = next(j for j in range(db.n) if db.point(j) == cell)
                    assert idx in sets.sketch_ball(i)


class TestAssumption1:
    def test_singleton_holds(self, coin):
        params = make_params(n=1, d=64)
        x = Point(64, 999)
        assert check_assumption1(exact_sets(x, Database.from_points([x]), coin, params))

    def test_starved_rows_frequently_fail(self):
        params = make_params(n=64, d=64, c1=0.5)
        fails = 0
        for seed in range(30):
            db, x = make_instance(n=64, d=64, seed=seed)
            sets = exact_sets(x, db, coin_for_trial(seed, 1, 0), params)
            fails += not check_assumption1(sets)
        assert fails / 30 >= 0.5

    def test_calibrated_rows_mostly_hold(self):
        from annsim.harness import CALIBRATED_C1

        params = make_params(n=256, d=128, c1=CALIBRATED_C1)
        hits = 0
        for seed in range(60):
            db, x = make_instance(n=256, d=128, seed=seed)
            hits += check_assumption1(exact_sets(x, db, coin_for_trial(seed, 2, 0), params))
        # target rate 3/4; 0.6 is three binomial sigmas below at 60 seeds
        assert hits / 60 >= 0.6


class TestAssumption2:
    def test_singleton_holds(self, coin):
        params = make_params(n=1, d=64, s=2.0)
        x = Point(64, 31)
        sets = exact_sets(x, Database.from_points([x]), coin, params)
        assert check_assumption2(sets)

    def test_empty_candidate_sets_are_vacuous(self, coin):
        # A coin whose sketches reject everything would leave every
        # candidate set empty; nothing can be demanded of refinements then.
        db, x = make_instance(n=8, d=64)
        params = make_params(n=8, d=64, s=2.0)
        sets = exact_sets(x, db, coin, params)
        sets.candidates[:] = False
        assert check_assumption2(sets)

    def test_calibrated_joint_rate(self):
        from annsim.harness import CALIBRATED_C1, CALIBRATED_C2

        params = make_params(n=256, d=128, c1=CALIBRATED_C1, c2=CALIBRATED_C2, s=2.0)
        hits = 0
        for seed in range(40):
            db, x = make_instance(n=256, d=128, seed=seed)
            sets = exact_sets(x, db, coin_for_trial(seed, 3, 0), params)
            hits += check_assumption1(sets) and check_assumption2(sets)
        assert hits / 40 >= 0.6



class TestIndependence:
    """Criterion 9 compares the tables with the oracle, so the oracle must
    reach none of the table machinery by its one route."""

    def test_neither_route_reaches_the_table_kernels(self, monkeypatch):
        db, x = make_instance(n=32, d=1024, seed=5)
        params = make_params(n=32, d=1024, s=2.0)
        coin = coin_for_trial(5, 0, 0)
        # The generator is shared: derive every matrix first.
        for role in ("main", "aux"):
            for scale in range(params.scale_count + 1):
                derive_matrix(coin, role, scale, sketch_rows(params, role), 1024, params.alpha)

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached the table machinery")

        patched = [(sketch, "sketch_apply_batch"), (sketch, "sketch_apply_batch_numpy"),
                   (tables, "main_cell"), (tables, "aux_cell"), (tables, "membership_cell"),
                   (tables, "cell_content"), (tables, "db_sketch_bits")]
        native = _native.kernels()
        if native is not None:  # the loaded library's sketch kernel
            patched.append((native, "sketch_apply_batch"))
        for module, name in patched:
            assert name not in vars(oracle)
            monkeypatch.setattr(module, name, forbidden)
        # The one route runs, through the C column kernel where it loads.
        taken = []
        for module in (oracle, native) if native is not None else (oracle,):
            def recording(*args, _real=module.column_parities, _module=module):
                taken.append(_module)
                return _real(*args)
            monkeypatch.setattr(module, "column_parities", recording)
        sets = exact_sets(x, db, coin, params)
        check_assumption1(sets)
        check_assumption2(sets)
        assert taken.count(oracle) > 0
        if native is not None:
            assert taken.count(native) == taken.count(oracle)
