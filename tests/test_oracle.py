import pytest

from annsim.core import Database, Point
from annsim.oracle import (
    check_assumption1,
    check_assumption2,
    exact_nn,
    exact_sets,
    is_gamma_approx,
)
from annsim.randomness import coin_for_trial
from annsim.search_common import query_sketch
from annsim.tables import main_cell

from conftest import make_instance, make_params, point_from_bits


def scan_nn_by_strings(x: Point, db: Database):
    """Second, independently written linear scan over bit strings."""
    def dist(a: Point, b: Point) -> int:
        sa = format(a.value, f"0{a.dim}b")
        sb = format(b.value, f"0{b.dim}b")
        return sum(ca != cb for ca, cb in zip(sa, sb))

    best_i, best_d = 0, dist(x, db.points[0])
    for i in range(1, db.n):
        d = dist(x, db.points[i])
        if d < best_d:
            best_i, best_d = i, d
    return db.points[best_i], best_d


class TestExactNN:
    def test_self_match(self):
        db, _ = make_instance(n=8, d=64)
        point, dist = exact_nn(db.points[4], db)
        assert point == db.points[4]
        assert dist == 0

    def test_three_bit_example(self):
        db = Database.from_points([point_from_bits("000"), point_from_bits("111")])
        point, dist = exact_nn(point_from_bits("001"), db)
        assert point == point_from_bits("000")
        assert dist == 1

    def test_against_independent_scan(self):
        for seed in range(10):
            db, x = make_instance(n=40, d=48, seed=seed)
            got = exact_nn(x, db)
            want = scan_nn_by_strings(x, db)
            assert got[1] == want[1]
            assert got[0] == want[0]


class TestExactSets:
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
                    assert db.points.index(cell) in sets.sketch_ball(i)


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


class TestIsGammaApprox:
    def make_db(self):
        d = 32
        x = Point(d, 0)
        z5 = Point(d, (1 << 5) - 1)  # distance 5: the true NN
        z20 = Point(d, (1 << 20) - 1)  # distance 20
        z21 = Point(d, (1 << 21) - 1)  # distance 21
        return x, Database.from_points([z21, z20, z5])

    def test_exact_nn_is_always_approx(self):
        x, db = self.make_db()
        assert is_gamma_approx(x, db, db.points[2], 4.0)

    def test_boundary_inclusive(self):
        x, db = self.make_db()
        assert is_gamma_approx(x, db, db.points[1], 4.0)  # 20 == 4*5

    def test_beyond_boundary(self):
        x, db = self.make_db()
        assert not is_gamma_approx(x, db, db.points[0], 4.0)  # 21 > 20

    def test_non_member_rejected(self):
        x, db = self.make_db()
        with pytest.raises(ValueError):
            is_gamma_approx(x, db, Point(32, 7), 4.0)
