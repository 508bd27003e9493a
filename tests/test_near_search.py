import pytest

from annsim.core import hamming_dist
from annsim.harness import DatasetSpec
from annsim.near_search import near_scale, run_near
from annsim.oracle import check_assumption1, exact_nn, exact_sets
from annsim.probe_engine import ProbeSession
from annsim.randomness import coin_for_trial

from conftest import make_instance, make_params


def run_one(db, x, lam, params, seed=0):
    coin = coin_for_trial(seed, 0, 0)
    session = ProbeSession(db, coin, params)
    answer = run_near(x, lam, session)
    return answer, session.close(), coin


class TestNearScale:
    def test_unit_budget_is_scale_zero(self):
        params = make_params(n=16, d=64)
        assert near_scale(1.0, params) == 0

    def test_exact_powers(self):
        params = make_params(n=16, d=64)
        assert near_scale(4.0, params) == 2
        assert near_scale(5.0, params) == 3

    def test_clamping(self):
        params = make_params(n=16, d=64)
        assert near_scale(0.25, params) == 0
        assert near_scale(1e9, params) == params.scale_count


class TestRunNear:
    def test_query_in_database(self):
        db, _ = make_instance(n=16, d=64, seed=1)
        params = make_params(n=16, d=64, k=1)
        x = db.point(3)
        answer, transcript, _ = run_one(db, x, 4.0, params)
        assert answer is not None
        assert transcript.probes_total == 1
        assert transcript.rounds_used == 1

    def test_probe_count_is_always_one(self):
        params = make_params(n=32, d=128, k=1, c1=16.0)
        for seed in range(10):
            db, x = make_instance(n=32, d=128, seed=seed)
            _, transcript, _ = run_one(db, x, 8.0, params, seed=seed)
            assert transcript.probes_total == 1
            assert transcript.rounds_used == 1

    def test_no_when_everything_far(self):
        # Uniform points at d=128 sit near distance 64; with lam=4 and
        # gamma=4 nothing is within gamma*lam=16, so NO is the only
        # correct answer whenever the sandwich holds.
        params = make_params(n=32, d=128, k=1, c1=48.0)
        checked = 0
        for seed in range(12):
            db, x = make_instance(n=32, d=128, seed=seed)
            if exact_nn(x, db)[1] <= 16:
                continue
            answer, _, coin = run_one(db, x, 4.0, params, seed=seed)
            if check_assumption1(exact_sets(x, db, coin, params)):
                checked += 1
                assert answer is None
        assert checked >= 4

    def test_planted_within_budget_found(self):
        params = make_params(n=32, d=128, k=1, c1=48.0)
        checked = 0
        for seed in range(12):
            db, x = make_instance(
                n=32, d=128, seed=seed,
                dataset=DatasetSpec("planted", plant_dist=4, plant_gap=30),
            )
            answer, _, coin = run_one(db, x, 4.0, params, seed=seed)
            if check_assumption1(exact_sets(x, db, coin, params)):
                checked += 1
                assert answer is not None
                assert hamming_dist(x, answer) <= 16  # gamma * lam
        assert checked >= 4

    def test_requires_fresh_session(self):
        db, x = make_instance(n=16, d=64)
        params = make_params(n=16, d=64)
        coin = coin_for_trial(0, 0, 0)
        session = ProbeSession(db, coin, params)
        run_near(x, 2.0, session)
        with pytest.raises(ValueError):
            run_near(x, 2.0, session)
