import subprocess
import sys
from pathlib import Path

import pytest

from annsim import alg_simple, probe_engine
from annsim.alg_simple import branching_factor, probe_bound_simple, run_simple
from annsim.core import Params, Point, hamming_dist
from annsim.errors import AssumptionViolated
from annsim.harness import DatasetSpec
from annsim.oracle import check_assumption1, exact_nn, exact_sets
from annsim.probe_engine import ProbeSession
from annsim.randomness import coin_for_trial

from conftest import make_instance, make_params


class TestTauSimple:
    """The simple search's tau, `branching_factor(k, count)`, fed scale
    counts straight in."""

    def test_single_round(self):
        assert branching_factor(1, 8) == 8

    def test_two_rounds(self):
        # 6 * 3 = 18 >= 16 while 5 * 2.5 = 12.5 < 16
        assert branching_factor(2, 16) == 6

    def test_three_rounds(self):
        # 4 * 4 = 16 >= 16 while 3 * 2.25 = 6.75 < 16
        assert branching_factor(3, 16) == 4

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("d", [4, 16, 256, 10_000, 2**18])
    def test_minimality(self, k, d):
        count = Params(n=2, d=d, gamma=4.0, k=k).scale_count
        tau = branching_factor(k, count)
        target = count << (k - 1)
        assert tau**k >= target
        assert tau == 2 or (tau - 1) ** k < target

    def test_clamped_k_matches_the_unclamped_formula(self):
        def unclamped(k, count):
            target = count << (k - 1)
            tau = 2
            while tau**k < target:
                tau += 1
            return tau

        mismatches = [(count, k) for count in range(1, 3000) for k in range(2, 160)
                      if branching_factor(k, count) != unclamped(k, count)]
        assert mismatches == []
        assert branching_factor(10**30, 3000) == unclamped(159, 3000) == 3
        assert branching_factor(10**30, 2) == 2

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_is_refused(self, k):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            branching_factor(k, 5)


def run_one(db, x, params, seed=0):
    coin = coin_for_trial(seed, 0, 0)
    session = ProbeSession(db, coin, params)
    result = run_simple(x, session)
    return result, session.close(), coin


class TestDegenerateCases:
    def test_query_in_database_returns_itself(self):
        db, _ = make_instance(n=16, d=64, seed=3)
        params = make_params(n=16, d=64, k=3)
        result, transcript, _ = run_one(db, db.point(7), params, seed=3)
        assert result == db.point(7)
        assert transcript.rounds_used == 1
        # The first round was a shrinking round; it ended early, so no step completed.
        assert transcript.phases == [] == transcript.windows

    def test_distance_one_neighbor_returned_immediately(self):
        db, _ = make_instance(n=16, d=64, seed=4)
        params = make_params(n=16, d=64, k=3)
        x = Point(64, db.point(2).value ^ (1 << 30))
        if min(hamming_dist(x, db.point(i)) for i in range(db.n)) == 1:
            result, transcript, _ = run_one(db, x, params, seed=4)
            assert hamming_dist(x, result) == 1
            assert transcript.rounds_used == 1


class TestRoundStructure:
    def test_k1_is_single_completion_round(self):
        db, x = make_instance(n=16, d=256, seed=5)
        params = make_params(n=16, d=256, k=1)
        _, transcript, _ = run_one(db, x, params, seed=5)
        assert transcript.rounds_used == 1
        assert transcript.windows == []  # no shrinking rounds ran
        # completion probes scales 1..I plus the two membership probes
        assert transcript.probes_total == params.scale_count + 2

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_round_and_probe_budgets(self, k):
        for seed in range(6):
            db, x = make_instance(n=32, d=128, seed=seed)
            params = make_params(n=32, d=128, k=k, c1=16.0)
            try:
                _, transcript, _ = run_one(db, x, params, seed=seed)
            except AssumptionViolated:
                continue
            assert transcript.rounds_used <= k
            assert len(transcript.windows) <= k - 1
            assert transcript.probes_total <= probe_bound_simple(params)

    def test_gap_shrinks_per_round(self):
        db, x = make_instance(n=32, d=2**14, seed=6)
        params = make_params(n=32, d=2**14, k=3, c1=16.0)
        tau = branching_factor(3, params.scale_count)
        _, transcript, _ = run_one(db, x, params, seed=6)
        windows = transcript.windows + [transcript.final_window]
        for (l0, u0), (l1, u1) in zip(windows, windows[1:]):
            assert u1 - l1 <= (u0 - l0) / tau + 1


class TestConditionalCorrectness:
    def test_planted_instances(self):
        # Planted nearest neighbor at distance 5; gamma=4 allows up to 20.
        hits = 0
        for seed in range(40):
            db, x = make_instance(
                n=32, d=64, seed=seed,
                dataset=DatasetSpec("planted", plant_dist=5, plant_gap=25),
            )
            params = make_params(n=32, d=64, k=2, c1=24.0)
            coin = coin_for_trial(seed, 0, 0)
            session = ProbeSession(db, coin, params)
            try:
                result = run_simple(x, session)
            except AssumptionViolated:
                result = None
            sets = exact_sets(x, db, coin, params)
            if check_assumption1(sets):
                hits += 1
                assert result is not None
                assert hamming_dist(x, result) <= 20
        assert hits >= 10  # the assumption must actually hold sometimes

    def test_uniform_instances_all_k(self):
        for k in (1, 2, 3):
            for seed in range(12):
                db, x = make_instance(n=64, d=128, seed=seed)
                params = make_params(n=64, d=128, k=k, c1=48.0)
                coin = coin_for_trial(seed, 0, 0)
                session = ProbeSession(db, coin, params)
                try:
                    result = run_simple(x, session)
                except AssumptionViolated:
                    result = None
                sets = exact_sets(x, db, coin, params)
                if check_assumption1(sets):
                    _, best = exact_nn(x, db)
                    assert result is not None
                    assert hamming_dist(x, result) <= params.gamma * best


class TestWindowInvariant:
    def test_window_endpoints_match_oracle(self):
        checked = 0
        for seed in range(15):
            db, x = make_instance(n=64, d=2**12, seed=seed)
            params = make_params(n=64, d=2**12, k=3, c1=32.0)
            coin = coin_for_trial(seed, 0, 0)
            session = ProbeSession(db, coin, params)
            try:
                run_simple(x, session)
            except AssumptionViolated:
                continue
            transcript = session.close()
            sets = exact_sets(x, db, coin, params)
            if not check_assumption1(sets) or transcript.final_window is None:
                continue
            for l, u in transcript.windows + [transcript.final_window]:
                assert sets.sketch_ball(u), "upper end must stay nonempty"
                if l >= 1:
                    assert not sets.sketch_ball(l), "lower end must stay empty"
                elif not sets.ball(1):
                    assert not sets.sketch_ball(0)
                checked += 1
        assert checked > 0


class TestAssumptionViolationSurfaces:
    def test_starved_rows_raise_instead_of_guessing(self):
        # A single database point at full distance with 3-row sketches: the
        # top-scale inclusion margin is thin, so on some seed every
        # completion cell comes back empty and the failure must surface.
        from annsim.core import Database

        x = Point(64, 0)
        db = Database.from_points([Point(64, 2**64 - 1)])
        params = make_params(n=1, d=64, k=1, c1=3.0)
        raised = False
        for seed in range(60):
            coin = coin_for_trial(seed, 0, 0)
            session = ProbeSession(db, coin, params)
            try:
                run_simple(x, session)
            except AssumptionViolated:
                raised = True
                sets = exact_sets(x, db, coin, params)
                assert not check_assumption1(sets)
                break
        assert raised


class TestInvariantChecks:
    """The search's internal checks raise explicitly, so `python -O` keeps them.

    Each test forces its check to fail by monkeypatching. No bare `assert`
    here: test_invariant_checks_survive_python_O reruns this class under -O.
    """

    def test_window_shrink_check(self, monkeypatch):
        # Every cell reads empty, so r* = tau and the new window is the grid's
        # last slot; a grid that puts all of (l, u] in that slot shrinks nothing.
        monkeypatch.setattr(probe_engine, "cell_content", lambda *args, **kw: None)
        monkeypatch.setattr(
            alg_simple, "scale_grid", lambda l, u, tau: [l] * tau + [u]
        )
        db, x = make_instance(n=16, d=4096)
        params = make_params(n=16, d=4096, k=2)
        with pytest.raises(AssertionError, match="window shrank too little"):
            run_one(db, x, params)


def test_invariant_checks_survive_python_O():
    here = Path(__file__).resolve().parent
    res = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{here / 'test_alg_simple.py'}::TestInvariantChecks",
         f"{here / 'test_alg_general.py'}::TestInvariantChecks"],
        capture_output=True, text=True, timeout=300, cwd=here.parent,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert "2 passed" in res.stdout
