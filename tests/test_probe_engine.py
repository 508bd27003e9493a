from dataclasses import replace

import pytest

from annsim.alg_general import run_general
from annsim.alg_simple import run_simple
from annsim.core import Database, Params, Point
from annsim.errors import DimensionMismatch, RoundBudgetExceeded, SessionClosed
from annsim.near_search import run_near
from annsim.probe_engine import ProbeSession
from annsim.randomness import coin_for_trial
from annsim.search_common import main_address, membership_addresses
from annsim.tables import CellAddress, KIND_MEMBER_EXACT

from conftest import make_instance, make_params


@pytest.fixture
def setup():
    db, x = make_instance(n=16, d=64, seed=2)
    params = make_params(n=16, d=64)
    coin = coin_for_trial(2, 0, 0)
    return db, x, params, coin


SEARCHES = pytest.mark.parametrize("search", [
    run_simple, run_general, lambda x, session: run_near(x, 2.0, session),
], ids=["simple", "general", "near"])


class TestSearchEntryChecks:
    """Every search refuses a used session and a query of another dimension
    before it probes."""

    @staticmethod
    def session(setup):
        db, x, params, coin = setup
        return x, ProbeSession(db, coin, replace(params, k=5, s=1.0, tau=2))

    @SEARCHES
    def test_a_used_session_is_refused(self, setup, search):
        x, session = self.session(setup)
        session.probe_round(membership_addresses(x))
        with pytest.raises(ValueError, match="needs a fresh session"):
            search(x, session)
        assert session.transcript.rounds_used == 1

    @SEARCHES
    def test_a_query_of_another_dimension_is_refused(self, setup, search):
        _, session = self.session(setup)
        with pytest.raises(ValueError, match="query dim 32 does not match params d 64"):
            search(Point(32, 1), session)
        assert session.transcript.rounds_used == 0

    def test_the_general_search_needs_s_and_tau(self, setup):
        db, x, params, coin = setup
        session = ProbeSession(db, coin, params)
        with pytest.raises(ValueError, match="needs params with s and tau"):
            run_general(x, session)
        assert session.transcript.rounds_used == 0


class TestSessionLifecycle:
    def test_fresh_session(self, setup):
        db, _, params, coin = setup
        s = ProbeSession(db, coin, make_params(n=16, d=64, k=3))
        assert s.transcript.rounds_used == 0
        assert s.transcript.probes_total == 0

    def test_params_of_another_dimension_are_refused(self, setup):
        # A query sketched under d=128 matrices and a database under d=64
        # ones would share no sketch test; the session refuses the pair.
        db, _, _, coin = setup
        with pytest.raises(DimensionMismatch):
            ProbeSession(db, coin, Params(n=16, d=128, gamma=4.0, k=1))

    def test_sessions_are_independent(self, setup):
        db, x, params, coin = setup
        s1 = ProbeSession(db, coin, params)
        s2 = ProbeSession(db, coin, params)
        s1.probe_round([main_address(coin, params, x, 1)])
        assert s1.transcript.rounds_used == 1
        assert s2.transcript.rounds_used == 0

    def test_close_twice_fails(self, setup):
        db, _, params, coin = setup
        s = ProbeSession(db, coin, make_params(n=16, d=64, k=1))
        s.close()
        with pytest.raises(SessionClosed):
            s.close()

    def test_probe_after_close_fails(self, setup):
        db, x, params, coin = setup
        s = ProbeSession(db, coin, make_params(n=16, d=64, k=1))
        s.close()
        with pytest.raises(SessionClosed):
            s.probe_round([main_address(coin, params, x, 1)])


class TestRoundAccounting:
    def test_batch_counts(self, setup):
        db, x, params, coin = setup
        s = ProbeSession(db, coin, params)
        batch = [main_address(coin, params, x, i) for i in (1, 2, 3)]
        contents = s.probe_round(batch)
        assert len(contents) == 3
        assert s.transcript.probes_total == 3
        assert s.transcript.rounds_used == 1

    def test_duplicates_coalesce(self, setup):
        db, x, params, coin = setup
        s = ProbeSession(db, coin, params)
        a = main_address(coin, params, x, 1)
        b = main_address(coin, params, x, 2)
        contents = s.probe_round([a, a, b])
        assert s.transcript.probes_total == 2
        assert contents[0] == contents[1]

    def test_budget_enforced(self, setup):
        db, x, params, coin = setup
        s = ProbeSession(db, coin, make_params(n=16, d=64, k=2))
        addr = [main_address(coin, params, x, 1)]
        s.probe_round(addr)
        s.probe_round(addr)
        with pytest.raises(RoundBudgetExceeded):
            s.probe_round(addr)

    def test_empty_batch_rejected(self, setup):
        db, _, params, coin = setup
        s = ProbeSession(db, coin, make_params(n=16, d=64, k=1))
        with pytest.raises(ValueError):
            s.probe_round([])

    def test_contents_in_request_order(self, setup):
        db, x, params, coin = setup
        s = ProbeSession(db, coin, make_params(n=16, d=64, k=1))
        batch = membership_addresses(db.point(0)) + [main_address(coin, params, x, 6)]
        contents = s.probe_round(batch)
        assert contents[0] == db.point(0)  # exact membership hit

    def test_aux_probe_requires_session_s(self, setup):
        db, x, params, coin = setup
        from annsim.alg_general import build_group_addresses

        groups = build_group_addresses(0, 6, x, coin, make_params(n=16, d=64, s=2.0, tau=3))
        addr = CellAddress.aux_cell(6, main_address(coin, params, x, 6).sketch, groups[0])
        s = ProbeSession(db, coin, params)  # no s configured
        with pytest.raises(ValueError):
            s.probe_round([addr])


class TestStructuralNonAdaptivity:
    def test_contents_unavailable_until_batch_submitted(self, setup):
        # The API gives no partial results: an algorithm that wants one
        # probe's content before choosing another address must spend a
        # round. Expressing intra-round dependence is impossible because
        # probe_round is the only read path and it consumes the whole batch.
        db, x, params, coin = setup
        s = ProbeSession(db, coin, params)
        first = s.probe_round([main_address(coin, params, x, 6)])
        dependent_scale = 1 if first[0] is None else 2
        s.probe_round([main_address(coin, params, x, dependent_scale)])
        assert s.transcript.rounds_used == 2  # the dependence cost a second round


class TestTranscript:
    def test_totals(self, setup):
        db, x, params, coin = setup
        s = ProbeSession(db, coin, make_params(n=16, d=64, k=3))
        s.probe_round([main_address(coin, params, x, i) for i in (1, 2, 5, 6)])
        s.probe_round([main_address(coin, params, x, 3)])
        t = s.close()
        assert t.rounds_used == 2
        assert t.probes_total == 5

    def test_replay_is_identical(self, setup):
        db, x, params, coin = setup

        def run():
            s = ProbeSession(db, coin, params)
            s.probe_round(membership_addresses(x) + [main_address(coin, params, x, 4)])
            s.probe_round([main_address(coin, params, x, 2)])
            return s.close()

        assert run().serialize() == run().serialize()

    def test_serialized_format(self):
        db = Database.from_points([Point(8, 0x0F)])
        params = make_params(n=1, d=8, c1=0.5)  # r_main = 1 bit addresses
        coin = coin_for_trial(100, 0, 0)
        x = Point(8, 0x0F)
        s = ProbeSession(db, coin, params)
        s.probe_round([CellAddress.member(KIND_MEMBER_EXACT, x)])
        s.probe_round([main_address(coin, params, x, 1)])
        text = s.close().serialize()
        lines = text.splitlines()
        assert lines[0] == "round 1: member_exact:-:0f -> point:0f"
        assert lines[1].startswith("round 2: main:1:")
        assert lines[1].endswith("-> point:0f")
