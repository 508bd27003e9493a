import numpy as np
import pytest

from annsim import probe_engine
from annsim.alg_general import (
    build_group_addresses,
    params_general,
    probe_bound_general,
    run_general,
)
from annsim.alg_simple import run_simple
from annsim.core import Database, Params, Point, fraction_at_most, hamming_dist
from annsim.errors import AssumptionViolated, InvalidRoundBudget, RoundBudgetExceeded
from annsim.harness import DatasetSpec, ExperimentConfig, params_for
from annsim.oracle import check_assumption1, check_assumption2, exact_nn, exact_sets
from annsim.probe_engine import ProbeSession
from annsim.randomness import coin_for_trial
from annsim.search_common import scale_grid
from annsim.tables import KIND_AUX, cell_content

from conftest import make_instance, make_params


class TestParamsGeneral:
    def test_derived_refinement_depth(self):
        params = params_general(make_params(d=2**16, k=41, c=4.0))
        assert params.s == pytest.approx(4.875)
        assert params.s_int == 5

    def test_boundary_round_budget_rejected(self):
        # 5c^2/(c-2) = 45 at c=3: k must strictly exceed it.
        with pytest.raises(InvalidRoundBudget):
            params_general(make_params(d=2**16, k=45, c=3.0))
        assert params_general(make_params(d=2**16, k=46, c=3.0)).s_int >= 1

    def test_tau_at_large_k(self):
        # exponent (k-1)/2 - 2s = k/c = 10.25; ceil(16/41) = 1 -> tau = 2
        assert params_general(make_params(d=2**16, k=41, c=4.0)).tau == 2

    def test_override_mode(self):
        cfg = ExperimentConfig(algo="general", n=32, d=64, gamma=4.0, k=8, trials=1, seed=0,
                               override=(2, 4))
        params = params_for(cfg)
        assert (params.s_int, params.tau, params.s) == (2, 4, 2.0)
        assert params == make_params(k=8, c1=cfg.c1, c2=cfg.c2, s=2.0, tau=4)


class TestGroupAddresses:
    def params(self, s, tau):
        return make_params(n=64, d=2**12, c2=16.0, s=s, tau=tau)

    def test_even_split(self, coin):
        params = self.params(s=3.0, tau=7)
        x = Point(params.d, 7)
        groups = build_group_addresses(0, 70, x, coin, params)
        assert [len(g.scales) for g in groups] == [3, 3]

    def test_remainder_in_last_group(self, coin):
        params = self.params(s=3.0, tau=6)
        x = Point(params.d, 7)
        groups = build_group_addresses(0, 60, x, coin, params)
        assert [len(g.scales) for g in groups] == [3, 2]

    def test_grid_markers(self, coin):
        assert scale_grid(0, 20, 5) == [0, 4, 8, 12, 16, 20]
        params = self.params(s=2.0, tau=5)
        x = Point(params.d, 7)
        groups = build_group_addresses(0, 20, x, coin, params)
        assert groups[0].scales == (4, 8)
        assert groups[1].scales == (12, 16)
        assert groups[0].group_bounds == (4, 8)

    def test_sketch_lengths_match_aux_rows(self, coin):
        params = self.params(s=2.0, tau=5)
        x = Point(params.d, 7)
        groups = build_group_addresses(0, 40, x, coin, params)
        rows = params.r_aux
        assert all(sk.dim == rows for g in groups for sk in g.sketches)


def run_one(db, x, params, seed=0):
    coin = coin_for_trial(seed, 0, 0)
    session = ProbeSession(db, coin, params)
    result = run_general(x, session)
    return result, session.close(), coin


class TestSmallWindowEqualsSimpleCompletion:
    def test_direct_completion_matches(self):
        # I = 6 < max(3 tau, k) = 12, so the phased search runs a single
        # completion round over scales 1..I, the same batch the one-round
        # simple search issues; outputs must agree point for point.
        db, x = make_instance(n=32, d=64, seed=17)
        params_g = make_params(n=32, d=64, k=8, c1=16.0, s=2.0, tau=4)
        params_s = make_params(n=32, d=64, k=1, c1=16.0)
        try:
            got, transcript, coin = run_one(db, x, params_g, seed=17)
        except AssumptionViolated:
            got, transcript, coin = None, None, coin_for_trial(17, 0, 0)
        session = ProbeSession(db, coin, params_s)
        try:
            want = run_simple(x, session)
        except AssumptionViolated:
            want = None
        assert got == want
        if transcript is not None:
            assert transcript.rounds_used == 1
            assert transcript.phases == []


class TestEarlyExit:
    def test_query_in_database_leaves_no_phase(self):
        # I = 8 >= max(3 tau, k) = 6, so the first round is a phase round;
        # its exact-match probe ends the search before the phase completes.
        db, _ = make_instance(n=40, d=160, seed=1)
        params = make_params(n=40, d=160, k=5, s=1.0, tau=2)
        result, transcript, _ = run_one(db, db.point(3), params)
        assert result == db.point(3)
        assert transcript.early_exit == "exact"
        assert transcript.rounds_used == 1
        assert transcript.phases == [] == transcript.windows


class TestCaseBranches:
    def cluster_instance(self):
        """16 near points force a large first-slot refinement (CASE 1)."""
        d, n = 4096, 128
        rng = np.random.default_rng(4242)
        x = Point(d, 0)
        values = set()
        while len(values) < 16:
            idx = rng.choice(d, size=int(rng.integers(3, 7)), replace=False)
            values.add(sum(1 << int(j) for j in idx))
        while len(values) < n:
            word = rng.integers(0, 2, size=d, dtype=np.uint8)
            v = int.from_bytes(np.packbits(word, bitorder="little").tobytes(), "little")
            values.add(v)
        return Database.from_points([Point(d, v) for v in sorted(values)]), x

    def test_case1_skips_second_round(self):
        db, x = self.cluster_instance()
        params = make_params(n=128, d=4096, k=8, c1=48.0, c2=64.0, s=2.0, tau=4)
        result, transcript, coin = run_one(db, x, params, seed=31)
        phase = transcript.phases[0]
        assert phase.case == 1
        assert phase.new_window[1] == phase.grid[1] + 1
        # Oracle confirms the branch condition: the first refinement slot
        # really does keep a large fraction of the candidate set.
        sets = exact_sets(x, db, coin, params)
        top = params.scale_count
        c_size = len(sets.sketch_ball(top))
        d_size = len(sets.refined(top, phase.grid[1]))
        assert not fraction_at_most(d_size, c_size, 128, params.s)
        # phase spent one round, completion one more
        assert transcript.rounds_used == 2

    def test_case2_advances_lower_end(self):
        # Uniform points sit near d/2, far above every probed grid scale,
        # so the second-round probe is empty and the lower end advances.
        seen = False
        for seed in range(10):
            db, x = make_instance(n=128, d=4096, seed=seed)
            params = make_params(n=128, d=4096, k=8, c1=48.0, c2=64.0, s=2.0, tau=4)
            try:
                _, transcript, _ = run_one(db, x, params, seed=seed)
            except AssumptionViolated:
                continue
            for phase in transcript.phases:
                if phase.case == 2:
                    seen = True
                    l_new = phase.new_window[0]
                    assert l_new == max(phase.window[0], phase.grid[phase.r_star - 1] - 1)
        assert seen

    def test_case3_lowers_upper_end(self):
        seen = False
        for seed in range(10):
            db, x = make_instance(
                n=128, d=4096, seed=seed,
                dataset=DatasetSpec("planted", plant_dist=6, plant_gap=40),
            )
            params = make_params(n=128, d=4096, k=8, c1=48.0, c2=64.0, s=2.0, tau=4)
            try:
                _, transcript, _ = run_one(db, x, params, seed=seed)
            except AssumptionViolated:
                continue
            for phase in transcript.phases:
                if phase.case == 3:
                    seen = True
                    assert phase.new_window[0] == phase.window[0]
                    assert phase.new_window[1] == phase.grid[phase.r_star - 1] - 1
        assert seen


class TestConditionalCorrectness:
    def test_override_trials(self):
        confirmed = 0
        for seed in range(15):
            db, x = make_instance(
                n=128, d=2**12, seed=seed,
                dataset=DatasetSpec("planted", plant_dist=6, plant_gap=40),
            )
            params = make_params(n=128, d=2**12, k=8, c1=48.0, c2=64.0, s=2.0, tau=4)
            try:
                result, transcript, coin = run_one(db, x, params, seed=seed)
            except AssumptionViolated:
                result, coin = None, coin_for_trial(seed, 0, 0)
            sets = exact_sets(x, db, coin, params)
            if check_assumption1(sets) and check_assumption2(sets):
                confirmed += 1
                _, best = exact_nn(x, db)
                assert result is not None
                assert hamming_dist(x, result) <= params.gamma * best
        assert confirmed >= 5

    def test_phase_progress_invariant(self):
        for seed in range(8):
            db, x = make_instance(n=128, d=2**12, seed=seed)
            params = make_params(n=128, d=2**12, k=8, c1=48.0, c2=64.0, s=2.0, tau=4)
            try:
                _, transcript, coin = run_one(db, x, params, seed=seed)
            except AssumptionViolated:
                continue
            sets = exact_sets(x, db, coin, params)
            if not (check_assumption1(sets) and check_assumption2(sets)):
                continue
            for phase in transcript.phases:
                l0, u0 = phase.window
                l1, u1 = phase.new_window
                gap_ok = (u1 - l1) <= (u0 - l0) / params.tau + 3
                shrink_ok = fraction_at_most(
                    len(sets.sketch_ball(u1)), len(sets.sketch_ball(u0)),
                    128, params.s, factor=2.0,
                )
                assert gap_ok or shrink_ok


class TestWindowInvariant:
    def test_phase_head_endpoints_match_oracle(self):
        checked = 0
        for seed in range(8):
            db, x = make_instance(n=128, d=2**12, seed=seed)
            params = make_params(n=128, d=2**12, k=8, c1=48.0, c2=64.0, s=2.0, tau=4)
            try:
                _, transcript, coin = run_one(db, x, params, seed=seed)
            except AssumptionViolated:
                continue
            sets = exact_sets(x, db, coin, params)
            if (
                not (check_assumption1(sets) and check_assumption2(sets))
                or transcript.final_window is None
            ):
                continue
            for l, u in transcript.windows + [transcript.final_window]:
                assert sets.sketch_ball(u), "upper end must stay nonempty"
                if l >= 1:
                    assert not sets.sketch_ball(l), "lower end must stay empty"
                elif not sets.ball(1):
                    assert not sets.sketch_ball(0)
                checked += 1
        assert checked > 0


class TestAsymptoticMode:
    def test_large_k_regime_runs_to_completion(self):
        # The derived-parameter path at its smallest legal round budget:
        # tau = 2, the initial window is already below max(3 tau, k), and
        # the whole search is one completion round inside every budget.
        db, x = make_instance(n=64, d=2**16, seed=2)
        params = params_general(make_params(n=64, d=2**16, k=41, c1=8.0, c2=8.0))
        try:
            _, transcript, _ = run_one(db, x, params, seed=2)
        except AssumptionViolated:
            pytest.skip("sketch sandwich failed on this coin")
        assert transcript.phases == []
        assert transcript.rounds_used == 1
        assert transcript.probes_total <= probe_bound_general(params)


class TestBudgets:
    def test_probe_and_round_budgets(self):
        for seed in range(8):
            db, x = make_instance(n=128, d=2**12, seed=seed)
            params = make_params(n=128, d=2**12, k=8, c1=24.0, c2=32.0, s=2.0, tau=4)
            try:
                _, transcript, _ = run_one(db, x, params, seed=seed)
            except AssumptionViolated:
                continue
            assert transcript.rounds_used <= 8
            assert transcript.probes_total <= probe_bound_general(params)

    def test_probe_bound_is_exact_past_float_range(self):
        tau = 10**400
        params = make_params(n=16, d=64, k=9, s=2.0, tau=tau)
        assert probe_bound_general(params) == 4 * (tau // 2 + 2) + 3 * tau + 2

    def test_budget_exhaustion_surfaces_in_override_mode(self):
        # k=2 cannot fit a two-round phase plus a completion round unless
        # the phase takes the single-round branch; on uniform data it does
        # not, so the engine must refuse the third round.
        raised = False
        for seed in range(6):
            db, x = make_instance(n=128, d=4096, seed=seed)
            params = make_params(n=128, d=4096, k=2, c1=24.0, c2=32.0, s=2.0, tau=4)
            coin = coin_for_trial(seed, 0, 0)
            session = ProbeSession(db, coin, params)
            try:
                run_general(x, session)
            except RoundBudgetExceeded:
                raised = True
                break
            except AssumptionViolated:
                continue
        assert raised


class TestInvariantChecks:
    """No bare `assert` here: test_alg_simple's
    test_invariant_checks_survive_python_O reruns this class under -O."""

    def test_aux_content_must_be_small_int(self, monkeypatch):
        def no_aux_tables(db, coin, params, address):
            if address.kind == KIND_AUX:
                return None
            return cell_content(db, coin, params, address)

        monkeypatch.setattr(probe_engine, "cell_content", no_aux_tables)
        db, x = make_instance(n=64, d=4096)
        params = make_params(n=64, d=4096, k=8, s=2.0, tau=4)
        with pytest.raises(AssertionError, match="not a slot index"):
            run_one(db, x, params)
