"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (straight to the real stdout so the
lines survive pytest's capture) and then asserts, so a red criterion is
both visible and failing.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from annsim.alg_general import probe_bound_general, run_general
from annsim.alg_simple import branching_factor, probe_bound_simple
from annsim.core import Params, Point, fraction_at_most, hamming_dist
from annsim.errors import AssumptionViolated
from annsim.harness import (
    CALIBRATED_C1,
    CALIBRATED_C2,
    DatasetSpec,
    ExperimentConfig,
    run_experiment,
    summarize,
    trial_instance,
)
from annsim.oracle import check_assumption1, check_assumption2, exact_nn, exact_sets
from annsim.probe_engine import ProbeSession
from annsim.randomness import coin_for_trial
from annsim.sketch import derive_matrix, row_collision_prob, sketch_apply


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_capture(capfd):
    """Let report() bypass pytest's fd capture so PASS/FAIL lines show."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    return ok


def base_cfg(**kw):
    cfg = dict(
        algo="simple", n=256, d=128, gamma=4.0, k=2, trials=100, seed=20250809,
        c1=CALIBRATED_C1, c2=CALIBRATED_C2,
    )
    cfg.update(kw)
    return ExperimentConfig(**cfg)


def test_criterion_1_conditional_correctness_simple():
    """Every assumption-holding trial returns a gamma-approximate neighbor."""
    records = []
    for k in (1, 2, 3):
        for dataset in (
            DatasetSpec(),
            DatasetSpec("planted", plant_dist=5, plant_gap=25),
        ):
            records += run_experiment(base_cfg(k=k, dataset=dataset, trials=100))
    assert len(records) >= 500
    violations = [r for r in records if r.assumption1 and not r.success]
    held = sum(bool(r.assumption1) for r in records)
    ok = report(
        1, "conditional correctness (simple)", not violations,
        f"{len(records)} trials, assumption held in {held}, violations {len(violations)}",
    )
    assert ok


def test_criterion_2_conditional_correctness_general():
    """Override-mode phased search: conditional success and phase progress."""
    n, d, k = 128, 4096, 8
    params = Params(n=n, d=d, gamma=4.0, k=k, c1=CALIBRATED_C1, c2=CALIBRATED_C2, s=2.0, tau=4)
    datasets = [DatasetSpec(), DatasetSpec("planted", plant_dist=6, plant_gap=40)]
    trials_per = 100
    success_violations = 0
    progress_violations = 0
    joint_held = 0
    total = 0
    for ds_idx, dataset in enumerate(datasets):
        for t in range(trials_per):
            total += 1
            db, x = trial_instance(5000 + ds_idx, t, n, d, dataset)
            coin = coin_for_trial(5000 + ds_idx, t, 0)
            session = ProbeSession(db, coin, params)
            try:
                result = run_general(x, session)
            except AssumptionViolated:
                result = None
            transcript = session.close()
            assert transcript.probes_total <= probe_bound_general(params)
            assert transcript.rounds_used <= k
            sets = exact_sets(x, db, coin, params)
            if not (check_assumption1(sets) and check_assumption2(sets)):
                continue
            joint_held += 1
            _, best = exact_nn(x, db)
            if result is None or hamming_dist(x, result) > params.gamma * best:
                success_violations += 1
            for phase in transcript.phases:
                l0, u0 = phase.window
                l1, u1 = phase.new_window
                gap_ok = (u1 - l1) <= (u0 - l0) / params.tau + 3
                shrink_ok = fraction_at_most(
                    len(sets.sketch_ball(u1)), len(sets.sketch_ball(u0)),
                    n, params.s, factor=2.0,
                )
                if not (gap_ok or shrink_ok):
                    progress_violations += 1
    ok = report(
        2, "conditional correctness (general, override)",
        success_violations == 0 and progress_violations == 0 and joint_held > 0,
        f"{total} trials, joint assumptions held in {joint_held}, "
        f"success violations {success_violations}, progress violations {progress_violations}",
    )
    assert ok


def test_criterion_3_probe_round_accounting():
    """Simple search respects its probe/round bounds; near search is 1/1."""
    bad = 0
    total = 0
    for k in (1, 2, 3):
        cfg = base_cfg(k=k, trials=50, check_assumptions=False)
        bound = probe_bound_simple(
            Params(n=cfg.n, d=cfg.d, gamma=cfg.gamma, k=k, c1=cfg.c1, c2=cfg.c2)
        )
        for r in run_experiment(cfg):
            total += 1
            if r.probes_total > bound or r.rounds_used > k:
                bad += 1
    near_cfg = base_cfg(algo="near", k=1, lam=8.0, trials=200, check_assumptions=False)
    for r in run_experiment(near_cfg):
        total += 1
        if r.probes_total != 1 or r.rounds_used != 1:
            bad += 1
    ok = report(3, "probe/round accounting", bad == 0, f"{total} trials, {bad} violations")
    assert ok


def test_criterion_4_assumption_statistics():
    """Joint assumption rate at calibrated factors clears 3/4 minus 3 SE."""
    n, d, seeds = 256, 128, 200
    params = Params(n=n, d=d, gamma=4.0, k=1, c1=CALIBRATED_C1, c2=CALIBRATED_C2, s=2.0)
    hits = 0
    for i in range(seeds):
        db, x = trial_instance(900, i, n, d, DatasetSpec())
        coin = coin_for_trial(900, i, 0)
        sets = exact_sets(x, db, coin, params)
        hits += check_assumption1(sets) and check_assumption2(sets)
    rate = hits / seeds
    floor = 0.75 - 3 * math.sqrt(0.75 * 0.25 / seeds)
    ok = report(
        4, "sandwich and refinement statistics", rate >= floor,
        f"joint rate {rate:.3f} over {seeds} seeds, floor {floor:.3f}",
    )
    assert ok


def test_criterion_5_unconditional_success():
    """Success probability without conditioning, and with 5-way boosting.

    Planted instances with the far cloud past gamma*plant_dist, so success
    genuinely requires the search to work (uniform d=128 instances would
    pass vacuously: every point is within gamma of the ~d/2 true distance).
    """
    planted = DatasetSpec("planted", plant_dist=5, plant_gap=25)
    single = run_experiment(
        base_cfg(trials=500, dataset=planted, check_assumptions=False, seed=31)
    )
    rate1 = summarize(single)["success_rate"]
    boosted = run_experiment(
        base_cfg(trials=500, dataset=planted, repeat=5, check_assumptions=False, seed=32)
    )
    rate5 = summarize(boosted)["success_rate"]
    ok = report(
        5, "unconditional success", rate1 >= 0.66 and rate5 >= 0.95,
        f"single {rate1:.3f} (floor 0.66), boosted x5 {rate5:.3f} (floor 0.95)",
    )
    assert ok


def test_criterion_6_round_probe_tradeoff():
    """Mean probes strictly decrease as the round budget grows, d = 2^16."""
    means = {}
    for k in (1, 2, 3):
        cfg = ExperimentConfig(
            algo="simple", n=256, d=2**16, gamma=4.0, k=k, trials=24,
            seed=777, c1=8.0, c2=8.0, check_assumptions=False,
        )
        means[k] = summarize(run_experiment(cfg))["mean_probes"]
    taus = tuple(branching_factor(k, Params(n=256, d=2**16, gamma=4.0, k=k).scale_count)
                 for k in (1, 2, 3))
    ok = report(
        6, "round/probe tradeoff trend",
        means[1] > means[2] > means[3] and taus == (16, 6, 4),
        f"means {means[1]:.2f} > {means[2]:.2f} > {means[3]:.2f}, tau {taus}",
    )
    assert ok


def test_criterion_7_sketch_physics():
    """Monte-Carlo row separation matches the closed form within 3 SE."""
    rows, d = 10**5, 64
    worst = 0.0
    ok = True
    for lam, scale in ((1, 0), (2, 1), (4, 2), (8, 3)):
        coin = coin_for_trial(4096 + scale, 0, 0)
        matrix = derive_matrix(coin, "main", scale, rows, d, 2.0)
        for h in sorted({0, 1, lam, 2 * lam + 1}):
            x = Point(d, 0)
            z = Point(d, (1 << h) - 1)
            est = hamming_dist(sketch_apply(matrix, x), sketch_apply(matrix, z)) / rows
            p = row_collision_prob(float(lam), float(h))
            se = math.sqrt(p * (1 - p) / rows)
            if se == 0.0:
                ok &= est == p
            else:
                worst = max(worst, abs(est - p) / se)
                ok &= abs(est - p) <= 3 * se
    ok = report(7, "sketch physics", ok, f"worst deviation {worst:.2f} SE on 16-point grid")
    assert ok


def test_criterion_8_determinism(tmp_path):
    """Identical CLI invocations produce byte-identical CSV output."""
    def invoke(out, extra=()):
        args = [
            sys.executable, "-m", "annsim", "run", "--algo", "simple",
            "--n", "64", "--d", "128", "--gamma", "4", "--k", "2",
            "--c1", "24", "--trials", "12", "--seed", "4242", "--out", out,
        ]
        args.extend(extra)
        res = subprocess.run(args, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr

    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    invoke(a)
    invoke(b)
    same_simple = Path(a).read_bytes() == Path(b).read_bytes()

    c, d = str(tmp_path / "c.csv"), str(tmp_path / "d.csv")
    near = ["--algo", "near", "--k", "1", "--lambda", "6"]
    for out in (c, d):
        args = [
            sys.executable, "-m", "annsim", "run", *near,
            "--n", "64", "--d", "128", "--gamma", "4",
            "--c1", "24", "--trials", "12", "--seed", "4242", "--out", out,
        ]
        res = subprocess.run(args, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
    same_near = Path(c).read_bytes() == Path(d).read_bytes()

    ok = report(8, "byte-identical reruns", same_simple and same_near)
    assert ok


def test_criterion_9_oracle_cross_check():
    """Virtual main cells agree with the oracle's candidate sets everywhere."""
    from annsim.search_common import query_sketch
    from annsim.tables import main_cell

    rng = np.random.default_rng(99)
    disagreements = 0
    instances = 0
    for case in range(100):
        d = int(rng.choice([16, 32, 48, 64]))
        n = int(rng.integers(2, 65))
        db, x = trial_instance(600, case, n, d, DatasetSpec())
        params = Params(n=n, d=d, gamma=4.0, k=1, c1=8.0, c2=8.0)
        coin = coin_for_trial(600, case, 0)
        sets = exact_sets(x, db, coin, params)
        instances += 1
        for i in range(params.scale_count + 1):
            cell = main_cell(db, coin, params, i, query_sketch(coin, params, x, i))
            if (cell is None) != (not sets.sketch_ball(i)):
                disagreements += 1
    ok = report(
        9, "oracle cross-check", disagreements == 0 and instances == 100,
        f"{instances} instances, {disagreements} disagreements",
    )
    assert ok
