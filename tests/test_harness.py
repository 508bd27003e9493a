import subprocess
import sys

import pytest

from annsim.core import hamming_dist
from annsim.errors import ConfigError
from annsim.harness import (
    CSV_HEADER,
    DatasetSpec,
    ExperimentConfig,
    calibrate,
    csv_lines,
    gen_database,
    probe_bound,
    run_experiment,
    selftest,
    summarize,
    write_csv,
)


class TestGenDatabase:
    def test_planted_distance_is_exact(self):
        db, x = gen_database(16, 128, DatasetSpec("planted", plant_dist=5, plant_gap=25), seed=3)
        dists = sorted(hamming_dist(x, p) for p in db.points)
        assert dists[0] == 5
        assert dists[1] > 25

    def test_exhaustive_small_cube(self):
        db, _ = gen_database(16, 4, DatasetSpec(), seed=3)
        assert sorted(p.value for p in db.points) == list(range(16))

    def test_deterministic(self):
        a_db, a_x = gen_database(32, 64, DatasetSpec(), seed=11)
        b_db, b_x = gen_database(32, 64, DatasetSpec(), seed=11)
        assert a_x == b_x
        assert a_db.points == b_db.points

    def test_infeasible_rejected(self):
        with pytest.raises(ConfigError):
            gen_database(32, 4, DatasetSpec(), seed=0)


def small_cfg(**kw):
    base = dict(
        algo="simple", n=32, d=64, gamma=4.0, k=2, trials=6, seed=5,
        c1=16.0, c2=16.0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(small_cfg(trials=0))

    def test_bad_gap_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(small_cfg(
                dataset=DatasetSpec("planted", plant_dist=5, plant_gap=20)
            ))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            run_experiment(small_cfg(seed=seed))

    def test_near_requires_lambda(self):
        with pytest.raises(ConfigError):
            run_experiment(small_cfg(algo="near", k=1))

    def test_deterministic_csv(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(small_cfg(out=str(p1)))
        run_experiment(small_cfg(out=str(p2)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema(self):
        recs = run_experiment(small_cfg(trials=3))
        lines = csv_lines(recs)
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[2] == "simple"
        assert first[3] in ("0", "1")

    def test_conditional_correctness_invariant(self):
        recs = run_experiment(small_cfg(trials=12, c1=32.0))
        assert all(r.success for r in recs if r.assumption1)

    def test_probe_bounds_respected(self):
        cfg = small_cfg(trials=8, k=3)
        bound = probe_bound(cfg)
        for r in run_experiment(cfg):
            assert r.probes_total <= bound
            assert r.rounds_used <= cfg.k

    def test_repeat_boosting_runs_parallel_sessions(self):
        cfg = small_cfg(trials=4, repeat=3)
        recs = run_experiment(cfg)
        for r in recs:
            assert r.probes_total <= 3 * probe_bound(cfg)
            assert r.rounds_used <= cfg.k
            # boosted candidate can only improve on any single repetition
            assert r.returned_dist >= r.exact_dist or r.returned_dist == -1

    def test_parallel_jobs_match_sequential(self):
        seq = run_experiment(small_cfg(trials=6, jobs=1))
        par = run_experiment(small_cfg(trials=6, jobs=2))
        assert csv_lines(seq) == csv_lines(par)

    def test_skipping_assumption_checks_blanks_columns(self):
        recs = run_experiment(small_cfg(check_assumptions=False, trials=3))
        assert all(r.assumption1 is None for r in recs)
        line = csv_lines(recs)[1].split(",")
        assert line[6] == "" and line[7] == ""

    def test_near_records(self):
        cfg = small_cfg(algo="near", k=1, lam=4.0, trials=6)
        recs = run_experiment(cfg)
        for r in recs:
            assert r.probes_total == 1
            assert r.rounds_used == 1


class TestSummarize:
    def test_fields(self):
        recs = run_experiment(small_cfg(trials=5))
        s = summarize(recs)
        assert s["trials"] == 5
        assert 0.0 <= s["success_rate"] <= 1.0
        assert s["max_probes"] >= s["mean_probes"] > 0


class TestCalibrate:
    def test_rates_are_monotone_enough_to_choose(self):
        report = calibrate(n=32, d=64, seeds=12, seed=3, c1_grid=(4.0, 32.0),
                           c2_grid=(16.0,), target=0.5)
        assert report.c1_rates[0][1] <= report.c1_rates[-1][1] + 0.3
        assert report.chosen_c1 in (4.0, 32.0)


class TestSelftest:
    def test_passes(self, capsys):
        assert selftest(verbose=False)


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "annsim", *args],
            capture_output=True, text=True, timeout=300,
        )

    def test_run_roundtrip(self, tmp_path):
        out = tmp_path / "r.csv"
        res = self.run_cli(
            "run", "--algo", "simple", "--n", "32", "--d", "64", "--gamma", "4",
            "--k", "2", "--c1", "16", "--trials", "4", "--seed", "9",
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        assert out.read_text().splitlines()[0] == CSV_HEADER
        assert "success rate" in res.stdout

    def test_config_error_exit_code(self):
        res = self.run_cli(
            "run", "--algo", "near", "--n", "8", "--d", "64", "--gamma", "4",
            "--k", "1", "--trials", "2", "--seed", "1",
        )
        assert res.returncode == 2
        assert "config error" in res.stderr

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exit_code(self, seed):
        res = self.run_cli(
            "run", "--algo", "simple", "--n", "8", "--d", "64", "--gamma", "4",
            "--k", "1", "--trials", "1", "--seed", seed,
        )
        assert res.returncode == 2
        assert res.stderr.splitlines() == ["config error: seed must lie in [0, 2^64)"]

    def test_selftest_command(self):
        res = self.run_cli("selftest")
        assert res.returncode == 0
        assert "PASS" in res.stdout

    def test_calibrate_command(self, tmp_path):
        out = tmp_path / "cal.csv"
        res = self.run_cli(
            "calibrate", "--n", "32", "--d", "64", "--seeds", "6",
            "--seed", "3", "--target", "0.5", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        assert "calibrated: c1=" in res.stdout
        assert out.read_text().startswith("factor,value,rate\n")
