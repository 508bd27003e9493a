import os
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from annsim import harness
from annsim.cli import _config_from_args, build_parser, main
from annsim.core import Point, hamming_dist
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
    validate_config,
    write_csv,
)
from annsim.randomness import TAG_DATA, PublicCoin, Stream


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


def reference_database(n, d, dataset, seed):
    """gen_database drawn one point at a time: one Stream.words call per value."""
    stream = Stream(PublicCoin(seed).stream_key(TAG_DATA))

    def value():
        words = stream.words((d + 63) // 64)
        return int.from_bytes(words.tobytes(), "little") & ((1 << d) - 1)

    x = value()
    values, seen = [], set()
    if dataset.kind == "planted":
        planted = x
        for j in stream.distinct_indices(dataset.plant_dist, d):
            planted ^= 1 << j
        values, seen = [planted], {planted}
        for _ in range(10000 * n):
            if len(values) == n:
                break
            v = value()
            if v not in seen and (v ^ x).bit_count() > dataset.plant_gap:
                seen.add(v)
                values.append(v)
        else:
            raise ConfigError("could not sample enough far points; gap too large")
    elif d <= 24 and n > 2 ** (d - 1):
        values = stream.shuffled(list(range(2**d)))[:n]
    while len(values) < n:
        v = value()
        if v not in seen:
            seen.add(v)
            values.append(v)
    return stream.shuffled(values), x


class TestGenDatabaseDifferential:
    """gen_database draws each batch of still-needed values in one block;
    the points, their order and the query must equal a per-point draw."""

    @staticmethod
    def check(n, d, dataset, seed):
        db, x = gen_database(n, d, dataset, seed)
        values, xv = reference_database(n, d, dataset, seed)
        assert x == Point(d, xv)
        assert [p.value for p in db.points] == values

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 40),
        d=st.integers(2, 300),
        seed=st.integers(0, 2**64 - 1),
        planted=st.booleans(),
        data=st.data(),
    )
    @example(n=20, d=6, seed=3, planted=False, data=None)  # many duplicate rejections
    @example(n=16, d=4, seed=3, planted=False, data=None)  # dense regime
    @example(n=30, d=130, seed=9, planted=False, data=None)
    def test_matches_per_point_draw(self, n, d, seed, planted, data):
        assume(d >= 64 or n <= 2**d)
        dataset = DatasetSpec()
        if planted:
            # Gaps up to d/2 - 2 reject up to about half the uniform draws.
            assume(d >= 16)
            dist = data.draw(st.integers(0, 6))
            gap = data.draw(st.integers(dist, d // 2 - 2))
            dataset = DatasetSpec("planted", plant_dist=dist, plant_gap=gap)
        self.check(n, d, dataset, seed)

    @pytest.mark.parametrize("n,d,gap,seed", [
        (40, 16, 10, 1),  # only about 1 in 5 uniform 16-bit values lies past distance 10
        (40, 16, 10, 2),
        (12, 8, 2, 4),  # 8-bit values: duplicates are rejected too
    ])
    def test_planted_rejections(self, n, d, gap, seed):
        self.check(n, d, DatasetSpec("planted", plant_dist=1, plant_gap=gap), seed)

    def test_too_few_far_points_is_a_config_error(self):
        # Only the complement of x lies past distance 7 in the 8-cube.
        dataset = DatasetSpec("planted", plant_dist=0, plant_gap=7)
        with pytest.raises(ConfigError, match="could not sample enough far points"):
            gen_database(3, 8, dataset, seed=5)
        with pytest.raises(ConfigError):
            reference_database(3, 8, dataset, seed=5)
        self.check(2, 8, dataset, seed=5)


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

    @pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
    def test_jobs_out_of_range_rejected(self, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            validate_config(small_cfg(jobs=jobs))

    def test_jobs_up_to_cpu_count_accepted(self):
        validate_config(small_cfg(jobs=1))
        validate_config(small_cfg(jobs=os.cpu_count() or 1))

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

    @pytest.mark.parametrize("jobs", ["0", str((os.cpu_count() or 1) + 1)])
    def test_jobs_out_of_range_exit_code(self, jobs, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        argv = ["run", "--algo", "simple", "--n", "8", "--d", "64", "--gamma", "4",
                "--k", "1", "--trials", "1", "--seed", "1", "--jobs", jobs]
        with pytest.raises(ConfigError, match="jobs"):
            validate_config(_config_from_args(build_parser().parse_args(argv)))
        assert main(argv) == 2
        cpus = os.cpu_count() or 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: jobs must lie in [1, {cpus}] (the cpu count)"
        ]

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
