import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from annsim import _native, harness, randomness
from annsim.cli import _config_from_args, build_parser, main
from annsim.alg_general import run_general
from annsim.alg_simple import run_simple
from annsim.core import Point, hamming_dist, pack_words
from annsim.errors import AssumptionViolated, ConfigError
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
from annsim.near_search import run_near
from annsim.oracle import exact_nn
from annsim.probe_engine import ProbeSession
from annsim.randomness import TAG_DATA, PublicCoin, Stream, coin_for_trial


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

    @pytest.mark.parametrize("kw, message", [
        (dict(n=8, c1=1e9), "c1=1e+09 gives main sketch matrices of 3e+09 rows x d=64"),
        (dict(n=8, c1=1e300), "c1=1e+300 gives main sketch matrices of 3e+300 rows x d=64"),
        (dict(n=1024, c1=1e308), "c1=1e+308 gives main sketch matrices of inf rows x d=64"),
        (dict(algo="general", k=8, override=(1, 2), c2=1e9),
         "c2=1e+09 gives aux sketch matrices of 5e+09 rows x d=64"),
        (dict(algo="general", k=8, override=(4, 2), c2=2e7),
         "c2=2e+07 gives aux sketch matrices of 2.5e+07 rows x d=64"),
    ], ids=["c1-1e9", "c1-1e300", "c1-inf-rows", "c2-1e9", "c2-over-s"])
    def test_matrix_past_the_cap_rejected(self, kw, message):
        with pytest.raises(ConfigError) as err:
            validate_config(small_cfg(**kw))
        assert str(err.value) == f"{message}, past the cap of 2^30 bits per matrix"

    def test_matrix_cap_is_exact(self):
        # n = 2 makes the row count ceil(c1); 1024 rows of d = 2^20 are 2^30 bits.
        validate_config(small_cfg(n=2, d=2**20, c1=1024.0))
        with pytest.raises(ConfigError, match="c1=1024.5 gives main sketch matrices"):
            validate_config(small_cfg(n=2, d=2**20, c1=1024.5))
        validate_config(small_cfg(algo="general", n=2, d=2**20, k=8, override=(2, 2), c2=2048.0))
        with pytest.raises(ConfigError, match="c2=2049 gives aux sketch matrices"):
            validate_config(small_cfg(algo="general", n=2, d=2**20, k=8, override=(2, 2),
                                      c2=2049.0))

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(algo="simple", n=256, d=2**16, gamma=4.0, k=2, trials=1, seed=0),
        ExperimentConfig(algo="general", n=256, d=2**16, gamma=4.0, k=8, trials=1, seed=0,
                         override=(1, 2)),
        ExperimentConfig(algo="simple", n=256, d=2**14, gamma=4.0, k=2, trials=1, seed=1,
                         c1=8.0, c2=8.0),
        ExperimentConfig(algo="general", n=128, d=4096, gamma=4.0, k=8, trials=1, seed=1,
                         override=(2, 4)),
    ], ids=["calibrated-d2^16", "calibrated-general-s1", "simple_d16k_kmix",
            "general_d4096_checked"])
    def test_shipped_matrix_sizes_accepted(self, cfg):
        validate_config(cfg)

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

    def test_parallel_jobs_match_sequential(self, monkeypatch):
        # Two workers pass the --jobs cap whatever the host's cpu count is.
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
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

    def test_one_exact_nn_per_near_trial(self, monkeypatch):
        calls = []

        def counting(x, db):
            calls.append(x)
            return exact_nn(x, db)

        monkeypatch.setattr(harness, "exact_nn", counting)
        run_experiment(small_cfg(algo="near", k=1, lam=4.0, trials=3))
        assert len(calls) == 3


class TestTranscriptInvariants:
    """Every search, on any small instance, keeps the cost model's rules:
    distinct addresses within a round, at most k rounds, and at most
    `probe_bound` probes."""

    # The phased search spends up to two rounds per phase, and validation does
    # not yet reject an override whose phases need more than k rounds, so
    # general runs draw k from 5 to 8, enough for two phases at d <= 160.
    @settings(max_examples=100, deadline=None)
    @given(
        algo_k=st.one_of(
            st.tuples(st.sampled_from(["simple", "near"]), st.integers(1, 6)),
            st.tuples(st.just("general"), st.integers(5, 8)),
        ),
        n=st.integers(1, 40),
        d=st.integers(8, 160),
        override=st.sampled_from([(1, 2), (2, 4), (3, 2)]),
        seed=st.integers(0, 2**32),
    )
    @example(algo_k=("general", 5), n=40, d=160, override=(1, 2), seed=1)
    @example(algo_k=("simple", 1), n=1, d=8, override=(1, 2), seed=2)
    @example(algo_k=("near", 1), n=7, d=33, override=(1, 2), seed=3)
    def test_rounds_probes_and_distinct_addresses(self, algo_k, n, d, override, seed):
        algo, k = algo_k
        cfg = small_cfg(algo=algo, n=n, d=d, k=k, seed=seed, c1=8.0, c2=8.0,
                        override=override if algo == "general" else None,
                        lam=4.0 if algo == "near" else 0.0)
        validate_config(cfg)
        params, gp = harness.params_for(cfg), harness.general_for(cfg)
        db, x = gen_database(n, d, cfg.dataset, seed=PublicCoin(seed).stream_key(TAG_DATA, 0))
        session = ProbeSession(db, coin_for_trial(seed, 0, 0), k, params,
                               s_int=gp.s_int if gp else None, s_real=gp.s_real if gp else None)
        try:
            if algo == "simple":
                run_simple(x, session, params)
            elif algo == "general":
                run_general(x, session, params, gp)
            else:
                run_near(x, cfg.lam, session, params)
        except AssumptionViolated:
            pass
        transcript = session.close()
        assert 1 <= transcript.rounds_used <= k
        for batch in transcript.rounds:
            addresses = [addr for addr, _ in batch]
            assert len(set(addresses)) == len(addresses) > 0
        assert transcript.probes_total == sum(len(b) for b in transcript.rounds)
        assert transcript.probes_total <= probe_bound(cfg)


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

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_reports_and_checks_the_native_generator(self, capsys):
        # ... and the native sketch kernel: the two load together.
        assert selftest(verbose=True)
        lines = capsys.readouterr().out.splitlines()
        assert "  kernels: native" in lines
        assert "  ok  native generator matches the numpy kernel" in lines
        assert "  ok  native sketch kernel matches the numpy kernel" in lines

    def test_numpy_fallback_is_reported_not_failed(self, capsys, monkeypatch):
        monkeypatch.setattr(_native, "_state", (None, "numpy (no C compiler: cc is not on PATH)"))
        assert selftest(verbose=True)
        out = capsys.readouterr().out
        assert "  kernels: numpy (no C compiler: cc is not on PATH)\n" in out
        assert "native" not in out.replace("kernels: numpy", "")

    def test_a_wrong_native_generator_fails(self, capsys, monkeypatch):
        self.check_a_wrong_kernel_fails("generator", capsys, monkeypatch)

    def test_a_wrong_native_sketch_kernel_fails(self, capsys, monkeypatch):
        self.check_a_wrong_kernel_fails("sketch kernel", capsys, monkeypatch)

    @staticmethod
    def check_a_wrong_kernel_fails(wrong, capsys, monkeypatch):
        def all_zero(*args):
            args[-1].fill(0)

        kernels = SimpleNamespace(bernoulli_matrix=_generator_twin, sketch_apply_batch=_sketch_twin)
        setattr(kernels, {"generator": "bernoulli_matrix", "sketch kernel": "sketch_apply_batch"}[wrong],
                all_zero)
        monkeypatch.setattr(_native, "_state", (kernels, "native"))
        assert not selftest(verbose=True)
        lines = capsys.readouterr().out.splitlines()
        assert f"  FAIL  native {wrong} matches the numpy kernel" in lines
        right = {"generator": "sketch kernel", "sketch kernel": "generator"}[wrong]
        assert f"  ok  native {right} matches the numpy kernel" in lines


def _generator_twin(keys, rows, count, cut, out):
    """The C generator's answer, in its calling convention."""
    x = keys[:, None] + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(randomness._GOLDEN)
    out[:] = pack_words(randomness._finalize(x, np.empty_like(x)) < np.uint64(cut))


def _sketch_twin(words, n, packed, rows, nwords, acc, out):
    """The C sketch kernel's answer, in its calling convention."""
    parities = np.bitwise_count(np.bitwise_xor.reduce(words & packed[:, :, None], axis=1)) & 1
    out[:] = pack_words(parities.T)


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

    @pytest.mark.parametrize("args, message", [
        (("--algo", "simple", "--k", "1", "--c1", "inf"), "c1, c2 and c must be finite"),
        (("--algo", "simple", "--k", "1", "--c1", "nan"), "c1, c2 and c must be finite"),
        (("--algo", "general", "--k", "8", "--override-s", "2", "--override-tau", "4",
          "--c2", "inf"), "c1, c2 and c must be finite"),
        (("--algo", "general", "--k", "30", "--c", "nan"), "c1, c2 and c must be finite"),
        (("--algo", "near", "--k", "1", "--lambda", "nan"),
         "near search needs a distance budget --lambda >= 1"),
        (("--algo", "near", "--k", "1", "--lambda", "2", "--gamma", "nan"), "gamma must be > 1"),
    ], ids=["c1-inf", "c1-nan", "c2-inf", "c-nan", "lambda-nan", "gamma-nan"])
    def test_non_finite_numbers_exit_code(self, args, message):
        res = self.run_cli("run", "--n", "8", "--d", "64", "--gamma", "4", "--trials", "2",
                           "--seed", "0", *args)
        assert res.returncode == 2, res.stdout + res.stderr
        assert "Traceback" not in res.stderr
        assert res.stderr.splitlines() == [f"config error: {message}"]

    @pytest.mark.parametrize("args, message", [
        (("--seeds", "0"), "seeds must be >= 1"),
        (("--s", "0"), "s must be positive and finite"),
        (("--n", "0"), "need n >= 1 and d >= 2"),
        (("--gamma", "1"), "gamma must be > 1"),
        (("--seed", "-1"), "seed must lie in [0, 2^64)"),
        (("--target", "nan"), "target must lie in [0, 1]"),
    ], ids=["seeds-0", "s-0", "n-0", "gamma-1", "seed-neg", "target-nan"])
    def test_calibrate_bad_input_exit_code(self, args, message, capsys, monkeypatch):
        def no_instance(*args, **kwargs):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(harness, "gen_database", no_instance)
        assert main(["calibrate", "--seeds", "1", *args]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]

    OUT_COMMANDS = pytest.mark.parametrize("argv", [
        ["run", "--algo", "simple", "--n", "8", "--d", "64", "--gamma", "4", "--k", "1",
         "--trials", "2", "--seed", "0"],
        ["calibrate", "--n", "8", "--d", "64", "--seeds", "1"],
    ], ids=["run", "calibrate"])

    @OUT_COMMANDS
    def test_out_into_a_missing_directory_exit_code(self, argv, tmp_path, capsys, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "gen_database", no_trial)
        out = tmp_path / "missing" / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"config error: no directory to write {str(out)!r} into"]
        assert not out.parent.exists()

    @OUT_COMMANDS
    def test_out_naming_a_directory_exit_code(self, argv, tmp_path, capsys, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "gen_database", no_trial)
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"config error: {str(tmp_path)!r} is a directory, not a file to write"
        ]
        assert list(tmp_path.iterdir()) == []

    def test_matrix_past_the_cap_exit_code(self, capsys, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "gen_database", no_trial)
        argv = ["run", "--algo", "simple", "--n", "8", "--d", "64", "--gamma", "4", "--k", "1",
                "--trials", "1", "--seed", "0", "--c1", "1e300"]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: c1=1e+300 gives main sketch matrices of 3e+300 rows x d=64, "
            "past the cap of 2^30 bits per matrix"
        ]

    def test_round_budget_too_small_for_the_phases_exit_code(self):
        res = self.run_cli(
            "run", "--algo", "general", "--n", "16", "--d", "64", "--gamma", "4",
            "--k", "1", "--override-s", "1", "--override-tau", "2", "--trials", "1",
            "--seed", "0",
        )
        assert res.returncode == 2
        assert res.stderr.splitlines() == [
            "config error: round budget k=1 ran out in trial 0: "
            "the search's phases need more rounds; raise --k"
        ]

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    @pytest.mark.parametrize("args", [
        ("--algo", "simple", "--n", "48", "--d", "300", "--gamma", "4", "--k", "2",
         "--trials", "6", "--seed", "21"),
        ("--algo", "general", "--n", "32", "--d", "200", "--gamma", "4", "--k", "4",
         "--override-s", "2", "--override-tau", "2", "--dataset", "planted",
         "--plant-dist", "3", "--plant-gap", "20", "--trials", "4", "--seed", "22"),
    ], ids=["simple", "general-checked"])
    def test_csv_bytes_do_not_depend_on_the_kernels(self, args, tmp_path):
        # The same run on the C kernels and, with no cc on PATH, on the numpy
        # kernels; the kernel status goes to stderr, after the run.
        script = ("import sys; from annsim import _native; from annsim.cli import main; "
                  "code = main(sys.argv[1:]); print(_native.status(), file=sys.stderr); "
                  "sys.exit(code)")
        csv = {}
        for name, path in (("native", os.environ.get("PATH", "")), ("numpy", str(tmp_path))):
            out = tmp_path / f"{name}.csv"
            res = subprocess.run([sys.executable, "-c", script, "run", *args, "--out", str(out)],
                                 capture_output=True, text=True, timeout=300,
                                 env=dict(os.environ, PATH=path))
            assert res.returncode == 0, res.stderr
            assert res.stderr.splitlines()[-1].split(" ")[0] == name
            csv[name] = out.read_bytes()
        assert csv["native"] == csv["numpy"]
        assert csv["native"].decode().splitlines()[0] == CSV_HEADER

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
