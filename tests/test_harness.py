import concurrent.futures
import contextlib
import gc
import io
import itertools
import os
import shutil
import subprocess
import sys
import warnings
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from annsim import _native, cli, harness, randomness, sketch
from annsim.cli import _config_from_args, build_parser, main
from annsim.core import Point, hamming_dist, pack_words, unpack_words
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
    trial_instance,
    validate_config,
    write_csv,
)
from annsim.oracle import exact_nn
from annsim.randomness import Stream, coin_for_trial
from annsim.sketch import SketchMatrix
from reference_data import ScalarStream, reference_database


class TestGenDatabase:
    def test_planted_distance_is_exact(self):
        db, x = gen_database(16, 128, DatasetSpec("planted", plant_dist=5, plant_gap=25), seed=3)
        dists = sorted(hamming_dist(x, db.point(i)) for i in range(db.n))
        assert dists[0] == 5
        assert dists[1] > 25

    def test_exhaustive_small_cube(self):
        db, _ = gen_database(16, 4, DatasetSpec(), seed=3)
        assert sorted(db.point(i).value for i in range(db.n)) == list(range(16))

    def test_deterministic(self):
        a_db, a_x = gen_database(32, 64, DatasetSpec(), seed=11)
        b_db, b_x = gen_database(32, 64, DatasetSpec(), seed=11)
        assert a_x == b_x
        assert np.array_equal(a_db.packed, b_db.packed)

    def test_infeasible_rejected(self):
        with pytest.raises(ConfigError):
            gen_database(32, 4, DatasetSpec(), seed=0)


_MASK64 = 2**64 - 1


@contextlib.contextmanager
def all_ones_at(counters):
    """Make the stream words at these counters (of every key) read 2^64 - 1.

    Such a word is rejected by every Fisher-Yates step whose bound is not a
    power of two; a natural rejection has probability about n / 2^64. The
    set is finite, so a generator that reads the stream wrongly still ends.
    """
    raw64, raw64_block = randomness.raw64, randomness.raw64_block

    def one(key, n):
        return _MASK64 if n in counters else raw64(key, n)

    def block(key, start, count):
        out = raw64_block(key, start, count)
        for c in counters:
            if start <= c < start + count:
                out[c - start] = _MASK64
        return out

    with mock.patch.object(randomness, "raw64", one), \
            mock.patch.object(randomness, "raw64_block", block):
        yield


# Planted datasets: 9 of the 256 8-bit values lie past distance 6 of a query.
SPARSE_FAR = DatasetSpec("planted", plant_dist=0, plant_gap=6)


class TestGenDatabaseDifferential:
    """gen_database draws blocks of words, dedupes them with one sort and
    shuffles with a vectorized rejection test; the query, the points and
    their order must equal the per-point scalar draw of reference_data."""

    @staticmethod
    def check(n, d, dataset, seed, per_point=None):
        """Compare one instance; returns False when both give up on the gap."""
        limit = None if per_point is None else per_point * n
        with mock.patch.object(harness, "_DRAWS_PER_POINT", per_point or 10000):
            try:
                values, xv = reference_database(n, d, dataset, seed, limit)
            except ConfigError:
                with pytest.raises(ConfigError, match="could not sample enough far points"):
                    gen_database(n, d, dataset, seed)
                return False
            db, x = gen_database(n, d, dataset, seed)
        assert x == Point(d, xv)
        assert [db.point(i).value for i in range(db.n)] == values
        return True

    @settings(max_examples=80, deadline=None)
    @given(
        regime=st.sampled_from(["uniform", "dense", "duplicates", "planted"]),
        seed=st.integers(0, 2**64 - 1),
        # Up to about 1,000 words are read; the shuffles read the last n - 1
        # of them, and all of the cube's 2^d - 1 in the dense regime.
        forced=st.frozensets(st.integers(0, 1000), max_size=12),
        data=st.data(),
    )
    def test_matches_per_point_draw(self, regime, seed, forced, data):
        per_point, dataset = None, DatasetSpec()
        if regime == "uniform":  # d need not be a multiple of 64
            d = data.draw(st.integers(2, 300), label="d")
            n = data.draw(st.integers(1, 40 if d > 5 else 2**d), label="n")
        elif regime == "dense":  # d <= 24 and n > 2^(d-1): the whole cube is shuffled
            d = data.draw(st.integers(2, 9), label="d")
            n = data.draw(st.integers(2 ** (d - 1) + 1, 2**d), label="n")
        elif regime == "duplicates":  # a small cube forces duplicate draws
            d = data.draw(st.integers(3, 7), label="d")
            n = data.draw(st.integers(2, 2 ** (d - 1)), label="n")
        else:
            # Gaps up to d/2 - 2 reject up to about half the uniform draws, and
            # a few draws per point may run out.
            d = data.draw(st.integers(16, 300), label="d")
            n = data.draw(st.integers(1, 40), label="n")
            dist = data.draw(st.integers(0, 6), label="dist")
            gap = data.draw(st.integers(dist, d // 2 - 2), label="gap")
            dataset = DatasetSpec("planted", plant_dist=dist, plant_gap=gap)
            per_point = data.draw(st.sampled_from([None, 1, 2, 3]), label="per_point")
        with all_ones_at(forced):
            self.check(n, d, dataset, seed, per_point)

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
        assert not self.check(3, 8, dataset, seed=5)
        assert self.check(2, 8, dataset, seed=5)

    def test_planted_limit_is_exact(self):
        """A limit of L draws allows draw L and refuses draw L + 1, even
        when that draw would complete the database."""
        parities = set()
        for seed in range(6):
            # The number of draws this seed needs for its one far point.
            needed = next(limit for limit in itertools.count(1)
                          if self.succeeds(2, 8, SPARSE_FAR, seed, limit))
            parities.add(needed % 2)
            # n = 2 allows even limits only: needed - 1 when needed is odd.
            limit = needed - needed % 2
            assert self.check(2, 8, SPARSE_FAR, seed, per_point=limit // 2) == (needed % 2 == 0)
            if limit > 2:
                assert not self.check(2, 8, SPARSE_FAR, seed, per_point=limit // 2 - 1)
        assert parities == {0, 1}

    @staticmethod
    def succeeds(n, d, dataset, seed, limit):
        try:
            reference_database(n, d, dataset, seed, limit)
        except ConfigError:
            return False
        return True

    @pytest.mark.parametrize("counter", range(11, 21))
    def test_one_injected_shuffle_word(self, counter):
        # n = 10, d = 64: the query and the points are words 0..10, and the
        # shuffle's steps draw below(10), below(9), ..., below(2) from word 11 on.
        with all_ones_at({counter}):
            self.check(10, 64, DatasetSpec(), seed=3)


class TestPermutation:
    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(0, 300),
        key=st.integers(0, 2**64 - 1),
        forced=st.frozensets(st.integers(0, 320), max_size=12),
    )
    # Word 2 reads 2^64 - 1 at the bound 8, a power of two, which accepts it.
    @example(count=9, key=9, forced=frozenset({0, 2, 4}))
    def test_matches_scalar_shuffle(self, count, key, forced):
        fast, scalar = Stream(key), ScalarStream(key)
        with all_ones_at(forced):
            assert fast.permutation(count) == scalar.shuffled(list(range(count)))
            assert fast.word() == scalar.word()  # the same words were consumed


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

    def test_database_past_the_cap_rejected(self):
        # 2^24 points of d = 64 are exactly 2^30 bits; validation draws no instance.
        validate_config(small_cfg(n=2**24, d=64))
        with pytest.raises(ConfigError) as err:
            validate_config(small_cfg(n=2**24 + 1, d=64))
        assert str(err.value) == ("n=16777217 points of d=64 bits pass the cap of 2^30 bits "
                                  "for the database")

    def test_matrix_cap_is_exact(self):
        # n = 2 makes the row count ceil(c1); 1024 rows of d = 2^20 are 2^30 bits.
        validate_config(small_cfg(n=2, d=2**20, c1=1024.0))
        with pytest.raises(ConfigError, match="c1=1024.5 gives main sketch matrices"):
            validate_config(small_cfg(n=2, d=2**20, c1=1024.5))
        validate_config(small_cfg(algo="general", n=2, d=2**20, k=8, override=(2, 2), c2=2048.0))
        with pytest.raises(ConfigError, match="c2=2049 gives aux sketch matrices"):
            validate_config(small_cfg(algo="general", n=2, d=2**20, k=8, override=(2, 2),
                                      c2=2049.0))

    def test_scale_cap_is_exact(self):
        # alpha = 64^(1/(I - 1/2)) puts 64 = d between alpha^(I-1) and alpha^I.
        at_cap, past_cap = [(64 ** (1 / (count - 0.5))) ** 2 for count in (2**16, 2**16 + 1)]
        assert harness.params_for(small_cfg(gamma=at_cap)).scale_count == 2**16
        validate_config(small_cfg(gamma=at_cap))
        with pytest.raises(ConfigError) as err:
            validate_config(small_cfg(gamma=past_cap))
        assert str(err.value) == (f"gamma={past_cap!r} gives I=65537 scales at d=64, "
                                  "past the cap of 2^16 scales")

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

    def test_pool_restores_the_thread_variables_and_leaves_no_resource_warning(
            self, monkeypatch):
        # The pool leaves the environment, thread variables included, as it was.
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
        before = dict(os.environ)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(small_cfg(trials=3, jobs=2))
            gc.collect()
        assert dict(os.environ) == before
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_pool_restores_the_thread_variables_when_a_worker_raises(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        before = dict(os.environ)
        cfg = small_cfg(algo="general", n=16, k=1, override=(1, 2), trials=2, jobs=2)
        with pytest.raises(ConfigError, match="round budget k=1 ran out"):
            run_experiment(cfg)
        assert dict(os.environ) == before

    def test_pool_spawns_its_workers(self, monkeypatch):
        seen = []

        class SerialPool:
            def __init__(self, max_workers, mp_context):
                seen.append((max_workers, mp_context.get_start_method(), dict(os.environ)))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        before = dict(os.environ)
        par = run_experiment(small_cfg(trials=3, jobs=2))
        assert seen == [(2, "spawn", before)]
        assert csv_lines(par) == csv_lines(run_experiment(small_cfg(trials=3)))
        assert dict(os.environ) == before

    def test_importing_the_package_loads_no_worker_pool(self):
        res = subprocess.run(
            [sys.executable, "-c", "import sys, annsim; "
             "print('concurrent.futures.process' in sys.modules)"],
            capture_output=True, text=True, timeout=300,
        )
        assert res.stdout.strip() == "False", res.stderr

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


class TestRunRepetition:
    def test_traced_call_sites_fire_once_per_repetition(self, monkeypatch):
        """The benchmark's tracer wraps these module bindings of `harness`;
        a repetition that stops calling one of them leaves its span empty."""
        calls = []

        def counting(name):
            original = getattr(harness, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                calls.append((name, result))
                return result

            monkeypatch.setattr(harness, name, wrapper)

        for name in ("exact_sets", "check_assumption1", "check_assumption2", "exact_nn",
                     "run_general", "run_simple"):
            counting(name)
        cfg = small_cfg(algo="general", n=64, d=128, k=8, override=(2, 4), c1=48.0, c2=64.0,
                        repeat=2, seed=2)
        harness.run_trial(cfg, 0)
        names = [name for name, _ in calls]
        for name in ("exact_sets", "check_assumption1", "run_general"):
            assert names.count(name) == cfg.repeat
        assert names.count("exact_nn") == 1 and "run_simple" not in names
        # check_assumption2 runs right after each check_assumption1 that held, and only then.
        after_a1 = [names[i + 1] == "check_assumption2" for i, (name, result) in enumerate(calls)
                    if name == "check_assumption1" and result]
        assert after_a1 and all(after_a1)
        assert names.count("check_assumption2") == len(after_a1)

        calls.clear()
        harness.run_trial(small_cfg(repeat=2), 0)
        assert [name for name, _ in calls].count("run_simple") == 2

    @pytest.mark.parametrize(
        "cfg",
        [
            small_cfg(k=2, seed=1, repeat=3),
            small_cfg(algo="general", k=8, override=(2, 4), seed=3, repeat=3),
            small_cfg(algo="near", k=1, gamma=2.0, lam=12.0, seed=6, repeat=3),
        ],
        ids=["simple", "general", "near"],
    )
    def test_record_folds_its_repetitions(self, cfg):
        params = harness.params_for(cfg)
        db, x = trial_instance(cfg.seed, 0, cfg.n, cfg.d, cfg.dataset)
        reps = [harness.run_repetition(cfg, params, db, x, 0, rep) for rep in range(3)]
        dists = [hamming_dist(x, r.answer) for r in reps if r.answer is not None]
        returned = min(dists) if dists else -1
        _, exact = exact_nn(x, db)
        if cfg.algo == "near":
            success = exact > cfg.lam if returned < 0 else returned <= cfg.gamma * cfg.lam
            assert 0 < len(dists) < 3  # answers and NOs (None) are folded together
        else:
            success = returned >= 0 and returned <= cfg.gamma * exact
        a1 = [r.assumption1 for r in reps]
        a2 = [r.assumption2 for r in reps]
        assert None not in a1 and (None in a2) == (cfg.algo != "general")
        assert harness.run_trial(cfg, 0) == harness.TrialRecord(
            trial=0,
            seed=coin_for_trial(cfg.seed, 0, 0).seed,
            algo=cfg.algo,
            success=success,
            probes_total=sum(r.transcript.probes_total for r in reps),
            rounds_used=max(r.transcript.rounds_used for r in reps),
            assumption1=any(a1),
            assumption2=any(a2) if cfg.algo == "general" else None,
            exact_dist=exact,
            returned_dist=returned,
        )

    @pytest.mark.parametrize("cfg", [
        small_cfg(seed=1, repeat=2),
        small_cfg(algo="general", n=64, d=128, k=8, override=(2, 4), c1=48.0, c2=64.0,
                  repeat=2, seed=2),
    ], ids=["simple", "general-checked"])
    def test_a_trial_leaves_no_sketch_matrix_alive(self, cfg, monkeypatch):
        """A repetition's matrices live on its coin, so they die with it:
        no cache may keep them past the trial."""
        made = []

        def tracking(*args, **kwargs):
            matrix = SketchMatrix(*args, **kwargs)
            made.append(weakref.ref(matrix))
            return matrix

        monkeypatch.setattr(sketch, "SketchMatrix", tracking)
        for trial in range(3):
            made.clear()
            harness.run_trial(cfg, trial)
            assert made and all(ref() is None for ref in made), trial


class TestTranscriptInvariants:
    """Every search, on any small instance, keeps the cost model's rules:
    distinct addresses within a round, at most k rounds, and at most
    `probe_bound` probes. Its record's phases chain into the completion
    window, each new window inside the one before, the answer's scale lies in
    the last one, and an early exit ends the first round with no phase."""

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
                        lam=4.0 if algo == "near" else 0.0, check_assumptions=False)
        validate_config(cfg)
        db, x = trial_instance(seed, 0, n, d, cfg.dataset)
        transcript = harness.run_repetition(cfg, harness.params_for(cfg), db, x, 0, 0).transcript
        assert 1 <= transcript.rounds_used <= k
        for batch in transcript.rounds:
            addresses = [addr for addr, _ in batch]
            assert len(set(addresses)) == len(addresses) > 0
        assert transcript.probes_total == sum(len(b) for b in transcript.rounds)
        assert transcript.probes_total <= probe_bound(cfg)

        phases = transcript.phases
        for phase in phases:
            (l0, u0), (l1, u1) = phase.window, phase.new_window
            assert l0 <= l1 < u1 <= u0
            assert phase.case in ((1, 2, 3) if algo == "general" else (None,))
        for before, after in zip(phases, phases[1:]):
            assert before.new_window == after.window
        if phases and transcript.final_window is not None:
            assert phases[-1].new_window == transcript.final_window
        if transcript.result_scale is not None:
            l, u = transcript.final_window
            assert l < transcript.result_scale <= u
        if transcript.early_exit is not None:
            assert transcript.rounds_used == 1 and transcript.result_scale is None
            assert phases == []
        if algo == "near":
            assert phases == [] and transcript.final_window is None
            assert transcript.early_exit is None and transcript.result_scale is None


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

    def test_csv_is_pinned(self, tmp_path):
        # c1 reaches the target at 32 and stops early; no c2 reaches it, so
        # the sweep runs the whole grid and falls back to its last factor.
        out = tmp_path / "cal.csv"
        report = calibrate(n=32, d=64, seeds=10, seed=3, target=0.9, out=str(out))
        assert out.read_bytes() == (
            b"factor,value,rate\n"
            b"c1,8,0.1\nc1,16,0.3\nc1,32,0.9\n"
            b"c2,16,0.4\nc2,32,0.5\nc2,48,0.7\nc2,64,0.8\nc2,96,0.8\n"
        )
        assert (report.chosen_c1, report.chosen_c2) == (32.0, 96.0)

    def test_each_instance_is_drawn_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return gen_database(*args, **kwargs)

        monkeypatch.setattr(harness, "gen_database", counted)
        calibrate(n=32, d=64, seeds=20, seed=3)
        assert len(calls) == 20

    def test_databases_past_the_cap_rejected(self, monkeypatch):
        # 64 databases of 256 points of d = 2^16 are exactly 2^30 bits.
        class Drawn(Exception):
            pass

        def drawn(*args, **kwargs):
            raise Drawn

        monkeypatch.setattr(harness, "gen_database", drawn)
        with pytest.raises(Drawn):
            calibrate(n=256, d=2**16, seeds=64)
        with pytest.raises(ConfigError) as err:
            calibrate(n=256, d=2**16, seeds=65)
        assert str(err.value) == ("65 databases of n=256 points of d=65536 bits pass the cap of "
                                  "2^30 bits for the databases calibrate holds at once")


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
        assert "  ok  native column kernel matches the numpy kernel" in lines

    def test_numpy_fallback_is_reported_not_failed(self, capsys, monkeypatch):
        monkeypatch.setattr(_native, "_state", (None, "numpy (no C compiler: cc is not on PATH)"))
        assert selftest(verbose=True)
        out = capsys.readouterr().out
        assert "  kernels: numpy (no C compiler: cc is not on PATH)\n" in out
        assert "native" not in out.replace("kernels: numpy", "")

    def test_a_nondeterministic_matrix_derivation_fails(self, capsys, monkeypatch):
        # Each generation differs in its first word, so two derivations of
        # one matrix agree only when the second is the first, cached.
        calls = itertools.count()
        generate = sketch.bernoulli_matrix

        def drifting(keys, dim, rate):
            out = generate(keys, dim, rate)
            out[0, 0] ^= np.uint64(next(calls))
            return out

        monkeypatch.setattr(sketch, "bernoulli_matrix", drifting)
        assert not selftest(verbose=True)
        assert "  FAIL  matrix derivation is deterministic" in capsys.readouterr().out.splitlines()

    def test_a_wrong_native_generator_fails(self, capsys, monkeypatch):
        self.check_a_wrong_kernel_fails("bernoulli_matrix", capsys, monkeypatch)

    def test_a_wrong_native_sketch_kernel_fails(self, capsys, monkeypatch):
        self.check_a_wrong_kernel_fails("sketch_apply_batch", capsys, monkeypatch)

    def test_a_wrong_native_stream_kernel_fails(self, capsys, monkeypatch):
        self.check_a_wrong_kernel_fails("raw64_block", capsys, monkeypatch)

    def test_a_wrong_native_column_kernel_fails(self, capsys, monkeypatch):
        self.check_a_wrong_kernel_fails("column_parities", capsys, monkeypatch)

    # Each kernel's line in the self-test.
    LINES = {"bernoulli_matrix": "native generator matches the numpy kernel",
             "raw64_block": "native stream words match numpy",
             "sketch_apply_batch": "native sketch kernel matches the numpy kernel",
             "column_parities": "native column kernel matches the numpy kernel"}

    @classmethod
    def check_a_wrong_kernel_fails(cls, wrong, capsys, monkeypatch):
        # The wrong kernel's line is the only FAIL: the other kernels' checks
        # do not draw through it, and the simulator's checks run on numpy.
        def all_zero(*args):
            args[-1].fill(0)

        kernels = SimpleNamespace(bernoulli_matrix=_generator_twin, raw64_block=_stream_twin,
                                  sketch_apply_batch=_sketch_twin, column_parities=_column_twin)
        setattr(kernels, wrong, all_zero)
        monkeypatch.setattr(_native, "_state", (kernels, "native"))
        assert not selftest(verbose=True)
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("  FAIL")] == [
            f"  FAIL  {cls.LINES[wrong]}"]
        for kernel, line in cls.LINES.items():
            if kernel != wrong:
                assert f"  ok  {line}" in lines
        assert _native._state == (kernels, "native")


def _generator_twin(keys, rows, count, cut, out):
    """The C generator's answer, in its calling convention."""
    x = keys[:, None] + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(randomness._GOLDEN)
    out[:] = pack_words(randomness._finalize(x, np.empty_like(x)) < np.uint64(cut))


def _stream_twin(first, count, out):
    """The C stream kernel's answer, in its calling convention: first is
    the key plus one step, so the key is first minus one."""
    key = (first - randomness._GOLDEN) % 2**64
    out[:] = randomness.raw64_block_numpy(key, 0, count)


def _sketch_twin(words, n, packed, rows, nwords, scratch, out):
    """The C sketch kernel's answer, in its calling convention."""
    parities = np.bitwise_count(np.bitwise_xor.reduce(words & packed[:, :, None], axis=1)) & 1
    out[:] = pack_words(parities.T)


def _column_twin(packed, rows, nwords, columns, gwords, counts):
    """The C column kernel's answer, in its calling convention: the count,
    per point, of the matrix rows with odd parity against it."""
    bits = unpack_words(packed, len(columns)).astype(np.int64)
    points = unpack_words(columns, 64 * gwords).astype(np.int64)
    counts[:] = ((bits @ points) & 1).sum(axis=0)


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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
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
        (("--algo", "simple", "--k", "1", "--gamma", "inf"), "gamma must be finite"),
    ], ids=["c1-inf", "c1-nan", "c2-inf", "c-nan", "lambda-nan", "gamma-nan", "gamma-inf"])
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

    @OUT_COMMANDS
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_out_write_failure_exit_code(self, argv, capsys):
        # /dev/full accepts the open and fails the write with ENOSPC.
        assert main([*argv, "--out", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "config error: cannot write '/dev/full': No space left on device"]

    @OUT_COMMANDS
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_out_write_failure_stops_before_any_trial(self, argv, capsys, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        monkeypatch.setattr(harness, "gen_database", no_trial)
        assert main([*argv, "--out", "/dev/full"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: cannot write '/dev/full': No space left on device"]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two cpus")
    def test_jobs_two_from_the_command_line(self, tmp_path):
        # annsim/__main__.py has no `if __name__` guard, and the spawned
        # workers must not run it again.
        written = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            res = self.run_cli(
                "run", "--algo", "simple", "--n", "32", "--d", "64", "--gamma", "4",
                "--k", "2", "--c1", "16", "--trials", "4", "--seed", "9", "--jobs", jobs,
                "--out", str(out),
            )
            assert res.returncode == 0, res.stderr
            written.append(out.read_bytes())
        assert written[0] == written[1]

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

    def test_database_past_the_cap_exit_code(self, capsys, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "gen_database", no_trial)
        argv = ["run", "--algo", "simple", "--n", "1000000000000", "--d", "64", "--gamma", "4",
                "--k", "2", "--trials", "1", "--seed", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: n=1000000000000 points of d=64 bits pass the cap of 2^30 bits "
            "for the database"
        ]

    @pytest.mark.parametrize("k", ["10000000000", str(10**30)])
    def test_huge_round_budget_runs(self, k, capsys):
        argv = ["run", "--algo", "simple", "--n", "16", "--d", "64", "--gamma", "4", "--k", k,
                "--trials", "1", "--seed", "0"]
        assert main(argv) == 0
        assert "mean rounds" in capsys.readouterr().out

    # Every value flag of `annsim run`, and values of each kind a user could
    # type: in range, negative, past float range, non-finite, or not a number.
    RUN_FLAGS = ["--algo", "--n", "--d", "--gamma", "--k", "--c1", "--c2", "--c", "--lambda",
                 "--dataset", "--plant-dist", "--plant-gap", "--override-s", "--override-tau",
                 "--repeat", "--jobs", "--trials", "--seed", "--out"]
    RUN_VALUES = st.one_of(
        st.integers(-3, 80).map(str),
        st.integers(-(2**80), 2**80).map(str),
        st.sampled_from(["9" * 400, "-" + "9" * 400, "1e400", "nan", "inf", "-inf", "1e-320"]),
        st.floats().map(repr),
        st.sampled_from(["simple", "general", "near", "uniform", "planted", "", "-", "0x10",
                         "four", "/", "."]),
        st.text(max_size=6),
    )
    # A valid command line per algorithm, for the drawn flags to change.
    RUN_BASES = {
        "simple": {"--k": "2"},
        "general": {"--k": "8", "--override-s": "2", "--override-tau": "4"},
        "near": {"--k": "1", "--lambda": "4"},
    }

    # The base gamma: 4, or one just above 1, whose scale count may pass the cap.
    RUN_GAMMAS = st.one_of(st.just("4"), st.integers(1, 12).map(lambda j: repr(1 + 10**-j)))

    @settings(max_examples=200, deadline=None)
    @given(algo=st.sampled_from(sorted(RUN_BASES)),
           gamma=RUN_GAMMAS,
           changes=st.dictionaries(st.sampled_from(RUN_FLAGS), RUN_VALUES, max_size=4),
           dropped=st.sets(st.sampled_from(["--algo", "--n", "--k", "--seed"]), max_size=1),
           no_checks=st.booleans())
    @example(algo="general", gamma="4", changes={"--k": "9" * 400}, dropped=set(),
             no_checks=False)
    @example(algo="general", gamma="4", changes={"--override-s": "9" * 400}, dropped=set(),
             no_checks=True)
    @example(algo="simple", gamma=repr(1 + 10**-5), changes={}, dropped=set(), no_checks=True)
    @example(algo="general", gamma=repr(1 + 10**-12), changes={}, dropped=set(), no_checks=False)
    def test_fuzzed_run_arguments_exit_cleanly(self, algo, gamma, changes, dropped, no_checks):
        """Validation passed, a usage error or a one-line config error: no
        traceback. A valid configuration runs no trial."""
        def validate_only(cfg):
            validate_config(cfg)
            return [harness.TrialRecord(trial=0, seed=0, algo=cfg.algo, success=True,
                                        probes_total=1, rounds_used=1, assumption1=None,
                                        assumption2=None, exact_dist=0, returned_dist=0)]

        flags = {"--algo": algo, "--n": "16", "--d": "64", "--gamma": gamma, "--trials": "1",
                 "--seed": "0", **self.RUN_BASES[algo], **changes}
        argv = ["run", *(f"{flag}={value}" for flag, value in flags.items() if flag not in dropped)]
        if no_checks:
            argv.append("--no-assumption-checks")
        stderr = io.StringIO()
        with (mock.patch.object(cli, "run_experiment", validate_only),
              contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr)):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 1, 2), argv
        if stderr.getvalue().startswith("config error"):
            assert len(stderr.getvalue().splitlines()) == 1, stderr.getvalue()

    def test_calibrate_grid_past_the_cap_exit_code(self, capsys, monkeypatch):
        # The default c2 of 64 at s = 1e-12 passes the cap too, but the sweep
        # goes up to the grid's largest c2, 96.
        def no_matrix(*args, **kwargs):
            raise AssertionError("a matrix was allocated")

        monkeypatch.setattr(harness, "gen_database", no_matrix)
        monkeypatch.setattr(randomness.PublicCoin, "row_keys", no_matrix)  # every matrix's keys
        argv = ["calibrate", "--n", "8", "--d", "64", "--seeds", "1", "--s", "1e-12"]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: c2=96 gives aux sketch matrices of 2.88e+14 rows x d=64, "
            "past the cap of 2^30 bits per matrix"
        ]

    @pytest.mark.parametrize("s, tau, message", [
        ("0", "4", "s must be positive and finite"),
        ("2", "1", "tau must be >= 2"),
    ], ids=["s-0", "tau-1"])
    def test_override_out_of_range_exit_code(self, s, tau, message, capsys, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "gen_database", no_trial)
        argv = ["run", "--algo", "general", "--n", "16", "--d", "64", "--gamma", "4", "--k", "8",
                "--override-s", s, "--override-tau", tau, "--trials", "1", "--seed", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]

    def test_scales_past_the_cap_exit_code(self, capsys, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "gen_database", no_trial)
        argv = ["run", "--algo", "simple", "--n", "16", "--d", "64", "--gamma", "1.00001",
                "--k", "1", "--trials", "1", "--seed", "0", "--no-assumption-checks"]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: gamma=1.00001 gives I=831781 scales at d=64, past the cap of 2^16 scales"
        ]

    def test_gamma_whose_root_rounds_to_one_exit_code(self, capsys, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "gen_database", no_trial)
        argv = ["run", "--algo", "simple", "--n", "16", "--d", "64", "--gamma",
                "1.0000000000000002", "--k", "1", "--trials", "1", "--seed", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: gamma=1.0000000000000002 is too close to 1: sqrt(gamma) rounds to 1.0, "
            "so no scale grid reaches d"
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
