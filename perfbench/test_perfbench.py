"""Tests of the benchmark's own arithmetic and tracing.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run import percentile, probe_mismatches, record_problems  # noqa: E402
from tracing import (  # noqa: E402
    PARTITION,
    TARGETS,
    Span,
    Tracer,
    layer_metrics,
    self_times,
    union_length,
    unpatched_sites,
)


def spans_of(*rows) -> list[Span]:
    return [Span(name, parent, 0, start, end) for name, parent, start, end in rows]


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 4 + 2
    assert union_length([(6, 7), (1, 2)], 0, 10) == 2
    assert union_length([], 0, 10) == 0
    assert union_length([(11, 12)], 0, 10) == 0


def test_self_time_is_duration_minus_union_of_children():
    spans = spans_of(
        ("trial", -1, 0.0, 10.0),
        ("a", 0, 1.0, 3.0),
        ("b", 0, 2.0, 5.0),  # overlaps a: the union counts [2, 3] once
        ("c", 2, 2.5, 4.5),  # grandchild: only b loses it
        ("d", 0, 8.0, 9.0),
    )
    assert self_times(spans) == pytest.approx([10 - 4 - 1, 2, 1, 2, 1])


def test_self_times_partition_the_root():
    spans = spans_of(
        ("trial", -1, 0.0, 7.0),
        ("x", 0, 1.0, 4.0),
        ("y", 1, 1.5, 2.0),
        ("z", 0, 5.0, 6.5),
    )
    assert sum(self_times(spans)) == pytest.approx(7.0)


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(100)]
    p90 = percentile(samples, 90)
    assert p90 is not None
    assert sum(s > p90 for s in samples) == 10
    assert percentile(samples[:99], 90) is None
    assert percentile([1.0] * 200, 90) is None  # ties: nothing lies beyond
    assert percentile(samples[:19], 50) is None
    assert percentile(samples[:21], 50) == 10.0


def test_hit_ratio_counts_calls_without_a_miss_child():
    spans = spans_of(
        ("trial", -1, 0, 100),
        ("sketch.derive_matrix", 0, 1, 5),  # miss
        ("randomness.bernoulli_matrix", 1, 2, 4),
        ("sketch.derive_matrix", 0, 6, 7),  # hit
        ("oracle.exact_sets", 0, 10, 30),
        ("sketch.derive_matrix", 4, 11, 20),  # miss under the oracle
        ("randomness.bernoulli_matrix", 5, 12, 19),
        ("sketch.derive_matrix", 4, 21, 22),  # hit under the oracle
        ("tables.db_sketch_bits", 0, 40, 50),  # miss
        ("sketch.derive_matrix", 8, 41, 42),
        ("sketch.sketch_apply_batch", 8, 43, 49),
        ("tables.db_sketch_bits", 0, 51, 52),  # hit
        ("tables.db_sketch_bits", 0, 53, 54),  # hit
    )
    m = layer_metrics(spans, trials=1)
    assert m["sketch.derive_matrix.calls"] == (5, "count")
    assert m["sketch.derive_matrix.hit_ratio"] == (pytest.approx(3 / 5), "ratio")
    assert m["sketch.derive_matrix.oracle_misses"] == (1, "count")
    assert m["tables.db_sketch_bits.hit_ratio"] == (pytest.approx(2 / 3), "ratio")
    assert m["oracle.exact_sets.self_ms"][0] == pytest.approx((20 - 9 - 1) * 1e3)


def test_unpatched_sites_finds_bindings_and_dispatch_tables():
    def fn():
        pass

    mod = types.ModuleType("annsim.fake")
    mod.direct = fn
    mod.table = {"main": fn}
    mod.other = [len]
    assert sorted(unpatched_sites([mod], [fn])) == ["annsim.fake.direct", "annsim.fake.table[...]"]


def tiny_config(**kw):
    from annsim.harness import DatasetSpec, ExperimentConfig

    return ExperimentConfig(
        algo=kw.pop("algo", "simple"), n=16, d=64, gamma=4.0, k=kw.pop("k", 2), trials=1,
        seed=5, dataset=DatasetSpec("planted", plant_dist=2, plant_gap=20), **kw,
    )


def test_tracer_rebinds_every_site_and_restores_them():
    import annsim.alg_general as alg_general
    import annsim.sketch as sketch
    import annsim.tables as tables

    original = sketch.derive_matrix
    with Tracer():
        assert tables.derive_matrix is not original
        assert tables.derive_matrix is alg_general.derive_matrix is sketch.derive_matrix
        assert tables.derive_matrix.__wrapped__ is original
    assert tables.derive_matrix is original
    assert alg_general.derive_matrix is original


def test_tracer_refuses_a_missing_target(monkeypatch):
    import annsim.sketch as sketch
    import tracing

    original = sketch.derive_matrix
    missing = (("annsim.sketch", "no_such_function", "sketch.no_such_function", None),)
    monkeypatch.setattr(tracing, "TARGETS", TARGETS + missing)
    with pytest.raises(RuntimeError, match="no_such_function"):
        Tracer().install()
    assert sketch.derive_matrix is original  # what was rebound before the raise is restored


def test_a_raising_trial_is_a_failure_not_a_crash(monkeypatch):
    from annsim.harness import run_trial
    from annsim.probe_engine import ProbeSession

    cfg = tiny_config()
    honest = ProbeSession.probe_round

    def flaky(session, addresses):
        if tracer.trial == 1:
            raise RuntimeError("round budget")
        return honest(session, addresses)

    monkeypatch.setattr(ProbeSession, "probe_round", flaky)
    records = []
    with Tracer() as tracer:
        for t in range(3):
            tracer.trial = t
            try:
                records.append(tracer.span("trial", run_trial, cfg, t))
            except RuntimeError:
                records.append(None)
    assert records[1] is None and records[0] and records[2]
    assert any(s.work is None and s.trial == 1 for s in tracer.spans
               if s.name == "probe_engine.probe_round")
    assert probe_mismatches(tracer.spans, records) == []
    assert layer_metrics(tracer.spans, trials=3)["probe_engine.probe_round.probes"][0] > 0


@pytest.mark.parametrize("algo, override, trial", [("simple", None, 3), ("general", (2, 4), 4)])
def test_traced_trial_matches_untraced_and_counts_probes(algo, override, trial):
    from annsim.harness import run_trial

    cfg = tiny_config(algo=algo, k=8 if algo == "general" else 2, override=override)
    # Traced first: the untraced run would fill the matrix cache for this trial.
    with Tracer() as tracer:
        traced = tracer.span("trial", run_trial, cfg, trial)
    assert traced == run_trial(cfg, trial)
    names = {s.name for s in tracer.spans}
    assert {"trial", "harness.gen_database", "randomness.bernoulli_matrix",
            "tables.cell.main", "oracle.exact_sets", f"search.run_{algo}"} <= names
    probes = sum(s.work["probes"] for s in tracer.spans if s.name == "probe_engine.probe_round")
    assert probes == traced.probes_total
    m = layer_metrics(tracer.spans, trials=1)
    assert sum(m[k][0] for k in PARTITION) == pytest.approx(m["trial.ms"][0])


def test_record_problems_flags_a_wrong_planted_distance():
    from annsim.harness import run_trial

    cfg = tiny_config()
    rec = run_trial(cfg, 0)
    assert record_problems(cfg, rec) == []
    assert record_problems(cfg, dataclasses.replace(rec, exact_dist=9))
