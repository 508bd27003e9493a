"""The benchmark's workloads: a seed in, the ExperimentConfigs each trial runs out.

Trial t of a workload runs `run_trial(configs[t % len(configs)], t)`.
run_trial draws trial t's database, query and coins from (cfg.seed, t)
alone, so the other config fields can vary by trial without changing the
data. All workloads use gamma = 4 and the harness defaults unless stated.
"""

from __future__ import annotations

from annsim.harness import DatasetSpec, ExperimentConfig

# The pinned prefix: the CSV digest and the sim.* values cover trials
# 0..PINNED_TRIALS-1, which every run completes whatever the machine speed.
PINNED_TRIALS = 100


def configs(name: str, seed: int) -> list[ExperimentConfig]:
    """Configs for one workload at one seed; trial t uses configs[t % len]."""
    common = dict(gamma=4.0, trials=PINNED_TRIALS, seed=seed)
    if name == "simple_d16k_kmix":
        return [
            ExperimentConfig(algo="simple", n=256, d=2**14, k=k, c1=8.0, c2=8.0,
                             check_assumptions=False, **common)
            for k in (1, 2, 3)
        ]
    if name == "general_d4096_checked":
        return [
            ExperimentConfig(algo="general", n=128, d=4096, k=8, override=(2, 4),
                             dataset=ds, check_assumptions=True, **common)
            for ds in (DatasetSpec(), DatasetSpec("planted", plant_dist=6, plant_gap=40))
        ]
    raise KeyError(name)


def expected_spans(name: str) -> tuple[set[str], set[str]]:
    """(spans that must fire, spans that must not) on one workload.

    oracle.exact_nn is not among the checks: run_trial scores every trial
    with it, so it fires everywhere.
    """
    cfg = configs(name, 0)[0]
    fire = {
        "trial", "harness.gen_database", "randomness.raw64_block",
        "randomness.bernoulli_matrix", "sketch.derive_matrix", "sketch.sketch_apply",
        "sketch.sketch_apply_batch", "tables.db_sketch_bits", "tables.cell.main",
        "tables.cell.member", "probe_engine.probe_round", "oracle.exact_nn",
        f"search.run_{cfg.algo}",
    }
    if cfg.algo == "general":
        fire.add("tables.cell.aux")
    if cfg.check_assumptions:
        fire |= {"oracle.exact_sets", "oracle.check_assumption1"}
        if cfg.algo == "general":
            fire.add("oracle.check_assumption2")
    silent = {
        "oracle.exact_sets", "oracle.check_assumption1", "oracle.check_assumption2",
        "tables.cell.aux", "search.run_simple", "search.run_general",
    } - fire
    return fire, silent
