"""Fewer rounds cost more probes: the adaptivity tradeoff, measured.

With a k-round budget the simple search picks the smallest branching
factor tau whose k-round reach covers all ceil(log_alpha d) distance
scales, so one round must sweep every scale at once while three rounds
walk a 4-way search tree. Mean total probes drop strictly as k grows.

Raise TRIALS to 500 for the long version of this experiment (several
minutes per round budget at d = 2^16; the per-trial cost is dominated by
deriving fresh sketch matrices for each trial's coin).
"""

from annsim import (
    ExperimentConfig,
    Params,
    branching_factor,
    probe_bound_simple,
    run_experiment,
    summarize,
)

TRIALS = 20
D, N = 2**16, 256

print(f"d = 2^16, n = {N}, gamma = 4, uniform instances, {TRIALS} trials per k\n")
print(f"{'k':>3} {'tau':>5} {'probe bound':>12} {'mean probes':>12} {'mean rounds':>12} {'success':>9}")
for k in (1, 2, 3):
    cfg = ExperimentConfig(
        algo="simple", n=N, d=D, gamma=4.0, k=k, trials=TRIALS, seed=777,
        c1=8.0, c2=8.0, check_assumptions=False,
    )
    stats = summarize(run_experiment(cfg))
    params = Params(n=N, d=D, gamma=4.0, k=k)
    tau = branching_factor(k, params.scale_count)
    bound = probe_bound_simple(params)
    print(
        f"{k:>3} {tau:>5} {bound:>12} {stats['mean_probes']:>12.2f} "
        f"{stats['mean_rounds']:>12.2f} {stats['success_rate']:>9.3f}"
    )
