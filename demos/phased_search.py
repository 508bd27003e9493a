"""Walkthrough of the phased search with auxiliary tables.

Each phase compresses the candidate-set-size information of several grid
scales into grouped auxiliary probes (one probe per group of s scales),
then spends at most one more probe to decide how the scale window moves:

  CASE 1  the first grid slot already keeps a large candidate fraction:
          pull the upper end down next to it, no second round;
  CASE 2  the cell just below the located slot is empty: raise the lower
          end (and trim the upper end when the slot is interior);
  CASE 3  that cell is occupied: its scale becomes the new upper end and
          the candidate set provably shrinks by an n^(-1/s) factor.
"""

from annsim import (
    DatasetSpec,
    Params,
    ProbeSession,
    coin_for_trial,
    exact_nn,
    hamming_dist,
    run_general,
)
from annsim.harness import trial_instance

n, d, k = 128, 4096, 8
# desk-scale s=2, tau=4 in place of the asymptotic rules' values
params = Params(n=n, d=d, gamma=4.0, k=k, c1=48.0, c2=64.0, s=2.0, tau=4)
print(f"n={n}, d={d}, k={k}, s={params.s_int}, tau={params.tau}, scales 0..{params.scale_count}\n")

for label, dataset, seed in [
    ("uniform cloud", DatasetSpec(), 3),
    ("planted neighbor at distance 6", DatasetSpec("planted", plant_dist=6, plant_gap=40), 5),
]:
    db, x = trial_instance(seed, 0, n, d, dataset)
    coin = coin_for_trial(seed, 0, 0)
    session = ProbeSession(db, coin, params)
    result = run_general(x, session)
    t = session.close()
    _, best = exact_nn(x, db)

    print(f"{label}:")
    for i, phase in enumerate(t.phases, start=1):
        print(
            f"  phase {i}: window {phase.window} grid {phase.grid}"
            f" -> slot r*={phase.r_star}, CASE {phase.case},"
            f" new window {phase.new_window}"
        )
    print(f"  completion window {t.final_window}, hit at scale {t.result_scale}")
    print(
        f"  returned distance {hamming_dist(x, result)} vs true {best}"
        f" (ratio <= {params.gamma:g} required)"
    )
    print(f"  probes {t.probes_total}, rounds {t.rounds_used}\n")
