"""Near-neighbor search with a single cell probe.

Relaxing "nearest" to "within distance lambda" collapses the whole
multi-round search to one probe: read the main cell at the scale just
covering lambda and answer with its content, or NO when it is empty.
"""

from annsim import (
    DatasetSpec,
    Params,
    ProbeSession,
    coin_for_trial,
    exact_nn,
    gen_database,
    hamming_dist,
    near_scale,
    run_near,
)

n, d, lam, gamma = 64, 128, 5.0, 4.0
params = Params(n=n, d=d, gamma=gamma, k=1, c1=48.0)
print(f"n={n}, d={d}, lambda={lam:g}, gamma={gamma:g}")
print(f"probed scale: {near_scale(lam, params)} (radius {2.0**near_scale(lam, params):g})\n")

for group, (label, dataset) in enumerate([
    ("planted neighbor at distance 5", DatasetSpec("planted", plant_dist=5, plant_gap=30)),
    ("uniform cloud near d/2", DatasetSpec()),
]):
    print(label)
    for trial in range(4):
        db, x = gen_database(n, d, dataset, seed=1000 * group + trial)
        coin = coin_for_trial(123, trial, 0)
        session = ProbeSession(db, coin, params)
        answer = run_near(x, lam, session)
        t = session.close()
        _, true_dist = exact_nn(x, db)
        shown = "NO" if answer is None else f"point at distance {hamming_dist(x, answer)}"
        print(
            f"  trial {trial}: true NN distance {true_dist:>3}, answer {shown:<24}"
            f" probes={t.probes_total} rounds={t.rounds_used}"
        )
    print()

print("transcript of the last query:")
print("  " + t.serialize().replace("\n", "\n  "))
