"""Dataset generation, experiment orchestration, and statistics.

An experiment is a sequence of independent trials. Each trial draws its own
database and query from a seeded stream, derives one public coin per
repetition, runs the chosen algorithm through a fresh probe session, and
validates the outcome against the brute-force oracle. Records are emitted
in trial order and serialize to a fixed CSV schema, so identical
configurations produce byte-identical output.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .alg_general import params_general, probe_bound_general, run_general
from .alg_simple import probe_bound_simple, run_simple
from .core import (CALIBRATED_C1, CALIBRATED_C2, Database, Params, Point, first_occurrences,
                   hamming_dist, pack_words)
from .errors import AssumptionViolated, ConfigError, RoundBudgetExceeded
from .near_search import run_near
from .oracle import check_assumption1, check_assumption2, exact_nn, exact_sets
from .probe_engine import ProbeSession
from .randomness import TAG_DATA, PublicCoin, Stream, coin_for_trial

CSV_HEADER = (
    "trial,seed,algo,success,probes_total,rounds_used,"
    "assumption1,assumption2,exact_dist,returned_dist"
)


@dataclass(frozen=True)
class DatasetSpec:
    """uniform: n distinct uniform points. planted: one point at exact
    distance plant_dist from the query, all others past plant_gap."""

    kind: str = "uniform"
    plant_dist: int = 0
    plant_gap: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "planted"):
            raise ConfigError(f"unknown dataset kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    algo: str
    n: int
    d: int
    gamma: float
    k: int
    trials: int
    seed: int
    c1: float = CALIBRATED_C1
    c2: float = CALIBRATED_C2
    c: float = 4.0
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    repeat: int = 1
    override: tuple[int, int] | None = None
    lam: float = 0.0
    out: str | None = None
    check_assumptions: bool = True
    jobs: int = 1


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    algo: str
    success: bool
    probes_total: int
    rounds_used: int
    assumption1: bool | None
    assumption2: bool | None
    exact_dist: int
    returned_dist: int


# Bits one sketch matrix (rows x d) or the database (n x d) may hold. The C
# generator writes a matrix as packed words (2^30 bits are 128 MiB), the
# numpy generator first as one byte per bit (1 GiB), and the oracle unpacks
# both to float32 (4 GiB), so a larger one would exhaust memory partway
# through a run. The largest shipped configurations hold about 2^24.6 bits
# (d = 2^16 with 384 main rows) and 2^24 (256 points of d = 2^16).
_MAX_MATRIX_BITS = 1 << 30

# Scales a run may walk: I = ceil(log_alpha d) grows without bound as gamma
# nears 1. Each scale costs about 0.2 ms per repetition (n=16, d=64: gamma
# 1.001 gives 8,322 scales and takes 1.8 s, gamma 1.0003 gives 27,731 and
# 6.2 s), so a trial past 2^16 scales runs for many seconds.
_MAX_SCALES = 1 << 16


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.algo not in ("simple", "general", "near"):
        raise ConfigError(f"unknown algorithm {cfg.algo!r}")
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    if cfg.repeat < 1:
        raise ConfigError("repeat factor must be >= 1")
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError("seed must lie in [0, 2^64)")
    cpus = os.cpu_count() or 1
    if not 1 <= cfg.jobs <= cpus:
        raise ConfigError(f"jobs must lie in [1, {cpus}] (the cpu count)")
    if cfg.n < 1 or cfg.d < 2:
        raise ConfigError("need n >= 1 and d >= 2")
    if cfg.n * cfg.d > _MAX_MATRIX_BITS:
        raise ConfigError(f"n={cfg.n} points of d={cfg.d} bits pass the cap of 2^30 bits "
                          "for the database")
    if cfg.d < 64 and cfg.n > 2**cfg.d:
        raise ConfigError("n distinct points do not fit in the cube")
    if cfg.algo == "near" and not cfg.lam >= 1:  # NaN fails this too
        raise ConfigError("near search needs a distance budget --lambda >= 1")
    if cfg.out and not os.path.isdir(os.path.dirname(cfg.out) or "."):
        raise ConfigError(f"no directory to write {cfg.out!r} into")
    if cfg.out and os.path.isdir(cfg.out):
        raise ConfigError(f"{cfg.out!r} is a directory, not a file to write")
    if cfg.dataset.kind == "planted":
        if not 0 <= cfg.dataset.plant_dist <= cfg.d:
            raise ConfigError("plant distance must lie in [0, d]")
        if cfg.dataset.plant_gap >= cfg.d:
            raise ConfigError("plant gap must be < d to leave room for far points")
        if cfg.dataset.plant_gap <= cfg.gamma * cfg.dataset.plant_dist:
            raise ConfigError("plant gap must exceed gamma * plant distance")
    try:
        params = params_for(cfg)
    except (ValueError, OverflowError) as exc:  # an int past float range for k or s
        raise ConfigError(str(exc)) from exc
    if params.scale_count > _MAX_SCALES:
        raise ConfigError(f"gamma={cfg.gamma!r} gives I={params.scale_count} scales at d={cfg.d}, "
                          "past the cap of 2^16 scales")
    factors = [("c1", cfg.c1, "main", cfg.c1)]
    if params.s is not None:
        factors.append(("c2", cfg.c2, "aux", cfg.c2 / params.s))
    _check_matrix_sizes(cfg.n, cfg.d, factors)


def _check_matrix_sizes(n: int, d: int, factors: list[tuple[str, float, str, float]]) -> None:
    """Reject (name, value, role, rows per log2 n) factors whose matrices pass the cap."""
    for name, value, role, per_log2n in factors:
        # Params.r_main and r_aux round this up; a row count past
        # _MAX_MATRIX_BITS // d is exactly one whose matrix is past the cap.
        rows = per_log2n * math.log2(max(n, 2))
        if rows > _MAX_MATRIX_BITS // d:
            raise ConfigError(f"{name}={value:g} gives {role} sketch matrices of {rows:.4g} rows "
                              f"x d={d}, past the cap of 2^30 bits per matrix")


def params_for(cfg: ExperimentConfig) -> Params:
    """The run's parameter record. For the general search it carries s and
    tau: the override's, else those of `params_general`."""
    params = Params(n=cfg.n, d=cfg.d, gamma=cfg.gamma, k=cfg.k, c1=cfg.c1, c2=cfg.c2, c=cfg.c)
    if cfg.algo != "general":
        return params
    if cfg.override is None:
        return params_general(params)
    s, tau = cfg.override
    return replace(params, s=float(s), tau=tau)


# Planted datasets: draws allowed per database point before the gap counts as too large.
_DRAWS_PER_POINT = 10000


def gen_database(n: int, d: int, dataset: DatasetSpec, seed: int) -> tuple[Database, Point]:
    """Draw one (database, query) instance from the seeded stream.

    A point is ceil(d/64) consecutive words of the stream, its top word
    masked to d bits. Candidates are drawn as one (count, nwords) block of
    exactly as many points as are still needed; duplicates (the first
    occurrence wins) and planted-gap violations are rejected in draw order,
    and the next block replaces them. The stream is consumed as one point at
    a time would consume it. The points are then put in the order of one
    `Stream.permutation` and gathered once.
    """
    if d < 64 and n > 2**d:
        raise ConfigError("n distinct points do not fit in the cube")
    stream = Stream(PublicCoin(seed & ((1 << 64) - 1)).stream_key(TAG_DATA))
    nwords = (d + 63) // 64

    def draw(count: int) -> np.ndarray:
        block = stream.words(count * nwords).reshape(count, nwords)
        if d % 64:
            block[:, -1] &= np.uint64((1 << (d % 64)) - 1)
        return block

    query = draw(1)[0]
    x = Point(d, int.from_bytes(query.tobytes(), "little"))
    rows = np.empty((0, nwords), dtype=np.uint64)
    gap, limit = -1, None  # reject points within `gap` of x; give up after `limit` draws
    if dataset.kind == "planted":
        flips = stream.distinct_indices(dataset.plant_dist, d)
        rows = Point(d, x.value ^ sum(1 << j for j in flips)).packed()[None, :]
        gap, limit = dataset.plant_gap, _DRAWS_PER_POINT * n
    elif d <= 24 and n > 2 ** (d - 1):
        # Dense regime: shuffle the whole cube instead of rejection sampling.
        rows = np.array(stream.permutation(2**d)[:n], dtype=np.uint64)[:, None]
    attempts = 0
    while len(rows) < n:
        block = draw(n - len(rows))
        attempts += len(block)
        if limit is not None and attempts > limit:
            raise ConfigError("could not sample enough far points; gap too large")
        both = np.concatenate((rows, block)) if len(rows) else block
        keep = first_occurrences(both)
        if gap >= 0:
            keep[len(rows) :] &= np.bitwise_count(block ^ query).sum(axis=1) > gap
        rows = both if keep.all() else both[keep]
    return Database(rows[stream.permutation(n)], d), x


def trial_instance(seed: int, trial: int, n: int, d: int, dataset: DatasetSpec) -> tuple[Database, Point]:
    """The (database, query) of trial `trial` of a run with master seed `seed`."""
    return gen_database(n, d, dataset, seed=PublicCoin(seed).stream_key(TAG_DATA, trial))


def probe_bound(cfg: ExperimentConfig) -> int:
    """Per-repetition worst-case probe count for the configured algorithm."""
    params = params_for(cfg)
    if cfg.algo == "simple":
        return probe_bound_simple(params)
    if cfg.algo == "near":
        return 1
    return probe_bound_general(params)


def _near_success(answer_dist: int, exact_dist: int, gamma: float, lam: float) -> bool:
    if answer_dist < 0:  # NO answer
        return exact_dist > lam
    return answer_dist <= gamma * lam


def run_trial(cfg: ExperimentConfig, trial: int) -> TrialRecord:
    """Run one trial: generate, search (per repetition), validate."""
    params = params_for(cfg)
    db, x = trial_instance(cfg.seed, trial, cfg.n, cfg.d, cfg.dataset)

    probes_sum = 0
    rounds_max = 0
    candidates: list[Point | None] = []
    a1_any: bool | None = None
    a2_any: bool | None = None
    for rep in range(cfg.repeat):
        coin = coin_for_trial(cfg.seed, trial, rep)
        session = ProbeSession(db, coin, params)
        try:
            if cfg.algo == "simple":
                candidate = run_simple(x, session)
            elif cfg.algo == "general":
                candidate = run_general(x, session)
            else:
                candidate = run_near(x, cfg.lam, session)
        except AssumptionViolated:
            candidate = None
        except RoundBudgetExceeded as exc:
            # Only the general search can run out: each of its phases can take
            # two rounds, and an override (s, tau) is not sized to k.
            raise ConfigError(
                f"round budget k={cfg.k} ran out in trial {trial}: "
                "the search's phases need more rounds; raise --k"
            ) from exc
        transcript = session.close()
        probes_sum += transcript.probes_total
        rounds_max = max(rounds_max, transcript.rounds_used)
        candidates.append(candidate)

        if cfg.check_assumptions:
            sets = exact_sets(x, db, coin, params)
            a1 = check_assumption1(sets)
            a1_any = a1 if a1_any is None else (a1_any or a1)
            if cfg.algo == "general":
                joint = a1 and check_assumption2(sets)
                a2_any = joint if a2_any is None else (a2_any or joint)

    best_candidate = None
    best_dist = -1
    for cand in candidates:
        if cand is None:
            continue
        d = hamming_dist(x, cand)
        if best_candidate is None or d < best_dist:
            best_candidate, best_dist = cand, d

    _, exact_dist = exact_nn(x, db)
    if cfg.algo == "near":
        success = _near_success(best_dist, exact_dist, cfg.gamma, cfg.lam)
    else:
        success = best_candidate is not None and best_dist <= cfg.gamma * exact_dist

    return TrialRecord(
        trial=trial,
        seed=coin_for_trial(cfg.seed, trial, 0).seed,
        algo=cfg.algo,
        success=success,
        probes_total=probes_sum,
        rounds_used=rounds_max,
        assumption1=a1_any,
        assumption2=a2_any,
        exact_dist=exact_dist,
        returned_dist=best_dist,
    )


def run_experiment(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Run all trials; records come back in trial order."""
    validate_config(cfg)
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            records = list(pool.map(run_trial, [cfg] * cfg.trials, range(cfg.trials)))
    else:
        records = [run_trial(cfg, t) for t in range(cfg.trials)]
    for rec in records:
        _check_record_bounds(cfg, rec)
    if cfg.out:
        write_csv(records, cfg.out)
    return records


def _check_record_bounds(cfg: ExperimentConfig, rec: TrialRecord) -> None:
    bound = probe_bound(cfg) * cfg.repeat
    if rec.probes_total > bound:
        raise AssertionError(
            f"trial {rec.trial} used {rec.probes_total} probes, bound is {bound}"
        )
    if rec.rounds_used > cfg.k:
        raise AssertionError(
            f"trial {rec.trial} used {rec.rounds_used} rounds, budget is {cfg.k}"
        )


def _bool_cell(v: bool | None) -> str:
    return "" if v is None else str(int(v))


def csv_lines(records: list[TrialRecord]) -> list[str]:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.trial},{r.seed},{r.algo},{int(r.success)},{r.probes_total},"
            f"{r.rounds_used},{_bool_cell(r.assumption1)},{_bool_cell(r.assumption2)},"
            f"{r.exact_dist},{r.returned_dist}"
        )
    return lines


def write_csv(records: list[TrialRecord], path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(csv_lines(records)) + "\n")


def summarize(records: list[TrialRecord]) -> dict:
    n = len(records)
    probes = [r.probes_total for r in records]
    checked = [r for r in records if r.assumption1 is not None]
    return {
        "trials": n,
        "success_rate": sum(r.success for r in records) / n,
        "mean_probes": sum(probes) / n,
        "max_probes": max(probes),
        "mean_rounds": sum(r.rounds_used for r in records) / n,
        "assumption1_rate": (
            sum(r.assumption1 for r in checked) / len(checked) if checked else None
        ),
        "joint_assumption_rate": (
            sum(bool(r.assumption1 and r.assumption2) for r in checked) / len(checked)
            if checked and records[0].algo == "general"
            else None
        ),
    }


@dataclass
class CalibrationReport:
    c1_rates: list[tuple[float, float]]
    c2_rates: list[tuple[float, float]]
    chosen_c1: float
    chosen_c2: float
    seeds: int
    target: float


def calibrate(
    n: int = 256,
    d: int = 128,
    gamma: float = 4.0,
    seeds: int = 200,
    seed: int = 7,
    s: float = 2.0,
    target: float = 0.8,
    c1_grid: tuple[float, ...] = (8.0, 16.0, 32.0, 48.0, 64.0, 96.0),
    c2_grid: tuple[float, ...] = (16.0, 32.0, 48.0, 64.0, 96.0),
    dataset: DatasetSpec = DatasetSpec(),
    out: str | None = None,
) -> CalibrationReport:
    """Sweep the sketch-row factors and measure the assumption rates.

    Picks the smallest c1 whose empirical sandwich rate reaches `target`,
    then (holding it fixed) the smallest c2 whose joint rate with the
    refinement bounds reaches `target` at refinement depth `s`. Rates are
    measured on one (database, query, coin) triple per seed index, drawn once
    for both sweeps. With `out`, the rates are also written there as CSV.
    """
    if seeds < 1:
        raise ConfigError("seeds must be >= 1")
    if not 0 < s < float("inf"):
        raise ConfigError("s must be positive and finite")
    if not 0 <= target <= 1:  # NaN fails this too
        raise ConfigError("target must lie in [0, 1]")
    validate_config(ExperimentConfig(algo="simple", n=n, d=d, gamma=gamma, k=1, trials=seeds,
                                     seed=seed, dataset=dataset, out=out))
    # The sweep goes up to the largest factors of its grids.
    c1, c2 = max(c1_grid), max(c2_grid)
    _check_matrix_sizes(n, d, [("c1", c1, "main", c1), ("c2", c2, "aux", c2 / s)])
    if seeds * n * d > _MAX_MATRIX_BITS:
        raise ConfigError(f"{seeds} databases of n={n} points of d={d} bits pass the cap of "
                          "2^30 bits for the databases calibrate holds at once")
    instances = [(*trial_instance(seed, i, n, d, dataset), coin_for_trial(seed, i, 0))
                 for i in range(seeds)]

    def sets(i: int, c1: float, c2: float, depth: float | None = None):
        db, x, coin = instances[i]
        return exact_sets(x, db, coin, Params(n=n, d=d, gamma=gamma, k=1, c1=c1, c2=c2, s=depth))

    def sweep(grid: tuple[float, ...], passes) -> tuple[list[tuple[float, float]], float]:
        """(factor, rate) up to the first factor whose rate reaches `target`, and that factor."""
        rates = []
        for value in grid:
            rate = sum(passes(value, i) for i in range(seeds)) / seeds
            rates.append((value, rate))
            if rate >= target:
                return rates, value
        return rates, grid[-1]

    def joint(c2: float, i: int) -> bool:
        scale_sets = sets(i, chosen_c1, c2, s)
        return check_assumption1(scale_sets) and check_assumption2(scale_sets)

    c1_rates, chosen_c1 = sweep(c1_grid, lambda c1, i: check_assumption1(sets(i, c1, c2_grid[0])))
    c2_rates, chosen_c2 = sweep(c2_grid, joint)

    if out:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write("factor,value,rate\n")
            fh.writelines(f"c1,{c1:g},{rate}\n" for c1, rate in c1_rates)
            fh.writelines(f"c2,{c2:g},{rate}\n" for c2, rate in c2_rates)
    return CalibrationReport(
        c1_rates=c1_rates,
        c2_rates=c2_rates,
        chosen_c1=chosen_c1,
        chosen_c2=chosen_c2,
        seeds=seeds,
        target=target,
    )


def selftest(verbose: bool = True) -> bool:
    """Fast invariant battery; returns True when everything holds."""
    failures = []

    def check(name: str, ok: bool) -> None:
        if verbose:
            print(f"  {'ok' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    from . import _native
    from .randomness import bernoulli_matrix, bernoulli_matrix_numpy, raw64_block, raw64_block_numpy
    from .sketch import SketchMatrix, derive_matrix, sketch_apply_batch, sketch_apply_batch_numpy

    # The numpy fallback is a supported path, not a failure; loaded C kernels
    # must give the numpy kernels' bits, packed into words. Each check draws
    # its inputs without the other C kernels, so a wrong kernel fails alone.
    path = _native.status()
    if verbose:
        print(f"  kernels: {path}")
    coin = coin_for_trial(1234, 0, 0)
    if path == "native":
        keys = coin.row_keys("main", 0, 9)
        check(
            "native generator matches the numpy kernel",
            all(np.array_equal(bernoulli_matrix(keys, 130, p),
                               pack_words(bernoulli_matrix_numpy(keys, 130, p)))
                for p in (0.25, 0.3)),
        )
        check(
            "native stream words match numpy",
            all(np.array_equal(raw64_block(coin.seed, start, count),
                               raw64_block_numpy(coin.seed, start, count))
                for start in (0, 5, 2**32 + 1, 2**63) for count in (0, 1, 65)),
        )
        # 40 points, one full tile of 32 and a tail of 8, against dense rows
        # (scale 0), rows with few nonzero words (scale 6) and an all-zero
        # row: 81 rows, so each point's sketch fills two words.
        words = raw64_block_numpy(coin.seed, 0, 40 * 5).reshape(40, 5)
        words[:, -1] &= np.uint64((1 << 44) - 1)
        db = Database(words, 300)
        packed = np.vstack([derive_matrix(coin, "main", scale, 40, 300, 2.0).packed
                            for scale in (0, 6)] + [np.zeros((1, 5), dtype=np.uint64)])
        m = SketchMatrix(rows=81, dim=300, packed=packed)
        check(
            "native sketch kernel matches the numpy kernel",
            np.array_equal(sketch_apply_batch(m, db),
                           pack_words(sketch_apply_batch_numpy(m, db.words))),
        )
    saved = _native._state
    if failures:
        # A wrong C kernel has its FAIL line above. The checks below are of
        # the simulator, so they run on the numpy kernels.
        _native._state = (None, "numpy (a C kernel failed the self-test)")
    try:
        _simulator_checks(check)
    finally:
        _native._state = saved
    return not failures


def _simulator_checks(check) -> None:
    """The self-test's checks of the simulator, each reported by `check`."""
    from .search_common import query_sketch
    from .sketch import derive_matrix
    from .tables import main_cell

    coin = coin_for_trial(1234, 0, 0)
    m1 = derive_matrix(coin, "main", 0, 16, 64, 2.0)
    m2 = derive_matrix(coin, "main", 0, 16, 64, 2.0)
    check("matrix derivation is deterministic", (m1.packed == m2.packed).all())

    cfg = ExperimentConfig(
        algo="simple", n=32, d=64, gamma=4.0, k=2, trials=4, seed=99,
        dataset=DatasetSpec("planted", plant_dist=3, plant_gap=20),
    )
    recs = run_experiment(cfg)
    check("planted distance is exact", all(r.exact_dist == 3 for r in recs))
    check(
        "conditional correctness on sampled trials",
        all(r.success for r in recs if r.assumption1),
    )
    recs2 = run_experiment(cfg)
    check("experiment is reproducible", csv_lines(recs) == csv_lines(recs2))

    params = params_for(cfg)
    agree = True
    for t in range(6):
        db, x = trial_instance(7, t, 32, 64, DatasetSpec())
        coin = coin_for_trial(7, t, 0)
        sets = exact_sets(x, db, coin, params)
        for i in range(params.scale_count + 1):
            cell = main_cell(db, coin, params, i, query_sketch(coin, params, x, i))
            agree &= (cell is None) == (len(sets.sketch_ball(i)) == 0)
    check("virtual cells agree with oracle candidate sets", agree)

    near_cfg = ExperimentConfig(
        algo="near", n=32, d=64, gamma=4.0, k=1, trials=4, seed=3, lam=4.0,
    )
    near_recs = run_experiment(near_cfg)
    check("near search uses exactly one probe", all(r.probes_total == 1 for r in near_recs))
    check("near search uses exactly one round", all(r.rounds_used == 1 for r in near_recs))
