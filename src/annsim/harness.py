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
from dataclasses import dataclass, field

import numpy as np

from .alg_general import GeneralParams, override_params, params_general, probe_bound_general, run_general
from .alg_simple import probe_bound_simple, run_simple
from .core import CALIBRATED_C1, CALIBRATED_C2, Database, Params, Point, hamming_dist, pack_words
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


# Bits (rows x d) one sketch matrix may hold. The C generator writes a
# matrix as packed words (2^30 bits are 128 MiB), the numpy generator first
# as one byte per bit (1 GiB), and the oracle unpacks it to float32 (4 GiB),
# so a larger matrix would exhaust memory partway through a run. The largest
# shipped configuration, d = 2^16 with 384 main rows, holds about 2^24.6.
_MAX_MATRIX_BITS = 1 << 30


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
        params_for(cfg)
        general = general_for(cfg)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc
    factors = [("c1", cfg.c1, "main", cfg.c1)]
    if general is not None:
        factors.append(("c2", cfg.c2, "aux", cfg.c2 / general.s_real))
    for name, value, role, per_log2n in factors:
        # Params.r_main and r_aux round this up; a row count past
        # _MAX_MATRIX_BITS // d is exactly one whose matrix is past the cap.
        rows = per_log2n * math.log2(max(cfg.n, 2))
        if rows > _MAX_MATRIX_BITS // cfg.d:
            raise ConfigError(f"{name}={value:g} gives {role} sketch matrices of {rows:.4g} rows "
                              f"x d={cfg.d}, past the cap of 2^30 bits per matrix")


def params_for(cfg: ExperimentConfig) -> Params:
    return Params(
        n=cfg.n, d=cfg.d, gamma=cfg.gamma, k=cfg.k,
        c1=cfg.c1, c2=cfg.c2, c=cfg.c,
    )


def general_for(cfg: ExperimentConfig) -> GeneralParams | None:
    if cfg.algo != "general":
        return None
    if cfg.override is not None:
        return override_params(*cfg.override)
    params = params_for(cfg)
    return params_general(cfg.k, cfg.c, cfg.d, params.alpha)


def _random_values(stream: Stream, d: int, count: int) -> list[int]:
    """The next `count` d-bit values, each from ceil(d/64) consecutive words."""
    nwords = (d + 63) // 64
    raw = stream.words(count * nwords).tobytes()
    nbytes = 8 * nwords
    mask = (1 << d) - 1
    return [int.from_bytes(raw[i : i + nbytes], "little") & mask for i in range(0, len(raw), nbytes)]


def gen_database(n: int, d: int, dataset: DatasetSpec, seed: int) -> tuple[Database, Point]:
    """Draw one (database, query) instance from the seeded stream.

    Candidate values are drawn one block at a time, exactly as many as are
    still needed, so a rejected value costs one more (smaller) block and the
    stream is consumed in the same order as one value at a time.
    """
    if d < 64 and n > 2**d:
        raise ConfigError("n distinct points do not fit in the cube")
    stream = Stream(PublicCoin(seed & ((1 << 64) - 1)).stream_key(TAG_DATA))
    x = Point(d, _random_values(stream, d, 1)[0])
    values: list[int] = []
    seen: set[int] = set()
    gap, limit = -1, None  # reject values within `gap` of x; give up after `limit` draws
    if dataset.kind == "planted":
        flips = stream.distinct_indices(dataset.plant_dist, d)
        planted = x.value
        for j in flips:
            planted ^= 1 << j
        values.append(planted)
        seen.add(planted)
        gap, limit = dataset.plant_gap, 10000 * n
    elif d <= 24 and n > 2 ** (d - 1):
        # Dense regime: shuffle the whole cube instead of rejection sampling.
        values = stream.shuffled(list(range(2**d)))[:n]
    attempts = 0
    while len(values) < n:
        for v in _random_values(stream, d, n - len(values)):
            attempts += 1
            if limit is not None and attempts > limit:
                raise ConfigError("could not sample enough far points; gap too large")
            if v in seen or (gap >= 0 and (v ^ x.value).bit_count() <= gap):
                continue
            seen.add(v)
            values.append(v)
    db = Database([Point(d, v) for v in stream.shuffled(values)])
    return db, x


def probe_bound(cfg: ExperimentConfig) -> int:
    """Per-repetition worst-case probe count for the configured algorithm."""
    params = params_for(cfg)
    if cfg.algo == "simple":
        return probe_bound_simple(params)
    if cfg.algo == "near":
        return 1
    return probe_bound_general(params, general_for(cfg))


def _near_success(answer_dist: int, exact_dist: int, gamma: float, lam: float) -> bool:
    if answer_dist < 0:  # NO answer
        return exact_dist > lam
    return answer_dist <= gamma * lam


def run_trial(cfg: ExperimentConfig, trial: int) -> TrialRecord:
    """Run one trial: generate, search (per repetition), validate."""
    params = params_for(cfg)
    gp = general_for(cfg)
    data_seed = PublicCoin(cfg.seed).stream_key(TAG_DATA, trial)
    db, x = gen_database(cfg.n, cfg.d, cfg.dataset, seed=data_seed)

    probes_sum = 0
    rounds_max = 0
    candidates: list[Point | None] = []
    a1_any: bool | None = None
    a2_any: bool | None = None
    for rep in range(cfg.repeat):
        coin = coin_for_trial(cfg.seed, trial, rep)
        session = ProbeSession(
            db, coin, cfg.k, params,
            s_int=gp.s_int if gp else None,
            s_real=gp.s_real if gp else None,
        )
        candidate: Point | None = None
        try:
            if cfg.algo == "simple":
                candidate = run_simple(x, session, params)
            elif cfg.algo == "general":
                candidate = run_general(x, session, params, gp)
            else:
                answer = run_near(x, cfg.lam, session, params)
                candidate = answer.point
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
            sets = exact_sets(x, db, coin, params, s_real=gp.s_real if gp else None)
            a1 = check_assumption1(sets)
            a1_any = a1 if a1_any is None else (a1_any or a1)
            if cfg.algo == "general":
                joint = a1 and check_assumption2(sets, gp.s_real, cfg.n)
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
    s_real: float = 2.0,
    target: float = 0.8,
    c1_grid: tuple[float, ...] = (8.0, 16.0, 32.0, 48.0, 64.0, 96.0),
    c2_grid: tuple[float, ...] = (16.0, 32.0, 48.0, 64.0, 96.0),
    dataset: DatasetSpec = DatasetSpec(),
    out: str | None = None,
) -> CalibrationReport:
    """Sweep the sketch-row factors and measure the assumption rates.

    Picks the smallest c1 whose empirical sandwich rate reaches `target`,
    then (holding it fixed) the smallest c2 whose joint rate with the
    refinement bounds reaches `target`. Rates are measured on fresh
    (database, query, coin) triples per seed index. With `out`, the rates
    are also written there as CSV.
    """
    if seeds < 1:
        raise ConfigError("seeds must be >= 1")
    if not 0 < s_real < float("inf"):
        raise ConfigError("s must be positive and finite")
    if not 0 <= target <= 1:  # NaN fails this too
        raise ConfigError("target must lie in [0, 1]")
    validate_config(ExperimentConfig(algo="simple", n=n, d=d, gamma=gamma, k=1, trials=seeds,
                                     seed=seed, dataset=dataset, out=out))

    def instance(i: int, c1: float, c2: float):
        data_seed = PublicCoin(seed).stream_key(TAG_DATA, i)
        db, x = gen_database(n, d, dataset, seed=data_seed)
        coin = coin_for_trial(seed, i, 0)
        params = Params(n=n, d=d, gamma=gamma, k=1, c1=c1, c2=c2)
        return db, x, coin, params

    c1_rates = []
    chosen_c1 = c1_grid[-1]
    for c1 in c1_grid:
        hits = 0
        for i in range(seeds):
            db, x, coin, params = instance(i, c1, c2_grid[0])
            hits += check_assumption1(exact_sets(x, db, coin, params))
        rate = hits / seeds
        c1_rates.append((c1, rate))
        if rate >= target:
            chosen_c1 = c1
            break

    c2_rates = []
    chosen_c2 = c2_grid[-1]
    for c2 in c2_grid:
        hits = 0
        for i in range(seeds):
            db, x, coin, params = instance(i, chosen_c1, c2)
            sets = exact_sets(x, db, coin, params, s_real=s_real)
            hits += check_assumption1(sets) and check_assumption2(sets, s_real, n)
        rate = hits / seeds
        c2_rates.append((c2, rate))
        if rate >= target:
            chosen_c2 = c2
            break

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
    from .randomness import bernoulli_matrix, bernoulli_matrix_numpy
    from .sketch import SketchMatrix, derive_matrix, sketch_apply_batch, sketch_apply_batch_numpy
    from .tables import main_cell
    from .search_common import query_sketch

    # The numpy fallback is a supported path, not a failure; loaded C kernels
    # must give the numpy kernels' bits, packed into words.
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
        # Dense rows (scale 0), rows with few nonzero words (scale 6) and an
        # all-zero row: 81 rows, so each point's sketch fills two words.
        db, _ = gen_database(20, 300, DatasetSpec(), seed=coin.stream_key(TAG_DATA, 0))
        packed = np.vstack([derive_matrix(coin, "main", scale, 40, 300, 2.0).packed
                            for scale in (0, 6)] + [np.zeros((1, 5), dtype=np.uint64)])
        m = SketchMatrix(rows=81, dim=300, packed=packed)
        check(
            "native sketch kernel matches the numpy kernel",
            np.array_equal(sketch_apply_batch(m, db), pack_words(sketch_apply_batch_numpy(m, db))),
        )
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
        data_seed = PublicCoin(7).stream_key(TAG_DATA, t)
        db, x = gen_database(32, 64, DatasetSpec(), seed=data_seed)
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

    return not failures
