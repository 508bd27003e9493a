"""annsim benchmark: host time per simulated trial, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload simple_d16k_kmix --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py          # every workload, untraced then traced

One run drives `annsim.harness.run_trial` in this process (no worker pool)
for --seconds seconds of trial time (BENCHMARK.json's run_seconds), and on
past them until MIN_TRIALS trials have been timed, so that the p90 has ten
samples beyond it. `--trace 0` reports the
end-to-end metrics; `--trace 1` wraps each layer's public functions (see
tracing.py) and reports per-layer self times and work counts instead. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.

Correctness: trials 0..99 give a CSV digest (sha256 of the bytes
`harness.write_csv` would write) and the sim.* values. At the default seed
they must equal pins.json, measured on the seed commit; at any other seed
they are printed so two commits can be compared. Every trial is also
checked against the paper's guarantees (see record_problems). Any mismatch
makes the run exit 1.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PARTITION, Tracer, call_counts, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("simple_d16k_kmix", "general_d4096_checked")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 45
MIN_TAIL = 10  # samples that must lie beyond a reported percentile
MIN_TRIALS = 100  # so that p90 has MIN_TAIL samples beyond it
SETUP_SAMPLES = 15
WARMUP_TRIAL = 2**32  # a trial index no timed trial uses, so it shares no matrices

SETUP_CODE = (
    "import sys; sys.path[:0] = [{src!r}, {here!r}]; import workloads; "
    "from annsim.harness import validate_config; "
    "[validate_config(c) for c in workloads.configs({name!r}, {seed})]"
)


def percentile(samples: list[float], q: int) -> float | None:
    """The q-th percentile (statistics.quantiles, exclusive method), or None
    when fewer than MIN_TAIL samples lie beyond it."""
    if len(samples) < 2:
        return None
    cut = statistics.quantiles(samples, n=100)[q - 1]
    return cut if sum(s > cut for s in samples) >= MIN_TAIL else None


def provenance() -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_rev": "n/a",
        "l2": "n/a",
        "l3": "n/a",
    }
    git = shutil.which("git")
    if git and (ROOT / ".git").exists():
        env = dict(os.environ, GIT_DIR=str(ROOT / ".git"))
        rev = subprocess.run([git, "rev-parse", "HEAD"], capture_output=True, text=True,
                             env=env, timeout=30)
        if rev.returncode == 0:
            info["git_rev"] = rev.stdout.strip()
    lscpu = shutil.which("lscpu")
    if lscpu:
        out = subprocess.run([lscpu], capture_output=True, text=True, timeout=30).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                info[key.strip()[:2].lower()] = value.strip()
    return info


def setup_sample(name: str, seed: int) -> float:
    """Wall time of a fresh process that imports annsim and validates the
    workload's configs."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE), name=name, seed=seed)
    t0 = time.perf_counter()
    # No timeout: with one, subprocess polls the child with sleeps of up to
    # 50 ms, which would quantize the sample.
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def record_problems(cfg, rec) -> list[str]:
    """What in one trial record contradicts the generator or the paper."""
    problems = []
    if cfg.dataset.kind == "planted" and rec.exact_dist != cfg.dataset.plant_dist:
        problems.append(f"planted at {cfg.dataset.plant_dist}, oracle says {rec.exact_dist}")
    if rec.returned_dist != -1 and rec.returned_dist < rec.exact_dist:
        problems.append(f"returned {rec.returned_dist} beats the exact {rec.exact_dist}")
    held = rec.assumption1 and (cfg.algo != "general" or rec.assumption2)
    if cfg.check_assumptions and held and not rec.success:
        problems.append("assumptions held but the search failed")
    return [f"trial {rec.trial}: {p}" for p in problems]


def sim_values(records) -> dict[str, float]:
    n = len(records)
    return {
        "sim.mean_probes": sum(r.probes_total for r in records) / n,
        "sim.mean_rounds": sum(r.rounds_used for r in records) / n,
        "sim.success_rate": sum(r.success for r in records) / n,
    }


def time_trials(cfgs, seconds: int, trial_fn, tracer, setup=None) -> tuple[list, list, list, list]:
    """Run trials 0, 1, ... until `seconds` of trial time have passed and
    MIN_TRIALS are done.

    `setup`, when given, is sampled SETUP_SAMPLES times between trials,
    spread evenly over the first `seconds`: the host's speed drifts over
    seconds, and samples taken among the trials see the speed the trials
    see. Set-up time is not trial time.

    Returns the records (None where run_trial raised), the wall time of each
    call, the errors, and the set-up samples.
    """
    trial_fn(cfgs[0], WARMUP_TRIAL)
    if tracer:
        tracer.spans.clear()
    gc.collect()
    records, samples, errors, setups = [], [], [], []
    busy = 0.0
    t = 0
    while True:
        if setup and len(setups) < SETUP_SAMPLES and busy >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(setup())
        if tracer:
            tracer.trial = t
        t0 = time.perf_counter()
        try:
            rec = trial_fn(cfgs[t % len(cfgs)], t)
        except Exception as exc:  # a raising trial is counted as failed, not fatal
            rec = None
            errors.append(f"trial {t} raised {exc!r}")
        samples.append(time.perf_counter() - t0)
        busy += samples[-1]
        records.append(rec)
        t += 1
        if busy >= seconds and t >= MIN_TRIALS:
            break
    while setup and len(setups) < SETUP_SAMPLES:  # trials longer than seconds / SETUP_SAMPLES
        setups.append(setup())
    return records, samples, errors, setups


def check_records(cfgs, records) -> tuple[int, list[str]]:
    """(failed trials, problems): a trial fails when it broke its probe bound
    or round budget; record_problems finds the rest."""
    from annsim.harness import probe_bound

    failed, problems = 0, []
    for t, rec in enumerate(records):
        if rec is None:
            continue
        cfg = cfgs[t % len(cfgs)]
        bound = probe_bound(cfg) * cfg.repeat
        if rec.probes_total > bound or rec.rounds_used > cfg.k:
            failed += 1
            problems.append(f"trial {t}: {rec.probes_total} probes (bound {bound}), "
                            f"{rec.rounds_used} rounds (budget {cfg.k})")
        problems += record_problems(cfg, rec)
    return failed, problems


def pinned_outputs(name: str, seed: int, records) -> tuple[str | None, dict, str, list[str]]:
    """Digest and sim.* of the pinned prefix, compared with pins.json at its seed."""
    from annsim.harness import csv_lines
    from workloads import PINNED_TRIALS

    pinned = records[:PINNED_TRIALS]
    digest, sim = None, {}
    if all(pinned):
        text = "\n".join(csv_lines(pinned)) + "\n"
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        sim = sim_values(pinned)
    pins = json.loads((HERE / "pins.json").read_text())[name]
    if seed != pins["seed"]:
        return digest, sim, f"no pin for seed {seed}", []
    if (digest, sim) == (pins["csv_sha256"], pins["sim"]):
        return digest, sim, "matches pin", []
    return digest, sim, "DIFFERS FROM PIN", [
        f"pinned output changed: {digest} {sim}, pinned {pins['csv_sha256']} {pins['sim']}"]


def trace_problems(name: str, tracer, records) -> list[str]:
    """Spans that should fire but did not, spans that fired but should not,
    and trials whose traced probe count differs from their record."""
    from workloads import expected_spans

    problems = []
    counts = call_counts(tracer.spans)
    fire, silent = expected_spans(name)
    for span in sorted(fire):
        if not counts.get(span):
            problems.append(f"span {span} never fired")
    for span in sorted(silent):
        if counts.get(span):
            problems.append(f"span {span} fired {counts[span]} times; it should not")
    return problems + probe_mismatches(tracer.spans, records)


def probe_mismatches(spans, records) -> list[str]:
    """Trials whose traced probe count differs from their record. A round
    that raised has no work counts, and its trial has no record."""
    probes = [0] * len(records)
    for s in spans:
        if s.name == "probe_engine.probe_round" and s.work is not None:
            probes[s.trial] += s.work["probes"]
    return [f"trial {t}: traced {probes[t]} probes, record says {rec.probes_total}"
            for t, rec in enumerate(records) if rec is not None and probes[t] != rec.probes_total]


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    import workloads
    from annsim.harness import run_trial, validate_config

    cfgs = workloads.configs(name, seed)
    for cfg in cfgs:
        validate_config(cfg)
    info = provenance()

    if trace:
        with Tracer() as tracer:
            timed = time_trials(cfgs, seconds, functools.partial(tracer.span, "trial", run_trial), tracer)
    else:
        tracer = None
        timed = time_trials(cfgs, seconds, run_trial, None, functools.partial(setup_sample, name, seed))
    records, samples, errors, setups = timed
    elapsed = sum(samples)

    failed, problems = check_records(cfgs, records)
    failed += len(errors)
    problems += errors
    digest, sim, pin_note, pin_problems = pinned_outputs(name, seed, records)
    problems += pin_problems

    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        problems += trace_problems(name, tracer, records)
        metrics.update(layer_metrics(tracer.spans, len(records)))
        metrics["trace.trials_per_s"] = (len(records) / elapsed, "1/s")
        write_spans(name, seed, [s for s in tracer.spans if s.trial < workloads.PINNED_TRIALS])
    else:
        p50, p90 = percentile(samples, 50), percentile(samples, 90)
        if p90 is None:
            problems.append(f"p90 has fewer than {MIN_TAIL} of {len(samples)} samples beyond it")
        metrics["trials_per_s"] = (len(records) / elapsed, "1/s")
        metrics["trial_ms_p50"] = (p50 * 1e3, "ms")
        if p90 is not None:
            metrics["trial_ms_p90"] = (p90 * 1e3, "ms")
        metrics["setup_s"] = (statistics.median(setups), "s")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # Linux reports KiB
        metrics["peak_rss_mb"] = (rss / 1e6, "MB")
        for key, value in sim.items():
            metrics[key] = (value, "ratio" if key == "sim.success_rate" else "count")

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"{len(records)} trials in {elapsed:.2f} s (at least {seconds} s and {MIN_TRIALS} trials)"
          + ("" if trace else f", {len(setups)} set-up samples between them"))
    print("machine " + "  ".join(f"{k} {v}" for k, v in info.items()))
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<{width}}  {value:.6g} {unit}")
    if not trace:
        print(f"  {'trial samples':<{width}}  {len(samples)}")
    print(f"  {'failed_frac':<{width}}  {failed / len(records):.6g} ({failed} of {len(records)})")
    print(f"csv_sha256 trials 0..{workloads.PINNED_TRIALS - 1}: {digest} ({pin_note})")
    print("summary: " + json.dumps({"csv_sha256": digest, "sim": sim}))
    for p in problems[:20]:
        print(f"PROBLEM {p}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def write_spans(name: str, seed: int, spans) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{name}-seed{seed}.jsonl", "w", encoding="ascii") as fh:
        for s in spans:
            fh.write(json.dumps([s.trial, s.name, s.parent, s.start, s.end, s.work]) + "\n")


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    ok, attempted, failed, merged = True, 0, 0, {}
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                summary = next(json.loads(ln[9:]) for ln in lines if ln.startswith("summary: "))
            except (IndexError, ValueError, StopIteration):
                print(f"PROBLEM {name} trace {trace} exited {proc.returncode} without a result")
                return 1
            runs[trace] = (result, summary)
            ok &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for key, metric in result["metrics"].items():
                merged[f"{name}.{key}"] = metric
        (plain, plain_sum), (traced, traced_sum) = runs[0], runs[1]
        same = plain_sum == traced_sum
        ok &= same
        pm, tm = plain["metrics"], traced["metrics"]
        overhead = 1 - tm["trace.trials_per_s"]["value"] / pm["trials_per_s"]["value"]
        accounted = sum(tm[k]["value"] for k in PARTITION)
        untraced_ms = 1e3 / pm["trials_per_s"]["value"]
        merged[f"{name}.trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        print(f"== {name}: traced digest and sim.* {'equal' if same else 'DIFFER FROM'} "
              f"the untraced run; tracing overhead {overhead:.1%} of trials_per_s; "
              f"layer self times sum to {accounted:.2f} ms per traced trial "
              f"against {untraced_ms:.2f} ms untraced")
    print(json.dumps({"correct": bool(ok), "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                    help="trial time per run: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must fit in 64 unsigned bits")
    if not (SRC / "annsim" / "__init__.py").is_file():
        print(f"perfbench: no annsim sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path[:0] = [str(SRC), str(HERE)]
    import annsim

    if Path(annsim.__file__).resolve().parent != (SRC / "annsim").resolve():
        print(f"perfbench: imported annsim from {annsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
