"""Outside-in tracing of annsim's layers, from the benchmark's own files.

`Tracer.install()` replaces every binding of each traced function in every
loaded `annsim` module with a wrapper that records a span: name, parent
span, trial, start, end and work counts. `from .x import y` copies a
function into each consuming module, so patching only the defining module
would miss most call sites; the tracer therefore rebinds by object
identity wherever the function is bound. Spans stay in memory; the
arithmetic below turns them into per-layer self times, counts and ratios.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterable


class Span:
    __slots__ = ("name", "parent", "trial", "start", "end", "work")

    def __init__(self, name: str, parent: int, trial: int, start: float,
                 end: float = 0.0, work: dict | None = None):
        self.name = name
        self.parent = parent  # index of the enclosing span, -1 for a root
        self.trial = trial
        self.start = start
        self.end = end
        self.work = work


def _bernoulli_work(args, result) -> dict:
    return {"entries": result.size}


def _raw64_work(args, result) -> dict:
    return {"words": result.size}


def _batch_work(args, result) -> dict:
    matrix, db = args[0], args[1]
    return {"word_ands": db.packed.size * matrix.rows}


def _probe_work(args, result) -> dict:
    addresses = args[1]
    # The engine coalesces equal addresses within a round before charging.
    return {"submitted": len(addresses), "probes": len(set(addresses))}


def _cell_kind(args) -> str:
    kind = args[3].kind
    return "member" if kind.startswith("member") else kind


# (defining module, attribute, span name, work counter). A callable in
# SUBNAMES appends a per-call suffix to the span name.
TARGETS: tuple = (
    ("annsim.harness", "gen_database", "harness.gen_database", None),
    ("annsim.randomness", "raw64_block", "randomness.raw64_block", _raw64_work),
    ("annsim.randomness", "bernoulli_matrix", "randomness.bernoulli_matrix", _bernoulli_work),
    ("annsim.sketch", "derive_matrix", "sketch.derive_matrix", None),
    ("annsim.sketch", "sketch_apply", "sketch.sketch_apply", None),
    ("annsim.sketch", "sketch_apply_batch", "sketch.sketch_apply_batch", _batch_work),
    ("annsim.tables", "db_sketch_bits", "tables.db_sketch_bits", None),
    ("annsim.tables", "cell_content", "tables.cell", None),
    ("annsim.probe_engine", "ProbeSession.probe_round", "probe_engine.probe_round", _probe_work),
    ("annsim.alg_simple", "run_simple", "search.run_simple", None),
    ("annsim.alg_general", "run_general", "search.run_general", None),
    ("annsim.oracle", "exact_sets", "oracle.exact_sets", None),
    ("annsim.oracle", "check_assumption1", "oracle.check_assumption1", None),
    ("annsim.oracle", "check_assumption2", "oracle.check_assumption2", None),
    ("annsim.oracle", "exact_nn", "oracle.exact_nn", None),
)
SUBNAMES = {"tables.cell": _cell_kind}


class Tracer:
    """Records parent-linked spans for every call through a traced binding."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trial = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span named `name`; the benchmark's root spans."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name: str, fn: Callable, work: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sub = SUBNAMES.get(name)

        def traced(*args, **kwargs):
            span = Span(name if sub is None else f"{name}.{sub(args)}",
                        stack[-1] if stack else -1, self.trial, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if work is not None:
                span.work = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function wherever an annsim module binds it.

        Raises if a TARGETS function no longer exists, so that a renamed or
        inlined layer fails the run instead of reading 0.
        """
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "annsim" or k.startswith("annsim.")) and m is not None]
        originals = []
        for module_name, attr, name, work in TARGETS:
            owner = sys.modules.get(module_name)
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if fn is None:
                self.uninstall()
                raise RuntimeError(f"traced function {module_name}.{attr} not found; "
                                   f"update TARGETS and BENCHMARK.json for span {name}")
            wrapper = self._wrap(name, fn, work)
            originals.append(fn)
            if cls_name:
                self._rebind(owner, fn_name, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, key, wrapper)
        leaks = unpatched_sites(modules, originals)
        if leaks:
            self.uninstall()
            raise RuntimeError("traced functions reachable without a span: " + ", ".join(leaks))

    def _rebind(self, owner, key: str, wrapper: Callable) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def unpatched_sites(modules: Iterable, originals: list) -> list[str]:
    """Module-level references to an untraced original: bindings left
    unpatched, or entries of a module-level dict, list or tuple (a dispatch
    table would call the original without a span)."""
    ids = {id(fn) for fn in originals}
    leaks = []
    for module in modules:
        for key, value in vars(module).items():
            if id(value) in ids:
                leaks.append(f"{module.__name__}.{key}")
                continue
            if isinstance(value, dict):
                value = value.values()
            elif not isinstance(value, (list, tuple)):
                continue
            if any(id(v) in ids for v in value):
                leaks.append(f"{module.__name__}.{key}[...]")
    return leaks


# ---------------------------------------------------------------- arithmetic


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its child intervals."""
    kids = children(spans)
    return [
        (s.end - s.start)
        - union_length(((spans[c].start, spans[c].end) for c in kids[i]), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def is_hit(spans: list[Span], kids: list[list[int]], i: int, miss_child: str) -> bool:
    """A cache lookup span is a hit when it did no work: no `miss_child` span under it."""
    return all(spans[c].name != miss_child for c in kids[i])


def under(spans: list[Span], i: int, prefix: str) -> bool:
    """Whether some ancestor of span i is named with `prefix`."""
    p = spans[i].parent
    while p >= 0:
        if spans[p].name.startswith(prefix):
            return True
        p = spans[p].parent
    return False


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# Metrics that partition a traced trial: their sum is trial.ms.
PARTITION = (
    "trial.unattributed_ms", "harness.gen_database.self_ms", "randomness.raw64_block.ms",
    "randomness.bernoulli_matrix.ms", "sketch.derive_matrix.self_ms",
    "sketch.sketch_apply_batch.ms", "sketch.sketch_apply.ms", "tables.db_sketch_bits.self_ms",
    "tables.cell.self_ms", "probe_engine.probe_round.self_ms", "search.self_ms",
    "oracle.exact_sets.self_ms", "oracle.check_assumption1.ms",
    "oracle.check_assumption2.self_ms", "oracle.exact_nn.ms",
)


def layer_metrics(spans: list[Span], trials: int) -> dict[str, tuple[float, str]]:
    """Per-trial layer metrics, as {name: (value, unit)}."""
    kids = children(spans)
    selfs = self_times(spans)
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, float] = defaultdict(float)
    dm_hits = dm_oracle_misses = memo_hits = 0
    for i, s in enumerate(spans):
        dur[s.name] += s.end - s.start
        own[s.name] += selfs[i]
        calls[s.name] += 1
        for key, v in (s.work or {}).items():
            work[f"{s.name}.{key}"] += v
        if s.name == "sketch.derive_matrix":
            if is_hit(spans, kids, i, "randomness.bernoulli_matrix"):
                dm_hits += 1
            elif under(spans, i, "oracle."):
                dm_oracle_misses += 1
        elif s.name == "tables.db_sketch_bits":
            memo_hits += is_hit(spans, kids, i, "sketch.sketch_apply_batch")

    def per_trial_ms(total_s: float) -> tuple[float, str]:
        return (total_s * 1e3 / trials, "ms")

    def per_trial(v: float) -> tuple[float, str]:
        return (v / trials, "count")

    def family(totals: dict[str, float], prefix: str) -> float:
        return sum(v for k, v in totals.items() if k.startswith(prefix))

    bm, sab, dm, dsb, pr = ("randomness.bernoulli_matrix", "sketch.sketch_apply_batch",
                            "sketch.derive_matrix", "tables.db_sketch_bits",
                            "probe_engine.probe_round")
    m = {
        f"{bm}.ms": per_trial_ms(dur[bm]),
        f"{bm}.calls": per_trial(calls[bm]),
        f"{bm}.entries": per_trial(work[f"{bm}.entries"]),
        # Computed, not measured: one elementwise pass over the rows x d
        # uint64 intermediate moves entries * 8 bytes.
        f"{bm}.computed_mb_per_pass": (work[f"{bm}.entries"] * 8 / 1e6 / trials, "MB"),
        f"{sab}.ms": per_trial_ms(dur[sab]),
        f"{sab}.calls": per_trial(calls[sab]),
        f"{sab}.word_ands": per_trial(work[f"{sab}.word_ands"]),
        "harness.gen_database.self_ms": per_trial_ms(own["harness.gen_database"]),
        "randomness.raw64_block.ms": per_trial_ms(dur["randomness.raw64_block"]),
        "randomness.raw64_block.words": per_trial(work["randomness.raw64_block.words"]),
        "oracle.exact_sets.self_ms": per_trial_ms(own["oracle.exact_sets"]),
        "oracle.check_assumption1.ms": per_trial_ms(dur["oracle.check_assumption1"]),
        "oracle.check_assumption2.self_ms": per_trial_ms(own["oracle.check_assumption2"]),
        "oracle.exact_nn.ms": per_trial_ms(dur["oracle.exact_nn"]),
        f"{dm}.self_ms": per_trial_ms(own[dm]),
        f"{dm}.calls": per_trial(calls[dm]),
        f"{dm}.hit_ratio": (ratio(dm_hits, calls[dm]), "ratio"),
        f"{dm}.oracle_misses": per_trial(dm_oracle_misses),
        f"{dsb}.self_ms": per_trial_ms(own[dsb]),
        f"{dsb}.calls": per_trial(calls[dsb]),
        f"{dsb}.hit_ratio": (ratio(memo_hits, calls[dsb]), "ratio"),
        "sketch.sketch_apply.ms": per_trial_ms(dur["sketch.sketch_apply"]),
    }
    for kind in ("main", "aux", "member"):
        name = f"tables.cell.{kind}"
        m[f"{name}.ms"] = per_trial_ms(dur[name])
        m[f"{name}.calls"] = per_trial(calls[name])
    m.update({
        "tables.cell.self_ms": per_trial_ms(family(own, "tables.cell.")),
        f"{pr}.self_ms": per_trial_ms(own[pr]),
        f"{pr}.rounds": per_trial(calls[pr]),
        f"{pr}.submitted": per_trial(work[f"{pr}.submitted"]),
        f"{pr}.probes": per_trial(work[f"{pr}.probes"]),
        f"{pr}.coalesce_ratio": (ratio(work[f"{pr}.probes"], work[f"{pr}.submitted"]), "ratio"),
        "search.self_ms": per_trial_ms(family(own, "search.")),
        "trial.unattributed_ms": per_trial_ms(own["trial"]),
        "trial.ms": per_trial_ms(dur["trial"]),
    })
    return m


def call_counts(spans: list[Span]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        counts[s.name] += 1
    return counts
