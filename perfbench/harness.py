"""The closed-loop run: set-ups, timed ops, checks, and the metrics.

One process, one client, one op in flight: the next op starts when the
previous one has returned and been checked.  A run is

1. ``SETUPS`` cold set-ups, each timed from nothing to the first op's
   answer (``setup_s`` is their median); the pool and service of all but
   the last are torn down, so every set-up forks its own pool;
2. timed ops until ``seconds`` have passed (at least ``MIN_OPS``);
3. the workload's obliviousness check.

Every op's output is checked against the reference; a raised error or a
mismatch counts as a failed op.  In a traced run, even-numbered timed ops
record spans and odd-numbered ones do not, so the same run yields the
per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.store.runtime import stats_snapshot
from spans import SpanRecorder

#: Cold set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest timed ops a run makes, however long they take.
MIN_OPS = 3
#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}

SESSION_OPS = (
    "join",
    "join_tree",
    "multiway_join",
    "group_by",
    "join_aggregate",
    "filter",
    "order_by",
)

#: Per-layer metrics of a traced run: name -> unit.
PER_LAYER = {
    "service.query_self_s": "s",
    "service.wire_s": "s",
    **{f"service.op.{op}_s": "s" for op in SESSION_OPS},
    "service.plan_cache.hit_ratio": "ratio",
    "service.encoding_cache.hit_ratio": "ratio",
    "db.encode_s": "s",
    "db.encode_calls": "count",
    "db.stored_read_s": "s",
    "engine.call_s": "s",
    "plan.compile_s": "s",
    "plan.compile_calls": "count",
    "plan.tasks": "count",
    "plan.dispatch_wait_s": "s",
    "plan.publish_bytes": "bytes",
    "plan.publish_s": "s",
    "shard.join_s": "s",
    "shard.grid_s": "s",
    "shard.merge_s": "s",
    "shard.merge_comparators": "count",
    "shard.expand_segments": "count",
    "vector.sort_s": "s",
    "vector.sort_calls": "count",
    "vector.sort_rows": "count",
    "vector.sort_comparators": "count",
    "vector.sort_ns_per_comparator": "ns",
    "vector.join_s": "s",
    "store.write_s": "s",
    "store.encrypt_s": "s",
    "store.decrypt_s": "s",
    "store.us_per_block": "us",
    "store.reads": "count",
    "store.writes": "count",
    "store.bytes_read": "bytes",
    "store.bytes_written": "bytes",
    "store.cache_hit_ratio": "ratio",
    "store.evictions": "count",
    "store.bytes_per_user_byte": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}

#: Per-layer metrics formed as a ratio of summed parts over the traced
#: ops: name -> (numerator part, denominator part, scale).  Every other
#: per-layer metric is the median over traced ops of its per-op value.
RATIOS = {
    "service.plan_cache.hit_ratio": ("plan_hits", "plan_lookups", 1.0),
    "service.encoding_cache.hit_ratio": ("encoding_hits", "encoding_lookups", 1.0),
    "vector.sort_ns_per_comparator": ("vector.sort_s", "vector.sort_comparators", 1e9),
    "store.us_per_block": ("crypto_s", "crypto_blocks", 1e6),
    "store.cache_hit_ratio": ("store_hits", "store_lookups", 1.0),
    "trace.coverage": ("top_level_s", "op_s", 1.0),
}


@dataclass
class OpRecord:
    seconds: float
    traced: bool
    rows_in: int
    failed: bool
    #: Per-layer parts of a traced op (see :func:`layer_parts`).
    parts: dict = field(default_factory=dict)


def tail_percentile(samples: int) -> float:
    """The highest percentile leaving ``TAIL_BEYOND`` samples beyond it.

    Never below the median: a run with fewer than ``2 * TAIL_BEYOND``
    samples reports its median as the tail, and says so in its report.
    """
    if samples <= 0:
        return 50.0
    return max(50.0, 100.0 * (1.0 - TAIL_BEYOND / samples))


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children, in MB.

    ``VmHWM`` is each process's own high-water mark; pages a forked pool
    worker still shares with the parent count in both, so the sum is an
    upper bound.
    """
    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def _store_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def layer_parts(spans: list, outcome, seconds: float, store: dict,
                join_records: list) -> dict:
    """The raw per-layer sums of one traced op's spans and counters."""
    by_group = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_group[span.group].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def total(group: str) -> float:
        return sum(span.seconds for span in by_group[group])

    def counted(group: str, name: str) -> int:
        return sum(span.counts.get(name, 0) for span in by_group[group])

    def uncovered(group: str, child_groups=None) -> float:
        """The group's time not covered by (some of) its child spans."""
        return sum(
            span.seconds
            - sum(
                child.seconds
                for child in children[index]
                if child_groups is None or child.group in child_groups
            )
            for index, span in enumerate(spans)
            if span.group == group
        )

    plan_hits = sum(s.get("plan_cache", {}).get("hits", 0) for s in outcome.stats)
    plan_misses = sum(s.get("plan_cache", {}).get("misses", 0) for s in outcome.stats)
    enc_hits = sum(s.get("encoding_cache", {}).get("hits", 0) for s in outcome.stats)
    enc_misses = sum(
        s.get("encoding_cache", {}).get("misses", 0) for s in outcome.stats
    )
    server_seconds = sum(s.get("seconds", 0.0) for s in outcome.stats)
    crypto = by_group["store.encrypt"] + by_group["store.decrypt"]
    parts = {
        "service.query_self_s": uncovered("service.query"),
        "service.wire_s": (
            sum(outcome.query_seconds.values()) - server_seconds
            if outcome.query_seconds
            else 0.0
        ),
        **{
            f"service.op.{op_name}_s": outcome.query_seconds.get(op_name, 0.0)
            for op_name in SESSION_OPS
        },
        "plan_hits": plan_hits,
        "plan_lookups": plan_hits + plan_misses,
        "encoding_hits": enc_hits,
        "encoding_lookups": enc_hits + enc_misses,
        "db.encode_s": total("db.encode"),
        "db.encode_calls": len(by_group["db.encode"]),
        "db.stored_read_s": total("db.stored_read"),
        "engine.call_s": total("engine.call"),
        "plan.compile_s": total("plan.compile"),
        "plan.compile_calls": len(by_group["plan.compile"]),
        "plan.tasks": counted("plan.dispatch", "tasks"),
        "plan.dispatch_wait_s": total("plan.dispatch"),
        "plan.publish_bytes": counted("plan.publish", "bytes"),
        "plan.publish_s": total("plan.publish"),
        "shard.join_s": total("shard.join"),
        "shard.grid_s": uncovered("shard.grid", {"shard.merge"}),
        "shard.merge_s": total("shard.merge"),
        "shard.merge_comparators": counted("shard.merge", "comparators"),
        "shard.expand_segments": sum(
            len(stats.plan.nodes_by_op("expand_segment")) for stats in join_records
        ),
        "vector.sort_s": total("vector.sort"),
        "vector.sort_calls": len(by_group["vector.sort"]),
        "vector.sort_rows": counted("vector.sort", "rows"),
        "vector.sort_comparators": counted("vector.sort", "comparators"),
        "vector.join_s": total("vector.join"),
        "store.write_s": total("store.write"),
        "store.encrypt_s": total("store.encrypt"),
        "store.decrypt_s": total("store.decrypt"),
        "crypto_s": sum(span.seconds for span in crypto),
        "crypto_blocks": len(crypto),
        "store.reads": store.get("reads", 0),
        "store.writes": store.get("writes", 0),
        "store.bytes_read": store.get("bytes_read", 0),
        "store.bytes_written": store.get("bytes_written", 0),
        "store_hits": store.get("hits", 0),
        "store_lookups": store.get("hits", 0) + store.get("misses", 0),
        "store.evictions": store.get("evictions", 0),
        "top_level_s": sum(span.seconds for span in spans if span.parent is None),
        "op_s": seconds,
    }
    return parts


def layer_metrics(records: list[OpRecord], store_ratio: float | None) -> dict:
    """Aggregate traced ops' parts into the per-layer metrics."""
    traced = [r for r in records if r.traced and r.parts]
    untraced = [r.seconds for r in records if not r.traced]
    metrics = {}
    for name in PER_LAYER:
        if name in RATIOS:
            numerator, denominator, scale = RATIOS[name]
            den = sum(r.parts[denominator] for r in traced)
            num = sum(r.parts[numerator] for r in traced)
            metrics[name] = scale * num / den if den else 0.0
        elif traced and name in traced[0].parts:
            metrics[name] = float(statistics.median(r.parts[name] for r in traced))
    metrics["store.bytes_per_user_byte"] = store_ratio or 0.0
    traced_p50 = statistics.median(r.seconds for r in traced) if traced else 0.0
    metrics["trace.overhead_ratio"] = (
        traced_p50 / statistics.median(untraced) if untraced and traced else 0.0
    )
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


def run(workload_cls, seed: int, seconds: float, trace: bool, workdir: str,
        tiny: bool = False, log=sys.stderr) -> tuple[dict, dict]:
    """One benchmark run; returns ``(result line, full report)``."""
    recorder = SpanRecorder().install()
    join_records: list = []
    recorder.observe(
        "sharded_oblivious_join",
        lambda args, kwargs, result: join_records.append(result[1]),
    )
    generated = time.perf_counter()
    workload = workload_cls(seed, recorder, workdir, tiny=tiny)
    generate_s = time.perf_counter() - generated
    records: list[OpRecord] = []
    setups: list[float] = []
    rss: list[float] = []
    violations: list[str] = []

    def attempt(index: int, traced: bool) -> OpRecord:
        """Run, time and check op ``index`` (prepared by the caller)."""
        join_records.clear()
        store_before = stats_snapshot() if traced else {}
        recorder.op = index
        recorder.enabled = traced
        started = time.perf_counter()
        outcome = None
        try:
            outcome = workload.op(index)
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc(file=log)
        finally:
            elapsed = time.perf_counter() - started
            recorder.enabled = False
            recorder.op = None
        if outcome is None:
            recorder.spans.clear()
            return OpRecord(elapsed, traced, 0, True)
        problems = workload.check(index, outcome)
        record = OpRecord(elapsed, traced, outcome.rows_in, bool(problems))
        if traced:
            store = _store_delta(store_before, stats_snapshot())
            record.parts = layer_parts(recorder.spans, outcome, elapsed, store,
                                       list(join_records))
            recorder.spans.clear()
        for problem in problems:
            print(f"op {index}: {problem}", file=log)
        return record

    timed: list[OpRecord] = []
    try:
        for number in range(SETUPS):
            if number:
                workload.teardown()
            workload.prepare(number)
            started = time.perf_counter()
            workload.setup()
            setup_seconds = time.perf_counter() - started
            cold = attempt(number, traced=False)
            setups.append(setup_seconds + cold.seconds)
            records.append(cold)
            rss.append(peak_rss_mb())
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(timed) < MIN_OPS:
            index = SETUPS + len(timed)
            workload.prepare(index)
            timed.append(attempt(index, traced=trace and len(timed) % 2 == 0))
        records.extend(timed)
        rss.append(peak_rss_mb())
        violations = workload.oblivious()
        for violation in violations:
            print(f"obliviousness: {violation}", file=log)
    finally:
        workload.teardown()
        recorder.uninstall()

    attempted = len(records)
    failed = sum(record.failed for record in records)
    latencies = [r.seconds for r in timed if not r.failed] or [0.0]
    tail_pct = tail_percentile(len(latencies))
    op_seconds = sum(r.seconds for r in timed)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": percentile(latencies, tail_pct),
        "throughput_rows_per_s": sum(r.rows_in for r in timed) / op_seconds,
        "peak_rss_mb": max(rss),
    }
    if trace:
        values = layer_metrics(timed, workload.store_ratio)
        units = PER_LAYER
    else:
        values = end_to_end
        units = END_TO_END
    correct = failed == 0 and not violations
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "generate_s": generate_s,
        "setup_samples": setups,
        "samples": {
            "setup_s": len(setups),
            "latency_p50_s": len(latencies),
            "latency_tail_s": len(latencies),
            "throughput_rows_per_s": len(timed),
            "peak_rss_mb": len(rss),
        },
        "latency_tail_percentile": tail_pct,
        "timed_ops": len(timed),
        "failed_share": failed / attempted,
        "store_bytes_per_user_byte": workload.store_ratio,
        "obliviousness_violations": violations,
        "end_to_end": end_to_end,
        "latencies_s": [r.seconds for r in timed],
    }
    if trace:
        # Per-layer values come from the traced ops; the overhead ratio
        # also uses the untraced ones.
        report["traced_ops"] = sum(r.traced for r in timed)
        report["untraced_ops"] = len(timed) - report["traced_ops"]
    return result, report
