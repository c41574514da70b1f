"""§6.2's parallelism remark, quantified — in theory and on real processes.

The paper: "almost all parts of our algorithm are amenable to
parallelization since they heavily rely on sorting networks, whose depth is
O(log^2 n).  The only exception is the sequence of O(m log m) operations
[the routing scans]... these operations account for a negligibly small
fraction of the total runtime."  Two views:

* the *depth* bench below computes the critical path of Algorithm 1 across
  sizes and checks both halves of the claim;
* the *scaling* sweep (``python benchmarks/bench_parallelism.py --n 16384
  --workers 1 2 4``) measures the sharded engine's wall-clock as worker
  processes are added, against the single-process vector engine baseline —
  the paper's parallelism remark made concrete.  Every row reports which
  *executor* ran the shard tasks, the payload transport the dispatch
  actually took (``none`` for in-process calls, ``shared_memory`` for the
  pool's column transport), and the **merge phase** seconds — the
  reassembly tail left after grid results stream into the tournament,
  which is the cost the streaming merge exists to shrink.  ``--executor``
  sweeps executors explicitly (``--executor inline pool shuffle``); without
  it each worker count uses the default rule (inline at 1, shared-memory
  pool above).  Each (executor, workers) row runs one untimed join before
  the timed one, so it measures steady state rather than pool start-up
  and first-dispatch costs.  ``--json PATH`` writes one machine-readable record per
  sharded row (total *and* merge-phase seconds, normalised by the vector
  baseline measured in the same run) — the ``BENCH_parallelism.json`` CI
  artifact that ``check_bench_regression.py`` gates, so a regression in
  the reassembly phase fails CI even when the end-to-end time hides it.
  Speedup requires real cores: the sweep reports ``os.cpu_count()``
  alongside so a flat curve on a 1-core box reads as hardware, not a
  regression.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import time

from repro.analysis.counts import total_comparisons_exact
from repro.analysis.depth import depth_series, join_depth
from repro.engines import ShardedEngine, get_engine
from repro.plan.executors import available_executors, resolve_executor, warm_pool
from repro.shard.join import sharded_oblivious_join
from repro.vector.join import vector_oblivious_join
from repro.workloads.generators import balanced_output

from bench_common import fmt_table, report

SIZES = [2**10, 2**14, 2**18, 2**20]

SCALING_HEADER = [
    "engine", "shards", "workers", "executor", "transport", "join", "merge",
    "vs vector",
]


def run_scaling(
    n: int,
    workers_list: list[int],
    shards: int | None,
    seed: int,
    executors: list[str] | None = None,
    records: list[dict] | None = None,
) -> list[list]:
    """Time the sharded join per (executor, workers) against the vector engine.

    ``executors=None`` uses the default rule per worker count; naming
    executors sweeps each of them at every worker count.  When ``records``
    is given, one machine-readable dict per sharded row is appended (the
    ``BENCH_parallelism.json`` artifact): total seconds, merge-phase
    seconds, and the vector baseline as ``reference_seconds`` so the
    regression gate can normalise out machine speed.
    """
    w = balanced_output(n, seed=seed)

    start = time.perf_counter()
    expected, _ = vector_oblivious_join(w.left, w.right)
    t_vector = time.perf_counter() - start

    rows = [["vector", "-", "-", "-", "-", f"{t_vector:.3f}s", "-", "1.00x"]]
    for name in executors if executors else [None]:
        for workers in workers_list:
            k = shards if shards is not None else max(2, workers)
            executor = resolve_executor(name, workers=workers)

            def join():
                return sharded_oblivious_join(
                    w.left, w.right, shards=k, workers=workers, executor=executor
                )

            join()  # untimed warm-up: measure steady state, not start-up
            start = time.perf_counter()
            pairs, stats = join()
            t_sharded = time.perf_counter() - start
            assert pairs.tolist() == expected.tolist(), "sharded diverges from vector"
            t_merge = stats.seconds_by_phase.get("merge", 0.0)
            rows.append(
                [
                    "sharded",
                    k,
                    workers,
                    executor.name,
                    executor.transport,
                    f"{t_sharded:.3f}s",
                    f"{t_merge:.3f}s",
                    f"{t_vector / t_sharded:.2f}x",
                ]
            )
            if records is not None:
                records.append(
                    {
                        "engine": "sharded",
                        "workload": "join",
                        "padding": "revealed",
                        "n": n,
                        "seed": seed,
                        "shards": k,
                        "workers": workers,
                        "executor": executor.name,
                        "transport": executor.transport,
                        "seconds": t_sharded,
                        "merge_seconds": t_merge,
                        "reference_seconds": t_vector,
                    }
                )
    return rows


EXPAND_HEADER = [
    "engine", "shards", "workers", "segments", "executor", "join", "expand",
    "vs vector",
]


def skewed_tables(n: int) -> tuple[list, list]:
    """One hot key holding half of each side: a single grid cell owns
    almost all of the padded output, which is exactly the shape whose
    whole-cell expansion serialises the join."""
    hot = max(n // 2, 1)
    left = [(0, i) for i in range(hot)] + [(1 + i, i) for i in range(n - hot)]
    right = [(0, n + i) for i in range(hot)] + [(1 + i, n + i) for i in range(n - hot)]
    return left, right


def run_expand_segments(
    n: int,
    workers_list: list[int],
    shards: int | None,
    segments_list: list[int],
    records: list[dict] | None = None,
) -> list[list]:
    """Time the padded skewed-cell join per (workers, expand_segments).

    The workload is one maximally skewed cell (``skewed_tables``) run under
    ``worst_case`` padding, so the distribute-expand dominates; the sweep
    shows what splitting it into ``expand_segment`` tasks buys.  Rows (and
    the ``BENCH_parallelism.json`` records, ``padding=worst_case`` with a
    ``segments`` key and the ``expand_seconds`` phase — the grid-task time
    of the segmented expansion) are normalised by the padded vector join
    measured in the same run.
    """
    left, right = skewed_tables(n)
    target = len(left) * len(right)

    start = time.perf_counter()
    expected, _ = vector_oblivious_join(left, right, target_m=target)
    t_vector = time.perf_counter() - start

    baseline_pairs = None
    rows = [["vector", "-", "-", "-", "-", f"{t_vector:.3f}s", "-", "1.00x"]]
    for workers in workers_list:
        k = shards if shards is not None else max(2, workers)
        warm_pool(workers)
        executor = resolve_executor(None, workers=workers)
        for segments in segments_list:
            start = time.perf_counter()
            pairs, stats = sharded_oblivious_join(
                left,
                right,
                shards=k,
                workers=workers,
                executor=executor,
                target_m=target,
                expand_segments=segments,
            )
            t_sharded = time.perf_counter() - start
            if baseline_pairs is None:
                baseline_pairs = pairs
            assert pairs.tolist() == baseline_pairs.tolist(), (
                "segmented expansion diverges across segment counts"
            )
            t_expand = stats.seconds_by_phase.get("tasks", 0.0)
            rows.append(
                [
                    "sharded",
                    k,
                    workers,
                    segments,
                    executor.name,
                    f"{t_sharded:.3f}s",
                    f"{t_expand:.3f}s",
                    f"{t_vector / t_sharded:.2f}x",
                ]
            )
            if records is not None:
                records.append(
                    {
                        "engine": "sharded",
                        "workload": "join",
                        "padding": "worst_case",
                        "n": n,
                        "seed": 0,
                        "shards": k,
                        "workers": workers,
                        "executor": executor.name,
                        "transport": executor.transport,
                        "segments": segments,
                        "seconds": t_sharded,
                        "expand_seconds": t_expand,
                        "reference_seconds": t_vector,
                    }
                )
    return rows


PIPELINE_HEADER = [
    "engine", "shards", "workers", "chain", "seconds", "vs vector",
]


def run_pipeline(
    n: int,
    workers_list: list[int],
    shards: int | None,
    seed: int,
    records: list[dict] | None = None,
) -> list[list]:
    """Time the filter -> join -> group_by chain end to end.

    The whole chain compiles into one plan and runs one operator at a time
    on the sharded engine; the vector engine running the same chain is the
    same-run baseline (``reference_seconds``), so the artifact row gates
    the sharded operators' schedule, not machine speed.
    """
    w = balanced_output(n, seed=seed)
    mask = [index % 3 != 0 for index in range(len(w.left))]
    stages = [
        ("source", w.left), ("filter", mask), ("join", w.right), ("group_by",),
    ]

    start = time.perf_counter()
    expected = get_engine("vector").pipeline(stages)
    t_vector = time.perf_counter() - start

    chain = "filter>join>group_by"
    rows = [["vector", "-", "-", chain, f"{t_vector:.3f}s", "1.00x"]]
    for workers in workers_list:
        k = shards if shards is not None else max(2, workers)
        warm_pool(workers)
        engine = ShardedEngine(shards=k, workers=workers)
        start = time.perf_counter()
        result = engine.pipeline(stages)
        t_sharded = time.perf_counter() - start
        assert result.groups == expected.groups, "sharded diverges from vector"
        assert result.sizes == expected.sizes
        rows.append(
            [
                "sharded",
                k,
                workers,
                chain,
                f"{t_sharded:.3f}s",
                f"{t_vector / t_sharded:.2f}x",
            ]
        )
        if records is not None:
            records.append(
                {
                    "engine": "sharded",
                    "workload": "pipeline",
                    "padding": "revealed",
                    "n": n,
                    "seed": seed,
                    "shards": k,
                    "workers": workers,
                    "chain": chain,
                    "seconds": t_sharded,
                    "reference_seconds": t_vector,
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="sharded-engine scaling sweep (workers/executors vs wall-clock)"
    )
    parser.add_argument(
        "--n", type=int, default=2**14, help="rows per input table (default: 2^14)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="worker counts to sweep (default: 1 2 4)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partitions per input (default: max(2, workers) per point)",
    )
    parser.add_argument(
        "--executor",
        nargs="+",
        default=None,
        choices=available_executors(),
        help="executors to sweep at every worker count (default: the "
        "worker-derived rule — inline at 1, shared-memory pool above); "
        "e.g. --executor inline pool shuffle",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write one machine-readable record per sharded row to "
        "PATH (the BENCH_parallelism.json CI artifact: total + merge-phase "
        "seconds, vector baseline as reference_seconds)",
    )
    parser.add_argument(
        "--pipeline",
        action="store_true",
        help="also time the filter>join>group_by chain end to end "
        "(one whole-DAG row per worker count, workload=pipeline in the "
        "JSON artifact)",
    )
    parser.add_argument(
        "--expand-segments",
        type=int,
        nargs="+",
        default=None,
        dest="expand_segments",
        metavar="SEGMENTS",
        help="also sweep the padded skewed-cell join at these per-cell "
        "expansion segment counts (e.g. --expand-segments 1 4; emits "
        "padding=worst_case records with an expand_seconds phase column)",
    )
    parser.add_argument(
        "--expand-n",
        type=int,
        default=256,
        dest="expand_n",
        help="rows per input for the --expand-segments sweep (default: 256 "
        "— the worst_case bound is quadratic, so this stays small)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    args = parser.parse_args(argv)
    records: list[dict] | None = [] if args.json else None
    rows = run_scaling(
        args.n, args.workers, args.shards, args.seed, args.executor,
        records=records,
    )
    header = SCALING_HEADER[:5] + [f"join n={args.n}", "merge", "vs vector"]
    text = (
        fmt_table(header, rows)
        + f"\n\n(host reports {os.cpu_count()} cpu core(s); speedup over the"
        "\n single-worker sharded row needs at least that many real cores;"
        "\n transport: none = in-process calls, shared_memory = columns"
        "\n written once per dispatch and attached zero-copy; merge = the"
        "\n reassembly tail after grid results stream into the tournament)"
    )
    report("parallelism_scaling", text)
    if args.expand_segments:
        expand_rows = run_expand_segments(
            args.expand_n, args.workers, args.shards, args.expand_segments,
            records=records,
        )
        report(
            "parallelism_expand_segments",
            fmt_table(
                EXPAND_HEADER[:5] + [f"join n={args.expand_n}", "expand", "vs vector"],
                expand_rows,
            )
            + "\n\n(one maximally skewed cell under worst_case padding; the"
            "\n expand column is the grid-task phase — the distribute-expand"
            "\n split into plan-bounded expand_segment tasks — whose segment"
            "\n windows are pure functions of (n1, n2, k, target))",
        )
    if args.pipeline:
        pipeline_rows = run_pipeline(
            args.n, args.workers, args.shards, args.seed, records=records
        )
        report(
            "parallelism_pipeline",
            fmt_table(PIPELINE_HEADER, pipeline_rows)
            + "\n\n(one compiled DAG per chain, run one operator at a time on"
            "\n each engine; the sharded rows against the vector engine)",
        )
    if args.json:
        payload = {
            "bench": "parallelism",
            "n": args.n,
            "seed": args.seed,
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "records": records,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {len(records)} records to {args.json}")
    return 0


def test_parallel_depth_profile(benchmark):
    rows = []
    for n, breakdown in depth_series(SIZES):
        work = total_comparisons_exact(n // 2, n // 2, n // 2)
        rows.append(
            [
                n,
                breakdown.sort_depth,
                breakdown.routing_depth + breakdown.scan_depth,
                f"{breakdown.parallel_fraction:.1%}",
                f"{work / breakdown.total:.1f}",
            ]
        )
    text = (
        fmt_table(
            ["n", "sort depth (parallel)", "sequential depth",
             "parallel share of path", "work / critical path"],
            rows,
        )
        + "\n\n(sort depth is O(log^2 n); the sequential tail is the routing"
        "\n scans + linear passes the paper calls 'negligibly small' in work"
        "\n — Table 3 confirms the work share; this table gives the depth view)"
    )
    report("parallelism_depth", text)

    # Sort depth must grow ~log^2 n while sequential depth grows ~n.
    first = join_depth(SIZES[0] // 2, SIZES[0] // 2, SIZES[0] // 2)
    last = join_depth(SIZES[-1] // 2, SIZES[-1] // 2, SIZES[-1] // 2)
    size_ratio = SIZES[-1] / SIZES[0]
    log_ratio = (math.log2(SIZES[-1]) / math.log2(SIZES[0])) ** 2
    assert last.sort_depth / first.sort_depth < 2 * log_ratio
    assert last.scan_depth / first.scan_depth > size_ratio / 2

    benchmark(lambda: depth_series(SIZES))


def test_sharded_scaling_smoke(benchmark):
    """The scaling sweep runs end to end and the engines agree (tiny n)."""
    records: list[dict] = []
    rows = run_scaling(256, [1, 2], shards=None, seed=1, records=records)
    assert len(rows) == 3
    assert rows[1][3:5] == ["inline", "none"]
    assert rows[2][3:5] == ["pool", "shared_memory"]
    # Every sharded record carries the merge phase and the vector baseline.
    assert all(
        r["merge_seconds"] >= 0 and r["reference_seconds"] > 0 for r in records
    )
    report("parallelism_scaling_smoke", fmt_table(
        SCALING_HEADER[:5] + ["join n=256", "merge", "vs vector"], rows))

    benchmark(lambda: sharded_oblivious_join(
        balanced_output(256, seed=1).left, balanced_output(256, seed=1).right,
        shards=2, workers=1))


def test_expand_segments_sweep_mode():
    """--expand-segments sweeps the padded skewed-cell join: identical
    output at every segment count, and each artifact record carries the
    expand_seconds phase plus the segments key the gate disambiguates on."""
    records: list[dict] = []
    rows = run_expand_segments(64, [1, 2], shards=2, segments_list=[1, 3], records=records)
    assert len(rows) == 1 + 2 * 2 and rows[0][0] == "vector"
    assert [row[3] for row in rows[1:]] == [1, 3, 1, 3]
    assert all(
        r["padding"] == "worst_case"
        and r["expand_seconds"] >= 0
        and r["reference_seconds"] > 0
        and r["segments"] in (1, 3)
        for r in records
    )
    report("parallelism_expand_smoke", fmt_table(
        EXPAND_HEADER[:5] + ["join n=64", "expand", "vs vector"], rows))


def test_pipeline_smoke_mode():
    """--pipeline emits one end-to-end chain row per worker count, sharded
    against the vector engine running the same chain, and its artifact
    records carry workload=pipeline with the same-run reference."""
    records: list[dict] = []
    rows = run_pipeline(256, [1, 2], shards=None, seed=3, records=records)
    assert len(rows) == 3 and rows[0][0] == "vector"
    assert all(
        r["workload"] == "pipeline" and r["reference_seconds"] > 0
        for r in records
    )
    report("parallelism_pipeline_smoke", fmt_table(PIPELINE_HEADER, rows))


def test_executor_sweep_mode():
    """--executor sweeps every named executor and labels the transport the
    dispatches actually used (not the configured intent)."""
    rows = run_scaling(
        128, [1, 2], shards=2, seed=2, executors=["inline", "pool", "shuffle"]
    )
    got = {(row[3], row[4]) for row in rows[1:]}
    # pool reports the real path: nothing crosses at 1 worker, the
    # shared-memory column transport above; shuffle always runs in-process.
    assert got == {
        ("inline", "none"),
        ("pool", "none"),
        ("pool", "shared_memory"),
        ("shuffle", "none"),
    }


if __name__ == "__main__":
    raise SystemExit(main())
