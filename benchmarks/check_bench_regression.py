"""CI gate: fail when a bench artifact regresses vs its committed baseline.

Usage::

    python benchmarks/check_bench_regression.py BENCH_engines.json \
        [--baseline benchmarks/BENCH_engines.baseline.json] [--factor 2.0]

    python benchmarks/check_bench_regression.py BENCH_parallelism.json \
        --baseline benchmarks/BENCH_parallelism.baseline.json

Every record in an artifact carries both the engine-under-test seconds and
a reference engine's seconds *measured in the same run* (``traced_seconds``
in the engines artifact, ``reference_seconds`` — the vector baseline — in
the parallelism artifact), so the comparison metric is the **relative
cost** ``seconds / reference`` — normalising out machine speed, which is
what makes a committed baseline from one box meaningful on another.  A
record regresses when its relative cost grows by more than ``--factor``
(default 2x, per the CI contract) against the baseline record with the
same key — ``(engine, workload, padding, n)`` plus, when present, the
``(executor, workers)`` pair the parallelism sweep varies.

Records carrying ``merge_seconds`` (the parallelism artifact since the
streaming-merge change) are additionally gated on the **merge phase**
alone: a reassembly-tail regression fails CI even when faster grid tasks
hide it in the end-to-end number.

Service records (``BENCH_service.json``, keyed additionally by
``(mode, concurrency)``) are also checked for the structural warm-path
invariant: on ``warm_gate`` rows at concurrency 1 the warm per-query
latency must be strictly below the cold one *within the current
artifact* — the caches' reason to exist — independent of any baseline
ratio.

Storage records (``BENCH_storage.json``) carry their own structural
invariant on ``storage_gate`` rows: an in-budget block-aligned
file-backed join must stay within 1.5x of the same-run resident join —
the paged path's overhead is a bounded constant, independent of any
baseline ratio.

Sub-5ms timings are too noisy to judge at the smoke sizes CI runs; such
records are reported as skipped rather than gated.  A phase whose
*current* value is sub-noise is skipped; a phase whose *baseline* is
sub-noise gates against a floor of 5ms, so a genuine reassembly blow-up
fails CI while jitter around the floor passes.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Engine timings below this are measurement noise at smoke sizes.
MIN_SECONDS = 0.005


def record_key(record: dict) -> tuple:
    key = (
        record["engine"],
        record["workload"],
        record.get("padding", "revealed"),
        record["n"],
    )
    if "executor" in record or "workers" in record:
        key += (record.get("executor", "-"), record.get("workers", "-"))
    if "segments" in record:
        key += (record["segments"],)
    if "mode" in record or "concurrency" in record:
        # Service records: the same query measured cold vs warm, and the
        # warm path again under concurrent admission.
        key += (record.get("mode", "-"), record.get("concurrency", 1))
    return key


def service_warm_regressions(current: dict) -> list:
    """The service artifact's structural invariant: warm beats cold.

    The whole point of the service layer is that a warm engine answers a
    repeated query faster than a cold one; if that inverts, the caches
    regressed even when every relative cost stayed under the factor.
    Compared per (engine, workload, n) at concurrency 1, current artifact
    only (the invariant must hold per run, not vs a baseline).  Only
    records the bench marks ``warm_gate`` are bound: those are the
    configurations whose margin is structural (pool fork, shm publish,
    plan compile) rather than timing jitter; ungated rows (plain vector,
    whose only cacheable setup is the key scan) are context only.
    """
    by_mode: dict[tuple, dict[str, float]] = {}
    for record in current.get("records", []):
        if "mode" not in record or record.get("concurrency", 1) != 1:
            continue
        if not record.get("warm_gate", True):
            continue
        group = (record["engine"], record["workload"], record["n"])
        by_mode.setdefault(group, {})[record["mode"]] = record["seconds"]
    violations = []
    for group, modes in sorted(by_mode.items()):
        if "cold" in modes and "warm" in modes and modes["warm"] >= modes["cold"]:
            violations.append(
                group + (f"warm {modes['warm']:.4f}s >= cold {modes['cold']:.4f}s",)
            )
    return violations


#: The storage artifact's structural bound: in-budget file-backed joins
#: within this factor of the same-run resident join (mirrors
#: bench_storage.GATE_FACTOR).
STORAGE_FACTOR = 1.5


def storage_regressions(current: dict) -> list:
    """The storage artifact's structural invariant: paging is bounded.

    ``bench_storage.py`` marks ``storage_gate`` on the plaintext
    file-backed rows whose table fits the trusted-memory budget: for
    those, the block path adds only constant per-block bookkeeping, so
    the join must land within ``STORAGE_FACTOR`` of the same-run
    resident median.  Enforced on the current artifact alone (the bound
    is structural, not a baseline ratio); resident references under the
    noise floor are skipped — at CI smoke sizes a ratio over jitter
    means nothing.
    """
    violations = []
    for record in current.get("records", []):
        if not record.get("storage_gate"):
            continue
        reference = record.get("reference_seconds") or 0.0
        if reference < MIN_SECONDS:
            continue
        if record["seconds"] > STORAGE_FACTOR * reference:
            violations.append((
                record["engine"],
                record["workload"],
                record["n"],
                record["mode"],
                f"{record['seconds']:.4f}s > {STORAGE_FACTOR}x "
                f"resident {reference:.4f}s",
            ))
    return violations


def reference_seconds(record: dict) -> float:
    """The same-run reference denominator, whichever artifact shape."""
    return record.get("reference_seconds", record.get("traced_seconds"))


def record_metrics(record: dict) -> list[tuple[str, float]]:
    """The gated ``(phase, seconds)`` pairs of one record."""
    metrics = [("total", record["seconds"])]
    if "merge_seconds" in record:
        metrics.append(("merge", record["merge_seconds"]))
    if "expand_seconds" in record:
        metrics.append(("expand", record["expand_seconds"]))
    return metrics


def compare(
    current: dict, baseline: dict, factor: float, cpus_match: bool = True
) -> tuple[list, list]:
    """Returns ``(regressions, rows)``; rows describe every comparison.

    ``cpus_match=False`` records that the artifact was measured on a
    different core count than the committed baseline.  Worker-scaling rows
    (``workers != 1``) then shift for structural reasons — a 1-core box
    serialises pool overlap that a multi-core box genuinely runs in
    parallel — so their per-phase gates are skipped outright and their
    total gate is softened to ``2 * factor`` (catching order-of-magnitude
    blow-ups while tolerating the structural shift).  Single-worker rows
    stay fully gated: relative cost already normalises out per-core speed.
    """
    baseline_by_key = {record_key(r): r for r in baseline["records"]}
    regressions, rows = [], []
    for record in current["records"]:
        key = record_key(record)
        base = baseline_by_key.get(key)
        reference = reference_seconds(record)
        scaling_row = not cpus_match and record.get("workers", 1) != 1
        for phase, seconds in record_metrics(record):
            phase_key = key + (phase,)
            cost = seconds / reference
            if base is None:
                rows.append((phase_key, None, cost, "new"))
                continue
            if scaling_row and phase != "total":
                rows.append((phase_key, None, cost, "skipped (cpus mismatch)"))
                continue
            base_metrics = dict(record_metrics(base))
            base_seconds = base_metrics.get(phase)
            base_reference = reference_seconds(base)
            if base_seconds is None:
                rows.append((phase_key, None, cost, "new phase"))
                continue
            # The reference denominators must clear the noise floor for
            # any ratio to mean anything.  For the total, the historical
            # rule stands: gate unless both sides are sub-noise (so a
            # 1ms -> 100ms blow-up is still caught).  Phase metrics
            # (merge) are fractions of already-small totals: a sub-noise
            # *current* phase is skipped (jitter, and improvements need
            # no gate), while a sub-noise *baseline* phase is floored at
            # MIN_SECONDS — jitter around the floor stays under the
            # factor, but a genuine 0.3ms -> 30ms reassembly blow-up
            # still fails even when the end-to-end total hides it.
            base_effective = base_seconds
            if phase == "total":
                noisy = seconds < MIN_SECONDS and base_seconds < MIN_SECONDS
            else:
                noisy = seconds < MIN_SECONDS
                base_effective = max(base_seconds, MIN_SECONDS)
            noisy = noisy or min(reference, base_reference) < MIN_SECONDS
            base_cost = base_effective / base_reference
            if noisy:
                rows.append((phase_key, None, cost, "skipped (sub-5ms)"))
                continue
            if base_cost == 0:
                rows.append((phase_key, None, cost, "skipped (zero baseline)"))
                continue
            ratio = cost / base_cost
            gate = 2 * factor if scaling_row else factor
            status = "ok" if not scaling_row else "ok (softened: cpus mismatch)"
            if ratio > gate:
                status = f"REGRESSION (> {gate:.1f}x)"
                regressions.append(phase_key)
            rows.append((phase_key, ratio, cost, status))
    return regressions, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a bench artifact regresses vs its committed baseline"
    )
    parser.add_argument("artifact", help="freshly generated bench JSON artifact")
    parser.add_argument(
        "--baseline",
        default="benchmarks/BENCH_engines.baseline.json",
        help="committed baseline (default: benchmarks/BENCH_engines.baseline.json)",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="maximum allowed relative-cost growth (default: 2.0)",
    )
    args = parser.parse_args(argv)
    with open(args.artifact, encoding="utf-8") as handle:
        current = json.load(handle)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)

    # Relative costs normalise out single-core speed, but not *core
    # count*: parallelism records measured on a different number of CPUs
    # than the committed baseline shift for structural reasons (real
    # pool overlap vs none).  Worker-scaling rows therefore get
    # their per-phase gates skipped and their total gate softened when
    # provenance differs (see compare()), on top of the loud warning.
    current_cpus, baseline_cpus = current.get("cpus"), baseline.get("cpus")
    cpus_match = current_cpus == baseline_cpus
    if not cpus_match:
        print(
            f"WARNING: artifact measured on cpus={current_cpus} but baseline "
            f"was recorded on cpus={baseline_cpus}; per-phase gates on "
            "worker-scaling rows are skipped and their total gate softened",
            file=sys.stderr,
        )

    regressions, rows = compare(current, baseline, args.factor, cpus_match)
    for violation in service_warm_regressions(current):
        print(
            f"WARM-PATH REGRESSION: {violation}",
            file=sys.stderr,
        )
        regressions.append(violation)
    for violation in storage_regressions(current):
        print(
            f"STORAGE-GATE REGRESSION: {violation}",
            file=sys.stderr,
        )
        regressions.append(violation)
    for phase_key, ratio, cost, status in rows:
        key, phase = phase_key[:-1], phase_key[-1]
        label = " ".join(str(part) for part in key)
        ratio_text = "  new" if ratio is None else f"{ratio:5.2f}"
        print(
            f"{label:44s} {phase:6s} cost={cost:8.3f}x ref  "
            f"vs-baseline={ratio_text}  {status}"
        )
    if regressions:
        print(f"\n{len(regressions)} regression(s): {regressions}", file=sys.stderr)
        return 1
    print(f"\nno regressions beyond {args.factor:.1f}x (of {len(rows)} comparisons)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
