"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload join-bulk --seed 1 --seconds 10 --trace 0

The program under test is imported from the checkout's ``src/`` — nothing
needs installing.  Inputs are made from ``--seed``; every op's output is
checked against a plain reference and the workload's obliviousness check
runs once per run.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 14, "failed": 0,
     "metrics": {"latency_p50_s": {"value": 0.48, "unit": "s"}, ...}}

holding the end-to-end metrics with ``--trace 0`` and the per-layer ones
with ``--trace 1``.  The line before it is the run's full report:
provenance (nproc, Python and numpy versions, seed), sample counts, the
percentile behind ``latency_tail_s``, ``failed_share``, and the raw
latencies.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the program.

    Exits with code 2, printing no result, when the checkout holds no
    program — an installed copy elsewhere must not stand in for it.
    """
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    origin = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(origin) != SRC:
        sys.exit(f"perfbench: imported the program from {origin}, not {SRC}")


def stop_resource_tracker() -> None:
    """Stop and reap the helper process shared memory starts.

    The program's shared-memory transport starts multiprocessing's
    resource tracker, which would otherwise outlive the run by a moment;
    the benchmark waits for every process it caused to end.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    import_program()
    from harness import run
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        result, report = run(
            WORKLOADS[args.workload],
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            workdir=workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
        stop_resource_tracker()
    print(json.dumps(report), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
