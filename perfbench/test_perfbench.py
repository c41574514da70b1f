"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root::

    python3 -m pytest perfbench

Every workload runs end to end at ``tiny`` sizes, untraced and traced; a
corrupted output row and a perturbed schedule must each fail the run; and
the program defects the benchmark works around (README, "Defects found
while sizing") are pinned as strict expected failures, so fixing one turns
its test red until the workaround and the test are removed.
"""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys

import pytest

import run as entry

entry.import_program()

import harness  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from repro.db.table import DBTable  # noqa: E402
from repro.plan.executors import shutdown_pools, shutdown_warm_executors  # noqa: E402
from repro.service import ServiceEngine  # noqa: E402
from repro.service.client import ServiceError  # noqa: E402
from repro.store import FileStore  # noqa: E402
from repro.workloads.generators import matched_class, power_law_groups  # noqa: E402
from spans import SpanRecorder, bitonic_comparators  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def tiny_run(workload_cls, tmp_path, trace=False):
    log = io.StringIO()
    result, report = harness.run(
        workload_cls, seed=3, seconds=0.2, trace=trace,
        workdir=str(tmp_path), tiny=True, log=log,
    )
    return result, report, log.getvalue()


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_is_correct_and_reports_every_metric(name, tmp_path):
    result, report, log = tiny_run(workloads.WORKLOADS[name], tmp_path)
    assert result["correct"], log
    assert result["failed"] == 0
    assert result["attempted"] == harness.SETUPS + report["timed_ops"]
    assert set(result["metrics"]) == set(harness.END_TO_END)
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    assert report["nproc"] and report["python"] and report["numpy"]
    assert report["latency_tail_percentile"] >= 50.0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result, report, log = tiny_run(workloads.WORKLOADS[name], tmp_path, trace=True)
    assert result["correct"], log
    metrics = {key: value["value"] for key, value in result["metrics"].items()}
    assert set(metrics) == set(harness.PER_LAYER)
    assert 0.5 < metrics["trace.coverage"] <= 1.0 + 1e-9
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["engine.call_s"] > 0
    assert report["traced_ops"] >= 1


def test_layers_show_where_each_workload_runs(tmp_path):
    layers = {}
    for name in NAMES:
        result, _, log = tiny_run(workloads.WORKLOADS[name], tmp_path, trace=True)
        assert result["correct"], log
        layers[name] = {k: v["value"] for k, v in result["metrics"].items()}
    assert layers["join-bulk"]["vector.sort_comparators"] > 0
    assert layers["join-bulk"]["plan.tasks"] == 0
    assert layers["serve-mix"]["service.wire_s"] > 0
    assert layers["serve-mix"]["service.op.multiway_join_s"] > 0
    assert layers["serve-mix"]["plan.tasks"] > 0
    assert layers["store-refresh"]["store.writes"] > 0
    assert layers["store-refresh"]["store.decrypt_s"] > 0
    assert layers["store-refresh"]["store.bytes_per_user_byte"] > 1.0
    assert layers["padded-join"]["shard.expand_segments"] > 0
    for name in ("join-bulk", "serve-mix", "padded-join"):
        assert layers[name]["store.writes"] == 0


def test_spans_are_removed_after_a_run(tmp_path):
    from repro.vector import sort

    original = sort.vector_bitonic_sort
    tiny_run(workloads.JoinBulk, tmp_path, trace=True)
    assert sort.vector_bitonic_sort is original


# -- negative cases -------------------------------------------------------------


class CorruptingJoinBulk(workloads.JoinBulk):
    """Flips one value of one output row on the fifth op."""

    def op(self, index):
        outcome = super().op(index)
        if index == harness.SETUPS + 1:
            rows = list(outcome.rows["join"])
            key, *rest = rows[0]
            rows[0] = (key + 1, *rest)
            outcome.rows["join"] = rows
        return outcome


class CorruptingServeMix(workloads.ServeMix):
    """Drops one group from the group-by answer on the cold op."""

    def op(self, index):
        outcome = super().op(index)
        if index == 0:
            outcome.rows["group_by"] = outcome.rows["group_by"][1:]
        return outcome


@pytest.mark.parametrize("workload_cls", [CorruptingJoinBulk, CorruptingServeMix])
def test_a_corrupted_output_row_counts_as_a_failed_op(workload_cls, tmp_path):
    result, report, log = tiny_run(workload_cls, tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1
    assert report["failed_share"] == 1 / result["attempted"]
    assert "differs from the reference" in log


class PerturbedQuartet(workloads.JoinBulk):
    """One quartet member's join runs one extra sort."""

    def quartet_schedules(self):
        schedules, problems = super().quartet_schedules()
        schedules[2] = schedules[2] + [4]
        return schedules, problems


class PerturbedPaddedJoin(workloads.PaddedJoin):
    """One query's recorded schedule gains a comparator."""

    def oblivious(self):
        schedule, plan = self.records[-1]
        self.records[-1] = (schedule + (("extra", 1),), plan)
        return super().oblivious()


@pytest.mark.parametrize("workload_cls", [PerturbedQuartet, PerturbedPaddedJoin])
def test_a_perturbed_schedule_fails_the_obliviousness_check(workload_cls, tmp_path):
    result, report, log = tiny_run(workload_cls, tmp_path)
    assert not result["correct"]
    assert result["failed"] == 0
    assert report["obliviousness_violations"]
    assert "differs from record 0" in log


def test_the_benchmark_refuses_to_run_without_the_program(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "join-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert "{" not in completed.stdout


# -- the pieces ------------------------------------------------------------------


def test_power_law_pairs_draws_what_the_library_generator_draws():
    for seed in range(3):
        library = power_law_groups(300, 200, seed=seed)
        left, right, m = workloads.power_law_pairs(300, 200, 2.0, seed)
        assert (left, right, m) == (library.left, library.right, library.m)


def test_the_quartet_is_a_matched_class_at_the_benchmark_size():
    n = 1 << 15
    for member in workloads.matched_quartet(n, n, seed=5):
        assert member.n1 == member.n2 == n
        assert len(reference.join(member.left, member.right, 0, 0)) == 4


def test_bitonic_comparators_matches_the_network():
    from repro.vector.sort import vector_bitonic_sort
    import numpy as np

    for n in (1, 2, 3, 8, 13, 64):
        counter = [0]
        vector_bitonic_sort({"k": np.arange(n)[::-1].copy()}, [("k", True)], counter)
        assert counter[0] == bitonic_comparators(n)


def test_schedule_violations_names_each_differing_record():
    assert workloads.schedule_violations("x", [1, 1, 1]) == []
    assert workloads.schedule_violations("x", [1, 2, 1, 3]) == [
        "x: record 1 differs from record 0",
        "x: record 3 differs from record 0",
    ]
    assert workloads.schedule_violations("x", []) == ["x: nothing was recorded"]


def test_reference_operators_follow_their_contracts():
    rows = [(2, "b"), (1, "a"), (2, "a"), (1, "b")]
    assert reference.order_by(rows, [(0, True)]) == [
        (1, "a"), (1, "b"), (2, "b"), (2, "a"),
    ]
    assert reference.order_by(rows, [(0, False), (1, True)]) == [
        (2, "a"), (2, "b"), (1, "a"), (1, "b"),
    ]
    left = [(5, 0), (3, 1), (5, 2)]
    right = [(5, 10), (3, 11), (5, 12)]
    assert reference.join(left, right, 0, 0) == [
        (3, 1, 3, 11),
        (5, 0, 5, 10), (5, 0, 5, 12),
        (5, 2, 5, 10), (5, 2, 5, 12),
    ]
    codes = {5: 0, 3: 1}
    assert reference.join(left, right, 0, 0, codes)[0] == (5, 0, 5, 10)


def test_span_recorder_counts_the_outermost_span_of_a_group_once():
    recorder = SpanRecorder()
    calls = []

    def inner():
        calls.append("inner")

    def outer():
        wrapped_inner()

    wrapped_inner = recorder._wrap("g", "inner", inner)
    wrapped_outer = recorder._wrap("g", "outer", outer)
    recorder.enabled = True
    wrapped_outer()
    recorder.enabled = False
    assert calls == ["inner"]
    assert [span.name for span in recorder.spans] == ["outer"]


# -- program defects the benchmark works around (README) ---------------------------


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="defect c: pool "
                   "workers read stale blocks after a store is rewritten in place")
def test_rewriting_a_store_in_place_keeps_sharded_joins_correct(tmp_path):
    batches = [[((i * step) % 7, i) for i in range(4096)] for step in (1, 3, 5)]
    dim = [(k, 100 + k) for k in range(7)]
    store = FileStore(str(tmp_path / "fact"), key=b"k" * 32)
    service = ServiceEngine(engine="sharded", **workloads.SHARDED).start()
    try:
        service.register_table("dim", DBTable.from_rows(["dk:int", "a:int"], dim))
        answers = []
        for rows in batches:
            DBTable.from_rows(["fk:int", "v:int"], rows).to_store(store, "fact")
            service.register_table("fact", DBTable.open(store, "fact"))
            result = service.query(
                {"op": "join", "left": "fact", "right": "dim", "on": ["fk", "dk"]}
            )
            answers.append(result.table.rows == reference.join(rows, dim, 0, 0))
    finally:
        service.close()
        shutdown_warm_executors()
        shutdown_pools()
    assert answers == [True, True, True]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="defect d: "
                   "matched_class fill keys meet above n = 1000")
def test_library_matched_class_is_matched_above_a_thousand_rows():
    members = matched_class(1004, 1004, seed=1)
    assert {len(reference.join(w.left, w.right, 0, 0)) for w in members} == {4}


@pytest.mark.xfail(strict=True, raises=(ServiceError, OSError), reason="defect b: "
                   "repro serve drops a register line over asyncio's 64 KiB limit")
def test_a_4096_row_table_registers_over_the_wire(tmp_path):
    serve = workloads.ServeMix(1, SpanRecorder(), str(tmp_path), tiny=True)
    serve.setup()
    try:
        table = DBTable.from_rows(serve.ORDERS, workloads.ServeMix(1, None, "").orders)
        assert len(table) == 4096
        assert serve.client.register_table("big", table) == 4096
    finally:
        serve.teardown()
