"""The benchmark's four workloads.

Each workload owns its inputs (made from the seed, never timed), its
set-up (timed as ``setup_s`` together with the first, cold op), its op
(timed as one latency sample), its per-op correctness check against
:mod:`reference`, and its obliviousness check.  See ``README.md`` for why
each one exists and which layers it stresses or bypasses.

The protocol the harness drives::

    workload = WORKLOADS[name](seed, recorder, workdir, tiny=False)
    workload.setup()                  # timed, with the first op
    workload.prepare(k)               # untimed: per-op fresh inputs
    outcome = workload.op(k)          # timed
    workload.check(k, outcome)        # untimed: list of mismatches
    workload.oblivious()              # untimed: list of violations
    workload.teardown()
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import threading
import time
from bisect import bisect
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import reference
from spans import bitonic_comparators
from repro.db.table import DBTable
from repro.plan.executors import shutdown_pools, shutdown_warm_executors
from repro.service import ServiceEngine
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import QueryServer
from repro.store import FileStore
from repro.workloads.generators import Workload as JoinInput
from repro.workloads.generators import pk_fk

#: The sharded configuration every sharded workload runs: two shards on a
#: two-worker process pool (the box has two cores).
SHARDED = {"shards": 2, "workers": 2, "executor": "pool"}


@dataclass
class Outcome:
    """What one op returned, for the check and the per-layer metrics."""

    #: Result rows per query of the op, keyed by a query label.
    rows: dict
    #: Input rows the op consumed (the throughput numerator).
    rows_in: int
    #: ``QueryStats`` dicts of the op's queries.
    stats: list = field(default_factory=list)
    #: Client-observed seconds per session query (serve-mix only).
    query_seconds: dict = field(default_factory=dict)


def power_law_pairs(n1: int, n2: int, alpha: float, seed: int):
    """:func:`repro.workloads.generators.power_law_groups`, fast.

    Same draws from the same ``random.Random(seed)`` stream — the
    generator's ``rng.choices(..., weights=...)`` rebuilds the cumulative
    weights of all ``n`` sizes on every draw, which costs seconds at
    ``n = 2**15``; this builds them once.  The tests pin equality with the
    library generator.  Returns ``(left, right, m)``.
    """
    rng = random.Random(seed)

    def sizes(total: int) -> list[int]:
        cumulative = list(accumulate(s ** (-alpha) for s in range(1, total + 1)))
        top = cumulative[-1]
        out = []
        remaining = total
        while remaining > 0:
            size = bisect(cumulative, rng.random() * top, 0, total - 1) + 1
            size = min(size, remaining)
            out.append(size)
            remaining -= size
        return out

    sizes1 = sizes(n1)
    sizes2 = sizes(n2)
    left: list[tuple[int, int]] = []
    right: list[tuple[int, int]] = []
    for key in range(max(len(sizes1), len(sizes2))):
        if key < len(sizes1):
            left.extend((key, rng.randrange(1 << 30)) for _ in range(sizes1[key]))
        if key < len(sizes2):
            right.extend((key, rng.randrange(1 << 30)) for _ in range(sizes2[key]))
    rng.shuffle(left)
    rng.shuffle(right)
    c1 = Counter(j for j, _ in left)
    c2 = Counter(j for j, _ in right)
    m = sum(c1[j] * c2[j] for j in c1.keys() & c2.keys())
    return left, right, m


def matched_quartet(n1: int, n2: int, seed: int) -> list[JoinInput]:
    """Four structurally different inputs with one ``(n1, n2, m = 4)``.

    The members of :func:`repro.workloads.generators.matched_class` — four
    1x1 groups; one 2x2 group; a relabelled, shuffled copy of the first;
    the first with fresh data values — with fill keys from ranges that
    cannot meet.  The library generator fills from ranges 1000 apart, so
    above n = 1000 its fill rows join and its members' m differ (README,
    defect d).
    """
    rng = random.Random(seed)
    data = lambda: rng.randrange(1 << 30)  # noqa: E731

    def fill(rows, size: int, base: int):
        return rows + [(base + i, data()) for i in range(size - len(rows))]

    left_base, right_base = 1 << 40, 2 << 40
    a_left = [(k, data()) for k in range(4)]
    a_right = [(k, data()) for k in range(4)]
    a = (fill(a_left, n1, left_base), fill(a_right, n2, right_base))
    b = (
        fill([(7, data()), (7, data())], n1, left_base),
        fill([(7, data()), (7, data())], n2, right_base),
    )
    c_left = fill([(k * 13 + 5, d + 1) for k, d in a_left], n1, left_base)
    c_right = fill([(k * 13 + 5, d + 2) for k, d in a_right], n2, right_base)
    rng.shuffle(c_left)
    rng.shuffle(c_right)
    d = ([(k, data()) for k, _ in a[0]], [(k, data()) for k, _ in a[1]])
    return [
        JoinInput(name, left, right, 4)
        for name, (left, right) in zip(
            ("class_a", "class_b", "class_c", "class_d"),
            (a, b, (c_left, c_right), d),
        )
    ]


def join_schedule(args, kwargs, result) -> tuple:
    """A sharded join's adversary-visible record: schedule plus plan bytes."""
    _pairs, stats = result
    return stats.schedule, stats.plan.serialize()


class Workload:
    """Shared plumbing: the service, its teardown, and the recorder."""

    name = ""

    def __init__(self, seed: int, recorder, workdir: str, tiny: bool = False):
        self.seed = seed
        self.recorder = recorder
        self.workdir = workdir
        self.service: ServiceEngine | None = None
        self.store_ratio: float | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        """Untimed per-op input preparation (most workloads need none)."""

    def op(self, index: int) -> Outcome:
        raise NotImplementedError

    def check(self, index: int, outcome: Outcome) -> list[str]:
        raise NotImplementedError

    def oblivious(self) -> list[str]:
        return []

    def teardown(self) -> None:
        """Close the service and the pool, so the next set-up is cold."""
        if self.service is not None:
            self.service.close()
            self.service = None
        shutdown_warm_executors()
        shutdown_pools()


def mismatch(label: str, got, want) -> list[str]:
    """One line naming a mismatch, or nothing when ``got == want``."""
    if got == want:
        return []
    size = len(got) if hasattr(got, "__len__") else "?"
    want_size = len(want) if hasattr(want, "__len__") else "?"
    return [f"{label}: output differs from the reference ({size} vs {want_size})"]


# -- join-bulk ----------------------------------------------------------------


class JoinBulk(Workload):
    """A large vector-engine join through an in-process ``ServiceEngine``."""

    name = "join-bulk"
    SPEC = {"op": "join", "left": "l", "right": "r", "on": ["k", "k"]}

    def __init__(self, seed, recorder, workdir, tiny=False):
        super().__init__(seed, recorder, workdir, tiny)
        self.n = 1 << (9 if tiny else 15)
        # The vector join pads its expansion sorts to the next power of two
        # of m, so its cost is a step function of m.  Keeping draws whose m
        # falls in (3n, 4n] — the middle of the alpha = 2 draws — fixes the
        # sort sizes, so every seed measures the same shape.
        for attempt in range(1000):
            left, right, m = power_law_pairs(
                self.n, self.n, 2.0, seed * 1000 + attempt
            )
            if 3 * self.n < m <= 4 * self.n:
                break
        else:
            raise RuntimeError("no power-law draw with m in (3n, 4n]")
        self.left_rows = left
        self.right_rows = right
        self.expected = reference.join(left, right, 0, 0)
        self.quartet = matched_quartet(self.n, self.n, seed)

    def setup(self) -> None:
        left = DBTable.from_rows(["k:int", "v:int"], self.left_rows)
        right = DBTable.from_rows(["k:int", "w:int"], self.right_rows)
        self.service = ServiceEngine(engine="vector").start()
        self.service.register_table("l", left)
        self.service.register_table("r", right)

    def op(self, index: int) -> Outcome:
        result = self.service.query(self.SPEC)
        return Outcome(
            rows={"join": result.table.rows},
            rows_in=2 * self.n,
            stats=[result.stats.to_dict()],
        )

    def check(self, index: int, outcome: Outcome) -> list[str]:
        return mismatch("join", outcome.rows["join"], self.expected)

    def quartet_schedules(self) -> tuple[list, list[str]]:
        """Run the matched-class quartet; its sort schedules and mismatches."""
        schedules = []
        problems = []
        for member in self.quartet:
            sizes: list[int] = []
            record = lambda args, kwargs, result: sizes.append(  # noqa: E731
                len(next(iter(args[0].values())))
            )
            self.service.register_table(
                "ql", DBTable.from_rows(["k:int", "v:int"], member.left)
            )
            self.service.register_table(
                "qr", DBTable.from_rows(["k:int", "w:int"], member.right)
            )
            with self.recorder.observing("vector_bitonic_sort", record):
                result = self.service.query(
                    {"op": "join", "left": "ql", "right": "qr", "on": ["k", "k"]}
                )
            problems += mismatch(
                f"quartet {member.name}",
                Counter(result.table.rows),
                Counter(reference.join(member.left, member.right, 0, 0)),
            )
            schedules.append(sizes)
        return schedules, problems

    def oblivious(self) -> list[str]:
        schedules, problems = self.quartet_schedules()
        return problems + schedule_violations(
            "matched-class quartet sort schedule", schedules, sort_record
        )


def sort_record(sizes: list[int]) -> tuple:
    """A vector join's primitive schedule: sort sizes and comparator total."""
    return tuple(sizes), sum(bitonic_comparators(n) for n in sizes)


def schedule_violations(label: str, records: list, key=lambda record: record):
    """Every record must equal the first one."""
    if not records:
        return [f"{label}: nothing was recorded"]
    first = key(records[0])
    return [
        f"{label}: record {index} differs from record 0"
        for index, record in enumerate(records)
        if key(record) != first
    ]


# -- serve-mix ----------------------------------------------------------------


class ServeMix(Workload):
    """Seven small queries per session over loopback to a sharded service."""

    name = "serve-mix"
    FILTER_PRICE = 500

    #: One session: every op the service speaks, over a str-keyed star.
    SESSION = [
        ("join", {"op": "join", "left": "orders", "right": "customers",
                  "on": ["cust", "cust"]}),
        ("join_tree", {"op": "join_tree",
                       "tables": ["orders", "customers", "items"],
                       "tree": [[0, 1, "cust", "cust"], [0, 2, "item", "item"]]}),
        ("multiway_join", {"op": "multiway_join",
                           "tables": ["orders", "customers", "items"],
                           "on": [["cust", "cust"], ["item", "item"]]}),
        ("group_by", {"op": "group_by", "table": "orders", "key": "cust",
                      "value": "qty"}),
        ("join_aggregate", {"op": "join_aggregate", "left": "orders",
                            "right": "customers", "on": ["cust", "cust"],
                            "values": ["qty", "discount"]}),
        ("filter", {"op": "filter", "table": "orders", "column": "price",
                    "cmp": "gt", "value": FILTER_PRICE}),
        ("order_by", {"op": "order_by", "table": "orders",
                      "columns": [["qty", True], ["price", False]]}),
    ]
    ORDERS = ["oid:int", "cust:str", "item:str", "qty:int", "price:int"]
    CUSTOMERS = ["cust:str", "region:str", "discount:int"]
    ITEMS = ["item:str", "cat:int", "weight:int"]

    def __init__(self, seed, recorder, workdir, tiny=False):
        super().__init__(seed, recorder, workdir, tiny)
        scale = 16 if tiny else 1
        n_orders, n_customers, n_items = 4096 // scale, 1024 // scale, 2048 // scale
        rng = random.Random(seed)
        # A few order keys miss the dimension tables, so joins drop rows.
        customer_keys = [f"c{i:05d}" for i in range(n_customers + n_customers // 16)]
        item_keys = [f"i{i:05d}" for i in range(n_items + n_items // 16)]
        self.customers = [
            (customer_keys[i], f"r{rng.randrange(8)}", rng.randrange(50))
            for i in range(n_customers)
        ]
        self.items = [
            (item_keys[i], rng.randrange(16), rng.randrange(1, 100))
            for i in range(n_items)
        ]
        rng.shuffle(self.customers)
        rng.shuffle(self.items)
        self.orders = [
            (
                oid,
                rng.choice(customer_keys),
                rng.choice(item_keys),
                rng.randrange(1, 20),
                rng.randrange(1, 1000),
            )
            for oid in range(n_orders)
        ]
        orders, customers, items = self.orders, self.customers, self.items
        # A fresh service encodes the session's first query first: the
        # join's left key column, then its right one.
        codes = reference.first_seen_codes(
            [row[1] for row in orders], [row[0] for row in customers]
        )
        star = reference.join_three(orders, customers, items, (1, 2), 0, 0)
        self.expected = {
            "join": reference.join(orders, customers, 1, 0, codes),
            "join_tree": star,
            "multiway_join": star,
            "group_by": reference.group_by(orders, 1, 3),
            "join_aggregate": reference.join_aggregate(orders, customers, 1, 0, 3, 2),
            "filter": reference.filter_rows(orders, 4, self.FILTER_PRICE),
            "order_by": reference.order_by(orders, [(3, True), (4, False)]),
        }
        #: Queries whose order the contract fixes; the rest are multisets.
        self.ordered = {"join", "filter", "order_by"}
        # Input rows per query, in SESSION order.
        self.rows_in = (
            (n_orders + n_customers)
            + 2 * (n_orders + n_customers + n_items)
            + n_orders
            + (n_orders + n_customers)
            + 2 * n_orders
        )
        self.loop = None
        self.thread = None
        self.server = None
        self.serving = None
        self.client = None

    def setup(self) -> None:
        # The service (and its pool fork) comes up before the server thread
        # starts: forking a process that runs threads is unsafe.
        self.service = ServiceEngine(engine="sharded", **SHARDED)
        # The tables register in-process: `repro serve` drops a `register`
        # line over asyncio's 64 KiB stream limit (README, defect b).
        self.service.register_table("orders", DBTable.from_rows(self.ORDERS, self.orders))
        self.service.register_table(
            "customers", DBTable.from_rows(self.CUSTOMERS, self.customers)
        )
        self.service.register_table("items", DBTable.from_rows(self.ITEMS, self.items))
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.server = QueryServer(self.service)
        asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(30)
        self.serving = asyncio.run_coroutine_threadsafe(
            self.server.serve_until_shutdown(), self.loop
        )
        self.client = ServiceClient(self.server.host, self.server.port, timeout=120.0)

    def op(self, index: int) -> Outcome:
        rows = {}
        stats = []
        seconds = {}
        for label, spec in self.SESSION:
            start = time.perf_counter()
            table, query_stats = self.client.query(spec)
            seconds[label] = time.perf_counter() - start
            rows[label] = table.rows
            stats.append(query_stats)
        return Outcome(
            rows=rows,
            rows_in=self.rows_in,
            stats=stats,
            query_seconds=seconds,
        )

    def check(self, index: int, outcome: Outcome) -> list[str]:
        problems = []
        for label, want in self.expected.items():
            got = outcome.rows.get(label)
            if got is None:
                problems.append(f"{label}: no output")
                continue
            problems += mismatch(
                label, got if label in self.ordered else Counter(got), want
            )
        return problems

    def teardown(self) -> None:
        if self.client is not None:
            try:
                self.client.shutdown()
            except (ServiceError, OSError):
                # The server dropped the connection; stop it from its loop.
                self.loop.call_soon_threadsafe(self.server.stop)
            finally:
                self.client.close()
                self.client = None
        if self.serving is not None:
            self.serving.result(60)  # closes the service too
            self.serving = None
            self.service = None
        if self.loop is not None:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(60)
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
            self.loop.close()
            self.loop = None
            self.thread = None
        super().teardown()


# -- store-refresh ------------------------------------------------------------


class StoreRefresh(Workload):
    """Write, reopen, re-register and join a fact batch in an encrypted store."""

    name = "store-refresh"
    SPEC = {"op": "join", "left": "fact", "right": "dim", "on": ["fk", "dk"]}
    FACT = ["fk:int"] + [f"c{i}:int" for i in range(1, 8)]
    DIM = ["dk:int", "a:int", "b:int"]
    BATCHES = 3

    def __init__(self, seed, recorder, workdir, tiny=False):
        super().__init__(seed, recorder, workdir, tiny)
        self.n_fact = 1 << (10 if tiny else 15)
        self.n_dim = 1 << (9 if tiny else 14)
        #: Trusted-memory budget: an eighth of a fact batch, so reads evict.
        self.cache_bytes = (16 if tiny else 256) * 1024
        rng = random.Random(seed)
        self.key = rng.randbytes(32)
        dim_keys = list(range(self.n_dim))
        rng.shuffle(dim_keys)
        self.dim_rows = [
            (k, rng.randrange(1 << 30), rng.randrange(1 << 30)) for k in dim_keys
        ]
        self.batches = []
        self.expected = []
        for _ in range(self.BATCHES):
            rows = [
                (rng.randrange(self.n_dim),)
                + tuple(rng.randrange(1 << 30) for _ in range(7))
                for _ in range(self.n_fact)
            ]
            self.batches.append(DBTable.from_rows(self.FACT, rows))
            self.expected.append(reference.join(rows, self.dim_rows, 0, 0))
        self.fact_store = None

    def _store(self, label: str) -> FileStore:
        return FileStore(os.path.join(self.workdir, label), key=self.key)

    def setup(self) -> None:
        dim_store = self._store(f"dim-{len(os.listdir(self.workdir))}")
        DBTable.from_rows(self.DIM, self.dim_rows).to_store(dim_store, "dim")
        dim = DBTable.open(dim_store, "dim", cache_bytes=self.cache_bytes)
        self.service = ServiceEngine(engine="sharded", **SHARDED).start()
        self.service.register_table("dim", dim)

    def prepare(self, index: int) -> None:
        # Each batch goes into a store of its own: rewriting one store in
        # place returns wrong join rows today (README, defect c), so the
        # previous batch's store is dropped instead.
        if self.fact_store is not None:
            shutil.rmtree(self.fact_store.path, ignore_errors=True)
            self.fact_store = None

    def op(self, index: int) -> Outcome:
        batch = self.batches[index % self.BATCHES]
        self.fact_store = self._store(f"fact-{index}")
        batch.to_store(self.fact_store, "fact")
        fact = DBTable.open(self.fact_store, "fact", cache_bytes=self.cache_bytes)
        self.service.register_table("fact", fact)
        result = self.service.query(self.SPEC)
        return Outcome(
            rows={"join": result.table.rows},
            rows_in=self.n_fact + self.n_dim,
            stats=[result.stats.to_dict()],
        )

    def check(self, index: int, outcome: Outcome) -> list[str]:
        problems = mismatch(
            "join", outcome.rows["join"], self.expected[index % self.BATCHES]
        )
        self.store_ratio = self.bytes_per_user_byte()
        return problems

    def bytes_per_user_byte(self) -> float:
        """Bytes the fact store holds at rest over the batch's user bytes."""
        at_rest = sum(
            entry.stat().st_size
            for entry in os.scandir(self.fact_store.path)
            if entry.is_file()
        )
        return at_rest / (self.n_fact * len(self.FACT) * 8)


# -- padded-join --------------------------------------------------------------


class PaddedJoin(Workload):
    """A bounded-padding sharded join over a fresh PK-FK input per query."""

    name = "padded-join"
    SPEC = {"op": "join", "left": "p", "right": "f", "on": ["k", "k"]}

    def __init__(self, seed, recorder, workdir, tiny=False):
        super().__init__(seed, recorder, workdir, tiny)
        self.n1 = 64 if tiny else 512
        self.n2 = 2 * self.n1
        self.inputs: dict[int, tuple] = {}
        self.records: list = []
        recorder.observe(
            "sharded_oblivious_join",
            lambda args, kwargs, result: self.records.append(
                join_schedule(args, kwargs, result)
            ),
        )

    def prepare(self, index: int) -> None:
        load = pk_fk(self.n1, self.n2, seed=self.seed * 100_003 + index)
        self.inputs = {
            index: (
                DBTable.from_rows(["k:int", "v:int"], load.left),
                DBTable.from_rows(["k:int", "w:int"], load.right),
                reference.join(load.left, load.right, 0, 0),
            )
        }

    def setup(self) -> None:
        self.service = ServiceEngine(
            engine="sharded", padding="bounded", bound=2 * self.n1, **SHARDED
        ).start()

    def op(self, index: int) -> Outcome:
        left, right, _ = self.inputs[index]
        self.service.register_table("p", left)
        self.service.register_table("f", right)
        result = self.service.query(self.SPEC)
        return Outcome(
            rows={"join": result.table.rows},
            rows_in=self.n1 + self.n2,
            stats=[result.stats.to_dict()],
        )

    def check(self, index: int, outcome: Outcome) -> list[str]:
        return mismatch("join", outcome.rows["join"], self.inputs[index][2])

    def oblivious(self) -> list[str]:
        return schedule_violations("padded join schedule and plan", self.records)


WORKLOADS = {
    workload.name: workload
    for workload in (JoinBulk, ServeMix, StoreRefresh, PaddedJoin)
}
