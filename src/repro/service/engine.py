"""The query service engine: one warm engine serving a series of queries.

:class:`ServiceEngine` is the in-process core behind ``python -m repro
serve``: it owns one configured :class:`~repro.db.query.ObliviousEngine`
plus the three cross-query caches this layer exists for —

* a :class:`~repro.service.plan_cache.PlanCache` installed as the global
  plan memo (:func:`repro.plan.memo.set_plan_memo`), so repeated shapes
  skip compilation;
* an :class:`~repro.db.encoding_cache.EncodingCache` shared with the
  relational engine *and* installed as the partition cache
  (:func:`repro.shard.partition.set_partition_cache`), so repeated tables
  skip the dictionary-encoding scans, the pairs materialization, the
  shard partitioning, and — on remote executors — the parent->worker
  column write (parts are pinned in parent-published shared memory);
* the warm executor registry (:func:`repro.plan.executors.warm_executor`),
  so the sharded engine's process pool and its workers' attach caches
  survive from one query to the next.

Queries arrive as JSON-able *specs* over named registered tables (the wire
format ``repro serve`` speaks; see :data:`QUERY_OPS`) and run strictly one
at a time under a lock — obliviousness is per-schedule, and interleaving
two schedules on one tracer/engine would corrupt both.  Concurrency is
therefore admission concurrency: :meth:`submit` is safe to call from many
asyncio tasks, requests queue on the lock, and each result reports the
queue depth it saw plus its cache hit/miss deltas.  Same-shape concurrent
requests coalesce onto the same warm pool and the same cache entries by
construction — there is exactly one engine and one set of caches.

The global hook installation means at most one ServiceEngine should be
*started* per process at a time; :meth:`close` restores whatever hooks it
replaced.  Results are bit-identical to a cold engine — pinned by the
serial-vs-concurrent and cold-vs-warm tests in ``tests/test_service.py``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field

from ..db.encoding_cache import EncodingCache
from ..db.query import ObliviousEngine
from ..db.table import DBTable
from ..core.padding import compact_pairs
from ..errors import InputError, SchemaError
from ..plan.executors import executor_stats, warm_executor
from ..plan.memo import set_plan_memo
from ..shard.partition import set_partition_cache
from ..store.runtime import residency_snapshot, stats_snapshot
from .plan_cache import PlanCache

#: Spec ops the service understands (the ``repro serve`` wire surface).
QUERY_OPS = (
    "join",
    "multiway_join",
    "join_tree",
    "group_by",
    "join_aggregate",
    "order_by",
    "filter",
)

#: Comparison predicates a filter spec may name (predicates travel as data
#: on the wire, never as code).
FILTER_CMPS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


@dataclass
class QueryStats:
    """What one query cost and what the caches did for it."""

    op: str
    seconds: float
    queue_depth: int
    warm: bool
    plan_cache: dict = field(default_factory=dict)
    encoding_cache: dict = field(default_factory=dict)
    #: Block-store IO this query drove *in this process* (reads, cache
    #: hits/misses/evictions, decryptions — deltas of the attached
    #: handles' counters).  All zeros when no store-backed table was
    #: touched or the IO happened in worker processes.  Local-only
    #: diagnostics: never part of any plan or wire-visible schedule.
    store: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "seconds": self.seconds,
            "queue_depth": self.queue_depth,
            "warm": self.warm,
            "plan_cache": dict(self.plan_cache),
            "encoding_cache": dict(self.encoding_cache),
            "store": dict(self.store),
        }


@dataclass
class QueryResult:
    """A query's table plus its service-layer stats."""

    table: DBTable
    stats: QueryStats


def _delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


class ServiceEngine:
    """A warm, cache-backed engine serving a series of queries."""

    def __init__(
        self,
        engine: str = "vector",
        plan_cache: PlanCache | None = None,
        encoding_cache: EncodingCache | None = None,
        **engine_options,
    ) -> None:
        if engine == "sharded":
            # Resolve through the warm registry so the pool (and the
            # workers' attach caches) survive across queries.
            engine_options["executor"] = warm_executor(
                engine_options.get("executor"),
                workers=engine_options.get("workers", 1),
            )
        executor = engine_options.get("executor")
        publish = bool(getattr(executor, "remote_submit", False))
        self.plans = plan_cache if plan_cache is not None else PlanCache()
        self.encoding = (
            encoding_cache
            if encoding_cache is not None
            else EncodingCache(publish=publish)
        )
        self.oblivious = ObliviousEngine(
            engine=engine, encoding_cache=self.encoding, **engine_options
        )
        self.engine_name = self.oblivious.engine.name
        # The numpy engines take (n, 2) pairs arrays directly, which is
        # what lets the cached key-handle arrays (and their cached shard
        # parts) flow in without a per-query list rebuild.
        self._array_pairs = self.engine_name in ("vector", "sharded")
        self.tables: dict[str, DBTable] = {}
        self._lock = threading.Lock()
        self._waiting = 0
        self._admitted = threading.Lock()  # guards the _waiting counter
        self._started = False
        self._previous_memo = None
        self._previous_partition_cache = None
        self.queries = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServiceEngine":
        """Install the caches as the process-wide memo/partition hooks."""
        if not self._started:
            self._previous_memo = set_plan_memo(self.plans)
            self._previous_partition_cache = set_partition_cache(self.encoding)
            self._started = True
        return self

    def close(self) -> None:
        """Restore the hooks and release every pinned published segment."""
        if self._started:
            set_plan_memo(self._previous_memo)
            set_partition_cache(self._previous_partition_cache)
            self._started = False
        self.encoding.close()

    def __enter__(self) -> "ServiceEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- tables --------------------------------------------------------------

    def register_table(self, name: str, table: DBTable) -> None:
        """Register (or replace) a named table queries can reference."""
        previous = self.tables.get(name)
        if previous is not None and previous is not table:
            self.encoding.invalidate(previous)
        self.tables[name] = table

    def _table(self, name) -> DBTable:
        try:
            return self.tables[name]
        except KeyError:
            raise InputError(
                f"unknown table {name!r}; registered: {sorted(self.tables)}"
            ) from None

    # -- queries -------------------------------------------------------------

    def query(self, spec: dict) -> QueryResult:
        """Run one query spec; returns the table plus per-query stats."""
        if not isinstance(spec, dict):
            raise InputError(
                f"a query spec must be a JSON object, got {type(spec).__name__}"
            )
        op = spec.get("op")
        if op not in QUERY_OPS:
            raise InputError(
                f"unknown query op {op!r}; supported: {', '.join(QUERY_OPS)}"
            )
        with self._admitted:
            depth = self._waiting
            self._waiting += 1
        try:
            with self._lock:
                plans_before = self.plans.snapshot()
                encoding_before = self.encoding.snapshot()
                store_before = stats_snapshot()
                started = time.perf_counter()
                table = getattr(self, f"_run_{op}")(spec)
                seconds = time.perf_counter() - started
                plan_delta = _delta(plans_before, self.plans.snapshot())
                encoding_delta = _delta(
                    encoding_before, self.encoding.snapshot()
                )
                store_delta = _delta(store_before, stats_snapshot())
                self.queries += 1
        finally:
            with self._admitted:
                self._waiting -= 1
        # "Warm" means the query benefited from *previous* queries: it
        # reused table-level artifacts, or its whole plan side was served
        # from cache.  (A cold sharded query self-hits the plan memo while
        # also missing — its k x k grid repeats shapes — so plan hits
        # alone don't imply warmth.)
        warm = encoding_delta.get("hits", 0) > 0 or (
            plan_delta.get("hits", 0) > 0 and plan_delta.get("misses", 0) == 0
        )
        return QueryResult(
            table=table,
            stats=QueryStats(
                op=op,
                seconds=seconds,
                queue_depth=depth,
                warm=warm,
                plan_cache=plan_delta,
                encoding_cache=encoding_delta,
                store=store_delta,
            ),
        )

    async def submit(self, spec: dict) -> QueryResult:
        """Asyncio admission: run :meth:`query` off the event loop."""
        return await asyncio.to_thread(self.query, spec)

    def service_stats(self) -> dict:
        """Service-level counters for the ``stats`` wire request."""
        return {
            "engine": self.engine_name,
            "queries": self.queries,
            "tables": sorted(self.tables),
            "waiting": self._waiting,
            "plan_cache": self.plans.snapshot(),
            "encoding_cache": self.encoding.snapshot(),
            "executors": executor_stats(),
            "store": stats_snapshot(),
            # Per-store trusted-memory residency plus the EPC-modeled
            # paging slowdown; local operator diagnostics only.
            "store_residency": residency_snapshot(),
        }

    # -- per-op runners ------------------------------------------------------

    def _join_pairs(self, table: DBTable, column: str):
        """A table's join input, in the engine's preferred pairs form.

        A store-backed table joining on an int column hands the sharded
        engine a :class:`~repro.store.StorePairs` descriptor instead of a
        materialised array — the partitioner then ships block refs and
        the workers fault in only their plan-named blocks.  ``str`` key
        columns still need the dictionary encoder, so they take the
        resident (encoding-cache) path.
        """
        encoder = self.oblivious.encoder
        if (
            self.engine_name == "sharded"
            and hasattr(table, "store_pairs")
            and table.schema.column(column).type == "int"
        ):
            return table.store_pairs(column)
        if self._array_pairs:
            return self.encoding.key_handle_pairs(table, column, encoder)
        keys = self.encoding.encoded_keys(table, column, encoder)
        return list(zip(keys, range(len(keys))))

    def _run_join(self, spec: dict) -> DBTable:
        left = self._table(spec["left"])
        right = self._table(spec["right"])
        on = tuple(spec["on"])
        if len(on) != 2:
            raise SchemaError("join 'on' must name (left_col, right_col)")
        # Same construction as ObliviousEngine.join, but the pairs inputs
        # come from the cache — stable arrays whose shard parts (and
        # published columns) are reused across queries.
        pairs_left = self._join_pairs(left, on[0])
        pairs_right = self._join_pairs(right, on[1])
        result = self.oblivious.engine.join(
            pairs_left, pairs_right, tracer=self.oblivious.tracer
        )
        schema = left.schema.concat(right.schema, ("l", "r"))
        rows = [
            left.rows[li] + right.rows[ri]
            for li, ri in compact_pairs(result.pairs)
        ]
        return DBTable(schema, rows)

    def _run_multiway_join(self, spec: dict) -> DBTable:
        tables = [self._table(name) for name in spec["tables"]]
        on = [tuple(pair) for pair in spec["on"]]
        return self.oblivious.multiway_join(tables, on)

    def _run_join_tree(self, spec: dict) -> DBTable:
        tables = [self._table(name) for name in spec["tables"]]
        tree = [tuple(edge) for edge in spec["tree"]]
        return self.oblivious.join_tree(tables, tree)

    def _run_group_by(self, spec: dict) -> DBTable:
        return self.oblivious.group_by(
            self._table(spec["table"]), spec["key"], spec["value"]
        )

    def _run_join_aggregate(self, spec: dict) -> DBTable:
        return self.oblivious.join_aggregate(
            self._table(spec["left"]),
            self._table(spec["right"]),
            tuple(spec["on"]),
            tuple(spec["values"]),
        )

    def _run_order_by(self, spec: dict) -> DBTable:
        columns = [(name, bool(asc)) for name, asc in spec["columns"]]
        return self.oblivious.order_by(self._table(spec["table"]), columns)

    def _run_filter(self, spec: dict) -> DBTable:
        table = self._table(spec["table"])
        try:
            compare = FILTER_CMPS[spec.get("cmp", "eq")]
        except KeyError:
            raise InputError(
                f"unknown filter cmp {spec.get('cmp')!r}; "
                f"supported: {', '.join(sorted(FILTER_CMPS))}"
            ) from None
        index = table.schema.index(spec["column"])
        value = spec["value"]
        return self.oblivious.filter(
            table, lambda row: compare(row[index], value)
        )
