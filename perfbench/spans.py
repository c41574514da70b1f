"""Spans around the public functions of each layer, timed from outside.

The program has no span recorder of its own yet, so the benchmark wraps
the layer boundaries itself: :class:`SpanRecorder` replaces each named
function (or method) with a wrapper that records a span — group, start,
end, parent span, thread, and the benchmark op it belongs to — and puts
the original back on :meth:`SpanRecorder.uninstall`.

A function imported by name into other modules (``from .sort import
vector_bitonic_sort``) is one object under many names, so a patch swaps
*every* ``repro.*`` module attribute that holds it.  Methods are patched
on their class; properties get a wrapped getter.

Only the outermost span of a group is recorded on a thread's stack: a
``plan.compile`` function calling another one, or ``EncodingCache``
methods calling each other, count once.  Pool workers are forked from the
traced process and inherit the wrappers; a fork hook switches recording
off in the child, so worker-side calls run the originals' code paths with
one flag test of overhead and their time shows up parent-side as dispatch
wait.

Besides spans, a recorder can carry *observers*: plain callbacks that see
every call of a wrapped function (arguments and result) whether or not
span recording is on.  The obliviousness checks use them to capture sort
sizes and join schedules on every run, traced or not.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass, field

#: (group, module, attribute path) of every wrapped layer boundary.  An
#: attribute path is ``name`` for a module function or ``Class.name`` for
#: a method or property.
LAYER_TARGETS = [
    ("service.query", "repro.service.engine", "ServiceEngine.query"),
    ("service.register", "repro.service.engine", "ServiceEngine.register_table"),
    ("db.encode", "repro.db.encoding_cache", "EncodingCache.encoded_keys"),
    ("db.encode", "repro.db.encoding_cache", "EncodingCache.encoded_rows"),
    ("db.encode", "repro.db.encoding_cache", "EncodingCache.key_handle_pairs"),
    ("db.encode", "repro.db.encoding_cache", "EncodingCache.prewarm"),
    ("db.stored_read", "repro.db.stored", "StoredTable.column"),
    ("db.stored_read", "repro.db.stored", "StoredTable.rows"),
    ("db.open", "repro.db.stored", "open_table"),
    *(
        ("engine.call", module, f"{cls}.{method}")
        for module, cls in (
            ("repro.engines.vector", "VectorEngine"),
            ("repro.engines.sharded", "ShardedEngine"),
        )
        for method in (
            "join",
            "multiway_join",
            "join_tree",
            "aggregate",
            "group_by",
            "filter_indices",
            "order_permutation",
        )
    ),
    ("plan.publish", "repro.plan.executors", "_pack"),
    ("plan.publish", "repro.plan.executors", "host_publish_arrays"),
    ("plan.dispatch", "repro.plan.executors", "PoolExecutor.map"),
    ("plan.dispatch", "repro.plan.executors", "PoolExecutor.submit"),
    ("plan.dispatch", "repro.plan.executors", "_PoolCompletion.result"),
    ("shard.join", "repro.shard.join", "sharded_oblivious_join"),
    ("shard.join", "repro.shard.multiway", "sharded_multiway_join"),
    ("shard.join", "repro.shard.join_tree", "sharded_join_tree"),
    ("shard.grid", "repro.shard.join", "run_join_grid"),
    ("shard.merge", "repro.shard.merge", "StreamingTournament.add"),
    ("shard.merge", "repro.shard.merge", "StreamingTournament.add_published"),
    ("shard.merge", "repro.shard.merge", "StreamingTournament.result"),
    ("shard.merge", "repro.shard.merge", "oblivious_merge_runs"),
    ("vector.sort", "repro.vector.sort", "vector_bitonic_sort"),
    ("vector.join", "repro.vector.join", "vector_oblivious_join"),
    ("vector.join", "repro.vector.join", "vector_join_segment"),
    ("vector.join", "repro.vector.multiway", "vector_multiway_join"),
    ("vector.join", "repro.vector.join_tree", "vector_join_tree"),
    ("store.write", "repro.store.columns", "write_table"),
    ("store.encrypt", "repro.memory.encryption", "ProbabilisticEncryptor.encrypt"),
    ("store.decrypt", "repro.memory.encryption", "ProbabilisticEncryptor.decrypt"),
]

#: Plan compilers: every public function defined in this module.
PLAN_COMPILE_MODULE = "repro.plan.compile"

#: The executor's streaming dispatch: a generator, timed per ``next()``.
IMAP_TARGET = ("repro.plan.executors", "PoolExecutor.imap")


@dataclass
class Span:
    group: str
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    #: Numbers the wrapper measured at this boundary (rows, bytes, ...).
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def bitonic_comparators(n: int) -> int:
    """Comparators of the bitonic network :func:`vector_bitonic_sort` runs.

    The network pads ``n`` rows to the next power of two ``P`` and runs
    ``log P * (log P + 1) / 2`` stages of ``P / 2`` comparators — a
    function of the public size alone.
    """
    if n <= 1:
        return 0
    padded = 1 << (n - 1).bit_length()
    log = padded.bit_length() - 1
    return padded // 2 * log * (log + 1) // 2


def _sort_rows(args, kwargs) -> int:
    columns = args[0] if args else kwargs["columns"]
    return len(next(iter(columns.values()))) if columns else 0


def _array_bytes(arrays) -> int:
    return sum(getattr(array, "nbytes", 0) for array in arrays)


def _count_sort(span: Span, args, kwargs, result) -> None:
    rows = _sort_rows(args, kwargs)
    span.counts["rows"] = rows
    span.counts["comparators"] = bitonic_comparators(rows)


def _count_pack(span: Span, args, kwargs, result) -> None:
    segment = result[0]
    span.counts["bytes"] = segment.size if segment is not None else 0


def _count_host_publish(span: Span, args, kwargs, result) -> None:
    span.counts["bytes"] = _array_bytes(args[0] if args else kwargs["arrays"])


def _count_tasks(span: Span, args, kwargs, result) -> None:
    # map(self, task, payloads) dispatches one task per payload; submit
    # dispatches one.
    span.counts["tasks"] = len(args[2]) if len(args) > 2 else 1


def _count_tournament(span: Span, args, kwargs, result) -> None:
    tournament = args[0]
    if tournament.counter is not None:
        start = tournament.__dict__.pop("_perfbench_counter_start", 0)
        span.counts["comparators"] = tournament.counter[0] - start


#: Per-target measurements taken when a span closes.
COUNTERS = {
    "vector_bitonic_sort": _count_sort,
    "_pack": _count_pack,
    "host_publish_arrays": _count_host_publish,
    "PoolExecutor.map": _count_tasks,
    "PoolExecutor.submit": _count_tasks,
    "StreamingTournament.result": _count_tournament,
}


class SpanRecorder:
    """Wraps layer boundaries; records spans while :attr:`enabled`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        #: The benchmark op the recorded spans belong to (None = set-up).
        self.op: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._observers: dict[str, list] = {}
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.enabled = False
        self._observers = {}

    # -- observers -------------------------------------------------------------

    def observe(self, target: str, callback) -> None:
        """Call ``callback(args, kwargs, result)`` after each call of a target.

        ``target`` is the attribute path of a wrapped function (for
        example ``"vector_bitonic_sort"`` or ``"sharded_oblivious_join"``).
        Observers run in the parent process only, traced or not.
        """
        self._observers.setdefault(target, []).append(callback)

    @contextlib.contextmanager
    def observing(self, target: str, callback):
        """:meth:`observe` for the duration of a ``with`` block."""
        self.observe(target, callback)
        try:
            yield
        finally:
            self._observers[target].remove(callback)

    # -- span bookkeeping -----------------------------------------------------

    def _stack(self) -> list[tuple[str, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, group: str, name: str) -> int | None:
        stack = self._stack()
        if any(open_group == group for open_group, _ in stack):
            return None
        span = Span(
            group=group,
            name=name,
            start=time.perf_counter(),
            parent=stack[-1][1] if stack else None,
            op=self.op,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append((group, index))
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, group: str, name: str, function):
        recorder = self
        counter = COUNTERS.get(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            observers = recorder._observers.get(name)
            if not recorder.enabled:
                result = function(*args, **kwargs)
            else:
                index = recorder._open(group, name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    if index is not None:
                        span = recorder._close(index)
                if index is not None and counter is not None:
                    counter(span, args, kwargs, result)
            if observers:
                for observe in observers:
                    observe(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, group: str, name: str, function):
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            generator = function(*args, **kwargs)
            if not recorder.enabled:
                return generator
            payloads = args[2] if len(args) > 2 else kwargs["payloads"]
            recorder._tasks(len(payloads))
            return recorder._timed_iteration(group, name, generator)

        return wrapper

    def _timed_iteration(self, group: str, name: str, generator):
        with contextlib.closing(generator):
            while True:
                index = self._open(group, name)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    if index is not None:
                        self._close(index)
                yield item

    def _tasks(self, tasks: int) -> None:
        # The dispatch itself is a zero-length span carrying the task count.
        index = self._open("plan.dispatch", "PoolExecutor.imap")
        if index is not None:
            self._close(index).counts["tasks"] = tasks

    def _tournament_init(self, function):
        @functools.wraps(function)
        def wrapper(tournament, *args, **kwargs):
            function(tournament, *args, **kwargs)
            if tournament.counter is not None:
                tournament._perfbench_counter_start = tournament.counter[0]

        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        """Point every ``repro.*`` module attribute holding ``original`` at
        ``replacement``."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attribute, replacement)

    def _set(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _patch(self, group: str, module_name: str, path: str, wrap=None) -> None:
        wrap = wrap or self._wrap
        module = importlib.import_module(module_name)
        if "." not in path:
            original = getattr(module, path)
            self._replace_everywhere(original, wrap(group, path, original))
            return
        class_name, attribute = path.split(".")
        owner = getattr(module, class_name)
        original = owner.__dict__[attribute]
        if isinstance(original, property):
            replacement = property(wrap(group, path, original.fget))
        else:
            replacement = wrap(group, path, original)
        self._set(owner, attribute, replacement)

    def install(self) -> "SpanRecorder":
        """Wrap every layer boundary (idempotent until :meth:`uninstall`)."""
        if self._patches:
            return self
        importlib.import_module("repro")
        for group, module_name, path in LAYER_TARGETS:
            self._patch(group, module_name, path)
        self._patch("plan.dispatch", *IMAP_TARGET, wrap=self._wrap_generator)
        compile_module = importlib.import_module(PLAN_COMPILE_MODULE)
        for name, value in list(vars(compile_module).items()):
            if (
                not name.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == PLAN_COMPILE_MODULE
            ):
                self._patch("plan.compile", PLAN_COMPILE_MODULE, name)
        merge = importlib.import_module("repro.shard.merge")
        tournament = merge.StreamingTournament
        self._set(
            tournament,
            "__init__",
            self._tournament_init(tournament.__dict__["__init__"]),
        )
        return self

    def uninstall(self) -> None:
        """Put every original back (in reverse order of patching)."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []
        self.enabled = False
