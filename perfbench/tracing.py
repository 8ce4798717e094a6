"""Spans recorded from outside the program.

The traced mode replaces public functions and methods of ``repro`` with
wrappers that record one span per call: a name, start and end on the
monotonic clock (``perf_counter_ns``, which is ``CLOCK_MONOTONIC`` on Linux
and therefore comparable across the benchmark and server processes), the
enclosing span on the same thread, an optional size and a flag.  Nothing
inside ``src/`` changes; the wrappers are installed by the benchmark process
itself and, for served workloads, by ``serve_traced.py`` before it calls the
normal ``repro serve`` entry point.

Spans stay in per-thread arrays while the run lasts and are written out as
one gzip'd JSON file per process at the end.  A span's *self* time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import array
import base64
import functools
import gzip
import json
import os
import threading
from collections.abc import Callable, Iterable
from time import perf_counter_ns
from typing import Any


class _Buffer:
    """One thread's spans, as parallel arrays (index = span id)."""

    __slots__ = ("tid", "name", "start", "end", "parent", "value", "flag", "stack")

    def __init__(self, tid: int):
        self.tid = tid
        self.name = array.array("H")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.value = array.array("i")
        self.flag = array.array("b")
        self.stack: list[int] = []


class Tracer:
    """Installs span-recording wrappers and owns the recorded spans."""

    def __init__(self, process: str):
        self.process = process
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _new_buffer(self) -> _Buffer:
        buf = _Buffer(threading.get_ident())
        with self._lock:
            self._buffers.append(buf)
        self._local.buf = buf
        return buf

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        value: Callable[[tuple, dict, Any], int] | None = None,
        flag: Callable[[tuple, dict, bool], bool] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``value(args, kwargs, result)`` stores a number with the span (frame
        bytes); ``flag(args, kwargs, raised)`` marks it (a rollback)."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else getattr(owner, attr)
        code = self._code(name)
        local = self._local
        new_buffer = self._new_buffer

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            stack = buf.stack
            idx = len(buf.start)
            buf.name.append(code)
            buf.parent.append(stack[-1] if stack else -1)
            buf.value.append(0)
            buf.flag.append(0)
            buf.end.append(0)
            stack.append(idx)
            buf.start.append(perf_counter_ns())
            raised = True
            result = None
            try:
                result = original(*args, **kwargs)
                raised = False
                return result
            finally:
                buf.end[idx] = perf_counter_ns()
                stack.pop()
                if value is not None and not raised:
                    buf.value[idx] = value(args, kwargs, result)
                if flag is not None and flag(args, kwargs, raised):
                    buf.flag[idx] = 1

        functools.update_wrapper(traced, original)
        replacement = classmethod(traced) if is_classmethod else traced
        previous = raw if raw is not None else getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, previous))

    def count(self, owner: Any, attr: str) -> None:
        """Replace ``owner.attr`` with a wrapper that records no span of its
        own but adds one to the ``value`` of the enclosing span: cheap enough
        for calls made thousands of times per commit (constraint checks)."""
        original = getattr(owner, attr)
        local = self._local

        def counted(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.buf.stack
            except AttributeError:
                stack = None
            if stack:
                local.buf.value[stack[-1]] += 1
            return original(*args, **kwargs)

        functools.update_wrapper(counted, original)
        setattr(owner, attr, counted)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, previous = self._installed.pop()
            setattr(owner, attr, previous)

    # -- output ------------------------------------------------------------

    def dump(self) -> dict[str, Any]:
        """The recorded spans; each thread's arrays as base64 machine bytes."""
        with self._lock:
            buffers = list(self._buffers)
        threads = []
        for buf in buffers:
            count = len(buf.end)  # end is appended before start
            thread: dict[str, Any] = {"tid": buf.tid}
            for field in _FIELDS:
                data = getattr(buf, field)[:count]
                thread[field] = [data.typecode, base64.b64encode(data.tobytes()).decode()]
            threads.append(thread)
        return {
            "process": self.process,
            "pid": os.getpid(),
            "names": list(self.names),
            "threads": threads,
        }

    def write(self, path: str) -> None:
        """Write the span dump atomically (readers poll for ``path``)."""
        write_dump(self.dump(), path)


_FIELDS = ("name", "start", "end", "parent", "value", "flag")


def write_dump(dump: dict[str, Any], path: str) -> None:
    tmp = f"{path}.tmp"
    with gzip.open(tmp, "wt", compresslevel=1) as handle:
        json.dump(dump, handle, separators=(",", ":"))
    os.replace(tmp, path)


def _arrays(thread: dict[str, Any]) -> dict[str, array.array]:
    arrays = {}
    for field in _FIELDS:
        typecode, data = thread[field]
        arrays[field] = array.array(typecode, base64.b64decode(data))
    return arrays


def read_dump(path: str) -> dict[str, Any]:
    with gzip.open(path, "rt") as handle:
        return json.load(handle)


# -- what is wrapped ---------------------------------------------------------

def _result_len(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _payload_len(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0])


def _raised(args: tuple, kwargs: dict, raised: bool) -> bool:
    return raised


def _rolled_back(args: tuple, kwargs: dict, raised: bool) -> bool:
    # Transaction.__exit__(self, exc_type, exc, tb): a rollback either
    # arrives with an exception or raises a commit-time violation.
    return raised or args[1] is not None


def install_client(tracer: Tracer) -> None:
    """Wrappers for the process that holds a ``RemoteStore`` (codec only)."""
    from repro.server import protocol

    tracer.wrap(protocol, "encode_payload", "protocol.encode", value=_result_len)
    tracer.wrap(protocol, "decode_payload", "protocol.decode", value=_payload_len)
    tracer.wrap(protocol, "pack_frame", "protocol.pack", value=_result_len)


def install_store(tracer: Tracer) -> None:
    """Wrappers for the process that holds the store: every layer's public
    entry points, from codec and tenant registry down to ``os.fsync``."""
    from repro.engine import (
        concurrency, explain, incremental, indexes, sharding, store, transactions, wal,
    )
    from repro.server import tenants
    from repro.tm.schema import DatabaseSchema

    install_client(tracer)
    tracer.wrap(tenants.TenantRegistry, "lease", "tenants.lease")
    ObjectStore = store.ObjectStore
    for op in ("insert", "update", "delete"):
        tracer.wrap(ObjectStore, op, f"store.{op}", flag=_raised)
    tracer.wrap(ObjectStore, "get", "store.get")
    tracer.wrap(ObjectStore, "extent", "store.extent")
    tracer.wrap(ObjectStore, "open", "store.open")
    tracer.wrap(ObjectStore, "audit", "enforcement.audit")
    tracer.wrap(ObjectStore, "checkpoint", "wal.checkpoint")
    tracer.wrap(ObjectStore, "snapshot", "concurrency.snapshot")
    tracer.wrap(concurrency.Snapshot, "extent", "concurrency.extent")
    tracer.wrap(concurrency.Snapshot, "get", "concurrency.get")
    tracer.wrap(concurrency.ConcurrencyControl, "publish", "concurrency.publish")
    tracer.wrap(DatabaseSchema, "fingerprint", "schema.fingerprint")
    tracer.wrap(incremental, "check_delta", "incremental.check", flag=_raised)
    tracer.wrap(incremental, "delta_violations", "incremental.check")
    # Constraint evaluations are counted into the enclosing check's span.
    tracer.count(incremental.IndexedConstraint, "evaluate_with")
    for op in ("on_insert", "on_update", "on_delete"):
        tracer.wrap(indexes.IndexManager, op, "indexes.apply")
    tracer.wrap(indexes.IndexManager, "rebuild", "indexes.rebuild")
    tracer.wrap(transactions.Transaction, "__exit__", "transactions.commit", flag=_rolled_back)
    tracer.wrap(explain, "explain_violations", "explain.core")
    tracer.wrap(explain, "failure_trace", "explain.core")
    WAL = wal.WriteAheadLog
    for op in (
        "log_insert", "log_update", "log_delete", "begin", "commit_transaction",
        "abort_transaction", "prepare_transaction", "log_decide", "log_resolve",
    ):
        tracer.wrap(WAL, op, "wal.append")
    tracer.wrap(WAL, "commit_flush", "wal.flush")
    tracer.wrap(WAL, "wait_durable", "wal.durable_wait")
    tracer.wrap(os, "fsync", "os.fsync")
    # ``store`` binds load_image at import time, so both names are wrapped.
    tracer.wrap(wal, "load_image", "wal.replay")
    tracer.wrap(store, "load_image", "wal.replay")
    Sharded = sharding.ShardedStore
    for op in ("insert", "update", "delete"):
        tracer.wrap(Sharded, op, f"sharding.{op}", flag=_raised)
    tracer.wrap(Sharded, "open", "sharding.open")
    # The router's transaction class is reached through its public factory.
    probe = object.__new__(Sharded)
    txn_class = type(Sharded.transaction(probe))
    tracer.wrap(txn_class, "__exit__", "sharding.commit", flag=_rolled_back)


# -- aggregation -------------------------------------------------------------


class SpanStats:
    """Per-name totals over the spans whose start lies in a window."""

    def __init__(self) -> None:
        self.count: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.value: dict[str, int] = {}
        self.flagged: dict[str, int] = {}
        #: (name, parent name) → [count, total_ns, self_ns]
        self.by_parent: dict[tuple[str, str | None], list[int]] = {}
        #: Starts and ends of top-level spans, for residence sums.
        self.sum_start: dict[str, int] = {}
        self.sum_end: dict[str, int] = {}

    def add(self, dump: dict[str, Any], window: tuple[int, int] | None = None) -> None:
        names = dump["names"]
        for thread in dump["threads"]:
            arrays = _arrays(thread)
            code = arrays["name"]
            start = arrays["start"]
            end = arrays["end"]
            parent = arrays["parent"]
            value = arrays["value"]
            flag = arrays["flag"]
            n = len(code)
            dur = array.array("q", (end[i] - start[i] if end[i] else 0 for i in range(n)))
            child = array.array("q", bytes(8 * n))
            for i in range(n):
                p = parent[i]
                if p >= 0:
                    child[p] += dur[i]
            lo, hi = window if window is not None else (-(1 << 62), 1 << 62)
            for i in range(n):
                if not (lo <= start[i] <= hi) or not end[i]:
                    continue
                name = names[code[i]]
                own = dur[i] - child[i]
                self.count[name] = self.count.get(name, 0) + 1
                self.total_ns[name] = self.total_ns.get(name, 0) + dur[i]
                self.self_ns[name] = self.self_ns.get(name, 0) + own
                self.value[name] = self.value.get(name, 0) + value[i]
                self.flagged[name] = self.flagged.get(name, 0) + flag[i]
                self.sum_start[name] = self.sum_start.get(name, 0) + start[i]
                self.sum_end[name] = self.sum_end.get(name, 0) + end[i]
                pname = names[code[parent[i]]] if parent[i] >= 0 else None
                entry = self.by_parent.setdefault((name, pname), [0, 0, 0])
                entry[0] += 1
                entry[1] += dur[i]
                entry[2] += own

    def n(self, name: str) -> int:
        return self.count.get(name, 0)

    def self_us(self, *names: str) -> float:
        return sum(self.self_ns.get(name, 0) for name in names) / 1e3

    def total_us(self, *names: str) -> float:
        return sum(self.total_ns.get(name, 0) for name in names) / 1e3

    def under(self, name: str, parents: Iterable[str | None]) -> tuple[int, float, float]:
        """(count, total µs, self µs) of ``name`` spans directly under any of
        ``parents``."""
        count = total = own = 0
        for parent in parents:
            entry = self.by_parent.get((name, parent))
            if entry:
                count += entry[0]
                total += entry[1]
                own += entry[2]
        return count, total / 1e3, own / 1e3
