"""The asyncio network front-end: ``ReproServer`` and its connections.

**Threading model.**  The stores are blocking, single-writer engines; the
event loop must never run one of their operations directly.  Every
connection therefore gets a *dedicated one-thread executor*: each request
is decoded on the loop, executed on the connection's pinned worker thread,
and answered on the loop.  Pinning buys two properties at once:

* **Transaction affinity.** An interactive transaction holds the store's
  reentrant writer lock, which is owned by the thread that entered it.
  With one immortal worker per connection, every op of a wire transaction
  runs on the thread that opened it — the bracket behaves exactly like an
  embedded ``with store.transaction():`` block.
* **Group-commit funneling.** Concurrent commits from different
  connections run on different threads, so they reach the write-ahead
  log's group commit together: one worker pays the fsync, the rest ride
  it (``commit_flush`` tickets / ``wait_durable``).  On a ``sync`` tenant
  each decoded autocommit write frame, and each outermost transaction
  commit frame, announces its connection's worker to group commit
  *before* the executor hop, so an fsync leader also waits for requests
  still queued behind the event loop or admission — never once the log's
  cap passes without a commit, and not at all when nobody else is
  committing.  Sharded tenants announce per core, inside the engine.

**Reads.**  ``extent`` and ``query`` read a snapshot of the committed
store, never the live one: other connections' workers write it
concurrently.  Inside the connection's own open transaction they read the
live store instead — that worker holds the writer lock, and the
transaction must see its own writes.

**Admission control.**  ``max_connections`` is enforced at accept — the
surplus connection receives a *retryable*
:class:`~repro.errors.AdmissionError` frame and is closed, so clients can
back off and retry rather than hang.  ``max_inflight`` is a global
semaphore bounding concurrently executing store operations; connections
holding an open transaction bypass it (their ops must be able to reach
the worker or the writer lock could never be released — the cap would
deadlock against itself).

**Lifecycle.**  Disconnects roll open transactions back on the
connection's own worker (the lock owner), close its snapshots and release
its tenant lease — the store survives un-poisoned.  Idle tenants are
evicted on a background sweep; :meth:`ReproServer.aclose` stops accepting,
drains connections, and checkpoints + closes every tenant store.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import threading
from collections.abc import AsyncIterator, Callable, Coroutine
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.engine.api import SnapshotAPI, StoreAPI
from repro.engine.indexes import oid_sort_key
from repro.errors import AdmissionError, ProtocolError, ReproError
from repro.server import protocol
from repro.server.tenants import TenantRegistry

if TYPE_CHECKING:
    from repro.engine.wal import WriteAheadLog

__all__ = ["ServerConfig", "ReproServer", "ServerThread"]


@dataclass
class ServerConfig:
    """Tuning knobs for :class:`ReproServer`."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read the bound one off ``server.address``.
    port: int = 0
    #: Directory for durable tenant stores; ``None`` keeps tenants in memory.
    root: str | Path | None = None
    #: ``True`` makes every commit durable with an fsync before it is
    #: acknowledged; concurrent commits share fsyncs through group commit.
    #: ``False`` (default) flushes to the OS only: durable against a
    #: server crash, not against power loss.
    sync: bool = False
    checkpoint_every: int = 10_000
    #: Accept at most this many concurrent connections; the surplus is
    #: rejected with a retryable admission error frame.
    max_connections: int = 64
    #: At most this many store operations execute concurrently (0 = off).
    max_inflight: int = 32
    #: Close tenant stores unleased for this long (0 disables the sweep).
    idle_timeout: float = 300.0


class ReproServer:
    """Asyncio TCP server speaking the :mod:`repro.server.protocol`."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self.registry = TenantRegistry(
            self.config.root,
            sync=self.config.sync,
            checkpoint_every=self.config.checkpoint_every,
        )
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._inflight: asyncio.Semaphore | None = None
        self._stop_event: asyncio.Event | None = None
        self._evictor: asyncio.Task[None] | None = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._stop_event = asyncio.Event()
        if self.config.max_inflight > 0:
            self._inflight = asyncio.Semaphore(self.config.max_inflight)
        self._server = await asyncio.start_server(
            self._accept, self.config.host, self.config.port
        )
        if self.config.idle_timeout > 0:
            self._evictor = asyncio.create_task(self._evict_loop())
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server not started")
        sockname = self._server.sockets[0].getsockname()
        return str(sockname[0]), int(sockname[1])

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to return (threadsafe via
        ``loop.call_soon_threadsafe``)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_stop`, then close cleanly."""
        assert self._stop_event is not None, "call start() first"
        try:
            await self._stop_event.wait()
        finally:
            await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting, drain connections, checkpoint + close tenants."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._evictor is not None:
            self._evictor.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._evictor
        tasks = [conn.task for conn in list(self._connections) if conn.task]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        # Workers have drained their rollback/cleanup queues by the time
        # their tasks finish, so the registry can close stores safely.
        self.registry.shutdown()

    async def _evict_loop(self) -> None:
        interval = max(0.02, self.config.idle_timeout / 5.0)
        while True:
            await asyncio.sleep(interval)
            await asyncio.get_running_loop().run_in_executor(
                None, self.registry.evict_idle, self.config.idle_timeout
            )

    # -- accepting ---------------------------------------------------------

    @property
    def connection_count(self) -> int:
        return len(self._connections)

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._closed or len(self._connections) >= self.config.max_connections:
            reason = (
                "server is shutting down"
                if self._closed
                else (
                    f"server at its {self.config.max_connections}-connection "
                    "limit; retry after backoff"
                )
            )
            with contextlib.suppress(Exception):
                writer.write(
                    protocol.pack_frame(
                        protocol.error_response(
                            None, AdmissionError(reason, retryable=True)
                        )
                    )
                )
                await writer.drain()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            return
        connection = _Connection(self, reader, writer)
        self._connections.add(connection)
        connection.task = asyncio.current_task()
        try:
            await connection.run()
        except asyncio.CancelledError:
            # Shutdown cancels connection tasks; run()'s finally has
            # already rolled back and released — end the task quietly.
            pass
        finally:
            self._connections.discard(connection)


class _ClientAbort(Exception):
    """Sentinel fed to ``Transaction.__exit__`` to force a rollback."""


class _Connection:
    """One client connection: codec state, leased store, worker thread,
    open transaction stack, open snapshots."""

    def __init__(
        self,
        server: ReproServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.task: asyncio.Task[None] | None = None
        self.codec = "json"
        #: Set by ``hello``: the negotiated codec takes effect only after
        #: the hello response itself has gone out in the old one.
        self._pending_codec: str | None = None
        self.tenant: str | None = None
        self.store: StoreAPI | None = None
        #: The tenant's write-ahead log when its commits fsync (a plain
        #: ``sync`` store); write frames announce the worker to it.
        self._group_wal: WriteAheadLog | None = None
        #: Ident of the worker thread, known once ``open`` ran on it.
        self._worker: int | None = None
        self._txns: list[Any] = []
        self._snapshots: dict[str, SnapshotAPI] = {}
        self._next_snapshot = 0
        # One immortal worker thread per connection: transaction affinity
        # plus cross-connection group-commit coalescing (module docstring).
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-conn"
        )

    # -- main loop ---------------------------------------------------------

    async def run(self) -> None:
        try:
            while True:
                try:
                    prefix = await self.reader.readexactly(
                        protocol._LENGTH.size
                    )
                    payload = await self.reader.readexactly(
                        protocol.frame_length(prefix)
                    )
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break  # peer went away; cleanup rolls everything back
                if not await self._serve_one(payload):
                    break
        finally:
            await self._cleanup()

    async def _serve_one(self, payload: bytes) -> bool:
        """Decode, dispatch and answer one frame; False ends the session."""
        request_id: Any = None
        try:
            message = protocol.decode_payload(payload, self.codec)
            request_id = message.get("id")
            op = message.get("op")
            handler = _HANDLERS.get(str(op))
            if handler is None:
                raise ProtocolError(f"unknown operation {op!r}")
            response, keep_going = await handler(self, message)
            await self._send(protocol.ok_response(request_id, **response))
            if self._pending_codec is not None:
                self.codec = self._pending_codec
                self._pending_codec = None
            return keep_going
        except ProtocolError as exc:
            # The frame stream itself is suspect: answer and hang up.
            with contextlib.suppress(Exception):
                await self._send(protocol.error_response(request_id, exc))
            return False
        except ReproError as exc:
            return await self._send_error(request_id, exc)
        except Exception as exc:  # engine invariant failure — stay typed
            return await self._send_error(request_id, exc)

    async def _send(self, message: dict[str, Any]) -> None:
        self.writer.write(protocol.pack_frame(message, self.codec))
        await self.writer.drain()

    async def _send_error(self, request_id: Any, exc: BaseException) -> bool:
        # Build the frame *before* the suppressed send: an exception whose
        # structured payload cannot be encoded must still produce an
        # answer (a swallowed response would hang the client forever).
        try:
            frame = protocol.error_response(request_id, exc)
            protocol.encode_payload(frame, self.codec)
        except Exception as encode_exc:
            frame = protocol.error_response(
                request_id,
                ReproError(
                    f"{type(exc).__name__}: {exc} "
                    f"(structured payload not encodable: {encode_exc})"
                ),
            )
        with contextlib.suppress(Exception):
            await self._send(frame)
        return True

    # -- worker + admission ------------------------------------------------

    async def _run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run a blocking store call on this connection's pinned worker,
        under the global in-flight cap unless a transaction is open."""
        loop = asyncio.get_running_loop()
        call = functools.partial(fn, *args) if args else fn
        async with self._admit():
            return await loop.run_in_executor(self._executor, call)

    async def _run_write(self, fn: Callable[..., Any], *args: Any) -> Any:
        """:meth:`_run` for a frame that reaches a commit point: an
        autocommit write, or the commit of an outermost transaction.  On a
        ``sync`` tenant the worker is announced to group commit before the
        executor hop and retired when the job ends (the commit point
        already retires it unless the write failed).  Writes inside an open
        transaction are not announced: the worker holds the writer lock and
        the commit may be many round trips away."""
        wal, worker = self._group_wal, self._worker
        if (
            wal is None
            or worker is None
            or self._txns
            or not wal.announce(worker)
        ):
            return await self._run(fn, *args)

        def job() -> Any:
            try:
                return fn(*args)
            finally:
                wal.retire(worker)

        try:
            return await self._run(job)
        except BaseException:
            wal.retire(worker)  # the job may never have run
            raise

    def _read(self, read: Callable[[Any], list[Any]]) -> Callable[[], list[Any]]:
        """A worker job applying ``read`` to what this connection may see:
        its own open transaction's live store (this worker holds the writer
        lock), otherwise a snapshot of the committed store — iterating the
        live store beside another connection's writer is unsafe."""
        store = self._require_store()
        if self._txns:
            return lambda: read(store)

        def job() -> list[Any]:
            with store.snapshot() as snapshot:
                return read(snapshot)

        return job

    @contextlib.asynccontextmanager
    async def _admit(self) -> AsyncIterator[None]:
        inflight = self.server._inflight
        if inflight is None or self._txns:
            # Transaction holders must always reach their worker: their
            # commit releases the writer lock other admitted ops block on.
            yield
            return
        async with inflight:
            yield

    def _require_store(self) -> StoreAPI:
        if self.store is None:
            raise ProtocolError(
                "no tenant opened on this connection (send an 'open' first)"
            )
        return self.store

    # -- cleanup -----------------------------------------------------------

    async def _cleanup(self) -> None:
        """Roll back, release, retire the worker.  Runs on the loop; the
        blocking pieces run as the worker's final jobs so lock affinity
        holds to the very end."""
        future = self._executor.submit(self._cleanup_sync)
        self._executor.shutdown(wait=False)
        with contextlib.suppress(Exception):
            await asyncio.shield(asyncio.wrap_future(future))
        self.writer.close()
        with contextlib.suppress(Exception):
            await self.writer.wait_closed()

    def _cleanup_sync(self) -> None:
        """Final worker job: abort open transactions innermost-first (the
        worker owns the writer lock, so rollback cannot be done anywhere
        else), close snapshots, release the tenant lease."""
        while self._txns:
            txn = self._txns.pop()
            with contextlib.suppress(Exception):
                txn.__exit__(_ClientAbort, _ClientAbort("connection lost"), None)
        for snapshot in self._snapshots.values():
            with contextlib.suppress(Exception):
                snapshot.close()
        self._snapshots.clear()
        if self.tenant is not None:
            self.server.registry.release(self.tenant)
            self.tenant = None
            self.store = None
            self._group_wal = None


# -- operation handlers ------------------------------------------------------
#
# Each handler returns ``(response_fields, keep_going)``.  Store access goes
# through ``conn._run`` so it lands on the connection's worker thread.


async def _op_hello(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    codec = protocol.negotiate_codec(message.get("codec"))
    # The hello exchange itself rides the current codec (json on a fresh
    # connection); _serve_one applies the switch after answering.
    conn._pending_codec = codec
    return {
        "server": "repro",
        "version": protocol.PROTOCOL_VERSION,
        "codec": codec,
        "codecs": list(protocol.available_codecs()),
    }, True


async def _op_open(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    if conn._txns:
        raise ProtocolError("cannot switch tenants inside a transaction")
    tenant = str(message.get("tenant", ""))
    schema = message.get("schema")
    shards = message.get("shards")
    spread = tuple(message.get("spread") or ())
    registry = conn.server.registry

    def lease() -> tuple[int, StoreAPI]:
        store = registry.lease(
            tenant,
            str(schema) if schema is not None else None,
            int(shards) if shards is not None else None,
            spread,
        )
        return threading.get_ident(), store

    conn._worker, store = await conn._run(lease)
    previous = conn.tenant
    conn.tenant, conn.store = tenant, store
    # A plain store exposes its log; a sharded one announces per core.
    wal = getattr(store, "wal", None)
    conn._group_wal = wal if wal is not None and wal.sync else None
    if previous is not None:
        registry.release(previous)
    return {
        "tenant": tenant,
        "database": store.schema.name,  # type: ignore[attr-defined]
        "durable": store.durable,
        "objects": len(store),
    }, True


async def _op_insert(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    from repro.engine.wal import decode_state

    store = conn._require_store()
    state = decode_state(dict(message.get("state") or {}))
    obj = await conn._run_write(store.insert, str(message["class"]), state)
    return {"object": protocol.encode_object(obj)}, True


async def _op_update(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    from repro.engine.wal import decode_state

    store = conn._require_store()
    changes = decode_state(dict(message.get("changes") or {}))
    obj = await conn._run_write(
        functools.partial(store.update, str(message["oid"]), **changes)
    )
    return {"object": protocol.encode_object(obj)}, True


async def _op_delete(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    store = conn._require_store()
    await conn._run_write(store.delete, str(message["oid"]))
    return {}, True


async def _op_get(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    store = conn._require_store()
    obj = await conn._run(store.get, str(message["oid"]))
    return {"object": protocol.encode_object(obj)}, True


async def _op_extent(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    class_name = message.get("class")
    deep = bool(message.get("deep", True))

    def read(view: Any) -> list[Any]:
        if class_name is None:
            # A null class asks for every object in the store (the
            # client's ``objects()``), in the embedded iteration order.
            return sorted(view.objects(), key=lambda obj: oid_sort_key(obj.oid))
        return view.extent(str(class_name), deep)

    objects = await conn._run(conn._read(read))
    return {"objects": [protocol.encode_object(obj) for obj in objects]}, True


async def _op_query(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    """Server-side filtered extent: attribute-equality ``where`` plus an
    optional ``limit`` — enough to keep chatty scans off the wire."""
    class_name = str(message["class"])
    deep = bool(message.get("deep", True))
    where = {
        str(name): protocol.decode_constant(value)
        for name, value in dict(message.get("where") or {}).items()
    }
    limit = message.get("limit")

    def scan(view: Any) -> list[Any]:
        matches = []
        for obj in view.extent(class_name, deep):
            if all(obj.state.get(name) == value for name, value in where.items()):
                matches.append(obj)
                if limit is not None and len(matches) >= int(limit):
                    break
        return matches

    objects = await conn._run(conn._read(scan))
    return {"objects": [protocol.encode_object(obj) for obj in objects]}, True


async def _op_txn_begin(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    store = conn._require_store()
    validate = bool(message.get("validate", True))

    def begin() -> Any:
        txn = store.transaction(validate)
        txn.__enter__()
        return txn

    conn._txns.append(await conn._run(begin))
    return {"depth": len(conn._txns)}, True


async def _op_txn_commit(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    if not conn._txns:
        raise ProtocolError("commit without an open transaction")
    # Pop before committing: the bracket is consumed either way (a failed
    # commit validation has already rolled the transaction back).
    txn = conn._txns.pop()
    await conn._run_write(txn.__exit__, None, None, None)
    return {"depth": len(conn._txns)}, True


async def _op_txn_abort(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    if not conn._txns:
        raise ProtocolError("abort without an open transaction")
    txn = conn._txns.pop()

    def abort() -> None:
        txn.__exit__(_ClientAbort, _ClientAbort("client abort"), None)

    await conn._run(abort)
    return {"depth": len(conn._txns)}, True


async def _op_snapshot_open(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    store = conn._require_store()
    snapshot = await conn._run(store.snapshot)
    conn._next_snapshot += 1
    handle = f"s{conn._next_snapshot}"
    conn._snapshots[handle] = snapshot
    return {"snapshot": handle, "objects": len(snapshot)}, True


def _snapshot_for(conn: _Connection, message: dict[str, Any]) -> SnapshotAPI:
    handle = str(message.get("snapshot", ""))
    snapshot = conn._snapshots.get(handle)
    if snapshot is None:
        raise ProtocolError(f"unknown snapshot handle {handle!r}")
    return snapshot


async def _op_snapshot_get(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    snapshot = _snapshot_for(conn, message)
    obj = await conn._run(snapshot.get, str(message["oid"]))
    return {"object": protocol.encode_object(obj)}, True


async def _op_snapshot_extent(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    snapshot = _snapshot_for(conn, message)
    class_name = message.get("class")
    if class_name is None:
        objects = await conn._run(lambda: list(snapshot.objects()))
    else:
        objects = await conn._run(
            snapshot.extent,
            str(class_name),
            bool(message.get("deep", True)),
        )
    return {"objects": [protocol.encode_object(obj) for obj in objects]}, True


async def _op_snapshot_close(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    handle = str(message.get("snapshot", ""))
    snapshot = conn._snapshots.pop(handle, None)
    if snapshot is not None:
        await conn._run(snapshot.close)
    return {}, True


async def _op_audit(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    store = conn._require_store()
    violations = await conn._run(store.audit)
    return {
        "violations": [protocol.encode_violation(v) for v in violations]
    }, True


async def _op_explain(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    store = conn._require_store()
    cores = await conn._run(store.explain_violations)
    return {"cores": [protocol.encode_core(core) for core in cores]}, True


async def _op_set_constant(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    store = conn._require_store()
    value = protocol.decode_constant(message.get("value"))
    await conn._run(store.set_constant, str(message["name"]), value)
    return {}, True


async def _op_checkpoint(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    store = conn._require_store()
    await conn._run(store.checkpoint)
    return {}, True


async def _op_stats(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    registry = conn.server.registry
    tenants = await conn._run(registry.stats)
    mine = next(
        (entry for entry in tenants if entry["tenant"] == conn.tenant), None
    )
    return {
        "connections": conn.server.connection_count,
        "max_connections": conn.server.config.max_connections,
        "max_inflight": conn.server.config.max_inflight,
        "tenants": tenants,
        "tenant": mine,
    }, True


async def _op_close(
    conn: _Connection, message: dict[str, Any]
) -> tuple[dict[str, Any], bool]:
    return {}, False


_Handler = Callable[
    [_Connection, dict[str, Any]],
    Coroutine[Any, Any, tuple[dict[str, Any], bool]],
]

_HANDLERS: dict[str, _Handler] = {
    protocol.OP_HELLO: _op_hello,
    protocol.OP_OPEN: _op_open,
    protocol.OP_INSERT: _op_insert,
    protocol.OP_UPDATE: _op_update,
    protocol.OP_DELETE: _op_delete,
    protocol.OP_GET: _op_get,
    protocol.OP_EXTENT: _op_extent,
    protocol.OP_QUERY: _op_query,
    protocol.OP_TXN_BEGIN: _op_txn_begin,
    protocol.OP_TXN_COMMIT: _op_txn_commit,
    protocol.OP_TXN_ABORT: _op_txn_abort,
    protocol.OP_SNAPSHOT_OPEN: _op_snapshot_open,
    protocol.OP_SNAPSHOT_GET: _op_snapshot_get,
    protocol.OP_SNAPSHOT_EXTENT: _op_snapshot_extent,
    protocol.OP_SNAPSHOT_CLOSE: _op_snapshot_close,
    protocol.OP_AUDIT: _op_audit,
    protocol.OP_EXPLAIN: _op_explain,
    protocol.OP_SET_CONSTANT: _op_set_constant,
    protocol.OP_CHECKPOINT: _op_checkpoint,
    protocol.OP_STATS: _op_stats,
    protocol.OP_CLOSE: _op_close,
}


# -- running a server from synchronous code ----------------------------------


class ServerThread:
    """A :class:`ReproServer` on its own event-loop thread.

    The synchronous face the CLI, the tests and the benchmarks use::

        with ServerThread(ServerConfig(root=path)) as address:
            store = repro.client.connect(address)

    ``start()`` returns only once the socket is bound (or raises the
    startup failure); ``stop()`` performs the full clean shutdown —
    connections drained, open transactions rolled back, tenant stores
    checkpointed and closed — and joins the thread.
    """

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self.server: ReproServer | None = None
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._main, name="repro-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        assert self.address is not None
        return self.address

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self.server is not None:
            self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join()
        self._thread = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = ReproServer(self.config)
        try:
            self.address = loop.run_until_complete(server.start())
        except BaseException as exc:  # surface bind/config failures
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self.server = server
        self._loop = loop
        self._started.set()
        try:
            loop.run_until_complete(server.serve_forever())
        finally:
            self._loop = None
            loop.close()
