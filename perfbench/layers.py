"""Per-layer metrics and the stacked budget of a traced run.

Span names come from :mod:`tracing`.  Times are *self* time (a span minus
its children) in µs per attempted op of the measured phase unless the name
says otherwise; counts are taken in the measured phase; ``*_s`` recovery
figures are taken while the durable directory is reopened.  Values are 0
where a workload does not exercise the layer.
"""

from __future__ import annotations

from tracing import SpanStats

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("protocol.encode_us.client", "us"),
    ("protocol.encode_us.server", "us"),
    ("protocol.decode_us.client", "us"),
    ("protocol.decode_us.server", "us"),
    ("protocol.bytes_per_op", "B"),
    ("service.self_us", "us"),
    ("tenants.lease_us", "us"),
    ("store.self_us", "us"),
    ("store.extent_us", "us"),
    ("store.recovery_s", "s"),
    ("schema.fingerprint_calls_per_commit", "count"),
    ("schema.fingerprint_us", "us"),
    ("incremental.check_us", "us"),
    ("incremental.constraints_checked_per_commit", "count"),
    ("incremental.full_revalidations", "count"),
    ("indexes.apply_us", "us"),
    ("indexes.rebuild_s", "s"),
    ("transactions.commit_us", "us"),
    ("transactions.rollbacks", "count"),
    ("explain.core_us", "us"),
    ("enforcement.audit_s", "s"),
    ("wal.append_us", "us"),
    ("wal.flush_us", "us"),
    ("wal.fsync_us", "us"),
    ("wal.durable_wait_us", "us"),
    ("wal.fsyncs_per_commit", "count"),
    ("wal.checkpoints", "count"),
    ("wal.checkpoint_s", "s"),
    ("wal.replay_s", "s"),
    ("wal.bytes_per_object", "B"),
    ("concurrency.publish_us", "us"),
    ("concurrency.snapshot_us", "us"),
    ("concurrency.extent_us", "us"),
    ("sharding.router_self_us", "us"),
    ("sharding.fast_path_frac", "1"),
    ("sharding.twopc_us", "us"),
    ("tracing.overhead_pct", "%"),
)

STORE_OPS = ("store.insert", "store.update", "store.delete", "store.get")
ROUTER_OPS = ("sharding.insert", "sharding.update", "sharding.delete")
CODEC = ("protocol.encode", "protocol.pack", "protocol.decode")
#: Spans under which an audit is a full revalidation on the commit path.
COMMIT_PATH = (*STORE_OPS, "transactions.commit", *ROUTER_OPS, "sharding.commit")


def _stats(dumps: list[dict], process: str, window: tuple[int, int] | None) -> SpanStats:
    stats = SpanStats()
    for dump in dumps:
        if dump["process"] == process:
            stats.add(dump, window)
    return stats


def _service_self_us(server: SpanStats) -> float:
    """Server residence (reply packed minus request decoded, summed over
    requests), minus the codec and the store calls made for them: the
    asyncio loop, the executor hop and dispatch.  Summing is exact without
    pairing requests to replies, as each request gets exactly one frame."""
    decoded, packed = server.n("protocol.decode"), server.n("protocol.pack")
    if not decoded or decoded != packed:
        return 0.0
    residence = (server.sum_end["protocol.pack"] - server.sum_start["protocol.decode"]) / 1e3
    top = [(name, entry) for (name, parent), entry in server.by_parent.items() if parent is None]
    codec = sum(entry[1] for name, entry in top if name in CODEC) / 1e3
    store = sum(entry[1] for name, entry in top if name not in CODEC) / 1e3
    return residence - codec - store


def per_layer(result, workload: str) -> tuple[dict[str, float], list[tuple[str, float]]]:
    """Per-layer metrics and budget rows (label, self µs per op)."""
    served = workload.startswith("served")
    store_process = "server" if served else "bench"
    dumps = result.spans
    S = _stats(dumps, store_process, result.window)
    C = _stats(dumps, "bench", result.window) if served else SpanStats()
    R = _stats(dumps, store_process, result.recovery_window)
    everything = _stats(dumps, store_process, None)
    tally = result.tally
    ops = max(1, tally.attempted)
    writes = max(1, len(tally.commit) + len(tally.reject))
    commits = max(1, len(tally.commit))
    fsyncs, fsync_us, _ = S.under("os.fsync", ["wal.durable_wait"])
    leases = everything.n("tenants.lease")
    service = _service_self_us(S) if served else 0.0
    m = {
        "protocol.encode_us.client": C.self_us("protocol.encode", "protocol.pack") / ops,
        "protocol.encode_us.server": S.self_us("protocol.encode", "protocol.pack") / ops
        if served else 0.0,
        "protocol.decode_us.client": C.self_us("protocol.decode") / ops,
        "protocol.decode_us.server": S.self_us("protocol.decode") / ops if served else 0.0,
        "protocol.bytes_per_op":
            (C.value.get("protocol.pack", 0) + C.value.get("protocol.decode", 0)) / ops,
        "service.self_us": service / ops,
        "tenants.lease_us": everything.total_us("tenants.lease") / leases if leases else 0.0,
        "store.self_us": S.self_us(*STORE_OPS) / ops,
        "store.extent_us": S.total_us("store.extent") / ops,
        "store.recovery_s": result.recovery_s or 0.0,
        "schema.fingerprint_calls_per_commit": S.n("schema.fingerprint") / writes,
        "schema.fingerprint_us": S.self_us("schema.fingerprint") / ops,
        "incremental.check_us": S.self_us("incremental.check") / ops,
        "incremental.constraints_checked_per_commit":
            S.value.get("incremental.check", 0) / writes,
        "incremental.full_revalidations": S.under("enforcement.audit", COMMIT_PATH)[0],
        "indexes.apply_us": S.self_us("indexes.apply") / ops,
        "indexes.rebuild_s": R.total_us("indexes.rebuild") / 1e6,
        "transactions.commit_us": S.self_us("transactions.commit") / ops,
        "transactions.rollbacks": S.flagged.get("transactions.commit", 0),
        "explain.core_us": S.self_us("explain.core") / max(1, len(tally.reject)),
        "enforcement.audit_s": R.total_us("enforcement.audit") / 1e6,
        "wal.append_us": S.self_us("wal.append") / ops,
        "wal.flush_us": S.self_us("wal.flush") / ops,
        "wal.fsync_us": fsync_us / ops,
        "wal.durable_wait_us": S.self_us("wal.durable_wait") / ops,
        "wal.fsyncs_per_commit": fsyncs / commits,
        "wal.checkpoints": S.n("wal.checkpoint"),
        "wal.checkpoint_s": S.total_us("wal.checkpoint") / 1e6,
        "wal.replay_s": R.total_us("wal.replay") / 1e6,
        "wal.bytes_per_object": result.disk_bytes_per_object or 0.0,
        "concurrency.publish_us": S.self_us("concurrency.publish") / ops,
        "concurrency.snapshot_us": S.total_us("concurrency.snapshot") / ops,
        "concurrency.extent_us": S.total_us("concurrency.extent") / ops,
        "sharding.router_self_us": S.self_us(*ROUTER_OPS) / ops,
        "sharding.fast_path_frac": result.counters.get("fast_path_frac", 0.0),
        "sharding.twopc_us": S.total_us("sharding.commit") / max(1, S.n("sharding.commit")),
    }
    budget = [
        ("client codec (protocol, client side)", m["protocol.encode_us.client"]
         + m["protocol.decode_us.client"]),
        ("server codec (protocol, server side)", m["protocol.encode_us.server"]
         + m["protocol.decode_us.server"]),
        ("service (loop, executor hop, dispatch)", m["service.self_us"]),
        ("tenants", S.self_us("tenants.lease") / ops),
        ("store", S.self_us(*STORE_OPS, "store.extent", "store.open") / ops),
        ("schema fingerprint", m["schema.fingerprint_us"]),
        ("incremental checks", m["incremental.check_us"]),
        ("indexes", m["indexes.apply_us"] + S.self_us("indexes.rebuild") / ops),
        ("transactions", m["transactions.commit_us"]),
        ("explain", S.self_us("explain.core") / ops),
        ("enforcement (audit)", S.self_us("enforcement.audit") / ops),
        ("wal append", m["wal.append_us"]),
        ("wal flush", m["wal.flush_us"]),
        ("wal fsync", S.self_us("os.fsync") / ops),
        ("wal durable wait (window, followers)", m["wal.durable_wait_us"]),
        ("wal checkpoint", S.self_us("wal.checkpoint", "wal.replay") / ops),
        ("concurrency (MVCC)", S.self_us("concurrency.publish", "concurrency.snapshot",
                                         "concurrency.extent", "concurrency.get") / ops),
        ("sharding router", S.self_us(*ROUTER_OPS, "sharding.commit") / ops),
    ]
    return m, budget


def overhead_pct(untraced: dict, traced: dict) -> float:
    """Traced over untraced commit p50, as a percentage increase."""
    base = untraced["metrics"]["commit_p50_ms"]
    return (traced["metrics"]["commit_p50_ms"] / base - 1) * 100 if base else 0.0


def print_budget(workload: str, doc: dict, untraced: dict) -> None:
    """The stacked per-layer budget: self µs per op for each layer, plus the
    unattributed rest (wire, lock and GIL waits, the generator), adding up
    to the client's mean op latency in the traced run."""
    rows = doc["budget"]
    mean_us = doc["mean_op_us"]
    print(f"{workload}: per-layer budget, self µs per op "
          f"({doc['attempted']} ops traced)")
    for label, value in rows:
        if value:
            print(f"  {label:<42} {value:10.2f}")
    attributed = sum(value for _, value in rows)
    print(f"  {'unattributed (wire, waits, generator)':<42} {mean_us - attributed:10.2f}")
    print(f"  {'= mean client op latency (traced)':<42} {mean_us:10.2f}")
    print(f"  commit p50: traced {doc['metrics']['commit_p50_ms'] * 1e3:.1f} µs, "
          f"untraced {untraced['metrics']['commit_p50_ms'] * 1e3:.1f} µs; "
          f"tracing overhead {overhead_pct(untraced, doc):+.1f}%")
    print(f"  span dump: {doc['span_dump']}")


def mean_op_us(result) -> float:
    tally = result.tally
    latencies = tally.commit + tally.reject + tally.read
    return sum(latencies) / max(1, len(latencies)) * 1e6

