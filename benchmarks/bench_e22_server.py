"""E22 — the served store: commit latency and group-commit coalescing.

PR 10 puts the engine behind ``repro serve`` (:mod:`repro.server`): an
asyncio front end funnels each connection's operations onto a dedicated
worker thread, so concurrent client commits land on the engine exactly
like concurrent embedded threads do — and share the WAL's group commit
(see :mod:`repro.engine.wal`).  Each decoded write frame announces itself
to group commit before it reaches the engine; the fsync leader waits only
while announced commits — and, once a batch has served more than one
connection, those connections' next commits — have yet to flush, and
never once 1ms passes without a commit.  This benchmark records what the
funnel delivers on a durable ``sync=True`` tenant:

* ``commit latency`` — p50/p99 wall time of an autocommit insert as seen
  by the client, at 1, 4 and 16 concurrent connections.  The p50 at one
  connection is the protocol + fsync floor; under load the p99 bounds how
  long a commit waits for its batch.
* ``throughput`` — committed inserts per second across all connections.
* ``fsyncs per commit`` — the coalescing gate.  A lone connection pays
  one fsync per commit by design (nobody else is announced, so its leader
  never waits).  At **16 connections** the leader must wait for enough
  concurrent commits that the server issues **≤ 0.2 fsyncs per commit**
  (≥ 5 commits retired per fsync) — the property that makes a shared
  server cheaper per commit than 16 embedded single-writer stores.

Counters come from the server itself (the ``stats`` op sums
``fsyncs``/``sync_commits`` over the tenant's WALs), so the record proves
the deployed path, not a lab re-measurement.  Workload sizes are commits
per connection per round (see ``conftest.py``); results land in
``BENCH_e22_server.json`` via the shared harness.
"""

import itertools
import threading
import time

from repro.client import connect
from repro.server import ServerConfig, ServerThread

BENCH_SOURCE = """
Database ServeBench

Class Item
attributes
  name  : string
  score : int
object constraints
  oc: score >= 0
class constraints
  cc: key name
end Item
"""


def _percentile(sorted_data, fraction):
    rank = fraction * (len(sorted_data) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_data) - 1)
    weight = rank - low
    return sorted_data[low] * (1 - weight) + sorted_data[high] * weight


def test_e22_commit_latency_and_coalescing(
    benchmark, e22_conns, e22_size, tmp_path
):
    """p50/p99 commit latency, throughput, and fsyncs/commit at
    ``e22_conns`` concurrent connections against one durable tenant."""
    thread = ServerThread(
        ServerConfig(
            root=tmp_path,
            sync=True,
            checkpoint_every=0,  # no auto-checkpoint mid-measurement
            max_connections=e22_conns + 4,
            max_inflight=e22_conns + 4,
            idle_timeout=0.0,
        )
    )
    address = thread.start()
    stores = []
    try:
        stores = [
            connect(address, tenant="bench", schema=BENCH_SOURCE)
            for _ in range(e22_conns)
        ]
        admin = stores[0]
        for index, store in enumerate(stores):
            store.insert("Item", name=f"warm-{index}", score=0)
        before = admin.stats()["tenant"]

        tags = itertools.count()
        latencies: list[float] = []
        walls: list[float] = []

        def run_round():
            tag = next(tags)
            collected = [[] for _ in stores]

            def hammer(index, store):
                lat = collected[index]
                for i in range(e22_size):
                    started = time.perf_counter()
                    store.insert(
                        "Item", name=f"r{tag}-c{index}-{i}", score=i
                    )
                    lat.append(time.perf_counter() - started)

            workers = [
                threading.Thread(target=hammer, args=(index, store))
                for index, store in enumerate(stores)
            ]
            started = time.perf_counter()
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            walls.append(time.perf_counter() - started)
            for lat in collected:
                latencies.extend(lat)

        benchmark.pedantic(run_round, rounds=3, warmup_rounds=1)
        after = admin.stats()["tenant"]
    finally:
        for store in stores:
            store.close()
        thread.stop()

    commits = after["sync_commits"] - before["sync_commits"]
    fsyncs = after["fsyncs"] - before["fsyncs"]
    # Every measured insert is one autocommit = one WAL commit point.
    assert commits == 4 * e22_conns * e22_size  # 3 rounds + 1 warmup
    fsyncs_per_commit = fsyncs / commits
    latencies.sort()
    throughput = len(latencies) / sum(walls) if walls else 0.0

    benchmark.extra_info["connections"] = e22_conns
    benchmark.extra_info["commits_per_connection"] = e22_size
    benchmark.extra_info["p50_ms"] = round(
        _percentile(latencies, 0.5) * 1e3, 3
    )
    benchmark.extra_info["p99_ms"] = round(
        _percentile(latencies, 0.99) * 1e3, 3
    )
    benchmark.extra_info["throughput_commits_per_s"] = round(throughput, 1)
    benchmark.extra_info["fsyncs_per_commit"] = round(fsyncs_per_commit, 4)
    benchmark.extra_info["fsyncs"] = fsyncs
    benchmark.extra_info["sync_commits"] = commits

    if e22_conns == 1:
        # A solo committer must keep the immediate-fsync latency contract:
        # with no other committer announced, its leader never waits, so
        # every commit pays its own fsync.
        assert fsyncs_per_commit > 0.9, (
            f"solo connection coalesced ({fsyncs_per_commit:.2f} "
            f"fsyncs/commit) — the lone-committer fast path regressed"
        )
    if e22_conns == 16:
        # Acceptance: concurrent client commits share group-commit fsyncs
        # — at most one fsync per five commits at 16 connections.
        assert fsyncs_per_commit <= 0.2, (
            f"{fsyncs_per_commit:.2f} fsyncs/commit at {e22_conns} "
            f"connections — commits are not coalescing in the server"
        )
