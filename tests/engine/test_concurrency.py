"""Concurrent serving: snapshot isolation, group commit, schema records.

The invariants under test:

* a :meth:`ObjectStore.snapshot` view is immutable and committed-only — it
  never observes uncommitted inserts, in-flight transaction states, or the
  re-registration shuffle of a rollback resurrection, and its extents come
  in the same ``(counter, oid)`` order as live extents;
* snapshot acquisition does not serialize behind a writer holding the
  writer lock (once the machinery is active);
* concurrent ``sync=True`` committers coalesce into fewer fsyncs than
  commits (group commit) while recovery still restores exactly the
  committed history;
* schema changes made after the last checkpoint survive recovery via
  schema-change log records instead of silently reverting.

Threaded tests carry the ``concurrency`` marker so CI can run them as a
dedicated job (``pytest -m concurrency``).
"""

import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import ObjectStore
from repro.errors import (
    ConstraintViolation,
    EngineError,
    UnknownObjectError,
)
from repro.tm import parse_database

SCHEMA_SOURCE = """
Database ConcDB

Class Item
attributes
  name  : string
  price : real
object constraints
  oc1: price >= 0
end Item
"""


def fresh_store(**kwargs):
    return ObjectStore(parse_database(SCHEMA_SOURCE), **kwargs)


def extent_view(snap):
    """Comparable ordered image of a snapshot's Item extent."""
    return tuple(
        (obj.oid, obj.state["name"], obj.state["price"])
        for obj in snap.extent("Item")
    )


def live_view(store):
    return tuple(
        (obj.oid, obj.state["name"], obj.state["price"])
        for obj in store.extent("Item")
    )


class TestSnapshotIsolation:
    def test_snapshot_reflects_committed_state_and_stays_immutable(self):
        store = fresh_store()
        a = store.insert("Item", name="a", price=1.0)
        before = store.snapshot()
        store.update(a, price=2.0)
        b = store.insert("Item", name="b", price=3.0)
        after = store.snapshot()

        assert before.get(a.oid).state["price"] == 1.0
        assert b.oid not in before
        assert after.get(a.oid).state["price"] == 2.0
        assert extent_view(after) == live_view(store)
        assert len(before) == 1 and len(after) == 2

        store.delete(b)
        assert b.oid in after  # old snapshot unaffected
        assert b.oid not in store.snapshot()

    def test_snapshot_mid_transaction_sees_committed_prestate(self):
        store = fresh_store()
        a = store.insert("Item", name="a", price=1.0)
        with store.transaction():
            store.update(a, price=9.0)
            inserted = store.insert("Item", name="uncommitted", price=5.0)
            snap = store.snapshot()
            assert snap.get(a.oid).state["price"] == 1.0
            assert inserted.oid not in snap
            assert len(snap) == 1
        # After the commit, a fresh snapshot sees it all.
        assert store.snapshot().get(inserted.oid).state["name"] == "uncommitted"

    def test_snapshot_mid_nested_transaction_sees_committed_prestate(self):
        store = fresh_store()
        a = store.insert("Item", name="a", price=1.0)
        with store.transaction():
            store.update(a, price=2.0)
            with store.transaction():
                store.update(a, price=3.0)
                snap = store.snapshot()
                assert snap.get(a.oid).state["price"] == 1.0

    def test_rolled_back_transaction_never_published(self):
        store = fresh_store()
        a = store.insert("Item", name="a", price=1.0)
        before = store.snapshot()
        with pytest.raises(ConstraintViolation):
            with store.transaction():
                store.insert("Item", name="bad", price=-1.0)
        after = store.snapshot()
        assert extent_view(before) == extent_view(after) == live_view(store)
        assert after.version == before.version  # nothing was committed

    def test_rollback_resurrection_keeps_snapshot_extent_order(self):
        store = fresh_store()
        items = [
            store.insert("Item", name=f"i{i}", price=float(i)) for i in range(5)
        ]
        before = store.snapshot()
        order_before = [obj.oid for obj in before.extent("Item")]
        with pytest.raises(RuntimeError):
            with store.transaction():
                # Delete from the middle, then fail: rollback re-registers
                # the deleted objects (appending to the live dict) and must
                # not reorder what any snapshot sees.
                store.delete(items[1])
                store.delete(items[3])
                mid = store.snapshot()
                assert [obj.oid for obj in mid.extent("Item")] == order_before
                raise RuntimeError("boom")
        after = store.snapshot()
        assert [obj.oid for obj in after.extent("Item")] == order_before
        assert [obj.oid for obj in store.extent("Item")] == order_before

    def test_snapshot_dereferences_inside_the_snapshot(self):
        source = SCHEMA_SOURCE + (
            "\nClass Ref\nattributes\n  item : Item\nend Ref\n"
        )
        store = ObjectStore(parse_database(source))
        item = store.insert("Item", name="a", price=1.0)
        ref = store.insert("Ref", item=item)
        snap = store.snapshot()
        store.update(item, price=8.0)
        seen = snap.get_attr(snap.get(ref.oid), "item")
        assert seen.state["price"] == 1.0

    def test_snapshot_unknown_oid_and_class_raise(self):
        store = fresh_store()
        snap = store.snapshot()
        with pytest.raises(UnknownObjectError):
            snap.get("Item#999")
        with pytest.raises(Exception):
            snap.extent("Nope")


@pytest.mark.concurrency
class TestConcurrentReaders:
    def test_snapshot_does_not_block_on_an_open_transaction(self):
        store = fresh_store()
        store.insert("Item", name="seed", price=1.0)
        store.snapshot()  # activate the machinery before the writer starts

        entered = threading.Event()
        release = threading.Event()
        failures = []

        def writer():
            try:
                with store.transaction():
                    store.insert("Item", name="uncommitted", price=2.0)
                    entered.set()
                    release.wait(timeout=30.0)
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert entered.wait(timeout=30.0)
        started = time.perf_counter()
        snap = store.snapshot()
        view = extent_view(snap)
        elapsed = time.perf_counter() - started
        release.set()
        thread.join(timeout=30.0)
        assert not failures
        # The read completed while the transaction was still open…
        assert elapsed < 1.0, f"snapshot read blocked for {elapsed:.2f}s"
        # …and saw only the committed object.
        assert [name for _, name, _ in view] == ["seed"]
        assert len(store.snapshot()) == 2

    def test_readers_see_only_committed_prefixes_under_load(self):
        store = fresh_store()
        items = [
            store.insert("Item", name=f"i{i}", price=0.0) for i in range(8)
        ]
        baseline = store.snapshot()
        committed = [extent_view(baseline)]  # index = version
        stop = threading.Event()
        failures = []

        def writer():
            try:
                for step in range(150):
                    with store.transaction():
                        store.update(items[step % 8], price=float(step + 1))
                        if step % 3 == 0:
                            store.update(
                                items[(step + 1) % 8], price=float(step + 1)
                            )
                    committed.append(live_view(store))
            except Exception as exc:
                failures.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    snap = store.snapshot()
                    view = extent_view(snap)
                    # Versions map 1:1 to commits: the view must be exactly
                    # the state the writer recorded for that version.  The
                    # writer appends the record after releasing the lock,
                    # so wait for it to catch up when we raced ahead.
                    for _ in range(1000):
                        if snap.version < len(committed):
                            break
                        time.sleep(0.001)
                    assert view == committed[snap.version], (
                        f"snapshot v{snap.version} saw a state the writer "
                        "never committed"
                    )
            except BaseException as exc:
                failures.append(exc)
                stop.set()

        readers = [threading.Thread(target=reader, daemon=True) for _ in range(3)]
        for thread in readers:
            thread.start()
        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        writer_thread.join(timeout=60.0)
        for thread in readers:
            thread.join(timeout=60.0)
        assert not failures, failures[0]
        assert len(committed) == 151

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        history=st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete"]),
                st.integers(min_value=0, max_value=5),
                st.booleans(),  # commit (True) or roll back (False)
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_threaded_histories_expose_only_committed_states(self, history):
        """Hypothesis × threads: arbitrary transactional histories (with
        rollbacks, hence resurrections) against concurrent snapshot
        readers — every observed view is a state some committed prefix
        produced, in extent order."""
        store = fresh_store()
        pool = [
            store.insert("Item", name=f"i{i}", price=0.0) for i in range(6)
        ]
        live = list(pool)
        baseline = store.snapshot()
        committed = [extent_view(baseline)]
        stop = threading.Event()
        failures = []

        def writer():
            try:
                for step, (kind, slot, commit) in enumerate(history):
                    did_something = False
                    try:
                        with store.transaction():
                            if kind == "insert":
                                obj = store.insert(
                                    "Item",
                                    name=f"n{step}",
                                    price=float(step),
                                )
                                did_something = True
                                if commit:
                                    live.append(obj)
                            elif kind == "update" and live:
                                store.update(
                                    live[slot % len(live)],
                                    price=float(step + 100),
                                )
                                did_something = True
                            elif kind == "delete" and live:
                                victim = live[slot % len(live)]
                                store.delete(victim)
                                did_something = True
                                if commit:
                                    live.remove(victim)
                            if not commit:
                                raise RuntimeError("roll back")
                    except RuntimeError:
                        pass
                    else:
                        # Empty transactions publish nothing and bump no
                        # version: only record commits that did work, so
                        # list index == snapshot version stays exact.
                        if did_something:
                            committed.append(live_view(store))
            except Exception as exc:
                failures.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    snap = store.snapshot()
                    view = extent_view(snap)
                    for _ in range(1000):
                        if snap.version < len(committed):
                            break
                        time.sleep(0.001)
                    assert view == committed[snap.version]
            except BaseException as exc:
                failures.append(exc)
                stop.set()

        readers = [
            threading.Thread(target=reader, daemon=True) for _ in range(2)
        ]
        for thread in readers:
            thread.start()
        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        writer_thread.join(timeout=60.0)
        for thread in readers:
            thread.join(timeout=60.0)
        assert not failures, failures[0]


@pytest.mark.concurrency
class TestGroupCommit:
    def test_concurrent_sync_commits_share_fsyncs(self, tmp_path):
        store = ObjectStore.open(
            tmp_path / "db",
            parse_database(SCHEMA_SOURCE),
            sync=True,
            checkpoint_every=0,
        )
        fsyncs_before = store.wal.fsyncs
        commits_before = store.wal.sync_commits
        failures = []

        def committer(slot):
            try:
                for i in range(20):
                    store.insert(
                        "Item", name=f"c{slot}-{i}", price=float(i)
                    )
            except Exception as exc:
                failures.append(exc)

        threads = [
            threading.Thread(target=committer, args=(slot,), daemon=True)
            for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not failures, failures[0]

        fsyncs = store.wal.fsyncs - fsyncs_before
        commits = store.wal.sync_commits - commits_before
        assert commits == 160
        # Group commit: concurrent durable commits coalesce — strictly
        # fewer fsyncs than commits (typically far fewer).
        assert fsyncs < commits, (
            f"{fsyncs} fsyncs for {commits} commits — no coalescing"
        )
        store.close()

        recovered = ObjectStore.open(tmp_path / "db")
        assert len(recovered) == 160
        recovered.close()

    def test_solo_commit_pays_no_batching_window(self, tmp_path):
        store = ObjectStore.open(
            tmp_path / "db",
            parse_database(SCHEMA_SOURCE),
            sync=True,
            checkpoint_every=0,
        )
        store.insert("Item", name="warm", price=1.0)
        started = time.perf_counter()
        for i in range(20):
            store.insert("Item", name=f"solo{i}", price=1.0)
        per_commit = (time.perf_counter() - started) / 20
        store.close()
        # A lone committer must fsync immediately: no group-commit wait on
        # its latency (generous bound for slow CI filesystems).
        assert per_commit < 0.05


TWO_SHARD_SOURCE = """
Database TwoShards

Class Alpha
attributes
  code : string
end Alpha

Class Beta
attributes
  code : string
end Beta
"""


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


@pytest.mark.concurrency
class TestGroupCommitLeader:
    """The leader waits for announced and regular committers, never for the
    clock: a lone committer never waits, and a waiting leader is released
    by the last awaited commit point, by poison, by a writer-lock holder
    blocked in the log, and by a cap without progress.  Tests that need a
    leader to stay waiting raise the cap far above their own timeouts, so
    only the event under test can release it."""

    @pytest.fixture
    def long_cap(self, monkeypatch):
        from repro.engine import wal as wal_module

        monkeypatch.setattr(wal_module, "GROUP_WAIT_CAP", 60.0)

    def _open(self, tmp_path):
        return ObjectStore.open(
            tmp_path / "db",
            parse_database(SCHEMA_SOURCE),
            sync=True,
            checkpoint_every=0,
        )

    def _leader(self, store, outcome):
        """Start a committer that becomes the fsync leader and waits."""
        waits = store.wal.telemetry.get("group_waits", 0)

        def commit():
            try:
                store.insert("Item", name="leader", price=1.0)
                outcome.append("committed")
            except BaseException as exc:
                outcome.append(exc)

        thread = threading.Thread(target=commit, daemon=True)
        thread.start()
        assert _wait_until(
            lambda: store.wal.telemetry.get("group_waits", 0) > waits
        ), "the leader never waited for the announced committer"
        return thread

    def test_solo_embedded_commits_never_wait(self, tmp_path):
        store = self._open(tmp_path)
        for i in range(5):
            store.insert("Item", name=f"solo{i}", price=1.0)
        with store.transaction():
            store.insert("Item", name="txn", price=1.0)
        item = store.insert("Item", name="gone", price=1.0)
        store.update(item, price=2.0)
        store.delete(item)
        assert store.wal.fsyncs == store.wal.sync_commits
        assert store.wal.telemetry.get("group_waits", 0) == 0
        store.close()

    def test_solo_cross_shard_commit_never_waits(self, tmp_path):
        from repro.engine import ShardedStore

        store = ShardedStore.open(
            tmp_path / "sharded", parse_database(TWO_SHARD_SOURCE), 2, sync=True
        )
        assert store.placement["Alpha"] != store.placement["Beta"]
        for i in range(3):
            with store.transaction():
                store.insert("Alpha", code=f"a{i}")
                store.insert("Beta", code=f"b{i}")
        assert store.two_phase_commits == 3
        # Prepare, decide and resolve all wait with the core locks held; a
        # leader counting the transaction itself (or anyone queued behind
        # its locks) would wait out the cap at every one of them.
        for core in store.cores:
            assert core.wal.telemetry.get("group_waits", 0) == 0
        store.close()

    def test_leader_waits_for_an_announced_committer(self, tmp_path, long_cap):
        store = self._open(tmp_path)
        store.insert("Item", name="warm", price=1.0)
        fsyncs = store.wal.fsyncs
        go = threading.Event()
        outcome = []

        def follower():
            store.wal.announce()  # on its way in, not yet at the lock
            go.wait(10)
            store.insert("Item", name="follower", price=1.0)
            outcome.append("committed")

        thread = threading.Thread(target=follower, daemon=True)
        thread.start()
        assert _wait_until(lambda: len(store.wal._announced) == 1)
        leader = self._leader(store, outcome)
        go.set()
        thread.join(10)
        leader.join(10)
        assert not leader.is_alive() and not thread.is_alive()
        assert outcome == ["committed", "committed"]
        # The follower's commit point released the leader, whose single
        # fsync covered both commits.
        assert store.wal.fsyncs == fsyncs + 1
        store.close()

    def test_poison_wakes_a_waiting_leader(self, tmp_path, long_cap):
        from repro.errors import StorePoisonedError

        store = self._open(tmp_path)
        fsyncs = store.wal.fsyncs
        # A committer that never arrives.  (Not a finished thread: a new
        # thread may reuse its ident, and the leader would retire itself.)
        store.wal.announce(-1)
        outcome = []
        leader = self._leader(store, outcome)
        store.wal.poison("test: fail-stop while a leader waits")
        leader.join(10)
        assert not leader.is_alive(), "poisoned leader kept waiting"
        assert len(outcome) == 1
        assert isinstance(outcome[0], StorePoisonedError)
        assert store.wal.fsyncs == fsyncs  # never claimed durability
        store.close()

    def test_close_returns_while_committers_queue_on_the_lock(
        self, tmp_path, long_cap
    ):
        store = self._open(tmp_path)
        go = threading.Event()
        outcome = []

        def queued():
            store.wal.announce()
            go.wait(10)
            try:
                store.insert("Item", name="queued", price=1.0)
                outcome.append("committed")
            except BaseException as exc:
                outcome.append(exc)

        thread = threading.Thread(target=queued, daemon=True)
        thread.start()
        assert _wait_until(lambda: len(store.wal._announced) == 1)
        leader = self._leader(store, outcome)
        closed = threading.Event()

        def close():
            with store._lock:
                go.set()  # the announced committer now queues on the lock
                time.sleep(0.05)
                store.close()
            closed.set()

        closer = threading.Thread(target=close, daemon=True)
        closer.start()
        # close() drains the waiting leader while holding the writer lock
        # the announced committer queues on; the drain must release the
        # leader instead of waiting out its cap.
        assert closed.wait(10), "close() waited out the group-commit cap"
        leader.join(10)
        thread.join(10)
        assert not leader.is_alive() and not thread.is_alive()
        assert outcome == ["committed", "committed"]
        assert store.wal.telemetry.get("group_waits", 0) == 1
        store.close()

    def test_transaction_body_is_not_announced(self, tmp_path):
        """A transaction may sit idle holding the writer lock between
        writes (a served one waits for its client); only its commit is
        announced, and the commit point retires it."""
        store = self._open(tmp_path)
        wal = store.wal
        me = threading.get_ident()
        with store.transaction():
            store.insert("Item", name="body", price=1.0)
            assert me not in wal._announced
        assert wal._announced == set()
        assert wal.fsyncs == wal.sync_commits == 1
        store.close()

    def test_interrupted_gather_hands_leadership_back(self, tmp_path, long_cap):
        """An exception out of the leader's gather wait (a KeyboardInterrupt
        on a main-thread committer) must still hand leadership back: later
        committers lead their own fsync and close() returns."""
        store = self._open(tmp_path)
        wal = store.wal
        wal.announce(-1)  # a committer that never arrives
        cond = wal._sync_cond
        real_wait = cond.wait

        def interrupted(timeout=None):
            if wal._gathering:
                raise KeyboardInterrupt
            return real_wait(timeout)

        cond.wait = interrupted
        try:
            with pytest.raises(KeyboardInterrupt):
                store.insert("Item", name="interrupted", price=1.0)
        finally:
            del cond.wait
        wal.retire(-1)
        assert not wal._syncing and not wal._gathering
        outcome = []

        def later():
            store.insert("Item", name="later", price=1.0)
            store.close()
            outcome.append("closed")

        thread = threading.Thread(target=later, daemon=True)
        thread.start()
        thread.join(10)
        assert outcome == ["closed"], "leadership was never handed back"

    def test_busy_batch_makes_regulars_until_the_load_drops(
        self, tmp_path, long_cap, monkeypatch
    ):
        """One fsync covering BUSY_BATCH committers makes them regulars,
        whom later leaders wait for; a regular that lets a whole cap pass
        without committing is dropped, and the small batch that follows
        clears the rest."""
        from repro.engine import wal as wal_module

        store = self._open(tmp_path)
        wal = store.wal
        store.insert("Item", name="warm", price=1.0)
        fsyncs = wal.fsyncs
        go = threading.Event()
        idents, outcome = [], []

        def follower(slot):
            idents.append(threading.get_ident())
            wal.announce()
            go.wait(10)
            store.insert("Item", name=f"follower{slot}", price=1.0)
            outcome.append("committed")

        followers = [
            threading.Thread(target=follower, args=(slot,), daemon=True)
            for slot in range(wal_module.BUSY_BATCH - 1)
        ]
        for thread in followers:
            thread.start()
        assert _wait_until(lambda: len(wal._announced) == len(followers))
        leader = self._leader(store, outcome)
        idents.append(leader.ident)
        go.set()
        for thread in [*followers, leader]:
            thread.join(10)
        assert outcome == ["committed"] * wal_module.BUSY_BATCH
        assert wal.fsyncs == fsyncs + 1  # one busy batch ...
        assert wal._regulars == set(idents)  # ... whose committers recur
        # None of them commits again: the next leader waits one cap for
        # them, drops them, and fsyncs alone.
        monkeypatch.setattr(wal_module, "GROUP_WAIT_CAP", 0.001)
        waits = wal.telemetry["group_waits"]
        store.insert("Item", name="alone", price=1.0)
        assert wal.telemetry["group_waits"] == waits + 1
        assert wal._regulars == set()
        assert wal.fsyncs == fsyncs + 2
        store.close()

    def test_a_pair_that_shared_an_fsync_keeps_sharing(self, tmp_path, long_cap):
        """Two committers that once shared an fsync keep sharing them: the
        next leader waits for its partner even before the partner's next
        write is announced, instead of leaving the pairing to which write
        happens to enter the engine first."""
        store = self._open(tmp_path)
        wal = store.wal
        store.insert("Item", name="warm", price=1.0)
        fsyncs = wal.fsyncs
        announced, first, second = (threading.Event() for _ in range(3))
        outcome = []

        def partner():
            wal.announce()
            announced.set()
            first.wait(10)
            store.insert("Item", name="partner1", price=1.0)
            second.wait(10)  # off in its client: not announced
            store.insert("Item", name="partner2", price=1.0)
            outcome.append("partner")

        def leader():
            announced.wait(10)
            store.insert("Item", name="leader1", price=1.0)
            store.insert("Item", name="leader2", price=1.0)
            outcome.append("leader")

        threads = [threading.Thread(target=f, daemon=True) for f in (partner, leader)]
        for thread in threads:
            thread.start()
        assert _wait_until(lambda: wal.telemetry.get("group_waits", 0) == 1)
        first.set()  # the announced partner commits; one fsync covers both
        assert _wait_until(lambda: wal.telemetry.get("group_waits", 0) == 2)
        # The leader's second commit waits for its unannounced partner.
        assert wal.fsyncs == fsyncs + 1
        assert wal._regulars == {thread.ident for thread in threads}
        assert outcome == []
        second.set()
        for thread in threads:
            thread.join(10)
        assert sorted(outcome) == ["leader", "partner"]
        assert wal.fsyncs == fsyncs + 2  # four commits, two fsyncs
        store.close()

    def test_announcements_balance_under_contention(self, tmp_path):
        """More committers than cores, a tiny switch interval, and every
        way a write can leave: autocommits, rejected writes, committed and
        aborted transactions.  Afterwards no announcement, lock-holder
        registration or ticket may be left behind (a leaked announcement
        would make every later leader wait out the cap), and recovery
        holds exactly the accepted commits."""
        store = self._open(tmp_path)
        accepted = []
        failures = []

        def committer(slot):
            try:
                for i in range(12):
                    name = f"c{slot}-{i}"
                    if i % 4 == 1:
                        with pytest.raises(ConstraintViolation):
                            store.insert("Item", name=name, price=-1.0)
                    elif i % 4 == 2:
                        with store.transaction():
                            store.insert("Item", name=name, price=1.0)
                        accepted.append(name)
                    elif i % 4 == 3:
                        with pytest.raises(RuntimeError):
                            with store.transaction():
                                store.insert("Item", name=name, price=1.0)
                                raise RuntimeError("abort")
                    else:
                        store.insert("Item", name=name, price=1.0)
                        accepted.append(name)
            except BaseException as exc:
                failures.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=committer, args=(slot,), daemon=True)
                for slot in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
        wal = store.wal
        assert wal._announced == set()
        assert wal._lock_holders == 0
        assert wal._pending_syncs == 0
        # The load is gone: a lone commit may wait one cap for regulars
        # that stopped committing, and then leaves none behind.
        store.insert("Item", name="after", price=1.0)
        accepted.append("after")
        assert wal._regulars == set()
        store.close()
        recovered = ObjectStore.open(tmp_path / "db")
        assert sorted(obj.state["name"] for obj in recovered.objects()) == sorted(
            accepted
        )
        recovered.close()


class TestDurableSchemaChanges:
    SOURCE = """
Database SchemaDB

constants
  CAP = 100

Class Item
attributes
  name  : string
  price : real
object constraints
  oc1: price <= CAP
end Item
"""

    def _open(self, path, **kwargs):
        return ObjectStore.open(path, parse_database(self.SOURCE), **kwargs)

    def test_set_constant_after_checkpoint_survives_crash(self, tmp_path):
        store = self._open(tmp_path / "db")
        store.insert("Item", name="a", price=10.0)
        store.checkpoint()
        store.set_constant("CAP", 1000)
        store.insert("Item", name="b", price=500.0)  # legal only post-rebind
        del store  # crash: no close, no checkpoint

        recovered = ObjectStore.open(tmp_path / "db")
        assert recovered.schema.constants["CAP"] == 1000
        assert len(recovered) == 2
        info = recovered.recovery_info
        assert info.schema_changes == 1
        assert info.schema_drift is True
        # A checkpoint folds the change in: no drift on the next recovery.
        recovered.checkpoint()
        recovered.close()
        clean = ObjectStore.open(tmp_path / "db")
        assert clean.schema.constants["CAP"] == 1000
        assert clean.recovery_info.schema_drift is False
        clean.close()

    def test_log_schema_change_replays_schema_surgery(self, tmp_path):
        store = self._open(tmp_path / "db")
        store.insert("Item", name="a", price=10.0)
        store.checkpoint()
        # Direct schema surgery the WAL cannot see — then log it wholesale.
        store.schema.set_constant("CAP", 555)
        store.schema.set_constant("FLOOR", 1)
        store.log_schema_change()
        del store

        recovered = ObjectStore.open(tmp_path / "db")
        assert recovered.schema.constants["CAP"] == 555
        assert recovered.schema.constants["FLOOR"] == 1
        assert recovered.recovery_info.schema_drift is True
        recovered.close()

    def test_schema_records_refused_inside_transactions(self, tmp_path):
        store = self._open(tmp_path / "db")
        with store.transaction():
            with pytest.raises(EngineError):
                store.set_constant("CAP", 7)
            with pytest.raises(EngineError):
                store.log_schema_change()
        # The refusal left schema and log consistent.
        assert store.schema.constants["CAP"] == 100
        store.close()
        recovered = ObjectStore.open(tmp_path / "db")
        assert recovered.schema.constants["CAP"] == 100
        recovered.close()

    def test_set_constant_without_checkpoint_still_replays(self, tmp_path):
        store = self._open(tmp_path / "db")
        store.set_constant("CAP", 250)
        store.insert("Item", name="a", price=200.0)
        del store
        recovered = ObjectStore.open(tmp_path / "db")
        assert recovered.schema.constants["CAP"] == 250
        assert len(recovered) == 1
        recovered.close()

    def test_recover_cli_warns_and_strict_fails_on_drift(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db"
        store = self._open(path)
        store.insert("Item", name="a", price=10.0)
        store.checkpoint()
        store.set_constant("CAP", 1000)
        store.close()

        assert main(["recover", str(path)]) == 0
        err = capsys.readouterr().err
        assert "schema-change record(s) newer than the snapshot" in err

        assert main(["recover", "--strict", str(path)]) == 1

        assert main(["snapshot", str(path)]) == 0
        capsys.readouterr()
        assert main(["recover", "--strict", str(path)]) == 0
        assert "schema-change" not in capsys.readouterr().err
