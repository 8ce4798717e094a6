"""The four workloads.  Each is a closed loop: every caller is a blocking
``RemoteStore`` connection or an embedded thread that waits for its reply,
with at most two callers, the core count of the machine the benchmark was
tuned on.  Inputs come from ``random.Random`` seeded by ``--seed``; the
program sees only the generated ops.  See README.md for why each workload
exists.

A workload returns a :class:`Result`: the merged :class:`Tally` of its
measured phase plus set-up, recovery, CPU, memory and disk figures, and the
span dumps of a traced run.  Correctness checks run inside every workload;
each failed check adds one to ``tally.failed``.
"""

from __future__ import annotations

import random
import shutil
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from common import (
    ACCEPT,
    Server,
    Tally,
    cpu_seconds,
    directory_bytes,
    fresh_dir,
    peak_rss_mb,
)


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``full`` is the benchmark; ``tiny`` is for its tests."""

    setups: int
    served_commit_preload: int
    served_mixed_preload: int
    embedded_publishers: int
    sharded_preload: int
    #: Ops after which the store process's peak RSS is read: a fixed amount
    #: of work, so the figure shows the write path's memory (version
    #: chains, log buffers, index growth) without following throughput.
    rss_ops_served: int
    rss_ops_embedded: int
    rss_ops_sharded: int


FULL = Scale(setups=5, served_commit_preload=400, served_mixed_preload=5_000,
             embedded_publishers=500, sharded_preload=4_000,
             rss_ops_served=8_000, rss_ops_embedded=400, rss_ops_sharded=30_000)
TINY = Scale(setups=1, served_commit_preload=20, served_mixed_preload=300,
             embedded_publishers=60, sharded_preload=50,
             rss_ops_served=50, rss_ops_embedded=10, rss_ops_sharded=50)
SCALES = {"full": FULL, "tiny": TINY}


@dataclass
class Run:
    seed: int
    seconds: float
    workdir: Path
    scale: Scale = FULL
    #: Record spans (``tracing.Tracer``) in the store process and the client.
    tracer: Any = None
    #: Set up once instead of ``scale.setups`` times (traced passes).
    single_setup: bool = False
    #: Mark seeded duplicate keys "accept", to prove the checks bite.
    wrong_expectation: bool = False
    #: Every server started, so the run can stop them whatever happens.
    servers: list[Server] = field(default_factory=list)

    def serve(self, args: list[str], spans: Path | None) -> Server:
        server = Server(self.workdir, args, spans)
        self.servers.append(server)
        return server

    def rng(self, stream: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + stream)

    @property
    def setups(self) -> int:
        return 1 if self.single_setup else self.scale.setups


@dataclass
class Result:
    tally: Tally = field(default_factory=Tally)
    setup_s: list[float] = field(default_factory=list)
    #: Measured phase on the monotonic clock, in ns (span filtering).
    window: tuple[int, int] = (0, 0)
    recovery_window: tuple[int, int] = (0, 0)
    cpu_s: float = 0.0
    #: Peak RSS of the store process after a fixed number of measured ops
    #: (see :class:`RssProbe`).
    rss_mb: float = 0.0
    recovery_s: float | None = None
    disk_bytes_per_object: float | None = None
    #: Public counters read over the measured phase.
    counters: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)


class RssProbe:
    """Reads the store process's peak RSS when the writers together have
    made ``ops`` ops.  A run too short to get there reads it at the end of
    the measured phase (``finish``)."""

    def __init__(self, result: Result, ops: int, pid: int | None = None):
        self.result = result
        self.pid = pid
        self.left = ops
        self.lock = threading.Lock()

    def tick(self) -> None:
        with self.lock:
            self.left -= 1
            if self.left == 0:
                self.result.rss_mb = peak_rss_mb(self.pid)

    def finish(self) -> None:
        with self.lock:
            if self.left > 0:
                self.left = 0
                self.result.rss_mb = peak_rss_mb(self.pid)


def _run_threads(targets: list[Callable[[], None]]) -> None:
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _same_state(actual: dict, expected: dict) -> bool:
    return all(actual.get(name) == value for name, value in expected.items())


def _check_model(tally: Tally, read: Callable[[str], Any], model: dict[str, dict],
                 live: int, where: str) -> None:
    """Every acknowledged commit is present with its last acknowledged state,
    and nothing else is."""
    for oid, state in model.items():
        try:
            obj = read(oid)
        except Exception as exc:
            tally.fail(f"{where}: acknowledged {oid} missing ({exc})")
            continue
        if not _same_state(obj.state, state):
            tally.fail(f"{where}: {oid} is {obj.state}, acknowledged {state}")
    if live != len(model):
        tally.fail(f"{where}: {live} live objects, {len(model)} acknowledged")


def _check_audit(tally: Tally, violations: list, where: str) -> None:
    if violations:
        tally.fail(f"{where}: audit found {[v.describe() for v in violations][:3]}")


# -- CSLibrary inputs (served-commit, served-mixed) ----------------------------

KNOWN = ("ACM", "IEEE", "Springer", "Elsevier", "Kluwer")
CS_CLASSES = ("Publication", "ScientificPubl", "RefereedPubl", "NonRefereedPubl",
              "ProfessionalPubl")
NAMES = ("Apers", "Vermeer", "Gray", "Reuter", "Dayal", "Stonebraker", "Codd", "Ullman")
CS_KEY = "CSLibrary.Publication.cc1"
CS_PRICE = "CSLibrary.Publication.oc1"
CS_PUBLISHER = "CSLibrary.Publication.oc2"
CS_KINDS = (CS_KEY, CS_PRICE, CS_PUBLISHER)


def cs_state(rng: random.Random, cls: str, isbn: str) -> dict[str, Any]:
    """A valid CSLibrary object.  Ratings stay at most 3, so the ``avg < 4``
    class constraint holds however many objects exist."""
    shop = round(rng.uniform(10, 200), 2)
    state: dict[str, Any] = {
        "title": f"Title {isbn}", "isbn": isbn, "publisher": rng.choice(KNOWN),
        "shopprice": shop, "ourprice": round(shop * rng.uniform(0.5, 1.0), 2),
    }
    if cls in ("ScientificPubl", "RefereedPubl", "NonRefereedPubl"):
        state["editors"] = frozenset(rng.sample(NAMES, 2))
        state["rating"] = rng.randint(2, 3) if cls == "RefereedPubl" else rng.randint(1, 3)
    if cls == "RefereedPubl":
        state["avgAccRate"] = round(rng.uniform(0.1, 0.5), 3)
    elif cls == "NonRefereedPubl":
        state["authAffil"] = rng.choice(("UTwente", "CWI", "MIT"))
    elif cls == "ProfessionalPubl":
        state["authors"] = frozenset(rng.sample(NAMES, 2))
    return state


def cs_schema_source() -> str:
    from repro.fixtures.schemas import cslibrary_source

    return cslibrary_source()


class CsWriter:
    """One connection's CSLibrary write stream.  It updates only objects it
    inserted itself, so its model of acknowledged state is exact."""

    def __init__(self, store: Any, rng: random.Random, prefix: str, weights: tuple,
                 update_share: float, run: Run):
        self.store = store
        self.rng = rng
        self.prefix = prefix
        self.weights = weights
        self.update_share = update_share
        self.wrong = run.wrong_expectation
        self.owned: list[str] = []
        self.model: dict[str, dict] = {}
        self.tally = Tally()
        self.serial = 0
        self.violations = 0

    def _isbn(self) -> str:
        self.serial += 1
        return f"{self.prefix}-{self.serial}"

    def insert(self, state: dict, cls: str) -> None:
        obj = self.tally.attempt(lambda: self.store.insert(cls, state), ACCEPT)
        if obj is not None:
            self.owned.append(obj.oid)
            self.model[obj.oid] = state

    def step(self) -> None:
        rng = self.rng
        roll = rng.random()
        cls = rng.choices(CS_CLASSES, self.weights)[0]
        if roll < 0.05 and self.owned:
            # The kinds rotate, so each run has the same mix and the median
            # rejection falls inside one kind rather than between two.
            kind = CS_KINDS[self.violations % len(CS_KINDS)]
            self.violations += 1
            if kind == CS_KEY:
                victim = self.model[rng.choice(self.owned)]
                state = cs_state(rng, cls, victim["isbn"])
            else:
                state = cs_state(rng, cls, self._isbn())
                if kind == CS_PRICE:
                    state["ourprice"] = state["shopprice"] + 5.0
                else:
                    state["publisher"] = "Addison-Wesley"
            expect = ACCEPT if self.wrong and kind == CS_KEY else kind
            self.tally.attempt(lambda: self.store.insert(cls, state), expect)
        elif roll < 0.05 + self.update_share and self.owned:
            oid = rng.choice(self.owned)
            state = self.model[oid]
            price = round(state["shopprice"] * rng.uniform(0.5, 1.0), 2)
            if self.tally.attempt(lambda: self.store.update(oid, ourprice=price), ACCEPT):
                self.model[oid] = dict(state, ourprice=price)
        else:
            self.insert(cs_state(rng, cls, self._isbn()), cls)

    def loop(self, deadline: float, probe: RssProbe) -> None:
        while time.perf_counter() < deadline:
            self.step()
            probe.tick()


def _open_cs_tenant(address: tuple[str, int], tenant: str, clients: int) -> list[Any]:
    """Connect, register the CSLibrary schema, and rebind ``MAX`` so the
    ``sum(ourprice) < MAX`` constraint stays satisfiable as the store grows."""
    from repro.client import connect

    stores = [connect(address, tenant=tenant, schema=cs_schema_source())
              for _ in range(clients)]
    stores[0].set_constant("MAX", 1e12)
    return stores


def _server_spans(run: Run, name: str) -> Path | None:
    if run.tracer is None:
        return None
    path = run.workdir / f"spans-{name}.json.gz"
    path.unlink(missing_ok=True)
    return path


def _collect_server_spans(run: Run, server: Server, result: Result) -> None:
    if run.tracer is not None:
        from tracing import read_dump

        server.dump_spans()
        result.spans.append(read_dump(str(server.spans)))


# -- served-commit -------------------------------------------------------------


def served_commit(run: Run) -> Result:
    """Durable ``--sync`` tenant, two connections of autocommit writes, then
    SIGKILL and recovery of the directory by a restarted server."""
    result = Result()
    weights = (0.2, 0.15, 0.2, 0.25, 0.2)
    server = None
    for attempt in range(run.setups):
        if server is not None:
            for store in stores:
                store.close()
            server.stop()
        root = fresh_dir(run.workdir / f"root-{attempt}")
        start = time.perf_counter()
        server = run.serve(["--root", str(root), "--sync"], _server_spans(run, "commit"))
        stores = _open_cs_tenant(server.address, "commit", 2)
        writers = [CsWriter(store, run.rng(index), f"c{index}", weights, 0.20, run)
                   for index, store in enumerate(stores)]
        for writer in writers:
            with writer.store.transaction():
                for _ in range(run.scale.served_commit_preload // 2):
                    writer.insert(cs_state(writer.rng, "Publication", writer._isbn()),
                                  "Publication")
        result.setup_s.append(time.perf_counter() - start)
    for writer in writers:
        # The pre-load is not part of the measured phase, but its failures
        # count.
        result.tally.failed += writer.tally.failed
        result.tally.errors += writer.tally.errors
        writer.tally = Tally()
    tenant_dir = root / "commit"

    probe = RssProbe(result, run.scale.rss_ops_served, server.pid)
    cpu0 = cpu_seconds(server.pid)
    t0 = time.perf_counter_ns()
    deadline = time.perf_counter() + run.seconds
    _run_threads([lambda w=w: w.loop(deadline, probe) for w in writers])
    t1 = time.perf_counter_ns()
    probe.finish()
    result.window = (t0, t1)
    result.cpu_s = cpu_seconds(server.pid) - cpu0
    stats = stores[0].stats().get("tenant") or {}
    result.counters["fsyncs_per_commit"] = float(stats.get("fsyncs_per_commit", 0.0))
    _collect_server_spans(run, server, result)
    server.kill()  # acknowledged commits must survive kill -9

    tally = result.tally
    model: dict[str, dict] = {}
    for writer in writers:
        tally.merge(writer.tally)
        model.update(writer.model)
    # (the model includes the pre-load, which is acknowledged state too)
    result.disk_bytes_per_object = directory_bytes(tenant_dir) / max(1, len(model))

    from repro.client import connect

    server = run.serve(["--root", str(root), "--sync"], _server_spans(run, "recovery"))
    try:
        store = connect(server.address)
        r0 = time.perf_counter_ns()
        store.open("commit")  # recovery of the directory, audit included
        r1 = time.perf_counter_ns()
        result.recovery_window = (r0, r1)
        result.recovery_s = (r1 - r0) / 1e9
        recovered = {obj.oid: obj for obj in store.objects()}
        _check_model(tally, recovered.__getitem__, model, len(recovered), "after SIGKILL")
        _check_audit(tally, store.audit(), "after SIGKILL")
        store.close()
        _collect_server_spans(run, server, result)
    finally:
        server.stop()
    return result


# -- served-mixed --------------------------------------------------------------


def _check_snapshot_read(tally: Tally, refs: list, picks: list, hits: list,
                         publisher: str, previous: int) -> int:
    """A snapshot shows a constraint-satisfying state and the 1% class never
    shrinks between snapshots (the writer never deletes)."""
    if len(refs) < previous:
        tally.fail(f"RefereedPubl extent shrank from {previous} to {len(refs)}")
    seen: set[str] = set()
    by_oid = {obj.oid: obj.state for obj in refs}
    for obj in refs:
        state = obj.state
        if not (state["ourprice"] <= state["shopprice"] and state["publisher"] in KNOWN
                and 2 <= state["rating"] <= 5 and state["isbn"] not in seen):
            tally.fail(f"snapshot shows a violating object {obj.oid}: {state}")
        seen.add(state["isbn"])
    for obj in picks:
        if by_oid.get(obj.oid) != obj.state:
            tally.fail(f"snapshot get of {obj.oid} disagrees with its extent")
    if len(hits) > 50:
        tally.fail(f"query returned {len(hits)} objects past its limit of 50")
    for obj in hits:
        if obj.state["publisher"] != publisher or obj.state["ourprice"] > obj.state["shopprice"]:
            tally.fail(f"query for {publisher} returned {obj.oid}: {obj.state}")
    return len(refs)


#: The reader's pause between read ops.  It keeps the reader's share of the
#: server near a quarter, so most writes do not queue behind a reply being
#: encoded and the writer's median sits in one mode instead of between two.
READER_PAUSE_S = 0.06


def _reader_loop(store: Any, rng: random.Random, tally: Tally, deadline: float) -> None:
    """One read op: a snapshot (extent of the 1% class, three gets, close)
    followed by a filtered, limited query; then a pause."""
    previous = 0
    while time.perf_counter() + READER_PAUSE_S < deadline:
        time.sleep(READER_PAUSE_S)
        tally.attempted += 1
        publisher = rng.choice(KNOWN)
        start = time.perf_counter()
        try:
            with store.snapshot() as snapshot:
                refs = snapshot.extent("RefereedPubl")
                picks = [snapshot.get(obj.oid)
                         for obj in rng.sample(refs, min(3, len(refs)))]
            hits = store.query("Publication", where={"publisher": publisher}, limit=50)
        except Exception as exc:
            tally.fail(f"read failed: {type(exc).__name__}: {exc}")
            continue
        tally.read.append(time.perf_counter() - start)
        previous = _check_snapshot_read(tally, refs, picks, hits, publisher, previous)


def served_mixed(run: Run) -> Result:
    """In-memory tenant pre-loaded with 5·10³ objects (1% RefereedPubl); one
    connection writes while the other reads through snapshots and queries."""
    result = Result()
    weights = (0.30, 0.20, 0.01, 0.25, 0.24)
    server = None
    for attempt in range(run.setups):
        if server is not None:
            for store in stores:
                store.close()
            server.stop()
        start = time.perf_counter()
        server = run.serve([], _server_spans(run, "mixed"))
        stores = _open_cs_tenant(server.address, "mixed", 2)
        loader = CsWriter(stores[0], run.rng(10), "p", weights, 0.0, run)
        for first in range(0, run.scale.served_mixed_preload, 1000):
            with stores[0].transaction():
                for _ in range(min(1000, run.scale.served_mixed_preload - first)):
                    cls = loader.rng.choices(CS_CLASSES, weights)[0]
                    loader.insert(cs_state(loader.rng, cls, loader._isbn()), cls)
        result.setup_s.append(time.perf_counter() - start)
    # The writer takes over the pre-loaded objects, so its updates range
    # over the whole working set.
    writer = CsWriter(stores[0], run.rng(0), "w", weights, 0.50, run)
    result.tally.failed += loader.tally.failed
    result.tally.errors += loader.tally.errors
    writer.owned += loader.owned
    writer.model.update(loader.model)
    reader_tally = Tally()
    reader_rng = run.rng(1)
    probe = RssProbe(result, run.scale.rss_ops_served, server.pid)
    cpu0 = cpu_seconds(server.pid)
    t0 = time.perf_counter_ns()
    deadline = time.perf_counter() + run.seconds
    _run_threads([lambda: writer.loop(deadline, probe),
                  lambda: _reader_loop(stores[1], reader_rng, reader_tally, deadline)])
    t1 = time.perf_counter_ns()
    probe.finish()
    result.window = (t0, t1)
    result.cpu_s = cpu_seconds(server.pid) - cpu0

    tally = result.tally
    tally.merge(writer.tally)
    tally.merge(reader_tally)
    try:
        live = {obj.oid: obj for obj in stores[0].objects()}
        _check_model(tally, live.__getitem__, writer.model, len(live), "end of run")
        _check_audit(tally, stores[0].audit(), "end of run")
        for store in stores:
            store.close()
        _collect_server_spans(run, server, result)
    finally:
        server.stop()
    return result


# -- embedded-txn --------------------------------------------------------------

PUBLISHERS = ("ACM", "IEEE", "Springer", "Kluwer", "Elsevier", "Wiley", "MIT Press")
BOOK_KEY = "Bookseller.Item.cc1"
BOOK_DB1 = "Bookseller.db1"
BOOK_IEEE = "Bookseller.Proceedings.oc1"


class BookWriter:
    """The Bookseller catalogue at a steady size.  Each transaction adds one
    Publisher with 1–3 Monograph/Proceedings items and retires the oldest
    publisher with its items; every 4th op is an autocommit ``libprice``
    update.  About 5% of ops are seeded violations, rotating through a
    transaction with a duplicate isbn, a transaction with a non-refereed IEEE
    proceedings, and an autocommit delete of a publisher's only item
    (``db1``); a rejected transaction retires nothing."""

    KINDS = (BOOK_KEY, BOOK_IEEE, BOOK_DB1)

    def __init__(self, store: Any, rng: random.Random, run: Run):
        self.store = store
        self.rng = rng
        self.wrong = run.wrong_expectation
        #: Live publishers, oldest first, with their items.
        self.catalogue: deque[tuple[str, list[str]]] = deque()
        self.items: list[str] = []
        self.model: dict[str, dict] = {}
        self.tally = Tally()
        self.serial = 0
        self.ops = 0
        self.violations = 0

    def _item(self, publisher: str, name: str, isbn: str) -> tuple[str, dict]:
        rng = self.rng
        shop = round(rng.uniform(10, 200), 2)
        state: dict[str, Any] = {
            "title": f"Title {isbn}", "isbn": isbn, "publisher": publisher,
            "authors": frozenset(rng.sample(NAMES, 2)), "shopprice": shop,
            "libprice": round(shop * rng.uniform(0.5, 1.0), 2),
        }
        if rng.random() < 0.5:
            state["subjects"] = frozenset(rng.sample(("db", "ir", "os", "pl"), 2))
            return "Monograph", state
        refereed = name == "IEEE" or rng.random() < 0.5
        low = 7 if refereed else (6 if name == "ACM" else 1)
        state["ref?"] = refereed
        state["rating"] = rng.randint(low, 10)
        return "Proceedings", state

    def add(self, violation: str | None = None) -> list[tuple[str, dict]]:
        """Insert one Publisher plus its items; ``violation`` seeds a defect."""
        rng = self.rng
        store = self.store
        self.serial += 1
        name = "IEEE" if violation == BOOK_IEEE else rng.choice(PUBLISHERS)
        publisher_state = {"name": name, "location": f"City {self.serial % 97}"}
        publisher = store.insert("Publisher", **publisher_state)
        done = [(publisher.oid, publisher_state)]
        planned = [self._item(publisher.oid, name, f"b{self.serial}-{k}")
                   for k in range(rng.randint(1, 3))]
        if violation == BOOK_KEY:
            # A victim from the newest publisher: the oldest one's items are
            # deleted by this very transaction, which would free their isbns.
            victim = rng.choice(self.catalogue[-1][1])
            planned[-1][1]["isbn"] = self.model[victim]["isbn"]
        elif violation == BOOK_IEEE:
            _, state = self._item(publisher.oid, name, f"b{self.serial}-x")
            state.pop("subjects", None)
            state.update({"ref?": False, "rating": 8})
            planned.append(("Proceedings", state))
        for cls, state in planned:
            done.append((store.insert(cls, **state).oid, state))
        return done

    def record(self, done: list[tuple[str, dict]]) -> None:
        for oid, state in done:
            self.model[oid] = state
        items = [oid for oid, _ in done[1:]]
        self.catalogue.append((done[0][0], items))
        self.items += items

    def churn(self, violation: str | None) -> tuple[list, tuple[str, list[str]]]:
        oldest = self.catalogue[0]
        with self.store.transaction():
            for oid in oldest[1]:
                self.store.delete(oid)
            self.store.delete(oldest[0])
            done = self.add(violation)
        return done, oldest

    def retire(self, oldest: tuple[str, list[str]]) -> None:
        self.catalogue.popleft()
        gone = set(oldest[1])
        self.items = [oid for oid in self.items if oid not in gone]
        for oid in (oldest[0], *oldest[1]):
            del self.model[oid]

    def step(self) -> None:
        rng = self.rng
        self.ops += 1
        if self.ops % 4 == 0:
            oid = rng.choice(self.items)
            state = self.model[oid]
            price = round(state["shopprice"] * rng.uniform(0.5, 1.0), 2)
            if self.tally.attempt(lambda: self.store.update(oid, libprice=price), ACCEPT):
                self.model[oid] = dict(state, libprice=price)
            return
        violation = None
        if rng.random() < 0.05:
            violation = self.KINDS[self.violations % len(self.KINDS)]
            self.violations += 1
        if violation == BOOK_DB1:
            only = [items[0] for _, items in self.catalogue if len(items) == 1]
            oid = rng.choice(only)
            self.tally.attempt(lambda: self.store.delete(oid), BOOK_DB1)
            return
        expect = ACCEPT if violation == BOOK_KEY and self.wrong else violation
        outcome = self.tally.attempt(lambda: self.churn(violation), expect)
        if outcome:
            done, oldest = outcome
            self.retire(oldest)
            self.record(done)

    def loop(self, deadline: float, probe: RssProbe) -> None:
        while time.perf_counter() < deadline:
            self.step()
            probe.tick()


def embedded_txn(run: Run) -> Result:
    """Embedded ``ObjectStore.open(dir, sync=False)``: transactional commits
    on the Bookseller schema at a steady store size, then close and reopen."""
    from repro import ObjectStore, bookseller_schema

    result = Result()
    store = None
    for attempt in range(run.setups):
        if store is not None:
            store.close()
            shutil.rmtree(path, ignore_errors=True)
        path = run.workdir / f"store-{attempt}"
        shutil.rmtree(path, ignore_errors=True)
        start = time.perf_counter()
        store = ObjectStore.open(path, bookseller_schema(), sync=False)
        writer = BookWriter(store, run.rng(0), run)
        for first in range(0, run.scale.embedded_publishers, 100):
            # Batches: each commit re-checks the path constraints once.
            with store.transaction():
                batch = [writer.add()
                         for _ in range(min(100, run.scale.embedded_publishers - first))]
            for done in batch:
                writer.record(done)
        result.setup_s.append(time.perf_counter() - start)

    probe = RssProbe(result, run.scale.rss_ops_embedded)
    cpu0 = cpu_seconds()
    t0 = time.perf_counter_ns()
    writer.loop(time.perf_counter() + run.seconds, probe)
    t1 = time.perf_counter_ns()
    probe.finish()
    result.window = (t0, t1)
    result.cpu_s = cpu_seconds() - cpu0
    tally = result.tally
    tally.merge(writer.tally)
    store.close()
    result.disk_bytes_per_object = directory_bytes(path) / max(1, len(writer.model))
    del store

    r0 = time.perf_counter_ns()
    reopened = ObjectStore.open(path)  # verify=True: recovery ends in an audit
    r1 = time.perf_counter_ns()
    result.recovery_window = (r0, r1)
    result.recovery_s = (r1 - r0) / 1e9
    _check_model(tally, reopened.get, writer.model, len(reopened), "after reopen")
    _check_audit(tally, reopened.audit(), "after reopen")
    reopened.close()
    return result


# -- sharded-writers -----------------------------------------------------------

LEDGER_SOURCE = """
Database Ledger

Class Left
attributes
  code   : string
  amount : real
object constraints
  oc1: amount >= 0
  oc2: amount <= 1000000
class constraints
  cc1: key code
end Left

Class Right
attributes
  code   : string
  amount : real
object constraints
  oc1: amount >= 0
  oc2: amount <= 1000000
class constraints
  cc1: key code
end Right
"""

SIDES = ("Left", "Right")


class LedgerWriter:
    """One writer thread: inserts into its own class, every 16th op a
    cross-class transaction (a two-phase commit across both shard logs),
    ~5% seeded violations rotating through a duplicate code, a negative
    amount and an amount over the cap."""

    def __init__(self, store: Any, rng: random.Random, index: int, run: Run):
        self.store = store
        self.rng = rng
        self.index = index
        self.cls = SIDES[index]
        self.wrong = run.wrong_expectation
        self.model: dict[str, dict] = {}
        self.codes: list[str] = []
        self.tally = Tally()
        self.ops = 0
        self.violations = 0

    def _state(self, code: str) -> dict:
        return {"code": code, "amount": round(self.rng.uniform(0, 1000), 2)}

    def _cross(self) -> list[tuple[str, dict]]:
        done = []
        with self.store.transaction():
            for side in SIDES:
                state = self._state(f"x{self.index}-{self.ops}-{side}")
                done.append((self.store.insert(side, **state).oid, state))
        return done

    def step(self) -> None:
        rng = self.rng
        self.ops += 1
        if self.ops % 16 == 0:
            done = self.tally.attempt(self._cross, ACCEPT)
            for oid, state in done or ():
                self.model[oid] = state
            return
        state = self._state(f"t{self.index}-{self.ops}")
        expect = ACCEPT
        if rng.random() < 0.05 and self.codes:
            kind = ("cc1", "oc1", "oc2")[self.violations % 3]
            self.violations += 1
            if kind == "cc1":
                state["code"] = rng.choice(self.codes)
            else:
                state["amount"] = -1.0 if kind == "oc1" else 2e6
            expect = f"Ledger.{self.cls}.{kind}"
            if self.wrong and kind == "cc1":
                expect = ACCEPT
        obj = self.tally.attempt(lambda: self.store.insert(self.cls, **state), expect)
        if obj is not None:
            self.model[obj.oid] = state
            self.codes.append(state["code"])

    def loop(self, deadline: float, probe: RssProbe) -> None:
        while time.perf_counter() < deadline:
            self.step()
            probe.tick()


def sharded_writers(run: Run) -> Result:
    """Embedded ``ShardedStore`` over two shards (``sync=False``), one writer
    thread per class, then close and reopen."""
    from repro import ShardedStore, parse_database

    result = Result()
    store = None
    for attempt in range(run.setups):
        if store is not None:
            store.close()
            shutil.rmtree(root, ignore_errors=True)
        root = run.workdir / f"shards-{attempt}"
        shutil.rmtree(root, ignore_errors=True)
        start = time.perf_counter()
        store = ShardedStore.open(root, parse_database(LEDGER_SOURCE), 2, sync=False)
        preload: dict[str, dict] = {}
        for side in SIDES:
            for first in range(0, run.scale.sharded_preload, 500):
                with store.transaction():
                    for n in range(first, min(first + 500, run.scale.sharded_preload)):
                        state = {"code": f"p-{side}-{n}", "amount": float(n % 1000)}
                        preload[store.insert(side, **state).oid] = state
        result.setup_s.append(time.perf_counter() - start)

    writers = [LedgerWriter(store, run.rng(index), index, run) for index in range(2)]
    fast0, routed0 = store.fast_path_ops, store.routed_global_ops
    twopc0 = store.two_phase_commits
    probe = RssProbe(result, run.scale.rss_ops_sharded)
    cpu0 = cpu_seconds()
    t0 = time.perf_counter_ns()
    deadline = time.perf_counter() + run.seconds
    _run_threads([lambda w=w: w.loop(deadline, probe) for w in writers])
    t1 = time.perf_counter_ns()
    probe.finish()
    result.window = (t0, t1)
    result.cpu_s = cpu_seconds() - cpu0
    fast = store.fast_path_ops - fast0
    routed = store.routed_global_ops - routed0
    result.counters["fast_path_frac"] = fast / max(1, fast + routed)
    result.counters["two_phase_commits"] = store.two_phase_commits - twopc0

    tally = result.tally
    model = dict(preload)
    for writer in writers:
        tally.merge(writer.tally)
        model.update(writer.model)
    store.close()
    result.disk_bytes_per_object = directory_bytes(root) / max(1, len(model))
    del store

    r0 = time.perf_counter_ns()
    reopened = ShardedStore.open(root)  # verify=True: a merged audit
    r1 = time.perf_counter_ns()
    result.recovery_window = (r0, r1)
    result.recovery_s = (r1 - r0) / 1e9
    _check_model(tally, reopened.get, model, len(reopened), "after reopen")
    _check_audit(tally, reopened.audit(), "after reopen")
    for writer in writers:
        mine = sum(1 for side in SIDES for obj in reopened.extent(side)
                   if obj.state["code"].startswith((f"t{writer.index}-", f"x{writer.index}-")))
        if mine != len(writer.model):
            tally.fail(f"writer {writer.index}: {mine} objects, {len(writer.model)} acknowledged")
    reopened.close()
    return result


WORKLOADS: dict[str, Callable[[Run], Result]] = {
    "served-commit": served_commit,
    "served-mixed": served_mixed,
    "embedded-txn": embedded_txn,
    "sharded-writers": sharded_writers,
}
