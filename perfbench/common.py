"""Measurement plumbing shared by the workloads: outcome checking, latency
summaries, process counters read from ``/proc``, the server subprocess and
the run's stamp."""

from __future__ import annotations

import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, port files and span dumps; ignored by git.
WORK = ROOT / "perfbench" / ".work"

#: The generator's expectation for an op that must commit.
ACCEPT = None


@dataclass
class Tally:
    """One worker's outcomes: latencies by kind plus every mismatch between
    an op's outcome and the generator's expectation."""

    commit: list[float] = field(default_factory=list)
    reject: list[float] = field(default_factory=list)
    read: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def attempt(self, op: Callable[[], Any], expect: str | None) -> Any:
        """Run one write, time it and check it against ``expect``: ``ACCEPT``
        or the qualified name of the constraint that must reject it.
        Returns the op's result when it committed, else ``None``."""
        from repro import ConstraintViolation

        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op()
        except ConstraintViolation as exc:
            elapsed = time.perf_counter() - start
            if expect is ACCEPT:
                self.fail(f"rejected an op expected to commit: {exc}")
            elif expect not in exc.constraint_names:
                self.fail(f"rejected by {exc.constraint_names}, expected {expect}")
            else:
                self.reject.append(elapsed)
            return None
        except Exception as exc:  # any other error is a failed op
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        if expect is not ACCEPT:
            self.fail(f"committed an op expected to violate {expect}")
            return None
        self.commit.append(elapsed)
        return result

    def merge(self, other: "Tally") -> None:
        self.commit += other.commit
        self.reject += other.reject
        self.read += other.read
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[: max(0, 5 - len(self.errors))]


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def median(values: list[float]) -> float:
    """The median (0 for an empty list)."""
    return statistics.median(values) if values else 0.0


# -- process counters ----------------------------------------------------------


def cpu_seconds(pid: int | None = None) -> float:
    """User + system CPU seconds of ``pid`` (this process when ``None``)."""
    if pid is None:
        return time.process_time()
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # After the command name: state is field 3, utime 14 and stime 15.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (``VmHWM``) in MiB."""
    with open(f"/proc/{pid or 'self'}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def filesystem_type(path: Path) -> str:
    """The type of the mount that holds ``path`` (longest matching mount)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                parts = line.split()
                mount = parts[1].replace("\\040", " ")
                prefix = mount.rstrip("/") + "/"
                if (target == mount or target.startswith(prefix)) and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def source_commit() -> str:
    """The git commit of the checkout, or ``unknown`` outside a repository
    (git is stopped from searching above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(seed: int, workdir: Path) -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "wal_fs": filesystem_type(workdir),
        "seed": seed,
        "commit": source_commit(),
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- the server subprocess -----------------------------------------------------


class Server:
    """``python -m repro serve`` (or the traced shim) as a child process on
    an ephemeral port; ``stop()`` and ``kill()`` wait for it to end."""

    def __init__(self, workdir: Path, args: list[str], spans: Path | None = None):
        self.port_file = workdir / f"port-{time.monotonic_ns()}"
        serve = ["serve", "--port", "0", "--port-file", str(self.port_file),
                 "--idle-timeout", "0", *args]
        if spans is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            shim = ROOT / "perfbench" / "serve_traced.py"
            command = [sys.executable, str(shim), str(spans), *serve]
        self.spans = spans
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log_path = workdir / f"{self.port_file.name}.log"
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log,
            )
        deadline = time.monotonic() + 60
        while True:
            if self.process.poll() is not None:
                raise RuntimeError("server exited at start: " + self.log_path.read_text())
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.endswith("\n"):
                self.port = int(text)
                break
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("server did not start within 60s")
            time.sleep(0.002)

    @property
    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self.port)

    @property
    def pid(self) -> int:
        return self.process.pid

    def dump_spans(self) -> None:
        """Ask the traced shim to write its spans and wait until it has."""
        assert self.spans is not None
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 120
        while not self.spans.exists():
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("traced server did not write its spans")
            time.sleep(0.01)

    def stop(self) -> None:
        """Clean shutdown (checkpoint and close every tenant)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        self._reap()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self._reap()

    def _reap(self) -> None:
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.port_file.unlink(missing_ok=True)
