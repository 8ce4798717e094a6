"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

    python3 perfbench/run.py --workload served-commit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
first runs the same workload untraced (in a child process), then again with
span wrappers installed, and reports the per-layer metrics, a stacked
per-layer budget and the tracing overhead.  Every run checks the workload's
outputs; the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``) and the exit code is 1
when a check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, SRC, WORK, median, quantile, stamp  # noqa: E402

#: End-to-end metrics of BENCHMARK.json: (name, unit).  Every workload
#: reports every one.
END_TO_END = (
    ("setup_s", "s"),
    ("commit_p50_ms", "ms"),
    ("commits_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("rss_mb", "MB"),
)
#: Reported with every run but not gated: rejection latency and tails follow
#: the shared host's speed from run to run, only served-mixed reads, only
#: the durable workloads recover and weigh a directory, and a correct run
#: fails nothing.
EXTRA = (
    ("reject_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("recovery_s", "s"),
    ("disk_bytes_per_object", "B"),
    ("failed_frac", "1"),
)


def _require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def end_to_end(result) -> dict[str, float | None]:
    tally = result.tally
    ms = 1e3
    reads = tally.read or None  # only served-mixed reads
    return {
        "setup_s": median(result.setup_s),
        "commit_p50_ms": median(tally.commit) * ms,
        "commit_p99_ms": quantile(tally.commit, 0.99) * ms,
        "commits_per_s": len(tally.commit) / ((result.window[1] - result.window[0]) / 1e9),
        "reject_p50_ms": median(tally.reject) * ms,
        "read_p50_ms": reads and median(reads) * ms,
        "cpu_us_per_op": result.cpu_s / max(1, tally.attempted) * 1e6,
        "rss_mb": result.rss_mb,
        "read_p99_ms": reads and quantile(reads, 0.99) * ms,
        "recovery_s": result.recovery_s,
        "disk_bytes_per_object": result.disk_bytes_per_object,
        "failed_frac": tally.failed / max(1, tally.attempted),
    }


def _print_table(title: str, rows: list[tuple[str, float | None, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>14} {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
                 wrong_expectation: bool = False) -> dict:
    """Run one workload in this process; returns the result document."""
    from workloads import SCALES, WORKLOADS, Run

    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = Run(seed=seed, seconds=seconds, workdir=workdir, scale=SCALES[scale],
                  wrong_expectation=wrong_expectation)
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer("bench")
            if name.startswith("served"):
                tracing.install_client(tracer)
            else:
                tracing.install_store(tracer)
            run.tracer = tracer
            run.single_setup = True
        try:
            result = WORKLOADS[name](run)
        finally:
            for server in run.servers:
                server.kill()  # a no-op for servers the workload stopped
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            result.spans.append(tracer.dump())
        doc = {
            "workload": name,
            "stamp": stamp(seed, workdir),
            "attempted": result.tally.attempted,
            "failed": result.tally.failed,
            "errors": result.tally.errors,
            "samples": {
                "commit": len(result.tally.commit),
                "reject": len(result.tally.reject),
                "read": len(result.tally.read),
            },
            "metrics": end_to_end(result),
            "counters": result.counters,
        }
        if trace:
            import layers
            import tracing

            doc["layers"], doc["budget"] = layers.per_layer(result, name)
            doc["mean_op_us"] = layers.mean_op_us(result)
            spans_path = WORK / f"spans-{name}.json.gz"
            tracing.write_dump({"processes": result.spans}, str(spans_path))
            doc["span_dump"] = str(spans_path.relative_to(ROOT))
        return doc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced_child(name: str, seed: int, seconds: float, scale: str) -> dict:
    """The untraced pass of a traced run, in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--scale", scale, "--details"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"untraced pass printed nothing: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--details", action="store_true",
                        help="print the whole result document as the last line")
    args = parser.parse_args(argv)
    _require_program()

    if args.workload == "all":
        return _run_all(args)

    if not args.trace:
        doc = run_workload(args.workload, args.seed, args.seconds, False, args.scale)
        units = dict(END_TO_END + EXTRA)
        _print_table(f"{args.workload} (seed {args.seed}, {doc['stamp']})",
                     [(name, doc["metrics"][name], units[name]) for name in units])
        print(f"  samples {doc['samples']}, attempted {doc['attempted']}, "
              f"failed {doc['failed']}")
        for error in doc["errors"]:
            print(f"  FAILED: {error}")
        metrics = {name: {"value": doc["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        import layers

        untraced = _untraced_child(args.workload, args.seed, args.seconds, args.scale)
        doc = run_workload(args.workload, args.seed, args.seconds, True, args.scale)
        doc["layers"]["tracing.overhead_pct"] = layers.overhead_pct(untraced, doc)
        doc["untraced"] = untraced
        layers.print_budget(args.workload, doc, untraced)
        _print_table("per-layer metrics",
                     [(name, doc["layers"][name], unit) for name, unit in layers.PER_LAYER])
        for error in doc["errors"] + untraced["errors"]:
            print(f"  FAILED: {error}")
        doc["attempted"] += untraced["attempted"]
        doc["failed"] += untraced["failed"]
        metrics = {name: {"value": doc["layers"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
    correct = doc["failed"] == 0
    if args.details:
        print(json.dumps(doc))
    else:
        print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                          "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Every workload, each in its own process; one combined result."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale],
            cwd=ROOT, capture_output=True, text=True,
        )
        print("\n".join(done.stdout.strip().splitlines()[:-1]))
        print(f"  ({time.perf_counter() - started:.1f}s wall)")
        lines = done.stdout.strip().splitlines()
        if not lines:
            print(done.stderr, file=sys.stderr)
            return 2
        part = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, entry in part["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    # One string-hash layout for every run and every process it starts: on a
    # 2-core VM, randomised hashing moved embedded-txn's commit p50 by ~12%
    # between runs of one seed (6.5–7.3 ms); a fixed seed, by ~1%.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
