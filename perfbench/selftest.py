"""The benchmark's own tests, at tiny sizes:

    python3 -m pytest perfbench/selftest.py -q

They check that every workload emits every metric with its unit, that the
traced mode emits every per-layer metric and prints its budget, and that the
correctness checks bite: a seeded duplicate key marked "accept" must be
counted as a failure and make the run exit non-zero.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(bench.SRC))


def _cli(name: str, trace: int) -> tuple[int, str, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    code, out, result = _cli(name, trace=0)
    assert code == 0, out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {metric for metric, _ in bench.END_TO_END}
    for metric, unit in bench.END_TO_END:
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0, metric
    for metric, _ in bench.EXTRA:
        assert metric in out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric_and_its_budget(name):
    code, out, result = _cli(name, trace=1)
    assert code == 0, out
    assert set(result["metrics"]) == {metric for metric, _ in layers.PER_LAYER}
    for metric, unit in layers.PER_LAYER:
        assert result["metrics"][metric]["unit"] == unit
    assert "per-layer budget" in out and "tracing overhead" in out
    assert result["metrics"]["incremental.check_us"]["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_wrong_expectation_is_counted_as_a_failure(name, monkeypatch, capsys):
    wrong = functools.partial(bench.run_workload, wrong_expectation=True)
    monkeypatch.setattr(bench, "run_workload", wrong)
    code = bench.main(["--workload", name, "--seed", "3", "--seconds", "1",
                       "--scale", "tiny", "--details"])
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert doc["failed"] > 0
    assert doc["metrics"]["failed_frac"] > 0
