"""Self-test of the benchmark harness, in smoke mode.

    python3 -m pytest benchmarks/selftest.py

Runs every workload untraced and traced on tiny inputs with all checks on,
and checks the output contract against BENCHMARK.json. The file name does
not match pytest's default pattern, so the repository's own test run does
not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import CountLedger  # noqa: E402
from spans import Tracer  # noqa: E402


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as f:
        return json.load(f)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["labels", "train", "score"])
def test_smoke_run_meets_output_contract(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert "self time per request by layer" in proc.stdout


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "score", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_add_up_to_the_request_span():
    t = Tracer()
    t.spans = [
        ["req", 0.0, 10.0, -1, 0, {}],
        ["a.x", 1.0, 4.0, 0, 0, {}],
        ["b.y", 2.0, 3.0, 1, 0, {}],
        ["a.z", 5.0, 9.0, 0, 0, {}],
    ]
    t.leaves = {("c.leaf", 3): [7, 1.5, 0]}
    selfs = t.self_times(0)
    assert selfs == {"req": 3.0, "a.x": 2.0, "b.y": 1.0, "a.z": 2.5, "c.leaf": 1.5}
    assert sum(selfs.values()) == 10.0


def test_spread_durations_takes_the_nearest_duration_left():
    from types import SimpleNamespace

    from inputs import spread_durations

    pool = [SimpleNamespace(video_id=f"v{i}", duration_s=d) for i, d in enumerate([10.5, 10.5, 13.5, 14.5])]
    picked = spread_durations(pool, 4, [10.5, 11.5, 12.5, 13.5, 14.5])
    assert [v.video_id for v in picked] == ["v0", "v1", "v2", "v3"]
    with pytest.raises(RuntimeError):
        spread_durations(pool, 5, [10.5, 11.5, 12.5, 13.5, 14.5])


def test_count_ledger_flags_a_changed_counter(tmp_path):
    ledger = CountLedger(tmp_path / "counters.jsonl", "k")
    assert ledger.compare_and_record({"events": 5, "digest": "ab"}) == []
    assert ledger.compare_and_record({"events": 5}) == []
    assert len(ledger.compare_and_record({"events": 6, "digest": "ab"})) == 2
    assert CountLedger(tmp_path / "counters.jsonl", "other").compare_and_record({"events": 1}) == []


def test_speed_factor_of_a_stretch_is_the_mean_of_the_readings_beside_it():
    from speed import Speedometer

    s = Speedometer()
    s.times, s.factors = [0.0, 1.0, 2.0], [1.0, 2.0, 4.0]
    assert s.around(0.2, 0.8) == 1.5
    assert s.around(1.2, 1.9) == 3.0
    assert s.around(2.5, 3.0) == 4.0  # no reading after it: the one before
