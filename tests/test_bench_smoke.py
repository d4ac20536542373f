"""The benchmark's labels and train workloads on tiny inputs, run as part of the tests.

``benchmarks/run.py --workload train --smoke --trace 1`` trains through the
CLI, re-predicts every held-out video from the saved checkpoint and requires
bit-identical floats (``train.checkpoint_round_trip``), and runs a traced
phase through its span hooks (``trainer.forward`` among them).
``--workload labels`` runs aggregate, fit-norm and report (``--shards 4``) and
requires records bit-exact against an fsum oracle (``labels.records_bit_exact``),
the injected parse-failure and unknown-id counts exactly, and the same
counters in its traced and untraced phases. Each run must report
``correct: true`` and no failed operation.

The labels run's ``outputs_sha256`` counter is pinned to the value written by
the Shewchuk-partials reducer that the integer-unit sums replaced, so the
smoke outputs stay byte-identical to it. The train run's ``loss_digest``
(its logged losses as exact hex floats) is pinned to the value of the
per-tensor Adam loop that the flat-buffer update replaced.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _smoke(workload: str) -> tuple[dict, dict]:
    """The run's final JSON result and its printed ``counters`` line."""
    argv = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-4000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout[-4000:]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    (counters,) = [line for line in out.stdout.splitlines() if line.startswith("counters: ")]
    return result, json.loads(counters.removeprefix("counters: "))


def test_train_workload_smoke():
    _, counters = _smoke("train")
    assert counters["loss_digest"] == "8c156ac2ae344bad"


def test_labels_workload_smoke():
    _, counters = _smoke("labels")
    assert counters["outputs_sha256"] == "c7b5181c264383e1"
