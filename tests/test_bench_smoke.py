"""The benchmark's train workload on tiny inputs, run as part of the tests.

``benchmarks/run.py --workload train --smoke --trace 1`` trains through the
CLI, re-predicts every held-out video from the saved checkpoint and requires
bit-identical floats (``train.checkpoint_round_trip``), and runs a traced
phase through its span hooks (``trainer.forward`` among them). The run must
report ``correct: true`` and no failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_train_workload_smoke():
    argv = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", "train",
            "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-4000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout[-4000:]
    assert result["failed"] == 0
    assert result["attempted"] > 0
