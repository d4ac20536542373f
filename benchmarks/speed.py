"""The machine's momentary speed, from a fixed reference that uses no engpred code.

The vCPUs of a shared host run up to 2x slower for seconds to minutes at a
time while other tenants load it, so a wall-clock median moves by more
between two runs of the same code than the benchmark's bounds allow. The
measured loop therefore pauses, at most once per ``INTERVAL`` seconds, to
time a reference of two fixed parts: interpreter work on JSON lines and
dicts, and d=256 BLAS matmuls with a tanh. The geometric mean over the two
of median unit time ÷ nominal unit time is the slow-down factor at that
moment. A measured
stretch of work divided by the mean factor of the readings just before and
just after it is its time at nominal speed. The end-to-end timings are
reported that way; the report prints the wall-clock figures beside them.

The reference calls no engpred code and its work never changes, so a change
to the program moves the normalised times and leaves the factor alone. The
readings are taken outside every measured stretch.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
import time

import numpy as np

# Why these two parts: over ten-run sets on a 2-vCPU Xeon VM, the log of a
# run's wall-clock median step or pass time rose with the log of this
# factor at a slope of 0.9 to 1.0 on both workloads, so the normalised
# medians no longer followed the host's load (slope 0.03 to 0.14). The
# matmul part alone slows less than the program (slope 1.2 to 1.7 on it);
# the interpreter part alone slows more, and swings between 1x and 2x from
# one reading to the next. A small-array NumPy part tracked neither workload.

# Seconds between readings; a reading is only taken between two measured
# stretches of work.
INTERVAL = 1.0
# Units timed per part in one reading; the part's time is their median,
# which drops a unit that an interrupt landed in.
UNITS = 5

_LINES = [
    json.dumps({"video_id": f"v{i % 500:05d}", "watch_time_s": (i * 7919 % 1000) / 37.0,
                "liked": bool(i % 3)})
    for i in range(4000)
]
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((256, 256))
_X = _rng.standard_normal((64, 256))


def _interpreter_unit() -> None:
    acc: dict[str, list] = {}
    for line in _LINES:
        row = json.loads(line)
        entry = acc.get(row["video_id"])
        if entry is None:
            acc[row["video_id"]] = entry = [0, 0.0]
        entry[0] += 1
        entry[1] += row["watch_time_s"]


def _matmul_unit() -> None:
    b = _X
    for _ in range(40):
        b = np.tanh(b @ _A * 0.05)


# (unit, nominal seconds). A nominal time is about the unit's time on an
# idle VM; it sets the scale of the normalised figures, not their spread.
PARTS = ((_interpreter_unit, 0.0100), (_matmul_unit, 0.0090))


def factor() -> float:
    """The slow-down factor now (1.0 at nominal speed)."""
    logs = []
    for unit, nominal in PARTS:
        times = []
        for _ in range(UNITS):
            t0 = time.perf_counter()
            unit()
            times.append(time.perf_counter() - t0)
        logs.append(math.log(statistics.median(times) / nominal))
    return math.exp(sum(logs) / len(logs))


class Speedometer:
    """Readings of the slow-down factor over one phase.

    ``fine`` allows readings inside an operation (between the stages of a
    labels pass, between train steps); the traced phase takes them only
    between operations, so that no reading lands inside a span.
    """

    def __init__(self, fine: bool = True, interval: float = INTERVAL) -> None:
        self.fine, self.interval = fine, interval
        self.times: list[float] = []
        self.factors: list[float] = []

    def read(self) -> None:
        t0 = time.perf_counter()
        f = factor()
        self.times.append(0.5 * (t0 + time.perf_counter()))
        self.factors.append(f)

    def between_ops(self) -> None:
        """Take a reading if the last one is ``interval`` seconds old."""
        if not self.times or time.perf_counter() - self.times[-1] >= self.interval:
            self.read()

    def within_op(self) -> None:
        if self.fine:
            self.between_ops()

    def around(self, t0: float, t1: float) -> float:
        """Mean factor of the last reading before ``t0`` and the first after ``t1``."""
        before = bisect.bisect_right(self.times, t0) - 1
        after = bisect.bisect_left(self.times, t1)
        picked = [self.factors[i] for i in (before, after) if 0 <= i < len(self.factors)]
        if not picked:
            raise RuntimeError("no speed reading taken")
        return sum(picked) / len(picked)

    def median(self) -> float:
        return statistics.median(self.factors)
