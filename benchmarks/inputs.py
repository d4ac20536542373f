"""Build one workload's inputs from its seed, in a process of its own.

Usage: python3 benchmarks/inputs.py WORKLOAD SEED PROFILE OUT_DIR REPS

Runs the set-up REPS times into OUT_DIR (each repetition overwrites the
last) and prints one JSON object with the time of each repetition and of
the synth, records and serialize calls inside it, at nominal machine speed
(wall time ÷ the mean of the speed readings taken just before and just
after the repetition; see speed.py), plus the repetition's wall time and
speed factor. The set-up runs in its
own process so that the measuring process's peak RSS is the workload's, not
the generator's. After the last repetition, and outside the timed region,
the labels set-up writes ``oracle.json``: the answers the measuring process
checks the program's outputs against, computed here without the code under
test.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from sizes import SIZES, repo_src
from speed import Speedometer

sys.path.insert(0, str(repo_src()))

from engpred.model import ModelConfig, init_params  # noqa: E402
from engpred.records import WatchEvent, meta_to_json, write_events  # noqa: E402
from engpred.serialize import save_weights  # noqa: E402
from engpred.synth import SynthConfig, duration_lattice, generate_events, generate_features  # noqa: E402

# Ordinary malformed event lines, one template per rejection reason of the
# event parser. ``{vid}`` is a known video id, so only the rejection keeps
# the line out of that video's aggregate.
MALFORMED = (
    '{{"video_id": "{vid}", "watch_time_s": 3.25',
    '[1, 2, 3]',
    '{{"watch_time_s": 4.5, "liked": false}}',
    '{{"video_id": "{vid}", "watch_time_s": "7.5"}}',
    '{{"video_id": "{vid}", "watch_time_s": -2.0}}',
    '{{"video_id": "{vid}", "watch_time_s": 6.0, "liked": "yes"}}',
)


class Clock:
    """Accumulates wall seconds under named keys."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def timed(self, key, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[key] = self.seconds.get(key, 0.0) + time.perf_counter() - t0


def labels_config(size: dict, seed: int) -> SynthConfig:
    # The acceptance suite's envelope-recovery mixture, so the fitted slope
    # has a planted value to be checked against.
    return SynthConfig(
        n_videos=size["videos"],
        views_per_video=size["views"],
        seed=seed,
        coupling=1.0,
        mixture_means=(0.15, 0.9),
        mixture_sigmas=(0.07, 0.03),
    )


def setup_labels(size: dict, seed: int, out: Path, clock: Clock) -> dict:
    cfg = labels_config(size, seed)
    corpus = clock.timed("synth.generate_events", generate_events, cfg)
    rng = np.random.default_rng([seed, 71])
    n_events = len(corpus.events)
    n_bad = max(len(MALFORMED), round(n_events * size["malformed_share"]))
    n_unknown = max(1, round(n_events * size["unknown_share"]))
    unknown = [
        WatchEvent(f"x{i % size['unknown_ids']:05d}", float(rng.uniform(0.0, 30.0)), bool(i % 2))
        for i in range(n_unknown)
    ]
    # A real log interleaves videos: shuffle, then splice the unknown-id
    # events and the malformed lines in at seeded positions.
    events = [corpus.events[i] for i in rng.permutation(n_events)] + unknown
    order = rng.permutation(len(events))
    events = [events[i] for i in order]
    bad_at = np.sort(rng.choice(len(events) + 1, size=n_bad, replace=True))
    ids = [m.video_id for m in corpus.metas]
    with open(out / "events.jsonl", "w", encoding="utf-8") as f:
        start = 0
        for k, pos in enumerate(bad_at):
            clock.timed("records.write_events", write_events, f, events[start:pos])
            start = pos
            f.write(MALFORMED[k % len(MALFORMED)].format(vid=ids[k % len(ids)]) + "\n")
        clock.timed("records.write_events", write_events, f, events[start:])
    with open(out / "metas.jsonl", "w", encoding="utf-8") as f:
        for meta in corpus.metas:
            f.write(meta_to_json(meta) + "\n")
    return {
        "corpus": corpus,
        "n_bad": n_bad,
        "unknown_events": n_unknown,
        "unknown_ids": len({e.video_id for e in unknown}),
        "envelope_a": cfg.envelope_a,
    }


def labels_oracle(made: dict) -> dict:
    """Per-video views, mean watch time (math.fsum) and ECR from the events."""
    corpus = made["corpus"]
    threshold = corpus.config.ecr_threshold_s
    watches: dict[str, list[float]] = {}
    for event in corpus.events:
        watches.setdefault(event.video_id, []).append(event.watch_time_s)
    records = {
        vid: {
            "views": len(ws),
            "awt_s": math.fsum(ws) / len(ws),
            "ecr": sum(1 for w in ws if w > threshold) / len(ws),
        }
        for vid, ws in watches.items()
    }
    return {
        "records": records,
        "events": len(corpus.events) + made["unknown_events"],
        "parse_failures": made["n_bad"],
        "unknown_events": made["unknown_events"],
        "unknown_ids": made["unknown_ids"],
        "envelope_a": made["envelope_a"],
    }


def spread_durations(truth: list, n: int, lattice) -> list:
    """``n`` videos whose durations sit at evenly spaced points of the lattice.

    Clip count sets a video's cost, so fixing the duration mix makes every
    seed's corpus cost the same; the seed still changes every feature. A
    lattice point with no video left takes the nearest one that has one.
    """
    pool: dict[float, list] = {}
    for info in truth:
        pool.setdefault(info.duration_s, []).append(info)
    points = [float(d) for d in lattice]

    def nearest_left(k: int):
        for step in range(len(points)):
            for j in (k - step, k + step):
                if 0 <= j < len(points) and pool.get(points[j]):
                    return pool[points[j]].pop(0)
        raise RuntimeError("video pool is smaller than the corpus")

    picked = [nearest_left((2 * i + 1) * len(points) // (2 * n)) for i in range(n)]
    return sorted(picked, key=lambda info: info.video_id)


def setup_features(size: dict, seed: int, out: Path, clock: Clock) -> None:
    cfg = SynthConfig(n_videos=size["pool"], views_per_video=1, seed=seed, frame_rate=size["fps"])
    corpus = clock.timed("synth.generate_events", generate_events, cfg)
    truth = spread_durations(corpus.truth, size["videos"], duration_lattice(cfg))
    clock.timed("synth.generate_features", generate_features, truth, cfg, out_dir=out)


def setup_score(size: dict, seed: int, out: Path, clock: Clock) -> None:
    setup_features(size, seed, out, clock)
    params = init_params(ModelConfig(), seed)
    clock.timed(
        "serialize.save_weights",
        save_weights,
        out / "weights.engw",
        {name: p.data for name, p in params.items()},
    )


SETUPS = {"labels": setup_labels, "train": setup_features, "score": setup_score}


def main(argv: list[str]) -> int:
    workload, seed, profile, out_dir, reps = argv
    size = SIZES[profile][workload]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    made = None
    speed = Speedometer(interval=0.0)
    speed.read()
    for _ in range(int(reps)):
        made = None  # let the previous repetition's corpus go before timing
        clock = Clock()
        t0 = time.perf_counter()
        made = SETUPS[workload](size, int(seed), out, clock)
        t1 = time.perf_counter()
        speed.read()
        f = speed.around(t0, t1)
        reports.append({"total_s": (t1 - t0) / f, "wall_total_s": t1 - t0, "speed_factor": f,
                        **{k + "_s": v / f for k, v in clock.seconds.items()}})
    if workload == "labels":
        with open(out / "oracle.json", "w", encoding="utf-8") as f:
            json.dump(labels_oracle(made), f)
    print(json.dumps({"reps": reports}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
