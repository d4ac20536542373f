"""Workload sizes and the program arguments each workload uses.

``full`` is the benchmark; ``smoke`` shrinks every workload so the harness
and all of its checks run in seconds (see ``selftest.py``).
"""

from __future__ import annotations

from pathlib import Path

SIZES = {
    "full": {
        # 2000 videos x 150 views: 300k events plus injected lines. Many
        # videos per duration bin keep the envelope slope within the
        # acceptance suite's 5% of the planted value on every seed tried.
        "labels": {"videos": 2000, "views": 150, "malformed_share": 0.005,
                   "unknown_share": 0.0025, "unknown_ids": 40},
        # Feature corpora take ``videos`` out of a ``pool`` of generated
        # videos, evenly over the duration lattice (see inputs.py).
        "train": {"videos": 500, "pool": 2000, "fps": 16.0, "d_model": 32, "max_clips": 64,
                  "iterations": 60, "eval_interval": 30, "batch_size": 8},
        # 30 fps gives 21-111 clips per video at the full model width.
        "score": {"videos": 200, "pool": 1000, "fps": 30.0},
    },
    "smoke": {
        "labels": {"videos": 2000, "views": 100, "malformed_share": 0.005,
                   "unknown_share": 0.0025, "unknown_ids": 40},
        "train": {"videos": 100, "pool": 400, "fps": 16.0, "d_model": 8, "max_clips": 64,
                  "iterations": 6, "eval_interval": 3, "batch_size": 8},
        "score": {"videos": 4, "pool": 100, "fps": 30.0},
    },
}

# Set-up repetitions per run; set-up time is their median. The feature
# set-ups take about a second and vary most, so they repeat more often.
SETUP_REPS = {"labels": 3, "train": 5, "score": 5}

# The trainer's own seed is fixed: the workload seed only changes the inputs.
TRAIN_SEED = 7

# fit-norm binning for the labels corpus (the desk settings of the
# acceptance suite's bimodality criterion).
FIT_NORM_ARGS = ["--bin-width", "5", "--min-bin-count", "25"]
MIN_VIEWS = 50
SHARDS = 4

# Relative tolerance of the fitted slope against the planted one, as in the
# acceptance suite's envelope-recovery criterion.
SLOPE_REL_TOL = 0.05


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def repo_src() -> Path:
    return repo_root() / "src"
