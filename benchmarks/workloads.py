"""The three workloads: set-up, the measured closed loop and the checks.

Every workload runs in this process, closed loop, one caller: the next
operation starts when the previous one returns. The program is driven only
through its public entry points (``engpred.cli.main``, ``load_bundle``,
``forward``, ``load_checkpoint``). A phase runs operations until the next
one would end past the run length; with a tracer it also installs the
span-recording wrappers of ``layers.py`` for the length of the loop.

Every phase also takes readings of the machine's speed (``speed.py``)
between measured stretches of work, and reports each stretch's time at
nominal speed beside its wall time.

Outputs are checked outside the timed region. Operations whose outputs are
byte-identical to a checked operation's share its verdict, so each check
runs once per distinct output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import statistics
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import engpred.cli as cli
import engpred.trainer as trainer
from engpred.autodiff import Tape, Tensor
from engpred.model import ModelConfig, forward
from engpred.serialize import load_bundle, load_weights

import layers
from sizes import FIT_NORM_ARGS, MIN_VIEWS, SETUP_REPS, SHARDS, SLOPE_REL_TOL, TRAIN_SEED
from spans import NAME, Tracer, patched
from speed import Speedometer

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    """One measured operation: a labels pass, a train call, a scored video.

    ``segments`` are the (start, end) ``perf_counter`` stretches of measured
    work; speed readings fall between them. Each timing sample is the sum of
    a slice ``segments[i:j]`` named in ``samples``.
    """

    segments: list[tuple[float, float]]
    ok: bool
    digest: str = ""
    samples: list[tuple[int, int]] = field(default_factory=list)
    items: int = 0
    # Filled in by Phase.normalise: seconds at nominal speed per segment.
    nominal: list[float] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.segments)


@dataclass
class Phase:
    """The operations of one closed loop, plus what the checks found."""

    ops: list[Op] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    counters: dict[str, object] = field(default_factory=dict)
    observed: dict[str, float] = field(default_factory=dict)
    speed: Speedometer = field(default_factory=Speedometer)

    def check(self, name: str, ok: bool) -> bool:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)

    def fail_digest(self, digest: str) -> None:
        for op in self.ops:
            if op.digest == digest:
                op.ok = False

    def settle(self, check) -> None:
        """Check the last operation's outputs with ``check()``.

        Earlier operations overwrote the same files; they pass only if their
        outputs were byte-identical to the checked ones.
        """
        last = self.ops[-1] if self.ops else None
        verified = None
        if last is not None and last.ok:
            try:
                verified = last.digest if check() else None
            except Exception:  # noqa: BLE001 - unreadable outputs fail the check
                traceback.print_exc(file=sys.stderr)
                self.check("outputs_readable", False)
        for op in self.ops:
            op.ok = op.ok and op.digest == verified

    def normalise(self) -> None:
        """Each segment's time at nominal speed, from the readings around it."""
        for op in self.ops:
            op.nominal = [(t1 - t0) / self.speed.around(t0, t1) for t0, t1 in op.segments]

    def samples_ms(self, wall: bool = False) -> list[float]:
        out = []
        for op in self.ops:
            seconds = [t1 - t0 for t0, t1 in op.segments] if wall else op.nominal
            out.extend(1000.0 * sum(seconds[i:j]) for i, j in op.samples)
        return out

    def items_per_s(self, wall: bool = False) -> float:
        seconds = sum(op.seconds if wall else sum(op.nominal) for op in self.ops)
        return sum(op.items for op in self.ops) / seconds


def closed_loop(seconds: float, op, speed: Speedometer) -> None:
    """Call ``op()`` back to back until the next call would end past ``seconds``.

    A speed reading is due before the first call, between calls once per
    ``speed.interval`` and after the last call.
    """
    start = time.perf_counter()
    done = 0
    while True:
        speed.between_ops()
        op()
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            speed.read()
            return


def file_digest(*paths: Path, text: str = "") -> str:
    h = hashlib.sha256(text.encode("utf-8"))
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def run_setup(workload: str, seed: int, profile: str, out: Path) -> list[dict]:
    """Build the inputs in a child process; returns one timing dict per repetition."""
    cmd = [sys.executable, str(HERE / "inputs.py"), workload, str(seed), profile, str(out), str(SETUP_REPS[workload])]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"input set-up failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["reps"]


def _quiet_call(argv: list) -> int:
    """``cli.main(argv)`` with its output captured in memory; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _guarded(phase: Phase, fn) -> None:
    """Run one operation; an exception counts as a failed operation."""
    t0 = time.perf_counter()
    try:
        fn()
    except Exception:  # noqa: BLE001 - the loop reports the failure and goes on
        traceback.print_exc(file=sys.stderr)
        phase.ops.append(Op(segments=[(t0, time.perf_counter())], ok=False))


def _same_float(a, b) -> bool:
    return isinstance(a, float) and isinstance(b, float) and a.hex() == b.hex()


def _same_output(res, seen) -> bool:
    return _same_float(res.nawp_hat, seen[0]) and _same_float(res.ecr_hat, seen[1])


# -- labels --------------------------------------------------------------


def labels_stages(d: Path) -> list[tuple[str, list]]:
    return [
        ("cli.aggregate", ["aggregate", "--events", d / "events.jsonl", "--metas", d / "metas.jsonl",
                           "--out", d / "records.jsonl", "--min-views", MIN_VIEWS, "--shards", SHARDS]),
        ("cli.fit_norm", ["fit-norm", "--records", d / "records.jsonl",
                          "--out-envelope", d / "envelope.json",
                          "--out-records", d / "annotated.jsonl", *FIT_NORM_ARGS]),
        ("cli.report", ["report", "--records", d / "annotated.jsonl", "--out", d / "distributions.json"]),
    ]


LABEL_OUTPUTS = ("records.jsonl", "envelope.json", "annotated.jsonl", "distributions.json")


def labels_phase(d: Path, oracle: dict, seconds: float, tracer: Tracer | None) -> Phase:
    """One operation is one pass of the three stages; it is one sample.

    Untraced, speed readings may fall between two stages: a pass's time is
    the sum of its stage times.
    """
    phase = Phase(speed=Speedometer(fine=tracer is None))
    stages = labels_stages(d)
    n_events = oracle["events"]
    last_text = {}

    def one_pass():
        out, err = io.StringIO(), io.StringIO()
        codes, segments = [], []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                for k, (_, argv) in enumerate(stages):
                    if k:
                        phase.speed.within_op()
                    t0 = time.perf_counter()
                    codes.append(cli.main([str(a) for a in argv]))
                    segments.append((t0, time.perf_counter()))
            else:
                tracer.request += 1
                t0 = time.perf_counter()
                with tracer.span("bench.labels_pass"):
                    for name, argv in stages:
                        with tracer.span(name):
                            codes.append(cli.main([str(a) for a in argv]))
                segments.append((t0, time.perf_counter()))
        text = out.getvalue() + "\n--stderr--\n" + err.getvalue()
        digest = file_digest(*(d / name for name in LABEL_OUTPUTS), text=text)
        last_text[digest] = (out.getvalue(), err.getvalue())
        phase.ops.append(Op(segments=segments, ok=all(c == 0 for c in codes), digest=digest,
                            samples=[(0, len(segments))], items=n_events))

    with layers.install("labels", tracer):
        closed_loop(seconds, lambda: _guarded(phase, one_pass), phase.speed)
    phase.normalise()
    phase.settle(lambda: check_labels(phase, d, oracle, *last_text[phase.ops[-1].digest]))
    return phase


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def check_labels(phase: Phase, d: Path, oracle: dict, out: str, err: str) -> bool:
    expected = oracle["records"]
    ok = True
    for name in ("records.jsonl", "annotated.jsonl"):
        got = {row["video_id"]: row for row in _read_jsonl(d / name)}
        exact = set(got) == set(expected) and all(
            got[vid]["views"] == e["views"]
            and _same_float(got[vid]["awt_s"], e["awt_s"])
            and _same_float(got[vid]["ecr"], e["ecr"])
            for vid, e in expected.items()
        )
        ok &= phase.check(f"labels.{name.split('.')[0]}_bit_exact", exact)
    failures = sum(1 for line in err.splitlines() if line.startswith("warning: line "))
    match = re.search(r"skipped (\d+) events for (\d+) unknown video ids", err)
    unknown_events, unknown_ids = (int(match.group(1)), int(match.group(2))) if match else (0, 0)
    ok &= phase.check("labels.parse_failures_exact", failures == oracle["parse_failures"])
    ok &= phase.check("labels.unknown_events_exact", unknown_events == oracle["unknown_events"])
    ok &= phase.check("labels.unknown_ids_exact", unknown_ids == oracle["unknown_ids"])
    with open(d / "envelope.json", "r", encoding="utf-8") as f:
        slope = json.load(f)["slope_a"]
    planted = oracle["envelope_a"]
    ok &= phase.check("labels.slope_within_5pct", abs(slope - planted) <= SLOPE_REL_TOL * abs(planted))
    phase.counters.update({
        "aggregate.parse_failures": failures,
        "aggregate.unknown_events": unknown_events,
        "unknown_ids": unknown_ids,
        "videos": len(expected),
        "outputs_sha256": phase.ops[-1].digest[:16],
    })
    phase.observed["slope_a"] = slope
    return ok


# -- train ---------------------------------------------------------------


def train_argv(d: Path, run_dir: Path, size: dict) -> list:
    return ["train", "--manifest", d / "manifest.jsonl", "--out-dir", run_dir,
            "--iterations", size["iterations"], "--batch-size", size["batch_size"],
            "--eval-interval", size["eval_interval"], "--d-model", size["d_model"],
            "--max-clips", size["max_clips"], "--seed", TRAIN_SEED, "--mode", "joint"]


TRAIN_OUTPUTS = ("checkpoint.engw", "train_log.jsonl", "test_predictions.jsonl", "train_summary.json")


def videos_trained(n_train: int, iterations: int, batch: int) -> int:
    """Videos seen by ``iterations`` steps of the trainer's epoch schedule."""
    per_epoch = math.ceil(n_train / batch)
    return sum(min(batch, n_train - (s % per_epoch) * batch) for s in range(iterations))


def train_phase(d: Path, size: dict, seconds: float, tracer: Tracer | None) -> Phase:
    """One operation is a whole ``cli.main train`` call; its samples are steps.

    A step is the time between two returns of ``trainer.adam_step``: the
    untraced phase's only wrapper reads the clock there and, once per
    interval, takes a speed reading, which the next step's time leaves out.
    The first step of a call has no previous return and is not a sample.
    """
    phase = Phase(speed=Speedometer(fine=tracer is None))
    run_dir = d / "run"
    argv = train_argv(d, run_dir, size)
    segments: list[tuple[float, float]] = []
    start = [0.0]
    real_adam = trainer.adam_step

    def stamping_adam(*args, **kwargs):
        result = real_adam(*args, **kwargs)
        segments.append((start[0], time.perf_counter()))
        phase.speed.within_op()
        start[0] = time.perf_counter()
        return result

    def one_call():
        segments.clear()
        start[0] = time.perf_counter()
        code = _quiet_call(argv) if tracer is None else _traced_train_call(tracer, argv)
        segments.append((start[0], time.perf_counter()))
        with open(run_dir / "train_summary.json", "r", encoding="utf-8") as f:
            n_train = json.load(f)["n_train"]
        # segments: prelude + first step, one per later step, then the tail.
        phase.ops.append(Op(
            segments=list(segments), ok=code == 0,
            digest=file_digest(*(run_dir / n for n in TRAIN_OUTPUTS)),
            samples=[(k, k + 1) for k in range(1, len(segments) - 1)],
            items=videos_trained(n_train, size["iterations"], size["batch_size"]),
        ))

    adam_patch = [(trainer, "adam_step", stamping_adam)]
    with patched(adam_patch), layers.install("train", tracer):
        closed_loop(seconds, lambda: _guarded(phase, one_call), phase.speed)
        # The workload ends with the evaluation stage on the last call's output.
        eval_argv = ["eval", "--predictions", run_dir / "test_predictions.jsonl",
                     "--manifest", d / "manifest.jsonl", "--out", run_dir / "eval_report.json"]
        if tracer is None:
            eval_code = _quiet_call(eval_argv)
        else:
            with tracer.span("cli.eval"):
                eval_code = _quiet_call(eval_argv)
    phase.normalise()
    phase.settle(lambda: phase.check("train.eval_exit_0", eval_code == 0) and check_train(phase, d, run_dir))
    return phase


def _traced_train_call(tracer: Tracer, argv: list) -> int:
    """One train call; spans between adam returns become ``trainer.step`` requests."""
    depth = len(tracer.stack)
    root = tracer.open("cli.train")
    tracer.open("trainer.prelude")
    try:
        return _quiet_call(argv)
    finally:
        while len(tracer.stack) > depth + 2:
            tracer.close(tracer.stack[-1])
        tail = tracer.stack[-1]
        if tracer.spans[tail][NAME] == "trainer.step":
            tracer.spans[tail][NAME] = "trainer.tail"
        tracer.close(tail)
        tracer.close(root)


def read_engw(path: Path) -> dict[str, bytes]:
    """Independent ENGW reader: array name -> raw little-endian payload."""
    data = path.read_bytes()
    if data[:4] != b"ENGW":
        raise ValueError("not an ENGW file")
    pos, arrays = 8, {}
    while pos < len(data):
        (n,) = struct.unpack_from("<I", data, pos)
        name = data[pos + 4 : pos + 4 + n].decode("utf-8")
        pos += 4 + n
        (rank,) = struct.unpack_from("<I", data, pos)
        dims = struct.unpack_from(f"<{rank}I", data, pos + 4)
        pos += 4 + 4 * rank
        size = 8 * math.prod(dims)
        arrays[name] = data[pos : pos + size]
        pos += size
    return arrays


def spearman(x, y) -> float:
    """Pearson correlation of average-tie ranks, written without engpred."""
    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.argsort(v, kind="mergesort")
        r = np.empty(len(v))
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            r[order[i : j + 1]] = 0.5 * (i + j)
            i = j + 1
        return r
    rx, ry = ranks(x), ranks(y)
    rx, ry = rx - rx.mean(), ry - ry.mean()
    return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))


def check_train(phase: Phase, d: Path, run_dir: Path) -> bool:
    log = _read_jsonl(run_dir / "train_log.jsonl")
    preds = _read_jsonl(run_dir / "test_predictions.jsonl")
    with open(run_dir / "train_summary.json", "r", encoding="utf-8") as f:
        summary = json.load(f)
    with open(run_dir / "eval_report.json", "r", encoding="utf-8") as f:
        report = json.load(f)
    manifest = {row["video_id"]: row for row in _read_jsonl(d / "manifest.jsonl")}
    ok = phase.check("train.losses_finite", bool(log) and all(math.isfinite(r["train_loss"]) for r in log))
    ok &= phase.check("train.predictions_in_0_1", bool(preds) and all(
        0.0 < p[k] < 1.0 for p in preds for k in ("nawp_hat", "ecr_hat")))

    ckpt = trainer.load_checkpoint(run_dir / "checkpoint.engw")
    raw = read_engw(run_dir / "checkpoint.engw")
    same_params = set(ckpt.params) == {k[len("param/"):] for k in raw if k.startswith("param/")} and all(
        np.ascontiguousarray(p.data, dtype="<f8").tobytes() == raw["param/" + name]
        for name, p in ckpt.params.items())
    repredicted = True
    for p in preds:
        row = manifest[p["video_id"]]
        res = forward(load_bundle(d / row["feature_path"]), ckpt.params, ckpt.model_cfg,
                      duration_s=float(row["duration_s"]))
        repredicted &= _same_float(res.nawp_hat * ckpt.label_scale[0], p["nawp_hat"])
        repredicted &= _same_float(res.ecr_hat * ckpt.label_scale[1], p["ecr_hat"])
    ok &= phase.check("train.checkpoint_round_trip", same_params and repredicted)

    ok &= phase.check("train.eval_srcc_equals_trainer",
                      report["nawp"]["srcc"] == summary["final_srcc_nawp"]
                      and report["ecr"]["srcc"] == summary["final_srcc_ecr"])
    oracle_ok = True
    for key, label in (("nawp", "nawp_label"), ("ecr", "ecr_label")):
        truth = [manifest[p["video_id"]][label] for p in preds]
        ref = spearman([p[f"{key}_hat"] for p in preds], truth)
        oracle_ok &= abs(ref - report[key]["srcc"]) <= 1e-12
    ok &= phase.check("train.srcc_matches_oracle", oracle_ok)

    trajectory = "\n".join(f"{r['step']}:{float(r['train_loss']).hex()}" for r in log)
    phase.counters.update({
        "loss_digest": hashlib.sha256(trajectory.encode("ascii")).hexdigest()[:16],
        "optim.params": sum(p.data.size for p in ckpt.params.values()),
        "n_train": summary["n_train"],
        "log_rows": len(log),
    })
    phase.observed["final_srcc_nawp"] = summary["final_srcc_nawp"]
    phase.observed["final_srcc_ecr"] = summary["final_srcc_ecr"]
    return ok


# -- score ---------------------------------------------------------------


def load_params(path: Path) -> dict[str, Tensor]:
    return {name: Tensor(arr) for name, arr in load_weights(path).items()}


def score_phase(d: Path, params, seconds: float, tracer: Tracer | None) -> Phase:
    """One operation is one unseen video: ``load_bundle`` then tape-off ``forward``."""
    phase = Phase(speed=Speedometer(fine=tracer is None))
    cfg = ModelConfig()
    paths = [d / row["feature_path"] for row in _read_jsonl(d / "manifest.jsonl")]
    # video index -> (nawp_hat, ecr_hat, n_clips) of its first scoring
    first_seen: dict[int, tuple[float, float, int]] = {}
    cursor = [0]

    def one_video():
        k = cursor[0] % len(paths)
        cursor[0] += 1
        t0 = time.perf_counter()
        if tracer is None:
            bundle = load_bundle(paths[k])
            res = forward(bundle, params, cfg)
        else:
            tracer.request += 1
            with tracer.span("bench.score_video"):
                with tracer.span("serialize.load_bundle"):
                    bundle = load_bundle(paths[k])
                with tracer.span("model.forward"):
                    res = forward(bundle, params, cfg)
        t1 = time.perf_counter()
        out = (res.nawp_hat, res.ecr_hat)
        ok = phase.check("score.predictions_in_0_1", all(math.isfinite(v) and 0.0 < v < 1.0 for v in out))
        if k in first_seen:
            ok &= phase.check("score.rescore_bit_identical", _same_output(res, first_seen[k]))
        else:
            first_seen[k] = (*out, bundle.n_clips)
        phase.ops.append(Op(segments=[(t0, t1)], ok=ok, digest=str(k), samples=[(0, 1)], items=1))

    with layers.install("score", tracer):
        closed_loop(seconds, lambda: _guarded(phase, one_video), phase.speed)
    phase.normalise()
    if not phase.check("score.scored_a_video", bool(first_seen)):
        return phase

    # Re-score the first and the longest scored video with no tape and
    # under a tape: both must reproduce the loop's output bit for bit.
    longest = max(first_seen, key=lambda k: first_seen[k][2])
    ops_per_video = set()
    for k in sorted({0, longest}):
        bundle = load_bundle(paths[k])
        again = forward(bundle, params, cfg)
        with Tape() as tape:
            taped = forward(bundle, params, cfg)
        ops_per_video.add(len(tape))
        if not (phase.check("score.rescore_bit_identical", _same_output(again, first_seen[k]))
                & phase.check("score.tape_on_equals_tape_off", _same_output(taped, first_seen[k]))):
            phase.fail_digest(str(k))
    phase.check("score.ops_per_video_constant", len(ops_per_video) == 1)
    # The corpus's clip counts, whichever videos the loop reached.
    clips = [load_bundle(path).n_clips for path in paths]
    phase.counters.update({
        "autodiff.ops_per_video": max(ops_per_video),
        "model.clips_per_video": statistics.median_low(clips),
    })
    phase.observed["videos_scored_distinct"] = len(first_seen)
    return phase
