"""engpred benchmark: one workload, measured untraced, optionally traced.

    python3 benchmarks/run.py --workload {labels,train,score} --seed N \
        --seconds S --trace {0,1} [--smoke]

Prints a human-readable report, then, as the last line of standard output,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, measured over the whole run; with ``--trace 1`` they are the
per-layer metrics, taken from a traced phase that follows an untraced one,
each half the run (the difference is the tracing overhead). End-to-end
timings are at nominal machine speed (see speed.py); the report also prints
them as wall-clock figures. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from sizes import SIZES, repo_root, repo_src

# One BLAS thread keeps the measurement steady on the 2-core machine; it is
# set before numpy loads and recorded in the provenance block.
BLAS_THREADS = 1

WORKLOADS = ("labels", "train", "score")
# Workload-specific names of the generic end-to-end metrics, for the report.
ALIASES = {
    "labels": {"items_per_s": ("labels_events_per_s", "events/s")},
    "train": {"op_ms_p50": ("train_step_ms_p50", "ms"), "op_ms_p95": ("train_step_ms_p95", "ms"),
              "items_per_s": ("train_videos_per_s", "videos/s")},
    "score": {"op_ms_p50": ("score_ms_p50", "ms"), "op_ms_p95": ("score_ms_p95", "ms"),
              "items_per_s": ("score_videos_per_s", "videos/s")},
}


def import_program():
    """Import engpred from this checkout's src/, or exit 2 without a result."""
    src = repo_src()
    if not (src / "engpred" / "__init__.py").is_file():
        print(f"error: no engpred sources under {src}; run from a repository checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import engpred

    if Path(engpred.__file__).resolve().parent != (src / "engpred").resolve():
        print(f"error: imported engpred from {engpred.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def code_digest() -> str:
    h = hashlib.sha256()
    root = repo_root()
    for path in sorted([*(root / "src" / "engpred").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        pass
    commit = None
    if (repo_root() / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo_root(),
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "profile": "smoke" if args.smoke else "full",
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS, "git_commit": commit, "code_sha256": code_digest(),
    }


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def setup_metrics(reps: list[dict]) -> dict[str, float]:
    """Median over set-up repetitions of each timed part."""
    keys = sorted({k for rep in reps for k in rep})
    return {k: statistics.median(rep.get(k, 0.0) for rep in reps) for k in keys}


class CountLedger:
    """Exact counters of earlier runs of the same code, inputs and profile."""

    def __init__(self, path: Path, key: str) -> None:
        self.path, self.key = path, key

    def compare_and_record(self, counters: dict) -> list[str]:
        mismatches = []
        if self.path.exists():
            with open(self.path, "r", encoding="utf-8") as f:
                for line in f:
                    row = json.loads(line)
                    if row["key"] != self.key:
                        continue
                    for name, value in counters.items():
                        if name in row["counters"] and row["counters"][name] != value:
                            mismatches.append(f"{name}={value!r}, an earlier run had {row['counters'][name]!r}")
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(json.dumps({"key": self.key, "counters": counters, "time": time.time()}) + "\n")
        return mismatches


def run_workload(args, work: Path, out_dir: Path, prov: dict) -> dict:
    import layers
    import workloads as wl
    from spans import Tracer
    from speed import Speedometer

    profile = prov["profile"]
    size = SIZES[profile][args.workload]
    reps = wl.run_setup(args.workload, args.seed, profile, work)
    setup = setup_metrics(reps)
    setup_s = setup["total_s"]
    params = None
    load_weights_ms = load_weights_wall_ms = 0.0
    if args.workload == "score":
        loads, wall_loads = [], []
        speed = Speedometer(interval=0.0)
        for _ in range(len(reps)):
            params = None
            speed.read()
            t0 = time.perf_counter()
            params = wl.load_params(work / "weights.engw")
            t1 = time.perf_counter()
            speed.read()
            loads.append((t1 - t0) / speed.around(t0, t1))
            wall_loads.append(t1 - t0)
        load_weights_ms = 1000.0 * statistics.median(loads)
        load_weights_wall_ms = 1000.0 * statistics.median(wall_loads)
        setup_s += load_weights_ms / 1000.0

    # phase(seconds, tracer) runs one closed loop: untraced with None, else traced.
    if args.workload == "labels":
        with open(work / "oracle.json", "r", encoding="utf-8") as f:
            phase = functools.partial(wl.labels_phase, work, json.load(f))
    elif args.workload == "train":
        phase = functools.partial(wl.train_phase, work, size)
    else:
        phase = functools.partial(wl.score_phase, work, params)

    # A traced run splits its length between the untraced and traced phases.
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = phase(seconds, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases = [untraced]
    samples = untraced.samples_ms()
    e2e = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (percentile(samples, 50), "ms"),
        "op_ms_p95": (percentile(samples, 95), "ms"),
        "items_per_s": (untraced.items_per_s(), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    with open(out_dir / f"speed-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as f:
        json.dump({"times": untraced.speed.times, "factors": untraced.speed.factors,
                   "ops": [{"segments": op.segments, "samples": op.samples, "items": op.items}
                           for op in untraced.ops]}, f)
    wall_samples = untraced.samples_ms(wall=True)
    wall = {
        "setup_s": setup["wall_total_s"] + (load_weights_wall_ms / 1000.0),
        "op_ms_p50": percentile(wall_samples, 50),
        "op_ms_p95": percentile(wall_samples, 95),
        "items_per_s": untraced.items_per_s(wall=True),
        "speed_factor": untraced.speed.median(),
        "setup_speed_factor": setup["speed_factor"],
    }
    result = {"e2e": e2e, "wall": wall, "setup": setup, "samples": len(samples), "phases": phases}

    if args.trace:
        tracer = Tracer()
        traced = phase(seconds, tracer)
        phases.append(traced)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        per_layer = {name: 0 for name in layers.PER_LAYER_UNITS}
        derived, by_layer, request_ms = layers.derive(args.workload, tracer)
        per_layer.update(derived)
        per_layer["records.write_events_s"] = setup.get("records.write_events_s", 0.0)
        per_layer["synth.generate_events_s"] = setup.get("synth.generate_events_s", 0.0)
        per_layer["synth.generate_features_s"] = setup.get("synth.generate_features_s", 0.0)
        per_layer["serialize.load_weights_ms"] = load_weights_ms
        if args.workload == "score":
            for name in ("autodiff.ops_per_video", "model.clips_per_video"):
                per_layer[name] = traced.counters.get(name, 0)
        traced.counters.update({name: per_layer[name] for name in layers.COUNTERS if per_layer[name]})
        traced_p50 = percentile(traced.samples_ms(), 50)
        per_layer["trace.overhead_ms"] = traced_p50 - e2e["op_ms_p50"][0]
        result.update(per_layer=per_layer, by_layer=by_layer, request_ms=request_ms,
                      traced_p50=traced_p50)
    return result


def counters_of(result: dict) -> tuple[dict, list[str]]:
    """The run's exact counters, and any that differ between its two phases."""
    counters: dict = {}
    conflicts = []
    for phase in result["phases"]:
        for name, value in phase.counters.items():
            if name in counters and counters[name] != value:
                conflicts.append(f"{name}={value!r} traced, {counters[name]!r} untraced")
            counters[name] = value
    return counters, conflicts


def report(args, prov: dict, result: dict, mismatches: list[str], attempted: int, failed: int) -> None:
    import layers

    print(f"engpred benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} profile={prov['profile']}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"end-to-end (untraced, {result['samples']} samples, median and p95, at nominal machine speed):")
    aliases = ALIASES[args.workload]
    for name, (value, unit) in result["e2e"].items():
        alias = aliases.get(name)
        shown = f"{alias[0]} [{name}]" if alias else name
        print(f"  {shown:<36} {value:>14.4f} {alias[1] if alias else unit}")
    print(f"  {'failed_frac':<36} {failed / max(attempted, 1):>14.4f} ({failed}/{attempted})")
    wall = result["wall"]
    print(f"wall clock: setup_s={wall['setup_s']:.4f} op_ms_p50={wall['op_ms_p50']:.4f} "
          f"op_ms_p95={wall['op_ms_p95']:.4f} items_per_s={wall['items_per_s']:.4f}; median speed "
          f"factor {wall['speed_factor']:.3f} in the loop, {wall['setup_speed_factor']:.3f} in set-up")
    print("set-up (median of repetitions, s at nominal speed): " + ", ".join(
        f"{k[:-2]}={v:.3f}" for k, v in result["setup"].items() if k.endswith("_s") and k != "wall_total_s"))
    for i, phase in enumerate(result["phases"]):
        label = "traced" if i else "untraced"
        checks = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in sorted(phase.checks.items()))
        print(f"checks ({label}): {checks}")
    for i, phase in enumerate(result["phases"]):
        if phase.observed:
            print(f"observed ({'traced' if i else 'untraced'}): " + json.dumps(phase.observed, sort_keys=True))
    print("counters: " + json.dumps(counters_of(result)[0], sort_keys=True))
    if mismatches:
        for m in mismatches:
            print(f"FLAG: exact counter differs between phases or from an earlier run "
                  f"of the same code and seed: {m}")
    else:
        print("counters agree between phases and with earlier runs of the same code and seed")
    if args.trace:
        per_layer = result["per_layer"]
        print(f"tracing overhead: traced p50 {result['traced_p50']:.4f} ms - untraced p50 "
              f"{result['e2e']['op_ms_p50'][0]:.4f} ms = {per_layer['trace.overhead_ms']:.4f} ms per op")
        print("self time per request by layer (ms):")
        total = 0.0
        for layer, ms in sorted(result["by_layer"].items(), key=lambda kv: -kv[1]):
            total += ms
            print(f"  {layer:<12} {ms:>12.4f}")
        print(f"  {'sum':<12} {total:>12.4f}  (request span {result['request_ms']:.4f} ms)")
        print("per-layer metrics:")
        for name, unit in layers.PER_LAYER_UNITS.items():
            print(f"  {name:<34} {per_layer[name]:>16.6f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness's own tests")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import_program()
    prov = provenance(args)

    out_dir = repo_root() / ".bench_work"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        result = run_workload(args, work, out_dir, prov)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for phase in result["phases"] for op in phase.ops]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op.ok)
    checks_ok = all(all(phase.checks.values()) for phase in result["phases"])
    counters, mismatches = counters_of(result)
    key = hashlib.sha256(json.dumps([args.workload, args.seed, prov["profile"], prov["code_sha256"]])
                         .encode()).hexdigest()
    mismatches += CountLedger(out_dir / "counters.jsonl", key).compare_and_record(counters)
    if mismatches:
        failed = attempted
    report(args, prov, result, mismatches, attempted, failed)

    if args.trace:
        import layers

        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["e2e"].items()}
    correct = checks_ok and failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
