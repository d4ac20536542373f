"""Command-line pipeline: synth -> aggregate -> fit-norm -> train -> eval -> report.

Stage boundaries are files, so every stage is independently runnable and
re-runnable. Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import math
import os
import sys
from itertools import repeat
from pathlib import Path
from typing import IO, Iterator

from .aggregate import (
    DEFAULT_DURATION_RANGE_S,
    DEFAULT_ECR_THRESHOLD_S,
    DEFAULT_MIN_VIEWS,
    CorpusAggregator,
    ParseFailure,
    parse_event_blocks,
    parse_events,
)
from .envelope import (
    annotate_nawp,
    distribution_report,
    fit_envelope,
    metric_correlation,
)
from .errors import DataError, EngpredError, NumericError
from .metrics import evaluate_predictions
from .model import ALL_KINDS, ModelConfig
from .records import (
    LineRange,
    PredictionRow,
    line_ranges,
    make_dir,
    open_input,
    read_json,
    read_metas,
    read_records,
    read_rows,
    rows_by_id,
    write_json,
    write_records,
    write_rows,
)
from .serialize import read_manifest
from .synth import SynthConfig, analytic_correlation_targets, generate_events, generate_features
from .trainer import TrainConfig, compare_modes, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _given_fields(args, *configs) -> dict:
    """The config flags given on the command line, by field name.

    A config flag's ``dest`` is its field name and its default is None, so
    an absent flag leaves the ``--config`` value, or the field's default, in
    place.
    """
    names = set().union(*(config.__dataclass_fields__ for config in configs))
    return {key: value for key, value in vars(args).items() if key in names and value is not None}


def cmd_synth(args) -> int:
    payload = read_json(args.config, "synth config") if args.config else {}
    payload |= _given_fields(args, SynthConfig)
    cfg = SynthConfig.from_dict(payload)
    out = make_dir(args.out)
    corpus = generate_events(cfg)
    write_rows(out / "events.jsonl", corpus.events)
    write_rows(out / "metas.jsonl", corpus.metas)
    write_records(out / "truth_records.jsonl", corpus.truth_records)
    generate_features(corpus.truth, cfg, out_dir=out)
    write_json(
        out / "synth_summary.json",
        {
            "config": cfg.to_dict(),
            "reference_engagement_p": corpus.ref_p,
            "analytic_correlation": analytic_correlation_targets(corpus.truth),
        },
    )
    print(f"wrote corpus of {cfg.n_videos} videos to {out}")
    return EXIT_OK


# A range's shard, its parse failures as (line number from the range's first
# line, message) pairs, and the number of lines it holds. 1,500 pairs pickle
# and unpickle in about 0.1 ms each way, as ``ParseFailure`` objects in 3 ms.
RangeResult = tuple[CorpusAggregator, list[tuple[int, str]], int]


def aggregate_range(
    stream: IO[bytes], size: int | None, durations: dict[str, float], ecr_threshold_s: float
) -> RangeResult:
    """Parse and reduce ``size`` bytes of whole lines from ``stream`` (all of it when None)
    against ``durations``, each video's duration by id in meta-table order."""
    lines = LineRange(stream, size)
    shard = CorpusAggregator(durations, ecr_threshold_s)
    failures = []
    # parse_events is named here so that a span hook on cli.parse_events (see
    # benchmarks/layers.py) sees the lines that take the per-line path.
    for item in parse_event_blocks(lines.blocks(), parse_events):
        if isinstance(item, ParseFailure):
            failures.append((item.line_no, item.message))
        else:
            shard.add_columns(item)
    return shard, failures, lines.count


def aggregate_file_range(
    path: str, start: int, end: int, durations: dict[str, float], ecr_threshold_s: float
) -> RangeResult:
    """``aggregate_range`` over bytes [start, end) of the file at ``path``; runs in a worker."""
    with open_input(path, "events") as stream:
        stream.seek(start)
        return aggregate_range(stream, end - start, durations, ecr_threshold_s)


def available_cpus() -> int:
    """CPUs this process may run on; ``aggregate --shards`` uses at most this many workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pooled_ranges(
    path: str, ranges: list[tuple[int, int]], durations: dict[str, float], ecr_threshold_s: float
) -> Iterator[RangeResult]:
    """Each range's result in range order, from one worker process per range."""
    # The platform's default start method: on Linux (before Python 3.14) that
    # is fork, and a worker inherits the imported program. Spawn would import
    # numpy and the caller's main module again in every worker, about 0.4 s
    # per pool on 2 CPUs, with 12 MiB more resident per worker.
    # A worker receives the log's path, its byte range, the ECR threshold and
    # each video's duration by id, all the aggregator reads of the meta table:
    # for 2,000 videos the dict pickles in about 0.2 ms and unpickles in 0.4 ms.
    starts, ends = zip(*ranges)
    with concurrent.futures.ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        yield from pool.map(
            aggregate_file_range, repeat(path), starts, ends, repeat(durations), repeat(ecr_threshold_s)
        )


def cmd_aggregate(args) -> int:
    if not args.duration_min <= args.duration_max:
        raise DataError("duration range is empty: --duration-min is above --duration-max")
    durations = {video_id: meta.duration_s for video_id, meta in read_metas(args.metas).items()}
    if args.shards < 1:
        raise DataError("--shards must be >= 1")
    agg = CorpusAggregator(durations, ecr_threshold_s=args.ecr_threshold)
    failures = lines_before = 0
    with open_input(args.events, "events") as stream:
        ranges = line_ranges(stream, min(args.shards, available_cpus()))
        if len(ranges) > 1:
            parts = _pooled_ranges(str(args.events), ranges, durations, args.ecr_threshold)
        else:
            parts = [aggregate_range(stream, None, durations, args.ecr_threshold)]
        for shard, range_failures, n_lines in parts:
            agg.merge(shard)
            if range_failures:
                sys.stderr.write(
                    "".join(f"warning: line {lines_before + n}: {message}\n" for n, message in range_failures)
                )
            failures += len(range_failures)
            lines_before += n_lines
    for text in agg.warnings():
        print(f"warning: {text}", file=sys.stderr)
    records = agg.finish(
        min_views=args.min_views,
        duration_range_s=(args.duration_min, args.duration_max),
    )
    write_records(args.out, records)
    print(f"aggregated {len(records)} videos ({failures} malformed lines skipped)")
    return EXIT_OK


def cmd_fit_norm(args) -> int:
    records = read_records(args.records)
    env = fit_envelope(
        records,
        quantile_tau=args.quantile_tau,
        bin_width_s=args.bin_width,
        min_bin_count=args.min_bin_count,
    )
    write_json(args.out_envelope, env.to_dict())
    if args.out_records:
        annotated = annotate_nawp(records, env)
        write_records(args.out_records, annotated)
    print(
        f"fitted ceiling {env.slope_a:.6f}*d + {env.intercept_b:.6f} "
        f"over {env.fit_stats.bins_used} bins"
    )
    return EXIT_OK


_TRAIN_KEYS = set(TrainConfig.__dataclass_fields__)
_MODEL_KEYS = set(ModelConfig.__dataclass_fields__)


def _train_configs(args) -> tuple[TrainConfig, ModelConfig]:
    payload = read_json(args.config, "train config") if args.config else {}
    unknown = [k for k in payload if k not in _TRAIN_KEYS | _MODEL_KEYS]
    if unknown:
        raise DataError(f"unknown train config keys {unknown}")
    payload |= _given_fields(args, TrainConfig, ModelConfig)
    train_payload = {k: v for k, v in payload.items() if k in _TRAIN_KEYS}
    model_payload = {k: v for k, v in payload.items() if k in _MODEL_KEYS}
    return TrainConfig.from_dict(train_payload), ModelConfig.from_dict(model_payload)


def cmd_train(args) -> int:
    train_cfg, model_cfg = _train_configs(args)
    out_dir = Path(args.out_dir)
    if args.compare_modes:
        comparison = compare_modes(args.manifest, train_cfg, model_cfg, out_dir=out_dir)
        print(f"{'setting':<12} {'srcc_nawp':>10} {'srcc_ecr':>10}")
        for setting in ("separate", "joint"):
            row = comparison[setting]
            nawp_s = "n/a" if row["srcc_nawp"] is None else f"{row['srcc_nawp']:.4f}"
            ecr_s = "n/a" if row["srcc_ecr"] is None else f"{row['srcc_ecr']:.4f}"
            print(f"{setting:<12} {nawp_s:>10} {ecr_s:>10}")
        return EXIT_OK
    result = train(
        args.manifest,
        train_cfg,
        model_cfg,
        out_dir=out_dir,
        resume_from=args.resume,
    )
    nawp_s = "n/a" if result.final_srcc_nawp is None else f"{result.final_srcc_nawp:.4f}"
    ecr_s = "n/a" if result.final_srcc_ecr is None else f"{result.final_srcc_ecr:.4f}"
    print(
        f"trained to iteration {train_cfg.iterations} "
        f"(held-out srcc nawp={nawp_s}, ecr={ecr_s})"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    labels = {row.video_id: row for row in read_manifest(args.manifest)}
    preds = rows_by_id(read_rows(args.predictions, PredictionRow, "predictions"), "predictions")
    if unknown := [vid for vid in preds if vid not in labels]:
        raise DataError(f"prediction for unknown video {unknown[0]!r}")
    truth = [labels[vid] for vid in preds]
    report = evaluate_predictions(
        [p.nawp_hat for p in preds.values()],
        [p.ecr_hat for p in preds.values()],
        [t.nawp_label for t in truth],
        [t.ecr_label for t in truth],
        ids=list(preds),
        durations=[t.duration_s for t in truth],
        k_percent=args.topk_percent,
        group_width_s=args.group_width,
    )
    write_json(args.out, report.to_dict())
    print(
        f"evaluated {report.n} videos: "
        f"srcc nawp={report.nawp.srcc:.4f}, ecr={report.ecr.srcc:.4f}"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    records = read_records(args.records)
    if not records:
        raise DataError("no records to report on")
    nawp_values = [r.nawp for r in records]
    if any(v is None for v in nawp_values):
        raise DataError("records are missing nawp; run fit-norm first")
    payload = {
        "nawp": distribution_report(nawp_values, args.bins, metric_name="nawp").to_dict(),
        "ecr": distribution_report([r.ecr for r in records], args.bins, metric_name="ecr").to_dict(),
        "correlation": metric_correlation(records),
    }
    write_json(args.out, payload)
    print(
        f"nawp bimodality={payload['nawp']['bimodality_coefficient']:.4f}, "
        f"ecr bimodality={payload['ecr']['bimodality_coefficient']:.4f}"
    )
    return EXIT_OK


def number(text: str) -> float:
    """A float flag's value. NaN is refused: it compares false with every bound."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    return value


def _feature_kinds(text: str) -> tuple[str, ...]:
    """A comma list of feature kinds; blank items are dropped."""
    return tuple(k.strip() for k in text.split(",") if k.strip())


def build_parser() -> _Parser:
    parser = _Parser(prog="engpred", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="SynthConfig JSON file")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-videos", type=int, dest="n_videos")
    p.add_argument("--views", type=int, dest="views_per_video")
    p.add_argument("--frame-rate", type=number, dest="frame_rate")
    p.add_argument("--coupling", type=number)
    p.add_argument("--feature-noise", type=number, dest="feature_noise")
    p.add_argument("--ecr-threshold", type=number, dest="ecr_threshold_s")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("aggregate", help="aggregate an event log")
    p.add_argument("--events", required=True)
    p.add_argument("--metas", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-views", type=int, default=DEFAULT_MIN_VIEWS, dest="min_views")
    p.add_argument("--duration-min", type=number, default=DEFAULT_DURATION_RANGE_S[0], dest="duration_min")
    p.add_argument("--duration-max", type=number, default=DEFAULT_DURATION_RANGE_S[1], dest="duration_max")
    p.add_argument("--ecr-threshold", type=number, default=DEFAULT_ECR_THRESHOLD_S, dest="ecr_threshold")
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split the log into this many ranges, each reduced in a worker process "
        "(capped at the CPU count), then merge exactly; outputs do not depend on it",
    )
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("fit-norm", help="fit the watch-time ceiling")
    p.add_argument("--records", required=True)
    p.add_argument("--out-envelope", required=True, dest="out_envelope")
    p.add_argument("--out-records", dest="out_records", help="write records with nawp filled")
    p.add_argument("--quantile-tau", type=number, default=0.97, dest="quantile_tau")
    p.add_argument("--bin-width", type=number, default=1.0, dest="bin_width")
    p.add_argument("--min-bin-count", type=int, default=30, dest="min_bin_count")
    p.set_defaults(func=cmd_fit_norm)

    p = sub.add_parser("train", help="train the fusion regressor")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--config", help="JSON with TrainConfig/ModelConfig fields")
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["joint", "nawp_only", "ecr_only"])
    p.add_argument("--target", choices=["nawp", "awt", "awp"])
    p.add_argument("--duration-as-input", action="store_true", default=None, dest="duration_as_input")
    p.add_argument("--iterations", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr-max", type=number, dest="lr_max")
    p.add_argument("--lr-min", type=number, dest="lr_min")
    p.add_argument("--split-ratio", type=number, dest="split_ratio")
    p.add_argument("--eval-interval", type=int, dest="eval_interval")
    p.add_argument("--d-model", type=int, dest="d_model")
    p.add_argument("--max-clips", type=int, dest="max_clips")
    p.add_argument("--features", type=_feature_kinds, help=f"comma list from {','.join(ALL_KINDS)}")
    p.add_argument("--ecr-causal-mask", action="store_true", default=None, dest="ecr_causal_mask")
    # A comparison trains each mode from scratch, so it has no checkpoint to resume.
    once = p.add_mutually_exclusive_group()
    once.add_argument("--compare-modes", action="store_true", dest="compare_modes")
    once.add_argument("--resume", help="checkpoint a run with the same config left in its out dir, to continue it")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score predictions against labels")
    p.add_argument("--predictions", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--topk-percent", type=number, default=10.0, dest="topk_percent")
    p.add_argument("--group-width", type=number, dest="group_width")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="distribution/correlation report")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bins", type=int, default=40)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except EngpredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
