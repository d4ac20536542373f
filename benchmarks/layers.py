"""Span-recording wrappers per workload, and the per-layer metrics from a trace.

Each wrapper replaces the name where the caller looks it up, so only calls
made by the layer above are recorded: ``engpred.cli.parse_events``,
``engpred.trainer.forward``, ``engpred.trainer.adam_step``,
``engpred.trainer.load_bundle``, ``engpred.autodiff.matmul``,
``Tape.backward`` and so on. The score workload calls ``load_bundle`` and
``forward`` itself and records those spans around its own calls.

A layer's name is the part of a span name before the first dot.
"""

from __future__ import annotations

import contextlib
import statistics

import engpred.autodiff as autodiff
import engpred.cli as cli
import engpred.trainer as trainer
from engpred.aggregate import CorpusAggregator, ParseFailure

from spans import ATTRS, END, NAME, PARENT, REQUEST, START, Tracer, patched

# Every per-layer metric: name -> unit. A traced run reports all of them;
# a layer the workload does not exercise reads 0.
PER_LAYER_UNITS = {
    "cli.aggregate_ms": "ms", "cli.fit_norm_ms": "ms", "cli.report_ms": "ms",
    "cli.self_ms": "ms", "cli.train_ms": "ms", "cli.eval_ms": "ms",
    "aggregate.parse_events_per_s": "events/s", "aggregate.reduce_events_per_s": "events/s",
    "aggregate.merge_ms": "ms", "aggregate.finish_ms": "ms",
    "aggregate.events": "count", "aggregate.parse_failures": "count",
    "aggregate.unknown_events": "count",
    "records.read_metas_ms": "ms", "records.read_records_ms": "ms",
    "records.write_records_ms": "ms", "records.write_events_s": "s",
    "envelope.fit_ms": "ms", "envelope.annotate_ms": "ms", "envelope.report_ms": "ms",
    "serialize.load_bundle_ms": "ms", "serialize.bundles_loaded": "count",
    "serialize.read_manifest_ms": "ms", "serialize.save_weights_ms": "ms",
    "serialize.load_weights_ms": "ms",
    "model.forward_ms": "ms", "model.clips_per_video": "count",
    "autodiff.backward_ms": "ms", "autodiff.ops_per_step": "count",
    "autodiff.matmul_calls_per_step": "count", "autodiff.us_per_op": "us",
    "autodiff.ops_per_video": "count", "autodiff.matmul_share": "fraction",
    "optim.adam_ms": "ms", "optim.params": "count",
    "trainer.data_wait_ms": "ms", "trainer.eval_ms": "ms", "trainer.step_self_ms": "ms",
    "metrics.srcc_ms": "ms", "metrics.evaluate_ms": "ms",
    "synth.generate_events_s": "s", "synth.generate_features_s": "s",
    "trace.overhead_ms": "ms",
}

# Metrics that are exact counts: they must repeat run to run.
COUNTERS = ("aggregate.events", "aggregate.parse_failures", "aggregate.unknown_events",
            "serialize.bundles_loaded", "model.clips_per_video", "autodiff.ops_per_step",
            "autodiff.matmul_calls_per_step", "autodiff.ops_per_video", "optim.params")


def _labels_targets(t: Tracer):
    return [
        (cli, "parse_events", t.wrap_generator(
            "aggregate.parse_events", cli.parse_events, lambda item: isinstance(item, ParseFailure))),
        (CorpusAggregator, "add", t.wrap_leaf("aggregate.reduce", CorpusAggregator.add)),
        (CorpusAggregator, "merge", t.wrap("aggregate.merge", CorpusAggregator.merge)),
        (CorpusAggregator, "finish", t.wrap(
            "aggregate.finish", CorpusAggregator.finish,
            lambda args: {"unknown_events": args[0].unknown_events})),
        (cli, "read_metas", t.wrap("records.read_metas", cli.read_metas)),
        (cli, "read_records", t.wrap("records.read_records", cli.read_records)),
        (cli, "write_records", t.wrap("records.write_records", cli.write_records)),
        (cli, "fit_envelope", t.wrap("envelope.fit", cli.fit_envelope)),
        (cli, "annotate_nawp", t.wrap("envelope.annotate", cli.annotate_nawp)),
        (cli, "distribution_report", t.wrap("envelope.report", cli.distribution_report)),
        (cli, "metric_correlation", t.wrap("envelope.report", cli.metric_correlation)),
    ]


def _train_targets(t: Tracer):
    adam = trainer.adam_step

    def adam_step(*args, **kwargs):
        with t.span("optim.adam", params=sum(p.data.size for p in args[0].values())):
            result = adam(*args, **kwargs)
        # Each adam return closes one step interval and opens the next.
        t.close(t.stack[-1])
        t.request += 1
        t.open("trainer.step")
        return result

    return [
        (trainer, "adam_step", adam_step),
        (trainer, "load_bundle", t.wrap("serialize.load_bundle", trainer.load_bundle)),
        (trainer, "read_manifest", t.wrap("serialize.read_manifest", trainer.read_manifest)),
        (cli, "read_manifest", t.wrap("serialize.read_manifest", cli.read_manifest)),
        (trainer, "save_weights", t.wrap("serialize.save_weights", trainer.save_weights)),
        (trainer, "forward", t.wrap("model.forward", trainer.forward,
                                    lambda args: {"clips": args[0].n_clips})),
        (autodiff, "matmul", t.wrap_leaf("autodiff.matmul", autodiff.matmul)),
        (autodiff.Tape, "backward", t.wrap("autodiff.backward", autodiff.Tape.backward,
                                           lambda args: {"ops": len(args[0])})),
        (trainer, "srcc", t.wrap("metrics.srcc", trainer.srcc)),
        (cli, "evaluate_predictions", t.wrap("metrics.evaluate", cli.evaluate_predictions)),
    ]


def _score_targets(t: Tracer):
    return [(autodiff, "matmul", t.wrap_leaf("autodiff.matmul", autodiff.matmul))]


TARGETS = {"labels": _labels_targets, "train": _train_targets, "score": _score_targets}


def install(workload: str, tracer: Tracer | None):
    """A context that patches in the workload's wrappers (none without a tracer)."""
    if tracer is None:
        return contextlib.nullcontext()
    return patched(TARGETS[workload](tracer))


# -- derivation ----------------------------------------------------------


def _median_int(values) -> int:
    values = list(values)
    return int(statistics.median_low(values)) if values else 0


class TraceView:
    """Indexes of one trace: spans by name, children and leaves by parent."""

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer
        self.kids = tracer.children()
        self.leaves = tracer.leaves_under()

    def named(self, name: str, within: list[int] | None = None) -> list[int]:
        if within is None:
            return [i for i, s in enumerate(self.t.spans) if s[NAME] == name]
        return [i for i in within if self.t.spans[i][NAME] == name]

    def descendants(self, root: int) -> list[int]:
        out, pending = [], [root]
        while pending:
            index = pending.pop()
            kids = self.kids.get(index, [])
            out.extend(kids)
            pending.extend(kids)
        return out

    def ms(self, indexes) -> float:
        return 1000.0 * sum(self.t.duration(i) for i in indexes)

    def leaf(self, name: str, parents) -> tuple[int, float, int]:
        calls, seconds, items = 0, 0.0, 0
        for p in parents:
            for leaf_name, acc in self.leaves.get(p, ()):
                if leaf_name == name:
                    calls, seconds, items = calls + acc[0], seconds + acc[1], items + acc[2]
        return calls, seconds, items

    def self_ms_by_layer(self, roots: list[int]) -> dict[str, float]:
        """Self time per layer, summed over the subtrees under ``roots``.

        The trainer's step and eval spans stay apart, so the table shows
        ``trainer.step`` self time next to the other layers.
        """
        by_layer: dict[str, float] = {}
        for root in roots:
            for name, seconds in self.t.self_times(root, self.kids, self.leaves).items():
                layer = name if name.startswith("trainer.") else name.split(".")[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + 1000.0 * seconds
        return by_layer


def labels_metrics(view: TraceView) -> tuple[dict, list[int]]:
    passes = view.named("bench.labels_pass")
    n = max(len(passes), 1)
    m: dict[str, float] = {}
    stage_spans = [i for p in passes for i in view.kids.get(p, [])]
    for stage in ("aggregate", "fit_norm", "report"):
        m[f"cli.{stage}_ms"] = view.ms(view.named(f"cli.{stage}", stage_spans)) / n
    self_s = sum(view.t.self_times(i, view.kids, view.leaves)[view.t.spans[i][NAME]] for i in stage_spans)
    m["cli.self_ms"] = 1000.0 * self_s / n
    inner = [j for p in passes for j in view.descendants(p)]
    calls, seconds, failures = view.leaf("aggregate.parse_events", inner)
    m["aggregate.parse_events_per_s"] = calls / seconds if seconds else 0.0
    adds, add_s, _ = view.leaf("aggregate.reduce", inner)
    m["aggregate.reduce_events_per_s"] = adds / add_s if add_s else 0.0
    m["aggregate.merge_ms"] = view.ms(view.named("aggregate.merge", inner)) / n
    finishes = view.named("aggregate.finish", inner)
    m["aggregate.finish_ms"] = view.ms(finishes) / n
    m["aggregate.events"] = (calls - failures) // n
    m["aggregate.parse_failures"] = failures // n
    m["aggregate.unknown_events"] = _median_int(view.t.spans[i][ATTRS]["unknown_events"] for i in finishes)
    for name, key in (("records.read_metas", "records.read_metas_ms"),
                      ("records.read_records", "records.read_records_ms"),
                      ("records.write_records", "records.write_records_ms"),
                      ("envelope.fit", "envelope.fit_ms"),
                      ("envelope.annotate", "envelope.annotate_ms"),
                      ("envelope.report", "envelope.report_ms")):
        m[key] = view.ms(view.named(name, inner)) / n
    return m, passes


def mark_eval_windows(view: TraceView) -> None:
    """Group each step's periodic held-out evaluation under a ``trainer.eval`` span.

    The trainer evaluates right after ``adam_step`` returns, so an eval is
    the stretch from the step's start to the end of its last ``srcc`` call.
    """
    t = view.t
    for step in view.named("trainer.step"):
        kids = view.kids.get(step, [])
        srcc_ends = [t.spans[k][END] for k in kids if t.spans[k][NAME] == "metrics.srcc"]
        if not srcc_ends:
            continue
        end = max(srcc_ends)
        t.spans.append(["trainer.eval", t.spans[step][START], end, step, t.spans[step][REQUEST], {}])
        window = len(t.spans) - 1
        for k in kids:
            if t.spans[k][END] <= end:
                t.spans[k][PARENT] = window
    view.kids = t.children()


def train_metrics(view: TraceView) -> tuple[dict, list[int]]:
    mark_eval_windows(view)
    t = view.t
    steps = view.named("trainer.step")
    n = max(len(steps), 1)
    m: dict[str, float] = {}
    calls = view.named("cli.train")
    m["cli.train_ms"] = view.ms(calls) / max(len(calls), 1)
    evals = view.named("cli.eval")
    m["cli.eval_ms"] = view.ms(evals) / max(len(evals), 1)

    fwd_all, bwd_all, ops_per_step, matmuls_per_step = [], [], [], []
    load_direct, eval_windows, adam = [], [], []
    for step in steps:
        kids = view.kids.get(step, [])
        fwd = view.named("model.forward", kids)
        bwd = view.named("autodiff.backward", kids)
        fwd_all += fwd
        bwd_all += bwd
        ops_per_step.append(sum(t.spans[i][ATTRS]["ops"] for i in bwd))
        matmuls_per_step.append(view.leaf("autodiff.matmul", fwd)[0])
        load_direct += view.named("serialize.load_bundle", kids)
        eval_windows += view.named("trainer.eval", kids)
        adam += view.named("optim.adam", kids)
    m["model.forward_ms"] = view.ms(fwd_all) / max(len(fwd_all), 1)
    m["model.clips_per_video"] = _median_int(t.spans[i][ATTRS]["clips"] for i in fwd_all)
    m["autodiff.backward_ms"] = view.ms(bwd_all) / n
    m["autodiff.ops_per_step"] = _median_int(ops_per_step)
    m["autodiff.matmul_calls_per_step"] = _median_int(matmuls_per_step)
    total_ops = sum(ops_per_step)
    m["autodiff.us_per_op"] = 1000.0 * (view.ms(fwd_all) + view.ms(bwd_all)) / total_ops if total_ops else 0.0
    _, matmul_s, _ = view.leaf("autodiff.matmul", fwd_all)
    fwd_ms = view.ms(fwd_all)
    m["autodiff.matmul_share"] = 1000.0 * matmul_s / fwd_ms if fwd_ms else 0.0
    m["optim.adam_ms"] = view.ms(adam) / n
    m["optim.params"] = _median_int(t.spans[i][ATTRS]["params"] for i in adam)
    m["trainer.data_wait_ms"] = view.ms(load_direct) / n
    m["trainer.eval_ms"] = view.ms(eval_windows) / n
    step_ms = view.ms(steps)
    m["trainer.step_self_ms"] = (step_ms - view.ms(fwd_all) - view.ms(bwd_all) - view.ms(adam)
                                 - view.ms(load_direct) - view.ms(eval_windows)) / n
    loads = view.named("serialize.load_bundle")
    m["serialize.load_bundle_ms"] = view.ms(loads) / max(len(loads), 1)
    per_call = [sum(1 for j in view.descendants(c) if t.spans[j][NAME] == "serialize.load_bundle")
                for c in calls]
    m["serialize.bundles_loaded"] = _median_int(per_call)
    for name, key in (("serialize.read_manifest", "serialize.read_manifest_ms"),
                      ("serialize.save_weights", "serialize.save_weights_ms"),
                      ("metrics.srcc", "metrics.srcc_ms"),
                      ("metrics.evaluate", "metrics.evaluate_ms")):
        spans = view.named(name)
        m[key] = view.ms(spans) / max(len(spans), 1)
    return m, steps


def score_metrics(view: TraceView) -> tuple[dict, list[int]]:
    videos = view.named("bench.score_video")
    m: dict[str, float] = {}
    inner = [j for v in videos for j in view.kids.get(v, [])]
    loads = view.named("serialize.load_bundle", inner)
    fwd = view.named("model.forward", inner)
    m["serialize.load_bundle_ms"] = view.ms(loads) / max(len(loads), 1)
    m["serialize.bundles_loaded"] = len(loads) // max(len(videos), 1)
    m["model.forward_ms"] = view.ms(fwd) / max(len(fwd), 1)
    _, matmul_s, _ = view.leaf("autodiff.matmul", fwd)
    fwd_ms = view.ms(fwd)
    m["autodiff.matmul_share"] = 1000.0 * matmul_s / fwd_ms if fwd_ms else 0.0
    return m, videos


DERIVE = {"labels": labels_metrics, "train": train_metrics, "score": score_metrics}


def derive(workload: str, tracer: Tracer) -> tuple[dict, dict, float]:
    """Per-layer metrics, self ms per request by layer, and the request span ms.

    The self times of all layers in a request sum to its span, because self
    time is what a span's children and leaves do not cover.
    """
    view = TraceView(tracer)
    metrics, requests = DERIVE[workload](view)
    n = max(len(requests), 1)
    by_layer = {k: v / n for k, v in view.self_ms_by_layer(requests).items()}
    return metrics, by_layer, view.ms(requests) / n
