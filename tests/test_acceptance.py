"""Acceptance criteria, one test per criterion with a printed pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The learning check trains
the full desk-scale configuration and dominates the runtime (a few minutes).
"""

import json
import math
import struct
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from engpred import autodiff as ad
from engpred.aggregate import CorpusAggregator, aggregate_corpus
from engpred.autodiff import Tape, Tensor
from engpred.cli import EXIT_OK, main as cli_main
from engpred.envelope import (
    EnvelopeModel,
    annotate_nawp,
    bimodality_coefficient,
    fit_envelope,
    nawp,
)
from engpred.metrics import plcc, rmse, rmse_topk, srcc
from engpred.model import ALL_KINDS, FeatureBundle, ModelConfig, forward, init_params
from engpred.synth import SynthConfig, generate_events, generate_features, ridge_oracle
from engpred.trainer import TrainConfig, split_dataset, train

from test_autodiff import KinkAwareDifference, check_gradients, _rand
from test_metrics import brute_pearson, brute_rmse, brute_rmse_topk, brute_srcc


@contextmanager
def criterion(num, title):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:>2} FAIL  {title}")
        raise
    print(f"\nACCEPTANCE {num:>2} PASS  {title}  ({time.time() - start:.1f}s)")


# Desk-scale corpus shared by the learning/bimodality criteria.
DESK_SYNTH = SynthConfig(n_videos=500, views_per_video=300, seed=11)
DESK_MODEL = ModelConfig(d_model=32, max_clips=64)
DESK_TRAIN = TrainConfig(
    batch_size=8,
    iterations=3000,
    lr_max=1e-4,
    lr_min=1e-7,
    seed=11,
    eval_interval=500,
)


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_corpus")
    corpus = generate_events(DESK_SYNTH)
    rows, bundles = generate_features(corpus.truth, DESK_SYNTH, out_dir=out)
    return {"dir": out, "corpus": corpus, "rows": rows, "bundles": bundles}


def test_criterion_1_metric_formula_exactness():
    with criterion(1, "NAWP formula exactness at published envelope constants"):
        env = EnvelopeModel(slope_a=0.556, intercept_b=5.64)
        assert nawp(30.0, 40.0, env) == 1.0
        assert nawp(40.0, 60.0, env) == 1.0
        for duration in (10.0, 17.3, 40.0, 60.0):
            assert nawp(0.0, duration, env) == 0.0
        assert nawp(13.94, 40.0, env) == pytest.approx(0.5, abs=1e-9)


def test_criterion_2_aggregation_oracle(desk_corpus):
    with criterion(2, "aggregation matches naive reference; shards bit-identical"):
        corpus = desk_corpus["corpus"]
        metas = {m.video_id: m for m in corpus.metas}
        records = aggregate_corpus(corpus.events, metas, min_views=100)
        assert len(records) == DESK_SYNTH.n_videos

        # Naive single-pass reference: fsum is correctly rounded too, so
        # every float must agree bitwise.
        by_video = {}
        for event in corpus.events:
            by_video.setdefault(event.video_id, []).append(event)
        for record in records:
            events = by_video[record.video_id]
            watches = [e.watch_time_s for e in events]
            awt = math.fsum(watches) / len(watches)
            assert record.views == len(watches)
            assert struct.pack("<d", record.awt_s) == struct.pack("<d", awt)
            assert struct.pack("<d", record.awp) == struct.pack("<d", awt / record.duration_s)
            assert record.ecr == sum(1 for w in watches if w > 5.0) / len(watches)
            assert record.like_rate == sum(1 for e in events if e.liked) / len(watches)

        def run_sharded(n_shards):
            shards = [CorpusAggregator({vid: m.duration_s for vid, m in metas.items()}) for _ in range(n_shards)]
            for k, shard in enumerate(shards):
                shard.add(corpus.events[k::n_shards])
            merged = shards[0]
            for other in shards[1:]:
                merged.merge(other)
            return merged.finish(min_views=100, duration_range_s=(10.0, 60.0))

        def bits(rs):
            return [
                (r.video_id, r.views, struct.pack("<ddd", r.awt_s, r.awp, r.ecr))
                for r in rs
            ]

        reference = bits(records)
        for n_shards in (2, 4, 8):
            assert bits(run_sharded(n_shards)) == reference


def test_criterion_3_envelope_recovery():
    with criterion(3, "envelope recovery within 5% on sampled corpus, 1e-9 on exact"):
        cfg = SynthConfig(
            n_videos=1500,
            views_per_video=150,
            seed=3,
            coupling=1.0,
            mixture_means=(0.15, 0.9),
            mixture_sigmas=(0.07, 0.03),
        )
        corpus = generate_events(cfg)
        metas = {m.video_id: m for m in corpus.metas}
        records = aggregate_corpus(corpus.events, metas, min_views=1)
        env = fit_envelope(records, quantile_tau=cfg.envelope_tau, bin_width_s=1.0, min_bin_count=20)
        assert env.slope_a == pytest.approx(cfg.envelope_a, rel=0.05)
        assert env.intercept_b == pytest.approx(cfg.envelope_b, rel=0.05)

        # Exactly collinear bin quantiles recover the line to 1e-9 relative.
        from engpred.records import VideoRecord

        exact = []
        for k in range(12):
            midpoint = 10.5 + k
            awt = 0.5 * midpoint + 6.0
            exact.extend(
                VideoRecord(f"e{k}_{j}", midpoint, 10, awt, awt / midpoint, 0.5)
                for j in range(4)
            )
        env_exact = fit_envelope(exact, bin_width_s=1.0, min_bin_count=4)
        assert env_exact.slope_a == pytest.approx(0.5, rel=1e-9)
        assert env_exact.intercept_b == pytest.approx(6.0, rel=1e-9)


def test_criterion_4_gradient_correctness():
    with criterion(4, "primitive and full-model gradients match finite differences"):
        # Primitives: 20 seeded instances each, tolerance 1e-6.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = Tensor(_rand(rng, 3, 4))
            b = Tensor(_rand(rng, 4, 3))
            v = Tensor(_rand(rng, 3))
            t_mat = _rand(rng, 3, 3)
            t_vec = _rand(rng, 3)
            checks = [
                (lambda: ad.squared_error(ad.matmul(a, b), t_mat), [a, b]),
                (lambda: ad.squared_error(ad.softmax_rows(ad.matmul(a, b)), t_mat), [a, b]),
                (lambda: ad.squared_error(ad.layer_norm_rows(ad.matmul(a, b)), t_mat), [a, b]),
                (
                    lambda: ad.squared_error(
                        ad.mean_axis(ad.sigmoid(ad.add_rowvec(ad.matmul(a, b), v)), 0), t_vec
                    ),
                    [a, b, v],
                ),
                (
                    lambda: ad.squared_error(
                        ad.mul_rowvec(ad.relu(ad.transpose(ad.matmul(a, b))), v), t_mat
                    ),
                    [a, b, v],
                ),
                (
                    lambda: ad.squared_error(
                        ad.concat([ad.slice_rows(a, 0, 2), ad.slice_rows(a, 1, 3)], axis=0),
                        _rand(np.random.default_rng(seed + 500), 4, 4),
                    ),
                    [a],
                ),
            ]
            for build, tensors in checks:
                check_gradients(build, tensors, rel_tol=1e-6)

        # Full model: 20 seeded instances, spot-checked coordinates, 1e-4.
        cfg = ModelConfig(
            d_model=6,
            feature_dims={k: 3 for k in ALL_KINDS},
            frames_per_clip=4,
            max_clips=4,
        )
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            params = init_params(cfg, seed=seed)
            bundle = FeatureBundle(
                video_id=f"g{seed}",
                n_clips=3,
                frame_rate=16.0,
                clip_features={
                    k: rng.normal(size=(3, 3)) for k in cfg.visual_kinds
                },
                text_tokens=rng.normal(size=(2, 3)),
            )

            def build():
                res = forward(bundle, params, cfg)
                return ad.add(
                    ad.squared_error(res.nawp_node, np.asarray(0.25)),
                    ad.squared_error(res.ecr_node, np.asarray(0.75)),
                )

            with Tape() as tape:
                loss = build()
            tape.backward(loss)
            reference = KinkAwareDifference(build)
            for name, p in params.items():
                analytic = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                flat = p.data.reshape(-1)
                picks = rng.choice(flat.size, size=min(3, flat.size), replace=False)
                for i in picks:
                    numeric = reference.derivative(flat, i, f"seed {seed} {name}[{i}]")
                    ref = analytic.reshape(-1)[i]
                    worst = max(worst, abs(ref - numeric) / max(1.0, abs(ref), abs(numeric)))
        assert worst < 1e-4, f"full-model max rel err {worst:.3e}"


@pytest.fixture(scope="module")
def desk_training(desk_corpus):
    result = train(
        desk_corpus["dir"] / "manifest.jsonl",
        DESK_TRAIN,
        DESK_MODEL,
        out_dir=desk_corpus["dir"] / "run",
    )
    return result


def test_criterion_5_learning_check(desk_corpus, desk_training):
    with criterion(5, "held-out SRCC >= 0.9 for NAWP and ECR; ridge ceiling >= 0.95"):
        rows, bundles = desk_corpus["rows"], desk_corpus["bundles"]
        ids = [r.video_id for r in rows]
        train_ids, test_ids = split_dataset(ids, DESK_TRAIN.split_ratio, DESK_TRAIN.seed)
        ceiling_nawp = ridge_oracle(rows, bundles, train_ids, test_ids)
        ceiling_ecr = ridge_oracle(rows, bundles, train_ids, test_ids, label_key="ecr_label")
        assert ceiling_nawp["srcc"] >= 0.95, f"nawp ceiling {ceiling_nawp['srcc']:.4f}"
        assert ceiling_ecr["srcc"] >= 0.95, f"ecr ceiling {ceiling_ecr['srcc']:.4f}"
        assert desk_training.final_srcc_nawp >= 0.9, f"nawp {desk_training.final_srcc_nawp:.4f}"
        assert desk_training.final_srcc_ecr >= 0.9, f"ecr {desk_training.final_srcc_ecr:.4f}"
        print(
            f"\n  ridge ceiling nawp={ceiling_nawp['srcc']:.4f}, ecr={ceiling_ecr['srcc']:.4f}; "
            f"model nawp={desk_training.final_srcc_nawp:.4f}, ecr={desk_training.final_srcc_ecr:.4f}"
        )


def test_criterion_6_joint_training_harness(desk_corpus, tmp_path, capsys):
    with criterion(6, "CLI reports joint vs separate training on both metrics"):
        out_dir = tmp_path / "modes"
        code = cli_main([
            "train",
            "--manifest", str(desk_corpus["dir"] / "manifest.jsonl"),
            "--out-dir", str(out_dir),
            "--compare-modes",
            "--iterations", "60",
            "--eval-interval", "30",
            "--d-model", "16",
            "--max-clips", "64",
            "--seed", "11",
        ])
        assert code == EXIT_OK
        shown = capsys.readouterr().out
        assert "joint" in shown and "separate" in shown
        payload = json.loads((out_dir / "mode_comparison.json").read_text())
        for setting in ("joint", "separate"):
            for key in ("srcc_nawp", "srcc_ecr"):
                assert payload[setting][key] is not None
                assert -1.0 <= payload[setting][key] <= 1.0


def test_criterion_7_evaluation_oracle():
    with criterion(7, "srcc/plcc/rmse/rmse_topk match brute force to 1e-12"):
        rng = np.random.default_rng(77)
        checked = 0
        for trial in range(100):
            n = int(rng.integers(5, 50))
            x = rng.integers(0, 7, size=n).astype(float)
            y = rng.integers(0, 7, size=n).astype(float)
            if trial % 2 == 0:
                x = x + rng.random(n)
                y = y + rng.random(n)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert srcc(x, y) == pytest.approx(brute_srcc(list(x), list(y)), abs=1e-12)
            assert plcc(x, y) == pytest.approx(brute_pearson(list(x), list(y)), abs=1e-12)
            assert rmse(x, y) == pytest.approx(brute_rmse(list(x), list(y)), abs=1e-12)
            k = float(rng.integers(5, 101))
            if math.floor(k * n / 100) >= 1:
                assert rmse_topk(x, y, k) == pytest.approx(
                    brute_rmse_topk(list(x), list(y), k), abs=1e-12
                )
            assert rmse_topk(x, y, 100.0) == rmse(x, y)
            checked += 1
        assert checked >= 90


def test_criterion_8_ecr_windowing():
    with criterion(8, "ECR head averages exactly floor(5r/L) clip outputs"):
        cfg = ModelConfig(
            d_model=8,
            feature_dims={k: 4 for k in ALL_KINDS},
            frames_per_clip=16,
            max_clips=40,
        )
        params = init_params(cfg, seed=8)
        rng = np.random.default_rng(8)
        # 20 s at 30 fps: 600 frames -> 37 clips of 16 frames.
        bundle = FeatureBundle(
            video_id="w",
            n_clips=37,
            frame_rate=30.0,
            clip_features={k: rng.normal(size=(37, 4)) for k in cfg.visual_kinds},
            text_tokens=rng.normal(size=(4, 4)),
        )
        res = forward(bundle, params, cfg)
        assert res.n_ecr_clips == math.floor(5 * 30 / 16) == 9
        f2 = res.f2
        assert res.ecr_hat == pytest.approx(float(f2[:9].mean()), abs=1e-12)
        assert res.ecr_hat != pytest.approx(float(f2[:8].mean()), abs=1e-12)
        assert res.ecr_hat != pytest.approx(float(f2[:10].mean()), abs=1e-12)
        f1 = res.f1
        assert res.nawp_hat == pytest.approx(float(f1.mean()), abs=1e-12)


def test_criterion_9_bimodality(desk_corpus):
    with criterion(9, "synthetic NAWP and ECR distributions are bimodal (BC > 5/9)"):
        corpus = desk_corpus["corpus"]
        metas = {m.video_id: m for m in corpus.metas}
        records = aggregate_corpus(corpus.events, metas, min_views=100)
        env = fit_envelope(records, bin_width_s=5.0, min_bin_count=25)
        annotated = annotate_nawp(records, env)
        bc_nawp = bimodality_coefficient([r.nawp for r in annotated])
        bc_ecr = bimodality_coefficient([r.ecr for r in annotated])
        print(f"\n  BC nawp={bc_nawp:.3f}, ecr={bc_ecr:.3f}")
        assert bc_nawp > 5 / 9
        assert bc_ecr > 5 / 9


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "full seeded pipeline twice yields byte-identical artifacts"):
        def run_pipeline(base):
            corpus = base / "corpus"
            run = base / "run"
            steps = [
                ["synth", "--out", str(corpus), "--n-videos", "60", "--views", "80",
                 "--seed", "33"],
                ["aggregate", "--events", str(corpus / "events.jsonl"),
                 "--metas", str(corpus / "metas.jsonl"),
                 "--out", str(corpus / "records.jsonl"),
                 "--min-views", "40", "--shards", "2"],
                ["fit-norm", "--records", str(corpus / "records.jsonl"),
                 "--out-envelope", str(corpus / "envelope.json"),
                 "--out-records", str(corpus / "annotated.jsonl"),
                 "--bin-width", "10", "--min-bin-count", "5"],
                ["train", "--manifest", str(corpus / "manifest.jsonl"),
                 "--out-dir", str(run), "--iterations", "40", "--batch-size", "4",
                 "--eval-interval", "20", "--d-model", "8", "--max-clips", "64",
                 "--seed", "33"],
                ["eval", "--predictions", str(run / "test_predictions.jsonl"),
                 "--manifest", str(corpus / "manifest.jsonl"),
                 "--out", str(run / "eval_report.json"), "--topk-percent", "20"],
                ["report", "--records", str(corpus / "annotated.jsonl"),
                 "--out", str(corpus / "distributions.json"), "--bins", "16"],
            ]
            for argv in steps:
                assert cli_main(argv) == EXIT_OK, argv[0]

        run_pipeline(tmp_path / "first")
        run_pipeline(tmp_path / "second")

        first_files = sorted(
            p.relative_to(tmp_path / "first")
            for p in (tmp_path / "first").rglob("*")
            if p.is_file()
        )
        second_files = sorted(
            p.relative_to(tmp_path / "second")
            for p in (tmp_path / "second").rglob("*")
            if p.is_file()
        )
        assert first_files == second_files
        assert len(first_files) >= 14
        for rel in first_files:
            a = (tmp_path / "first" / rel).read_bytes()
            b = (tmp_path / "second" / rel).read_bytes()
            assert a == b, f"artifact differs: {rel}"
