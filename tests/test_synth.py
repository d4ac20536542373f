"""Generator determinism, analytic moments, planted structure recovery."""

import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from engpred import synth
from engpred.aggregate import aggregate_corpus
from engpred.envelope import EnvelopeModel, annotate_nawp, bimodality_coefficient, fit_envelope
from engpred.errors import DataError
from engpred.metrics import srcc
from engpred.records import WatchEvent, row_to_json
from engpred.synth import (
    SynthConfig,
    analytic_correlation_targets,
    generate_events,
    generate_features,
    mixture_cdf,
    mixture_quantile,
    reference_engagement,
    ridge_oracle,
)
from engpred.trainer import split_dataset


BASE = SynthConfig(n_videos=120, views_per_video=400, seed=9)


@pytest.fixture(scope="module")
def corpus():
    return generate_events(BASE)


@pytest.fixture(scope="module")
def aggregated(corpus):
    metas = {m.video_id: m for m in corpus.metas}
    return aggregate_corpus(corpus.events, metas, min_views=1)


class TestDeterminism:
    def test_events_and_truth_identical(self):
        a = generate_events(SynthConfig(n_videos=8, views_per_video=15, seed=4))
        b = generate_events(SynthConfig(n_videos=8, views_per_video=15, seed=4))
        assert a.events == b.events
        assert a.truth == b.truth
        assert [row_to_json(r) for r in a.truth_records] == [
            row_to_json(r) for r in b.truth_records
        ]

    def test_features_identical(self):
        cfg = SynthConfig(n_videos=6, views_per_video=5, seed=4, feature_dim=8, text_dim=8)
        c = generate_events(cfg)
        rows_a, bundles_a = generate_features(c.truth, cfg)
        rows_b, bundles_b = generate_features(c.truth, cfg)
        assert rows_a == rows_b
        for vid in bundles_a:
            for kind in bundles_a[vid].clip_features:
                assert (
                    bundles_a[vid].clip_features[kind].tobytes()
                    == bundles_b[vid].clip_features[kind].tobytes()
                )

    def test_seed_changes_output(self):
        a = generate_events(SynthConfig(n_videos=4, views_per_video=5, seed=1))
        b = generate_events(SynthConfig(n_videos=4, views_per_video=5, seed=2))
        assert a.events != b.events


class TestMixtureQuantile:
    def test_quantile_inverts_cdf(self):
        cfg = BASE
        for tau in (0.1, 0.5, 0.75, 0.97):
            q = mixture_quantile(cfg, tau)
            assert mixture_cdf(cfg, q) == pytest.approx(tau, abs=1e-10)

    def test_symmetric_mixture_median(self):
        cfg = SynthConfig(
            mixture_means=(0.2, 0.8), mixture_sigmas=(0.05, 0.05), mixture_weights=(0.5, 0.5)
        )
        assert mixture_quantile(cfg, 0.5) == pytest.approx(0.5, abs=1e-9)

    def test_reference_override(self):
        cfg = SynthConfig(engaged_ref_p=1.5)
        assert reference_engagement(cfg) == 1.5

    def test_one_bisection_per_corpus(self):
        cfg = SynthConfig(n_videos=30, views_per_video=2, seed=4)
        with mock.patch.object(synth, "mixture_quantile", wraps=synth.mixture_quantile) as quantile:
            corpus = generate_events(cfg)
        assert quantile.call_count == 1
        assert corpus.ref_p == reference_engagement(cfg)


class TestGeneratedCorpus:
    def test_views_exact_and_durations_in_range(self, corpus, aggregated):
        truth = {t.video_id: t for t in corpus.truth}
        assert len(aggregated) == BASE.n_videos
        for record in aggregated:
            assert record.views == BASE.views_per_video
            assert BASE.duration_min_s <= record.duration_s <= BASE.duration_max_s
            assert 0.0 <= record.ecr <= 1.0
            assert 0.0 <= truth[record.video_id].ecr <= 1.0

    def test_awt_matches_analytic_mean(self, corpus, aggregated):
        truth = {t.video_id: t for t in corpus.truth}
        z_scores = []
        for record in aggregated:
            t = truth[record.video_id]
            se = t.awt_std_s / math.sqrt(record.views)
            z_scores.append((record.awt_s - t.awt_mean_s) / se)
        z = np.abs(np.array(z_scores))
        # CLT tolerance: nearly all within 3 standard errors, none absurd.
        assert (z < 3.0).mean() > 0.97
        assert z.max() < 5.0

    def test_ecr_matches_analytic_probability(self, corpus, aggregated):
        truth = {t.video_id: t for t in corpus.truth}
        z_scores = []
        for record in aggregated:
            t = truth[record.video_id]
            se = math.sqrt(max(t.ecr * (1 - t.ecr), 1e-6) / record.views)
            z_scores.append((record.ecr - t.ecr) / se)
        z = np.abs(np.array(z_scores))
        assert (z < 3.0).mean() > 0.97
        assert z.max() < 5.0

    def test_bimodal_labels(self, corpus):
        assert bimodality_coefficient([t.nawp for t in corpus.truth]) > 5 / 9
        assert bimodality_coefficient([t.ecr for t in corpus.truth]) > 5 / 9

    def test_degenerate_latent_gives_near_zero_ecr(self):
        # All-skip corpus; the ceiling reference must be pinned by hand since
        # the latent mixture sits at zero.
        cfg = SynthConfig(
            n_videos=10,
            views_per_video=10,
            seed=0,
            mixture_means=(0.0, 0.0),
            mixture_sigmas=(1e-6, 1e-6),
            engaged_ref_p=0.9,
        )
        c = generate_events(cfg)
        assert all(t.ecr < 0.1 for t in c.truth)
        assert all(t.nawp < 0.2 for t in c.truth)

    def test_degenerate_mixture_without_reference_rejected(self):
        cfg = SynthConfig(
            n_videos=4,
            views_per_video=4,
            mixture_means=(0.0, 0.0),
            mixture_sigmas=(1e-6, 1e-6),
        )
        with pytest.raises(DataError):
            generate_events(cfg)

    def test_likes_present_on_all_events(self, corpus):
        assert all(e.liked is not None for e in corpus.events[:1000])

    @pytest.mark.parametrize("views", [1, 40])
    def test_events_equal_the_per_event_reference(self, views):
        cfg = SynthConfig(n_videos=7, views_per_video=views, seed=5)
        fields = [[(type(v), v) for v in (e.video_id, e.watch_time_s, e.liked)] for e in generate_events(cfg).events]
        assert fields == [[(type(v), v) for v in (e.video_id, e.watch_time_s, e.liked)] for e in _reference_events(cfg)]


def _reference_events(cfg):
    """``generate_events``' event log built one event at a time from numpy scalars, kept as the reference."""
    ref_p = reference_engagement(cfg)
    lattice = synth.duration_lattice(cfg)
    id_width = max(5, len(str(cfg.n_videos - 1)))
    events = []
    for index in range(cfg.n_videos):
        video_id = f"v{index:0{id_width}d}"
        rng = np.random.default_rng([cfg.seed, 11, index])
        q = synth._draw_quality(cfg, rng)
        u = float(rng.standard_normal())
        duration = float(lattice[rng.integers(len(lattice))])
        info = synth._video_truth(cfg, ref_p, video_id, duration, q, u)
        n = cfg.views_per_video
        engaged = rng.random(n) < info.p_engaged
        uniform_watch = rng.uniform(info.engaged_lo_s, info.engaged_hi_s, n)
        skip_watch = rng.exponential(info.theta_s, n)
        liked = rng.random(n) < info.like_rate
        for watch, like in zip(np.where(engaged, uniform_watch, skip_watch), liked):
            events.append(WatchEvent(video_id=video_id, watch_time_s=float(watch), liked=bool(like)))
    return events


class TestPlantedEnvelope:
    def test_recovered_within_five_percent(self):
        cfg = SynthConfig(
            n_videos=1500,
            views_per_video=150,
            seed=3,
            coupling=1.0,
            mixture_means=(0.15, 0.9),
            mixture_sigmas=(0.07, 0.03),
        )
        c = generate_events(cfg)
        metas = {m.video_id: m for m in c.metas}
        records = aggregate_corpus(c.events, metas, min_views=1)
        env = fit_envelope(records, quantile_tau=cfg.envelope_tau, bin_width_s=1.0, min_bin_count=20)
        assert env.slope_a == pytest.approx(cfg.envelope_a, rel=0.05)
        assert env.intercept_b == pytest.approx(cfg.envelope_b, rel=0.05)

    def test_expected_awt_quantile_sits_on_line(self):
        # With no skip jitter, the tau-quantile of the *expected* AWT at each
        # duration equals a*d + b by construction; the sharp upper mixture
        # component keeps the finite-sample quantile estimate tight.
        cfg = SynthConfig(
            n_videos=4000,
            views_per_video=1,
            seed=1,
            coupling=1.0,
            mixture_means=(0.15, 0.9),
            mixture_sigmas=(0.07, 0.03),
        )
        c = generate_events(cfg)
        env = fit_envelope(c.truth_records, quantile_tau=cfg.envelope_tau, bin_width_s=1.0, min_bin_count=30)
        assert env.slope_a == pytest.approx(cfg.envelope_a, rel=0.05)
        assert env.intercept_b == pytest.approx(cfg.envelope_b, rel=0.05)


class TestCorrelationTargets:
    def test_empirical_matches_analytic_target(self):
        cfg = SynthConfig(n_videos=400, views_per_video=300, seed=6, coupling=0.3)
        c = generate_events(cfg)
        target = analytic_correlation_targets(c.truth)
        metas = {m.video_id: m for m in c.metas}
        records = aggregate_corpus(c.events, metas, min_views=1)
        env = EnvelopeModel(cfg.envelope_a, cfg.envelope_b)
        annotated = annotate_nawp(records, env)
        empirical = srcc([r.ecr for r in annotated], [r.nawp for r in annotated])
        assert empirical == pytest.approx(target["srcc_ecr_nawp"], abs=0.05)

    def test_lower_coupling_lowers_target(self):
        tight = generate_events(SynthConfig(n_videos=300, views_per_video=1, seed=6, coupling=1.0))
        loose = generate_events(SynthConfig(n_videos=300, views_per_video=1, seed=6, coupling=0.0))
        t_tight = analytic_correlation_targets(tight.truth)["srcc_ecr_nawp"]
        t_loose = analytic_correlation_targets(loose.truth)["srcc_ecr_nawp"]
        assert t_loose < t_tight


class TestFeaturesAndOracle:
    def test_bundle_shapes_and_manifest(self, tmp_path):
        cfg = SynthConfig(n_videos=5, views_per_video=5, seed=2, feature_dim=8, text_dim=6)
        c = generate_events(cfg)
        rows, bundles = generate_features(c.truth, cfg, out_dir=tmp_path)
        assert (tmp_path / "manifest.jsonl").exists()
        for row in rows:
            bundle = bundles[row.video_id]
            expected_clips = math.floor(row.duration_s * cfg.frame_rate) // cfg.frames_per_clip
            assert bundle.n_clips == expected_clips
            assert bundle.text_tokens.shape == (cfg.text_tokens_per_video, 6)
            for kind, arr in bundle.clip_features.items():
                assert arr.shape == (bundle.n_clips, 8)
            assert (tmp_path / row.feature_path).exists()
            assert 0.0 <= row.nawp_label <= 1.0
            assert 0.0 <= row.ecr_label <= 1.0
            assert row.awt_label > 0.0

    def test_noiseless_clip_free_recovery_is_exact(self):
        # engaged_ref_p above the latent ceiling means no label saturates at
        # 1.0, so a near-zero-ridge fit recovers the labels exactly.
        cfg = SynthConfig(
            n_videos=200,
            views_per_video=1,
            seed=11,
            feature_noise=0.0,
            engaged_ref_p=1.5,
        )
        c = generate_events(cfg)
        rows, bundles = generate_features(c.truth, cfg)
        ids = [r.video_id for r in rows]
        train_ids, test_ids = split_dataset(ids, 0.9, seed=1)
        out = ridge_oracle(rows, bundles, train_ids, test_ids, ridge_lambda=1e-10)
        assert out["srcc"] >= 1.0 - 1e-6

    def test_default_noise_ceiling(self):
        cfg = SynthConfig(n_videos=300, views_per_video=1, seed=13)
        c = generate_events(cfg)
        rows, bundles = generate_features(c.truth, cfg)
        ids = [r.video_id for r in rows]
        train_ids, test_ids = split_dataset(ids, 0.9, seed=13)
        nawp_oracle = ridge_oracle(rows, bundles, train_ids, test_ids)
        ecr_oracle = ridge_oracle(rows, bundles, train_ids, test_ids, label_key="ecr_label")
        assert nawp_oracle["srcc"] >= 0.95
        assert ecr_oracle["srcc"] >= 0.95

    def test_shuffled_labels_break_oracle(self):
        cfg = SynthConfig(n_videos=500, views_per_video=1, seed=17)
        c = generate_events(cfg)
        rows, bundles = generate_features(c.truth, cfg)
        labels = [r.nawp_label for r in rows]
        random.Random(23).shuffle(labels)
        shuffled = [replace(r, nawp_label=l) for r, l in zip(rows, labels)]
        ids = [r.video_id for r in shuffled]
        train_ids, test_ids = split_dataset(ids, 0.8, seed=17)
        out = ridge_oracle(shuffled, bundles, train_ids, test_ids)
        assert abs(out["srcc"]) < 0.15


def test_config_validation():
    with pytest.raises(DataError):
        SynthConfig(mixture_weights=(0.7, 0.7)).validate()
    with pytest.raises(DataError):
        SynthConfig(coupling=1.5).validate()
    with pytest.raises(DataError, match="frame_rate"):
        SynthConfig(frame_rate=0.0).validate()
    with pytest.raises(DataError, match="ecr_threshold_s"):
        SynthConfig(ecr_threshold_s=-1.0).validate()
    with pytest.raises(DataError, match="must be finite"):
        SynthConfig.from_dict({"frame_rate": math.inf})
    with pytest.raises(DataError):
        SynthConfig.from_dict({"bogus": 1})
    with pytest.raises(DataError, match="frames_per_clip must be >= 1"):
        SynthConfig(frames_per_clip=0).validate()
    with pytest.raises(DataError, match="seed must be >= 0"):
        SynthConfig(seed=-1).validate()
    # 60 s at 60 fps is the model's 225 clips of 16 frames; validate() alone allocates nothing.
    SynthConfig(frame_rate=60.0).validate()
    for rate in (math.nextafter(60.0, math.inf), 1e9, 1e308):
        with pytest.raises(DataError, match="must be <= 225 clips"):
            SynthConfig(frame_rate=rate).validate()
    SynthConfig().validate()


def test_config_json_round_trip():
    cfg = SynthConfig(n_videos=7, coupling=0.5, mixture_means=(0.1, 0.6))
    assert SynthConfig.from_dict(cfg.to_dict()) == cfg
