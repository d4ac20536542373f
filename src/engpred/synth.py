"""Synthetic corpus generator with closed-form per-video ground truth.

Each video draws a latent quality q from a two-Gaussian mixture; q (clipped
to [0, 1]) is the probability that a view is "engaged". Engaged views watch
Uniform[(1-w)*mu(d), (1+w)*mu(d)] seconds; skipping views watch
Exponential(theta) seconds. The engaged mean mu(d) is chosen so that at the
reference engagement level p_ref (the tau-quantile of the clipped mixture)
the expected watch time sits exactly on the configured ceiling line
a*d + b, which is what makes the fitted envelope recoverable by
construction. The skip scale theta jitters per video when coupling < 1,
decorrelating the continuation rate from watch time.

All per-video moments (mean watch time, its variance, the probability of
watching past the threshold) have closed forms and are emitted as ground
truth next to the sampled event log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import DataError
from .metrics import plcc, srcc
from .model import VISUAL_KINDS, FeatureBundle, ModelConfig
from .records import JsonFields, ManifestRow, VideoMeta, VideoRecord, WatchEvent, make_dir, write_rows
from .serialize import save_bundle


# Fixed generator shape: the docstring's w and mean skip theta, text bands, like rate.
ENGAGED_HALFWIDTH = 0.3
SKIP_MEAN_S = 1.2
THETA_JITTER_MAX = 1.0
TEXT_VOCAB = 64
TEXT_BANDS = 8
LIKE_BASE = 0.002
LIKE_SLOPE = 0.03


@dataclass(frozen=True)
class SynthConfig(JsonFields):
    n_videos: int = 500
    views_per_video: int = 300
    duration_min_s: float = 10.0
    duration_max_s: float = 60.0
    frame_rate: float = 16.0
    frames_per_clip: int = 16
    mixture_weights: tuple[float, float] = (0.5, 0.5)
    mixture_means: tuple[float, float] = (0.15, 0.75)
    mixture_sigmas: tuple[float, float] = (0.07, 0.07)
    envelope_a: float = 0.556
    envelope_b: float = 5.64
    envelope_tau: float = 0.97
    engaged_ref_p: float | None = None
    coupling: float = 0.9
    ecr_threshold_s: float = 5.0
    feature_noise: float = 0.08
    feature_dim: int = 64
    text_dim: int = 64
    text_tokens_per_video: int = 6
    seed: int = 0

    def validate(self) -> None:
        if self.n_videos < 1 or self.views_per_video < 1:
            raise DataError("n_videos and views_per_video must be >= 1")
        if self.seed < 0:
            raise DataError("seed must be >= 0")
        if not self.duration_min_s < self.duration_max_s:
            raise DataError("duration range is empty")
        if self.frame_rate <= 0:
            raise DataError("frame_rate must be positive")
        if self.frames_per_clip < 1:
            raise DataError("frames_per_clip must be >= 1")
        # The float product: a huge rate gives inf, never a huge int to allocate by.
        max_clips = ModelConfig().max_clips
        if not self.duration_max_s * self.frame_rate / self.frames_per_clip <= max_clips:
            raise DataError(f"duration_max_s * frame_rate / frames_per_clip must be <= {max_clips} clips")
        if self.ecr_threshold_s < 0:
            raise DataError("ecr_threshold_s must be >= 0")
        if abs(sum(self.mixture_weights) - 1.0) > 1e-12:
            raise DataError("mixture weights must sum to 1")
        if any(w < 0 for w in self.mixture_weights):
            raise DataError("mixture weights must be non-negative")
        if any(s <= 0 for s in self.mixture_sigmas):
            raise DataError("mixture sigmas must be positive")
        if not 0.0 <= self.coupling <= 1.0:
            raise DataError("coupling must lie in [0, 1]")
        if not 0 <= self.feature_noise <= 1e300:  # a unit normal draw times 1e300 stays finite
            raise DataError("feature_noise must lie in [0, 1e300]")
        if not 0.0 < self.envelope_tau < 1.0:
            raise DataError("envelope_tau must lie in (0, 1)")


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def mixture_cdf(cfg: SynthConfig, x: float) -> float:
    total = 0.0
    for w, m, s in zip(cfg.mixture_weights, cfg.mixture_means, cfg.mixture_sigmas):
        total += w * _normal_cdf((x - m) / s)
    return total


def mixture_quantile(cfg: SynthConfig, tau: float) -> float:
    """tau-quantile of the raw (unclipped) quality mixture, by bisection."""
    lo = min(cfg.mixture_means) - 12.0 * max(cfg.mixture_sigmas)
    hi = max(cfg.mixture_means) + 12.0 * max(cfg.mixture_sigmas)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mixture_cdf(cfg, mid) < tau:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_engagement(cfg: SynthConfig) -> float:
    """Engagement probability pinned to the ceiling line."""
    if cfg.engaged_ref_p is not None:
        return cfg.engaged_ref_p
    return min(max(mixture_quantile(cfg, cfg.envelope_tau), 0.0), 1.0)


def duration_lattice(cfg: SynthConfig) -> np.ndarray:
    """Durations at 1-second bin midpoints, so bin quantiles sit on the line."""
    count = int(round(cfg.duration_max_s - cfg.duration_min_s))
    return cfg.duration_min_s + 0.5 + np.arange(count, dtype=np.float64)


@dataclass(frozen=True)
class VideoTruth:
    """Exact per-video latents and moments."""

    video_id: str
    duration_s: float
    p_engaged: float
    theta_s: float
    engaged_lo_s: float
    engaged_hi_s: float
    awt_mean_s: float
    awt_std_s: float
    ecr: float
    nawp: float
    like_rate: float

    def to_record(self, views: int) -> VideoRecord:
        return VideoRecord(
            video_id=self.video_id,
            duration_s=self.duration_s,
            views=views,
            awt_s=self.awt_mean_s,
            awp=self.awt_mean_s / self.duration_s,
            ecr=self.ecr,
            like_rate=self.like_rate,
            nawp=self.nawp,
        )


@dataclass
class SynthCorpus:
    config: SynthConfig
    ref_p: float
    events: list[WatchEvent]
    metas: list[VideoMeta]
    truth: list[VideoTruth]

    @property
    def truth_records(self) -> list[VideoRecord]:
        return [t.to_record(self.config.views_per_video) for t in self.truth]


def _video_truth(
    cfg: SynthConfig, ref_p: float, video_id: str, duration: float, q: float, u: float
) -> VideoTruth:
    p = min(max(q, 0.0), 1.0)
    sigma_theta = THETA_JITTER_MAX * (1.0 - cfg.coupling)
    theta = SKIP_MEAN_S * math.exp(sigma_theta * u - 0.5 * sigma_theta**2)
    ceiling = cfg.envelope_a * duration + cfg.envelope_b
    mu_eng = (ceiling - SKIP_MEAN_S * (1.0 - ref_p)) / ref_p
    if mu_eng <= 0:
        raise DataError("engaged watch mean is non-positive; check envelope settings")
    lo = (1.0 - ENGAGED_HALFWIDTH) * mu_eng
    hi = (1.0 + ENGAGED_HALFWIDTH) * mu_eng
    thr = cfg.ecr_threshold_s
    tail_eng = min(max((hi - thr) / (hi - lo), 0.0), 1.0)
    ecr = (1.0 - p) * math.exp(-thr / theta) + p * tail_eng
    mean_w = (1.0 - p) * theta + p * mu_eng
    second_moment = (1.0 - p) * 2.0 * theta**2 + p * (mu_eng**2 + (hi - lo) ** 2 / 12.0)
    var_w = max(second_moment - mean_w**2, 0.0)
    nawp = min(max(mean_w / ceiling, 0.0), 1.0)
    like = min(max(LIKE_BASE + LIKE_SLOPE * p, 0.0), 1.0)
    return VideoTruth(
        video_id=video_id,
        duration_s=duration,
        p_engaged=p,
        theta_s=theta,
        engaged_lo_s=lo,
        engaged_hi_s=hi,
        awt_mean_s=mean_w,
        awt_std_s=math.sqrt(var_w),
        ecr=ecr,
        nawp=nawp,
        like_rate=like,
    )


def _draw_quality(cfg: SynthConfig, rng: np.random.Generator) -> float:
    component = 0 if rng.random() < cfg.mixture_weights[0] else 1
    return cfg.mixture_means[component] + cfg.mixture_sigmas[component] * rng.standard_normal()


def generate_events(cfg: SynthConfig) -> SynthCorpus:
    """Sample the event log, meta table, and exact ground truth."""
    cfg.validate()
    ref_p = reference_engagement(cfg)
    if ref_p <= 0.01:
        raise DataError(
            "reference engagement is ~0 (mixture concentrated at zero); "
            "set engaged_ref_p explicitly"
        )
    lattice = duration_lattice(cfg)
    id_width = max(5, len(str(cfg.n_videos - 1)))
    events: list[WatchEvent] = []
    metas: list[VideoMeta] = []
    truth: list[VideoTruth] = []
    for index in range(cfg.n_videos):
        video_id = f"v{index:0{id_width}d}"
        rng = np.random.default_rng([cfg.seed, 11, index])
        q = _draw_quality(cfg, rng)
        u = float(rng.standard_normal())
        duration = float(lattice[rng.integers(len(lattice))])
        info = _video_truth(cfg, ref_p, video_id, duration, q, u)
        n = cfg.views_per_video
        engaged = rng.random(n) < info.p_engaged
        uniform_watch = rng.uniform(info.engaged_lo_s, info.engaged_hi_s, n)
        skip_watch = rng.exponential(info.theta_s, n)
        watches = np.where(engaged, uniform_watch, skip_watch)
        liked = rng.random(n) < info.like_rate
        metas.append(VideoMeta(video_id=video_id, duration_s=duration, frame_rate=cfg.frame_rate))
        truth.append(info)
        events.extend(map(WatchEvent, repeat(video_id, n), watches.tolist(), liked.tolist()))
    return SynthCorpus(
        config=cfg,
        ref_p=ref_p,
        events=events,
        metas=metas,
        truth=truth,
    )


def analytic_correlation_targets(truth: list[VideoTruth]) -> dict:
    """Correlation of the exact per-video (ECR, NAWP) pairs."""
    ecr_values = [t.ecr for t in truth]
    nawp_values = [t.nawp for t in truth]
    return {
        "srcc_ecr_nawp": srcc(ecr_values, nawp_values),
        "plcc_ecr_nawp": plcc(ecr_values, nawp_values),
    }


def _clip_count(cfg: SynthConfig, duration: float) -> int:
    frames = math.floor(duration * cfg.frame_rate + 1e-9)
    n_clips = frames // cfg.frames_per_clip
    if n_clips < 1:
        raise DataError(
            f"duration {duration}s at {cfg.frame_rate} fps yields no full clip "
            f"of {cfg.frames_per_clip} frames"
        )
    return n_clips


def _feature_maps(cfg: SynthConfig) -> dict[str, np.ndarray]:
    maps = {}
    for kind_index, kind in enumerate(VISUAL_KINDS):
        rng = np.random.default_rng([cfg.seed, 19, kind_index])
        maps[kind] = rng.normal(0.0, 0.6, size=(cfg.feature_dim, 4))
    return maps


def _text_embeddings(cfg: SynthConfig) -> np.ndarray:
    rng = np.random.default_rng([cfg.seed, 23])
    return rng.normal(0.0, 0.6, size=(TEXT_VOCAB, cfg.text_dim))


def make_bundle(cfg: SynthConfig, info: VideoTruth, maps, embeddings) -> FeatureBundle:
    """Features are a fixed linear map of (quality, duration, clip index) plus noise."""
    n_clips = _clip_count(cfg, info.duration_s)
    rng = np.random.default_rng([cfg.seed, 17, int(info.video_id[1:])])
    quality = info.nawp
    clip_frac = (np.arange(n_clips, dtype=np.float64) + 0.5) / n_clips
    basis = np.stack(
        [
            np.full(n_clips, quality),
            np.full(n_clips, info.duration_s / 60.0),
            clip_frac,
            np.ones(n_clips),
        ],
        axis=1,
    )
    clip_features = {}
    for kind in VISUAL_KINDS:
        clean = basis @ maps[kind].T
        noise = rng.normal(0.0, 1.0, size=clean.shape)
        clip_features[kind] = clean + cfg.feature_noise * noise
    band = min(TEXT_BANDS - 1, int(quality * TEXT_BANDS))
    words_per_band = TEXT_VOCAB // TEXT_BANDS
    token_ids = band * words_per_band + rng.integers(
        words_per_band, size=cfg.text_tokens_per_video
    )
    text = embeddings[token_ids] + cfg.feature_noise * rng.normal(
        0.0, 1.0, size=(cfg.text_tokens_per_video, cfg.text_dim)
    )
    return FeatureBundle(
        video_id=info.video_id,
        n_clips=n_clips,
        frame_rate=cfg.frame_rate,
        clip_features=clip_features,
        text_tokens=text,
    )


def generate_features(
    truth: list[VideoTruth],
    cfg: SynthConfig,
    out_dir: Path | str | None = None,
) -> tuple[list[ManifestRow], dict[str, FeatureBundle]]:
    """Build labeled feature bundles (optionally writing .engf files + manifest)."""
    cfg.validate()
    maps = _feature_maps(cfg)
    embeddings = _text_embeddings(cfg)
    bundles: dict[str, FeatureBundle] = {}
    rows: list[ManifestRow] = []
    base = Path(out_dir) if out_dir is not None else None
    if base is not None:
        make_dir(base / "features")
    for info in truth:
        bundle = make_bundle(cfg, info, maps, embeddings)
        bundles[info.video_id] = bundle
        feature_path = f"features/{info.video_id}.engf"
        if base is not None:
            save_bundle(base / feature_path, bundle)
        rows.append(
            ManifestRow(
                video_id=info.video_id,
                duration_s=info.duration_s,
                frame_rate=cfg.frame_rate,
                feature_path=feature_path,
                nawp_label=info.nawp,
                ecr_label=info.ecr,
                awt_label=info.awt_mean_s,
                awp_label=info.awt_mean_s / info.duration_s,
            )
        )
    if base is not None:
        write_rows(base / "manifest.jsonl", rows)
    return rows, bundles


def _video_vector(bundle: FeatureBundle) -> np.ndarray:
    parts = [bundle.clip_features[kind].mean(axis=0) for kind in VISUAL_KINDS]
    parts.append(bundle.text_tokens.mean(axis=0))
    return np.concatenate(parts)


def ridge_oracle(
    rows: list[ManifestRow],
    bundles: dict[str, FeatureBundle],
    train_ids: list[str],
    test_ids: list[str],
    ridge_lambda: float = 1e-6,
    label_key: str = "nawp_label",
) -> dict:
    """Held-out SRCC of a ridge regression on clip-averaged features.

    This is the learnability ceiling reference: a linear read-out of the
    planted signal, independent of the network.
    """
    by_id = {row.video_id: row for row in rows}
    missing = [vid for vid in list(train_ids) + list(test_ids) if vid not in bundles]
    if missing:
        raise DataError(f"no feature bundle for {missing[:3]}...")

    def design(ids: list[str]) -> tuple[np.ndarray, np.ndarray]:
        x = np.stack([_video_vector(bundles[vid]) for vid in ids])
        y = np.asarray([float(getattr(by_id[vid], label_key)) for vid in ids])
        return x, y

    x_train, y_train = design(list(train_ids))
    x_test, y_test = design(list(test_ids))
    x_mean = x_train.mean(axis=0)
    y_mean = y_train.mean()
    xc = x_train - x_mean
    # SVD ridge keeps the near-zero penalty numerically stable.
    u_mat, s, vt = np.linalg.svd(xc, full_matrices=False)
    shrink = s / (s**2 + ridge_lambda)
    beta = vt.T @ (shrink * (u_mat.T @ (y_train - y_mean)))
    pred = (x_test - x_mean) @ beta + y_mean
    return {
        "srcc": srcc(pred, y_test),
        "plcc": plcc(pred, y_test),
        "n_train": len(train_ids),
        "n_test": len(test_ids),
    }
