"""Per-clip multi-modal fusion network with temporal self-attention heads.

Per clip: each enabled visual feature kind runs through its own projection
MLP; a single-head cross-attention uses the projected action feature as one
query over the shared text tokens; projected features and the attention
output are concatenated and fused by an 8-layer MLP. The fused clip vectors,
plus learned position embeddings, pass through 8 pre-norm self-attention
blocks. Two sigmoid heads read the temporal features: the watch-percentage
head averages over all clips, the continuation head over the clips covering
the opening seconds of the video.

``forward_batch`` runs several videos as one pass over their concatenated
clips, with attention kept inside each video; ``forward`` is its one-video
case. ``predict`` is the inference path: packed passes whose matrix products
are formed per video, so each video's estimates are bit-identical to
``forward`` on that video alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .records import JsonFields

VISUAL_KINDS = ("semantic", "distortion", "action", "aesthetic", "caption_mid")
TEXT_KIND = "text"
ALL_KINDS = VISUAL_KINDS + (TEXT_KIND,)

DEFAULT_FEATURE_DIM = 64
FUSION_LAYERS = 8
TEMPORAL_LAYERS = 8
# Videos per packed pass of ``predict``; no estimate's bits depend on it.
PREDICT_CHUNK = 32


def _default_feature_dims() -> dict[str, int]:
    return {kind: DEFAULT_FEATURE_DIM for kind in ALL_KINDS}


@dataclass(frozen=True)
class ModelConfig(JsonFields):
    d_model: int = 256
    feature_dims: Mapping[str, int] = field(default_factory=_default_feature_dims)
    frames_per_clip: int = 16
    max_clips: int = 225
    features: tuple[str, ...] = ALL_KINDS
    ecr_window_s: float = 5.0
    duration_as_input: bool = False
    ecr_causal_mask: bool = False

    def __post_init__(self) -> None:
        # Kinds in ALL_KINDS order, whatever order they were given in, so the
        # config's JSON (and the checkpoint's meta/model_json) is canonical.
        dims = dict(self.feature_dims)
        known = {k: dims.pop(k) for k in ALL_KINDS if k in dims}
        object.__setattr__(self, "feature_dims", {**known, **dims})

    def validate(self) -> None:
        unknown = [k for k in self.feature_dims if k not in ALL_KINDS]
        if unknown:
            raise DataError(f"unknown feature kinds in feature_dims {unknown}")
        if self.d_model < 1:
            raise DataError("d_model must be >= 1")
        if self.frames_per_clip < 1:
            raise DataError("frames_per_clip must be >= 1")
        if self.max_clips < 1:
            raise DataError("max_clips must be >= 1")
        if self.ecr_window_s <= 0:
            raise DataError("ecr_window_s must be positive")
        if not self.features:
            raise DataError("at least one feature kind must be enabled")
        for kind in self.features:
            if kind not in ALL_KINDS:
                raise DataError(f"unknown feature kind {kind!r}")
            if kind not in self.feature_dims or self.feature_dims[kind] < 1:
                raise DataError(f"feature kind {kind!r} has no valid dimension")
        if self.fusion_input_dim() < 1:
            raise DataError(f"features {self.features} give the fusion MLP no input")

    @property
    def visual_kinds(self) -> tuple[str, ...]:
        return tuple(k for k in VISUAL_KINDS if k in self.features)

    @property
    def cross_attention_enabled(self) -> bool:
        # The attention query comes from the action feature; text provides
        # keys/values. Both must be enabled for the block to exist.
        return "action" in self.features and TEXT_KIND in self.features

    def fusion_input_dim(self) -> int:
        dim = len(self.visual_kinds) * self.d_model
        if self.cross_attention_enabled:
            dim += self.d_model
        if self.duration_as_input:
            dim += 1
        return dim

    def ecr_clip_count(self, frame_rate: float, n_clips: int) -> int:
        window = math.floor(self.ecr_window_s * frame_rate / self.frames_per_clip)
        return min(n_clips, max(1, window))


@dataclass
class FeatureBundle:
    """Precomputed per-clip visual features plus shared text token embeddings."""

    video_id: str
    n_clips: int
    frame_rate: float
    clip_features: dict[str, np.ndarray]
    text_tokens: np.ndarray

    def validate(self) -> None:
        if not self.video_id:
            raise DataError("feature bundle has empty video_id")
        if self.n_clips < 1:
            raise DataError(f"bundle {self.video_id!r}: n_clips must be >= 1")
        if self.frame_rate <= 0 or not math.isfinite(self.frame_rate):
            raise DataError(f"bundle {self.video_id!r}: invalid frame_rate")
        for kind, arr in self.clip_features.items():
            if arr.ndim != 2 or arr.shape[0] != self.n_clips:
                raise DataError(
                    f"bundle {self.video_id!r}: {kind} has shape {arr.shape}, "
                    f"expected ({self.n_clips}, D)"
                )
            if not np.all(np.isfinite(arr)):
                raise DataError(f"bundle {self.video_id!r}: {kind} has non-finite values")
        if self.text_tokens.ndim != 2 or self.text_tokens.shape[0] < 1:
            raise DataError(f"bundle {self.video_id!r}: text tokens must be (T>=1, D)")
        if not np.all(np.isfinite(self.text_tokens)):
            raise DataError(f"bundle {self.video_id!r}: text tokens have non-finite values")


class ParamSpec(NamedTuple):
    """A parameter's shape and start: a seeded uniform draw in [-bound, bound)
    when ``bound`` is set, else the constant ``value``."""

    shape: tuple[int, ...]
    bound: float | None = None
    value: float = 0.0


def param_layout(config: ModelConfig) -> dict[str, ParamSpec]:
    """Each parameter's spec by name, in canonical (``init_params``) order; nothing is allocated."""
    config.validate()
    d = config.d_model
    layout: dict[str, ParamSpec] = {}

    def linear(name: str, fan_in: int, fan_out: int, relu_follows: bool) -> None:
        # Symmetric uniform scaled by fan-in; the relu gain keeps activation
        # variance stable through the deep fusion stack.
        gain = 6.0 if relu_follows else 3.0
        layout[f"{name}.w"] = ParamSpec((fan_in, fan_out), math.sqrt(gain / fan_in))
        layout[f"{name}.b"] = ParamSpec((fan_out,))

    def layer_norm(name: str) -> None:
        layout[f"{name}.g"] = ParamSpec((d,), value=1.0)
        layout[f"{name}.b"] = ParamSpec((d,))

    for kind in config.visual_kinds:
        linear(f"proj.{kind}.0", config.feature_dims[kind], d, relu_follows=True)
        linear(f"proj.{kind}.1", d, d, relu_follows=False)
    if config.cross_attention_enabled:
        d_txt = config.feature_dims[TEXT_KIND]
        linear("xattn.q", d, d, relu_follows=False)
        linear("xattn.k", d_txt, d, relu_follows=False)
        linear("xattn.v", d_txt, d, relu_follows=False)
        linear("xattn.o", d, d, relu_follows=False)
    fusion_in = config.fusion_input_dim()
    for i in range(FUSION_LAYERS):
        linear(f"fusion.{i}", fusion_in if i == 0 else d, d, relu_follows=i < FUSION_LAYERS - 1)
    layout["pos_embed"] = ParamSpec((config.max_clips, d), 0.02)
    for i in range(TEMPORAL_LAYERS):
        layer_norm(f"temporal.{i}.ln1")
        linear(f"temporal.{i}.attn.q", d, d, relu_follows=False)
        linear(f"temporal.{i}.attn.k", d, d, relu_follows=False)
        linear(f"temporal.{i}.attn.v", d, d, relu_follows=False)
        linear(f"temporal.{i}.attn.o", d, d, relu_follows=False)
        layer_norm(f"temporal.{i}.ln2")
        linear(f"temporal.{i}.mlp.0", d, d, relu_follows=True)
        linear(f"temporal.{i}.mlp.1", d, d, relu_follows=False)
    layer_norm("temporal.norm")
    for head in ("head_nawp", "head_ecr"):
        linear(f"{head}.0", d, d, relu_follows=True)
        linear(f"{head}.1", d, 1, relu_follows=False)
    return layout


def init_params(config: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Seeded parameter initialization in canonical name order: ``param_layout``, drawn in its order."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, (shape, bound, value) in param_layout(config).items():
        params[name] = Tensor(np.full(shape, value) if bound is None else rng.uniform(-bound, bound, size=shape))
    return params


def count_parameters(params: dict[str, Tensor]) -> int:
    """Total number of scalar parameters."""
    return sum(p.data.size for p in params.values())


Bounds = list[tuple[int, int]]


def _linear_layer(
    params, name: str, x: Tensor, relu: bool = False, residual: Tensor | None = None, rows: Bounds | None = None
) -> Tensor:
    return ad.linear(x, params[f"{name}.w"], params[f"{name}.b"], relu=relu, residual=residual, rows=rows)


def _layer_norm_affine(params, name: str, x: Tensor) -> Tensor:
    return ad.layer_norm_rows(x, params[f"{name}.g"], params[f"{name}.b"])


def _bounds(lengths) -> Bounds:
    """Row ranges of consecutive segments of the given lengths."""
    stops = np.cumsum(lengths).tolist()
    return [(stop - n, stop) for n, stop in zip(lengths, stops)]


def _self_attention(params, prefix: str, x: Tensor, bounds: Bounds, residual: Tensor, rows: Bounds | None) -> Tensor:
    q = _linear_layer(params, f"{prefix}.q", x, rows=rows)
    k = _linear_layer(params, f"{prefix}.k", x, rows=rows)
    v = _linear_layer(params, f"{prefix}.v", x, rows=rows)
    return _linear_layer(params, f"{prefix}.o", ad.attention(q, k, v, bounds, bounds), residual=residual, rows=rows)


def _temporal_stack(params, fused: Tensor, bounds: Bounds, rows: Bounds | None) -> Tensor:
    positions = np.concatenate([np.arange(stop - start) for start, stop in bounds])
    x = ad.add(fused, ad.gather_rows(params["pos_embed"], positions))
    for i in range(TEMPORAL_LAYERS):
        z = _layer_norm_affine(params, f"temporal.{i}.ln1", x)
        x = _self_attention(params, f"temporal.{i}.attn", z, bounds, x, rows)
        z = _layer_norm_affine(params, f"temporal.{i}.ln2", x)
        h = _linear_layer(params, f"temporal.{i}.mlp.0", z, relu=True, rows=rows)
        x = _linear_layer(params, f"temporal.{i}.mlp.1", h, residual=x, rows=rows)
    return _layer_norm_affine(params, "temporal.norm", x)


def _head(params, name: str, h: Tensor, rows: Bounds | None) -> Tensor:
    hidden = _linear_layer(params, f"{name}.0", h, relu=True, rows=rows)
    return ad.sigmoid(_linear_layer(params, f"{name}.1", hidden, rows=rows))


def check_bundle(bundle: FeatureBundle, config: ModelConfig, duration_s: float | None) -> None:
    """Refuse a valid bundle that does not fit the model of ``config``."""
    if bundle.n_clips > config.max_clips:
        raise DataError(
            f"bundle {bundle.video_id!r} has {bundle.n_clips} clips, "
            f"model supports {config.max_clips}"
        )
    for kind in config.visual_kinds:
        if kind not in bundle.clip_features:
            raise DataError(f"bundle {bundle.video_id!r} is missing {kind!r} features")
        dim = bundle.clip_features[kind].shape[1]
        if dim != config.feature_dims[kind]:
            raise DataError(
                f"bundle {bundle.video_id!r}: {kind} dim {dim} != "
                f"configured {config.feature_dims[kind]}"
            )
    if config.cross_attention_enabled:
        dim = bundle.text_tokens.shape[1]
        if dim != config.feature_dims[TEXT_KIND]:
            raise DataError(
                f"bundle {bundle.video_id!r}: text dim {dim} != "
                f"configured {config.feature_dims[TEXT_KIND]}"
            )
    if config.duration_as_input and duration_s is None:
        raise DataError("duration_as_input requires duration_s")


def _fuse_clips(
    params, config: ModelConfig, bundles: list[FeatureBundle], durations, bounds: Bounds, per_video: bool
) -> Tensor:
    rows = bounds if per_video else None
    projected: dict[str, Tensor] = {}
    for kind in config.visual_kinds:
        x = Tensor(np.concatenate([b.clip_features[kind] for b in bundles]))
        h = _linear_layer(params, f"proj.{kind}.0", x, relu=True, rows=rows)
        projected[kind] = _linear_layer(params, f"proj.{kind}.1", h, rows=rows)
    parts = [projected[kind] for kind in config.visual_kinds]
    if config.cross_attention_enabled:
        # Each video's clips query that video's text tokens only.
        text = Tensor(np.concatenate([b.text_tokens for b in bundles]))
        text_bounds = _bounds([b.text_tokens.shape[0] for b in bundles])
        text_rows = text_bounds if per_video else None
        q = _linear_layer(params, "xattn.q", projected["action"], rows=rows)
        k = _linear_layer(params, "xattn.k", text, rows=text_rows)
        v = _linear_layer(params, "xattn.v", text, rows=text_rows)
        attended = ad.attention(q, k, v, bounds, text_bounds)
        parts.append(_linear_layer(params, "xattn.o", attended, rows=rows))
    if config.duration_as_input:
        parts.append(
            Tensor(np.concatenate([np.full((b.n_clips, 1), d / 60.0) for b, d in zip(bundles, durations)]))
        )
    h = ad.concat(parts, axis=1)
    for i in range(FUSION_LAYERS):
        h = _linear_layer(params, f"fusion.{i}", h, relu=i < FUSION_LAYERS - 1, rows=rows)
    return h


@dataclass
class BatchResult:
    """Outputs of one pass over a packed batch; rows of ``f1``/``f2`` are clips."""

    nawp_node: Tensor  # (videos, 1)
    ecr_node: Tensor  # (videos, 1)
    f1: Tensor  # (clips, 1) watch-percentage head
    f2: Tensor  # (clips, 1) continuation head
    n_ecr_clips: list[int]


def forward_batch(
    bundles: list[FeatureBundle],
    params: dict[str, Tensor],
    config: ModelConfig,
    durations: list[float | None] | None = None,
    per_video: bool = False,
) -> BatchResult:
    """Run the network once over the row-concatenated clips of several videos.

    Every layer runs once for the whole batch. Row-wise layers need no
    padding, and attention is restricted to each video's own rows (its text
    tokens, for cross-attention), so no video sees another; each video's
    estimates are means over its own rows. Up to floating-point reduction
    order, the results equal separate passes over each video.

    With ``per_video``, every ``linear`` also forms its matrix product one
    video at a time (``rows``), the one op whose rounding depends on how
    many rows it sees; every other op already works per row or per video.
    Each video's results then equal a pass over that video alone, bit for
    bit. Training steps leave it off: one product per layer is faster.
    Bundles are validated where they enter (``load_bundle``, ``forward``,
    ``predict``); here each is only checked to fit the model.
    """
    if durations is None:
        durations = [None] * len(bundles)
    for bundle, duration_s in zip(bundles, durations, strict=True):
        check_bundle(bundle, config, duration_s)
    bounds = _bounds([b.n_clips for b in bundles])
    rows = bounds if per_video else None
    fused = _fuse_clips(params, config, bundles, durations, bounds, per_video)
    temporal = _temporal_stack(params, fused, bounds, rows)
    f1 = _head(params, "head_nawp", temporal, rows)
    f2 = _head(params, "head_ecr", temporal, rows)
    n_ecr = [config.ecr_clip_count(b.frame_rate, b.n_clips) for b in bundles]
    windows = [(start, start + n) for (start, _), n in zip(bounds, n_ecr)]
    if config.ecr_causal_mask:
        # A second temporal pass over the opening clips of every video, so
        # later clips cannot reach the continuation estimate via attention.
        index = np.concatenate([np.arange(start, stop) for start, stop in windows])
        opening = _bounds(n_ecr)
        opening_rows = opening if per_video else None
        masked = _temporal_stack(params, ad.gather_rows(fused, index), opening, opening_rows)
        ecr_node = ad.segment_mean(_head(params, "head_ecr", masked, opening_rows), opening)
    else:
        ecr_node = ad.segment_mean(f2, windows)
    return BatchResult(
        nawp_node=ad.segment_mean(f1, bounds),
        ecr_node=ecr_node,
        f1=f1,
        f2=f2,
        n_ecr_clips=n_ecr,
    )


@dataclass
class ForwardResult:
    nawp_hat: float
    ecr_hat: float
    f1: np.ndarray  # (clips,) watch-percentage head, one value per clip
    f2: np.ndarray  # (clips,) continuation head
    n_ecr_clips: int
    nawp_node: Tensor
    ecr_node: Tensor


def forward(
    bundle: FeatureBundle,
    params: dict[str, Tensor],
    config: ModelConfig,
    duration_s: float | None = None,
) -> ForwardResult:
    """Run the network on one video's feature bundle (a batch of one), after validating it."""
    bundle.validate()
    out = forward_batch([bundle], params, config, [duration_s])
    nawp_node = ad.mean_axis(ad.mean_axis(out.nawp_node, 0), 0)
    ecr_node = ad.mean_axis(ad.mean_axis(out.ecr_node, 0), 0)
    return ForwardResult(
        nawp_hat=float(nawp_node.data),
        ecr_hat=float(ecr_node.data),
        f1=out.f1.data[:, 0],
        f2=out.f2.data[:, 0],
        n_ecr_clips=out.n_ecr_clips[0],
        nawp_node=nawp_node,
        ecr_node=ecr_node,
    )


def predict(
    bundles: list[FeatureBundle],
    params: dict[str, Tensor],
    config: ModelConfig,
    durations: list[float | None] | None = None,
) -> list[tuple[float, float]]:
    """The (nawp, ecr) estimates of each video, from packed passes of ``PREDICT_CHUNK`` videos.

    Each pass runs ``forward_batch(..., per_video=True)``, so every video's
    estimates are bit-identical to ``forward`` on it alone, whatever the
    chunk size or the other videos of its chunk. Each bundle is validated once.
    """
    if durations is None:
        durations = [None] * len(bundles)
    if len(durations) != len(bundles):
        raise ValueError("predict needs one duration per bundle")
    for bundle in bundles:
        bundle.validate()
    estimates: list[tuple[float, float]] = []
    for start in range(0, len(bundles), PREDICT_CHUNK):
        stop = start + PREDICT_CHUNK
        out = forward_batch(bundles[start:stop], params, config, durations[start:stop], per_video=True)
        estimates += zip(out.nawp_node.data[:, 0].tolist(), out.ecr_node.data[:, 0].tolist())
    return estimates


def infer_feature_dims(bundle: FeatureBundle) -> dict[str, int]:
    """Dimensions of the bundle's arrays of the kinds in ALL_KINDS; others are not model inputs."""
    dims = {kind: int(arr.shape[1]) for kind, arr in bundle.clip_features.items() if kind in ALL_KINDS}
    dims[TEXT_KIND] = int(bundle.text_tokens.shape[1])
    return dims


def config_for_bundle(config: ModelConfig, bundle: FeatureBundle) -> ModelConfig:
    """Copy of ``config`` whose feature dims match the bundle's arrays."""
    dims = dict(config.feature_dims)
    dims.update(infer_feature_dims(bundle))
    return replace(config, feature_dims=dims)
