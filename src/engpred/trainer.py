"""Joint NAWP+ECR training with cosine-annealed Adam, plus ablation modes.

``train`` reads and checks every feature bundle the manifest names before
step 0, so a missing, corrupt or mislabelled bundle, or one that does not fit
the model sized from the first, is a ``DataError`` before any step runs.
Batches group whole videos. A training step packs the batch's clips
row-wise and records one tape for the whole batch (``model.forward_batch``),
with attention kept inside each video, so there is no padding and no video
sees another. A step zeroes the flat gradient buffer (``optim.FlatParams``),
backward accumulates into it, and ``adam_step`` updates the parameters in
place. The batch schedule is a pure function of (seed, step), which lets a
resumed run reproduce an uninterrupted one bit for bit.

With an output directory, ``checkpoint.engw`` is written after the Adam
update of every evaluation step and again after the last step. A run that
stops after its first evaluation leaves the checkpoint of its last one;
resumed from it, the run writes the final checkpoint, predictions and
summary it would have written uninterrupted. Its log holds only the rows
after the resume step.

Each evaluation makes one held-out prediction pass (``model.predict``):
packed passes over the test videos whose matrix products are formed per
video, so every estimate is bit-identical to ``model.forward`` on that
video alone. The pass at the last step is also the one
``test_predictions.jsonl`` holds.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import DataError, NumericError
from .metrics import srcc
from .model import (
    BatchResult,
    FeatureBundle,
    ModelConfig,
    check_bundle,
    config_for_bundle,
    forward,  # noqa: F401  # benchmarks/layers.py traces the name trainer.forward
    forward_batch,
    init_params,
    param_layout,
    predict,
)
from .optim import AdamState, FlatParams, adam_step, cosine_lr
from .records import (
    JsonFields,
    ManifestRow,
    PredictionRow,
    TrainLogRow,
    json_object,
    make_dir,
    write_json,
    write_rows,
)
from .serialize import load_bundle, load_weights, read_manifest, save_weights

MODES = ("joint", "nawp_only", "ecr_only")
TARGETS = ("nawp", "awt", "awp")


@dataclass(frozen=True)
class TrainConfig(JsonFields):
    batch_size: int = 8
    iterations: int = 3000
    lr_max: float = 1e-4
    lr_min: float = 1e-7
    seed: int = 0
    mode: str = "joint"
    target: str = "nawp"
    duration_as_input: bool = False
    split_ratio: float = 0.9
    eval_interval: int = 250

    def validate(self) -> None:
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")
        if self.iterations < 1:
            raise DataError("iterations must be >= 1")
        if min(self.seed, self.lr_max, self.lr_min) < 0:
            raise DataError("seed, lr_max and lr_min must be >= 0")
        if not 0.0 < self.split_ratio < 1.0:
            raise DataError("split_ratio must lie in (0, 1)")
        if self.mode not in MODES:
            raise DataError(f"mode must be one of {MODES}")
        if self.target not in TARGETS:
            raise DataError(f"target must be one of {TARGETS}")
        if self.eval_interval < 1:
            raise DataError("eval_interval must be >= 1")


def split_dataset(ids, split_ratio: float, seed: int) -> tuple[list[str], list[str]]:
    """Deterministic shuffled train/test split; both sides are non-empty."""
    ids = list(ids)
    unique = sorted(set(ids))
    if len(unique) != len(ids):
        raise DataError("duplicate video ids in manifest")
    n = len(unique)
    if n < 2:
        raise DataError("need at least 2 videos to split")
    if not 0.0 < split_ratio < 1.0:
        raise DataError("split_ratio must lie in (0, 1)")
    perm = np.random.default_rng([seed, 101]).permutation(n)
    n_train = min(max(int(n * split_ratio), 1), n - 1)
    shuffled = [unique[i] for i in perm]
    return sorted(shuffled[:n_train]), sorted(shuffled[n_train:])


def loss_value(pred_nawp, pred_ecr, truth_nawp, truth_ecr, mode: str = "joint") -> float:
    """Per-metric mean squared error over a batch, summed across active heads."""
    if mode not in MODES:
        raise DataError(f"mode must be one of {MODES}")
    total = 0.0
    if mode in ("joint", "nawp_only"):
        diff = np.asarray(pred_nawp, dtype=np.float64) - np.asarray(truth_nawp, dtype=np.float64)
        total += float(np.mean(diff**2))
    if mode in ("joint", "ecr_only"):
        diff = np.asarray(pred_ecr, dtype=np.float64) - np.asarray(truth_ecr, dtype=np.float64)
        total += float(np.mean(diff**2))
    return total


def _batch_ids(train_ids: list[str], cfg: TrainConfig, step: int) -> list[str]:
    epoch, slot = divmod(step, math.ceil(len(train_ids) / cfg.batch_size))
    perm = np.random.default_rng([cfg.seed, 202, epoch]).permutation(len(train_ids))
    start = slot * cfg.batch_size
    return [train_ids[i] for i in perm[start : start + cfg.batch_size]]


def _load_bundles(manifest_dir: Path, rows: list[ManifestRow]) -> dict[str, FeatureBundle]:
    """Every bundle the manifest names, read in manifest order and keyed by video id."""
    bundles = {}
    for row in rows:
        path = manifest_dir / row.feature_path
        bundle = load_bundle(path)
        if bundle.video_id != row.video_id:
            raise DataError(f"bundle {path} carries id {bundle.video_id!r}")
        bundles[row.video_id] = bundle
    return bundles


def config_hash(train_cfg: TrainConfig, model_cfg: ModelConfig) -> bytes:
    payload = json.dumps(
        {"train": train_cfg.to_dict(), "model": model_cfg.to_dict()},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).digest()


def _bytes_to_array(data: bytes) -> np.ndarray:
    return np.asarray(list(data), dtype=np.float64)


def _meta_bytes(arrays: dict[str, np.ndarray], key: str, path: Path | str) -> bytes:
    flat = arrays[key].reshape(-1)
    if not ((flat >= 0) & (flat <= 255) & (flat == np.floor(flat))).all():
        raise DataError(f"checkpoint {path}: {key!r} must hold byte values 0-255")
    return bytes(flat.astype(np.uint8))


def _meta_count(arrays: dict[str, np.ndarray], key: str, path: Path | str) -> int:
    flat = arrays[key].reshape(-1)
    if flat.size != 1 or not (flat[0] >= 0 and float(flat[0]).is_integer()):
        raise DataError(f"checkpoint {path}: {key!r} must hold one non-negative integer")
    return int(flat[0])


def save_checkpoint(
    path: Path | str,
    params: dict[str, Tensor],
    state: AdamState,
    step: int,
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
    label_scale: tuple[float, float],
) -> None:
    arrays = {f"param/{name}": p.data for name, p in params.items()}
    for name in params:
        arrays[f"adam.m/{name}"] = state.m[name]
        arrays[f"adam.v/{name}"] = state.v[name]
    arrays["meta/step"] = np.asarray([float(step)])
    arrays["meta/adam_t"] = np.asarray([float(state.t)])
    arrays["meta/label_scale"] = np.asarray(list(label_scale), dtype=np.float64)
    arrays["meta/config_sha256"] = _bytes_to_array(config_hash(train_cfg, model_cfg))
    arrays["meta/model_json"] = _bytes_to_array(json.dumps(model_cfg.to_dict()).encode("utf-8"))
    save_weights(path, arrays)


@dataclass
class Checkpoint:
    params: FlatParams
    state: AdamState
    step: int
    model_cfg: ModelConfig
    config_sha256: bytes
    label_scale: tuple[float, float]


def load_checkpoint(path: Path | str) -> Checkpoint:
    """A checkpoint packed into the ``init_params`` layout of its model config.

    Every per-name array is checked against the config's ``param_layout``
    before anything that the config sizes is allocated, so a config whose
    model the arrays do not match is refused however large it declares it.
    """
    arrays = load_weights(path)
    for key in ("meta/step", "meta/adam_t", "meta/label_scale", "meta/config_sha256", "meta/model_json"):
        if key not in arrays:
            raise DataError(f"checkpoint missing {key}")
    model_json = _meta_bytes(arrays, "meta/model_json", path)
    model_cfg = ModelConfig.from_dict(json_object(model_json, f"checkpoint {path} meta/model_json"))
    scale = arrays["meta/label_scale"].reshape(-1)
    if scale.size != 2 or not (np.isfinite(scale).all() and (scale > 0).all()):
        raise DataError(f"checkpoint {path}: 'meta/label_scale' must hold two finite positive values")
    adam_t = _meta_count(arrays, "meta/adam_t", path)
    layout = param_layout(model_cfg)
    prefixes = ("param/", "adam.m/", "adam.v/")
    for prefix in prefixes:
        for name, spec in layout.items():
            key = prefix + name
            arr = arrays.get(key)
            if arr is None:
                raise DataError(f"checkpoint {path} is missing {key!r}")
            if arr.shape != spec.shape:
                raise DataError(f"checkpoint {path}: {key!r} has shape {arr.shape}, expected {spec.shape}")
            if not np.isfinite(arr).all():
                raise DataError(f"checkpoint {path}: {key!r} is not finite")
    expected = {prefix + name for prefix in prefixes for name in layout}
    unknown = [k for k in arrays if not k.startswith("meta/") and k not in expected]
    if unknown:
        raise DataError(f"checkpoint {path} holds arrays the model does not have: {unknown[:3]}")
    params = FlatParams({name: Tensor(arrays["param/" + name]) for name in layout})
    state = AdamState(params, t=adam_t)
    for name in layout:
        state.m[name][...] = arrays["adam.m/" + name]
        state.v[name][...] = arrays["adam.v/" + name]
    return Checkpoint(
        params=params,
        state=state,
        step=_meta_count(arrays, "meta/step", path),
        model_cfg=model_cfg,
        config_sha256=_meta_bytes(arrays, "meta/config_sha256", path),
        label_scale=(float(scale[0]), float(scale[1])),
    )


@dataclass
class TrainResult:
    params: FlatParams
    state: AdamState
    model_cfg: ModelConfig
    train_ids: list[str]
    test_ids: list[str]
    label_scale: tuple[float, float]
    log_rows: list[TrainLogRow] = field(default_factory=list)
    predictions: list[PredictionRow] = field(default_factory=list)
    final_srcc_nawp: float | None = None
    final_srcc_ecr: float | None = None
    checkpoint_path: Path | None = None


def _batch_loss_node(out: BatchResult, y1, y2, mode: str) -> Tensor:
    """The tape form of ``loss_value`` over a packed batch's estimates."""
    inv_batch = 1.0 / out.nawp_node.shape[0]
    terms = []
    if mode in ("joint", "nawp_only"):
        terms.append(ad.scale(ad.squared_error(out.nawp_node, np.reshape(y1, (-1, 1))), inv_batch))
    if mode in ("joint", "ecr_only"):
        terms.append(ad.scale(ad.squared_error(out.ecr_node, np.reshape(y2, (-1, 1))), inv_batch))
    node = terms[0]
    for extra in terms[1:]:
        node = ad.add(node, extra)
    return node


def _predict(
    bundles: list[FeatureBundle],
    durations: list[float],
    params: dict[str, Tensor],
    model_cfg: ModelConfig,
    label_scale: tuple[float, float],
) -> list[PredictionRow]:
    estimates = predict(bundles, params, model_cfg, durations)
    return [
        PredictionRow(bundle.video_id, nawp * label_scale[0], ecr * label_scale[1])
        for bundle, (nawp, ecr) in zip(bundles, estimates)
    ]


def _safe_srcc(pred, truth) -> float | None:
    try:
        return srcc(pred, truth)
    except NumericError:
        return None


def _scores(preds: list[PredictionRow], truth: tuple[list[float], list[float]]) -> tuple[float | None, float | None]:
    """The held-out NAWP and ECR SRCC of one prediction pass."""
    return _safe_srcc([p.nawp_hat for p in preds], truth[0]), _safe_srcc([p.ecr_hat for p in preds], truth[1])


def train(
    manifest_path: Path | str,
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
    out_dir: Path | str | None = None,
    resume_from: Path | str | None = None,
) -> TrainResult:
    """Run the training loop over a labeled feature manifest."""
    train_cfg.validate()
    manifest_path = Path(manifest_path)
    rows = read_manifest(manifest_path)
    ids = sorted(row.video_id for row in rows)
    durations = {row.video_id: row.duration_s for row in rows}
    train_ids, test_ids = split_dataset(ids, train_cfg.split_ratio, train_cfg.seed)
    if len(test_ids) < 2:
        raise DataError(
            f"the held-out split has {len(test_ids)} video of {len(ids)} at split_ratio "
            f"{train_cfg.split_ratio}; evaluation needs at least 2"
        )
    bundles = _load_bundles(manifest_path.parent, rows)

    model_cfg = replace(model_cfg, duration_as_input=train_cfg.duration_as_input or model_cfg.duration_as_input)
    model_cfg = config_for_bundle(model_cfg, bundles[ids[0]])
    model_cfg.validate()
    for vid in ids:
        check_bundle(bundles[vid], model_cfg, durations[vid])

    target_key = f"{train_cfg.target}_label"
    y1_raw = {row.video_id: getattr(row, target_key) for row in rows}
    y2_raw = {row.video_id: row.ecr_label for row in rows}
    if missing := [vid for vid in ids if y1_raw[vid] is None]:
        raise DataError(f"manifest row {missing[0]!r} is missing {target_key!r}")
    if train_cfg.target == "nawp":
        scale1 = 1.0
    else:
        # Sigmoid heads live in (0, 1); unnormalized targets are rescaled by a
        # train-split constant. Rank metrics are unaffected (monotone map).
        scale1 = 1.25 * max(y1_raw[vid] for vid in train_ids)
        if scale1 <= 0:
            raise DataError(f"cannot scale non-positive {target_key!r} labels")
    label_scale = (scale1, 1.0)

    expected_hash = config_hash(train_cfg, model_cfg)
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        if ckpt.config_sha256 != expected_hash:
            raise DataError("checkpoint was produced with a different configuration")
        params, state, start_step = ckpt.params, ckpt.state, ckpt.step
        label_scale = ckpt.label_scale
    else:
        params = FlatParams(init_params(model_cfg, train_cfg.seed))
        state = AdamState(params)
        start_step = 0
    if start_step > train_cfg.iterations:
        raise DataError("checkpoint is beyond the requested iteration count")
    end_step = train_cfg.iterations
    if out_dir is not None:
        out_dir = make_dir(out_dir)

    log_rows: list[TrainLogRow] = []
    schedule_total = max(train_cfg.iterations - 1, 1)
    truth = ([y1_raw[vid] for vid in test_ids], [y2_raw[vid] for vid in test_ids])
    held_out = ([bundles[vid] for vid in test_ids], [durations[vid] for vid in test_ids])
    for step in range(start_step, end_step):
        lr = cosine_lr(min(step, schedule_total), schedule_total, train_cfg.lr_max, train_cfg.lr_min)
        batch = _batch_ids(train_ids, train_cfg, step)
        y1 = [y1_raw[vid] / label_scale[0] for vid in batch]
        y2 = [y2_raw[vid] / label_scale[1] for vid in batch]
        with Tape() as tape:
            out = forward_batch([bundles[vid] for vid in batch], params, model_cfg, [durations[vid] for vid in batch])
            node = _batch_loss_node(out, y1, y2, train_cfg.mode)
        params.grad.fill(0.0)
        tape.backward(node)
        batch_loss = float(node.data)
        if not math.isfinite(batch_loss):
            raise NumericError(f"training loss became non-finite at step {step}")
        adam_step(params, state, lr)
        done = step + 1
        if done % train_cfg.eval_interval == 0 or done == end_step:
            if out_dir is not None and done < end_step:
                save_checkpoint(out_dir / "checkpoint.engw", params, state, done, train_cfg, model_cfg, label_scale)
            predictions = _predict(*held_out, params, model_cfg, label_scale)
            scores = _scores(predictions, truth)
            log_rows.append(TrainLogRow(done, lr, batch_loss, *scores))
    # The last step's evaluation is the final pass; a run resumed at the last
    # step runs no step and makes it here.
    if start_step == end_step:
        predictions = _predict(*held_out, params, model_cfg, label_scale)
        scores = _scores(predictions, truth)
    final_nawp, final_ecr = scores
    result = TrainResult(
        params=params,
        state=state,
        model_cfg=model_cfg,
        train_ids=train_ids,
        test_ids=test_ids,
        label_scale=label_scale,
        log_rows=log_rows,
        predictions=predictions,
        final_srcc_nawp=final_nawp,
        final_srcc_ecr=final_ecr,
    )

    if out_dir is not None:
        checkpoint_path = out_dir / "checkpoint.engw"
        save_checkpoint(checkpoint_path, params, state, end_step, train_cfg, model_cfg, label_scale)
        write_rows(out_dir / "train_log.jsonl", log_rows)
        write_rows(out_dir / "test_predictions.jsonl", predictions)
        summary = {
            "iterations": train_cfg.iterations,
            "mode": train_cfg.mode,
            "target": train_cfg.target,
            "n_train": len(train_ids),
            "n_test": len(test_ids),
            "label_scale": list(label_scale),
            "final_srcc_nawp": result.final_srcc_nawp,
            "final_srcc_ecr": result.final_srcc_ecr,
        }
        write_json(out_dir / "train_summary.json", summary)
        result.checkpoint_path = checkpoint_path
    return result


def compare_modes(
    manifest_path: Path | str,
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
    out_dir: Path | str | None = None,
) -> dict:
    """Joint-vs-separate training comparison on the same split and seed.

    The separate row pairs the NAWP score of a nawp_only run with the ECR
    score of an ecr_only run.
    """
    results = {}
    for mode in MODES:
        cfg = replace(train_cfg, mode=mode)
        run_dir = Path(out_dir) / mode if out_dir is not None else None
        results[mode] = train(manifest_path, cfg, model_cfg, out_dir=run_dir)
    comparison = {
        "joint": {
            "srcc_nawp": results["joint"].final_srcc_nawp,
            "srcc_ecr": results["joint"].final_srcc_ecr,
        },
        "separate": {
            "srcc_nawp": results["nawp_only"].final_srcc_nawp,
            "srcc_ecr": results["ecr_only"].final_srcc_ecr,
        },
    }
    if out_dir is not None:
        write_json(Path(out_dir) / "mode_comparison.json", comparison)
    return comparison
