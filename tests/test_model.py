"""Fusion model: forward contracts, windowing, toggles, gradient flow."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engpred import autodiff as ad
from engpred import model
from engpred.autodiff import Tape, Tensor
from engpred.errors import DataError
from engpred.model import (
    ALL_KINDS,
    VISUAL_KINDS,
    FeatureBundle,
    ModelConfig,
    config_for_bundle,
    forward,
    forward_batch,
    init_params,
    predict,
)
from engpred.synth import SynthConfig
from engpred.trainer import TrainConfig, _batch_loss_node

# Frozen at first build; guards accidental architecture changes.
DEFAULT_PARAM_COUNT = 4787458

TINY = ModelConfig(
    d_model=8,
    feature_dims={k: 4 for k in ALL_KINDS},
    frames_per_clip=4,
    max_clips=12,
)


def tiny_bundle(seed=0, n_clips=5, frame_rate=16.0, kinds=VISUAL_KINDS, dim=4, text_dim=4):
    rng = np.random.default_rng(seed)
    return FeatureBundle(
        video_id=f"v{seed}",
        n_clips=n_clips,
        frame_rate=frame_rate,
        clip_features={k: rng.normal(size=(n_clips, dim)) for k in kinds},
        text_tokens=rng.normal(size=(3, text_dim)),
    )


class TestParameterCount:
    def test_default_config_anchor(self):
        params = init_params(ModelConfig(), seed=0)
        assert sum(p.data.size for p in params.values()) == DEFAULT_PARAM_COUNT

    def test_a_model_past_max_params_is_refused(self):
        # d_model 1024 gives 74.2 M parameters and 2048 gives 295 M.
        layout = model.param_layout(ModelConfig(d_model=1024))
        assert sum(math.prod(spec.shape) for spec in layout.values()) <= model.MAX_PARAMS
        with pytest.raises(DataError, match=f"the model would have 295200770 parameters, more than {model.MAX_PARAMS}"):
            ModelConfig(d_model=2048).validate()
        with pytest.raises(DataError, match="parameters, more than"):
            ModelConfig(feature_dims={k: 2**40 for k in ALL_KINDS}).validate()

    def test_init_deterministic(self):
        a = init_params(TINY, seed=3)
        b = init_params(TINY, seed=3)
        assert list(a) == list(b)
        for name in a:
            assert a[name].data.tobytes() == b[name].data.tobytes()


class TestForward:
    def test_zero_heads_give_half(self):
        params = init_params(TINY, seed=0)
        for name in list(params):
            if name.startswith(("head_nawp", "head_ecr")):
                params[name] = Tensor(np.zeros_like(params[name].data))
        res = forward(tiny_bundle(), params, TINY)
        assert res.nawp_hat == 0.5
        assert res.ecr_hat == 0.5
        assert all(f1 == 0.5 and f2 == 0.5 for f1, f2 in zip(res.f1, res.f2))

    def test_single_clip_video(self):
        params = init_params(TINY, seed=1)
        res = forward(tiny_bundle(n_clips=1), params, TINY)
        assert res.n_ecr_clips == 1
        assert res.f1[0] == res.nawp_hat
        assert res.f2[0] == res.ecr_hat

    def test_output_ranges(self):
        params = init_params(TINY, seed=2)
        for seed in range(5):
            res = forward(tiny_bundle(seed=seed), params, TINY)
            assert 0.0 < res.nawp_hat < 1.0
            assert 0.0 < res.ecr_hat < 1.0

    def test_ecr_window_r30_l16(self):
        # 20s at 30 fps -> 600 frames -> 37 clips; the continuation head
        # averages floor(5*30/16) = 9 of them.
        cfg = replace(TINY, frames_per_clip=16, max_clips=64)
        params = init_params(cfg, seed=3)
        bundle = tiny_bundle(seed=3, n_clips=37, frame_rate=30.0)
        res = forward(bundle, params, cfg)
        assert res.n_ecr_clips == 9
        f2 = res.f2
        assert res.ecr_hat == pytest.approx(float(np.mean(f2[:9])), abs=1e-12)
        assert res.ecr_hat != pytest.approx(float(np.mean(f2[:10])), abs=1e-12)

    def test_ecr_window_floors_and_clamps(self):
        cfg = replace(TINY, frames_per_clip=4)
        params = init_params(cfg, seed=0)
        # 5s * 16fps / 4 = 20 clips, but the video only has 6.
        res = forward(tiny_bundle(n_clips=6, frame_rate=16.0), params, cfg)
        assert res.n_ecr_clips == 6
        # 5s * 0.9fps / 4 floors to 1.
        res = forward(tiny_bundle(n_clips=6, frame_rate=0.9), params, cfg)
        assert res.n_ecr_clips == 1

    def test_forward_deterministic(self):
        params = init_params(TINY, seed=4)
        bundle = tiny_bundle(seed=4)
        a = forward(bundle, params, TINY)
        b = forward(bundle, params, TINY)
        assert a.nawp_hat == b.nawp_hat
        assert a.ecr_hat == b.ecr_hat

    def test_too_many_clips_rejected(self):
        params = init_params(TINY, seed=0)
        with pytest.raises(DataError):
            forward(tiny_bundle(n_clips=13), params, TINY)

    def test_missing_kind_rejected(self):
        params = init_params(TINY, seed=0)
        bundle = tiny_bundle(kinds=("semantic", "action"))
        with pytest.raises(DataError):
            forward(bundle, params, TINY)

    def test_dim_mismatch_rejected(self):
        params = init_params(TINY, seed=0)
        bundle = tiny_bundle(dim=6)
        with pytest.raises(DataError):
            forward(bundle, params, TINY)


class TestFeatureToggles:
    def _sub_params_from_full(self, full, cfg_full, cfg_sub, dropped):
        """Carve sub-model parameters out of the full model's."""
        sub = {}
        offset = {}
        pos = 0
        for kind in cfg_full.visual_kinds:
            offset[kind] = pos
            pos += cfg_full.d_model
        for name, tensor in full.items():
            if name.startswith(f"proj.{dropped}."):
                continue
            if name == "fusion.0.w":
                start = offset[dropped]
                keep = np.delete(
                    tensor.data, slice(start, start + cfg_full.d_model), axis=0
                )
                sub[name] = Tensor(keep)
            else:
                sub[name] = tensor
        return sub

    def test_disabled_kind_removes_parameters(self):
        cfg_sub = replace(TINY, features=tuple(k for k in ALL_KINDS if k != "aesthetic"))
        full = init_params(TINY, seed=5)
        sub = init_params(cfg_sub, seed=5)
        assert sum(p.data.size for p in sub.values()) < sum(p.data.size for p in full.values())
        assert not any(n.startswith("proj.aesthetic") for n in sub)

    def test_disabled_equals_sliced_not_zeroed(self):
        dropped = "aesthetic"
        cfg_sub = replace(TINY, features=tuple(k for k in ALL_KINDS if k != dropped))
        full = init_params(TINY, seed=6)
        # Randomize biases as a trained model would have them; with all-zero
        # biases the dropped kind's projection of zero features is itself
        # zero, which would mask the removal-vs-zeroing distinction.
        rng = np.random.default_rng(60)
        for name, tensor in full.items():
            if name.endswith(".b") and not name.startswith("temporal"):
                full[name] = Tensor(rng.normal(scale=0.3, size=tensor.data.shape))
        bundle = tiny_bundle(seed=6)
        sub_params = self._sub_params_from_full(full, TINY, cfg_sub, dropped)
        res_sub = forward(bundle, sub_params, cfg_sub)

        # Zeroing the dropped kind's first-layer rows in the full model must
        # reproduce the sliced model exactly...
        zero_rows = dict(full)
        w = full["fusion.0.w"].data.copy()
        start = VISUAL_KINDS.index(dropped) * TINY.d_model
        w[start : start + TINY.d_model] = 0.0
        zero_rows["fusion.0.w"] = Tensor(w)
        res_rows = forward(bundle, zero_rows, TINY)
        assert res_sub.nawp_hat == pytest.approx(res_rows.nawp_hat, abs=1e-12)
        assert res_sub.ecr_hat == pytest.approx(res_rows.ecr_hat, abs=1e-12)

        # ...while zeroing the kind's input features must NOT (the projection
        # biases still leak through), which is what distinguishes removal
        # from zeroing.
        zero_feat_bundle = FeatureBundle(
            video_id=bundle.video_id,
            n_clips=bundle.n_clips,
            frame_rate=bundle.frame_rate,
            clip_features={
                k: (np.zeros_like(v) if k == dropped else v)
                for k, v in bundle.clip_features.items()
            },
            text_tokens=bundle.text_tokens,
        )
        res_zero_feat = forward(zero_feat_bundle, full, TINY)
        assert abs(res_zero_feat.nawp_hat - res_sub.nawp_hat) > 1e-9

    def test_text_disabled_drops_cross_attention(self):
        cfg = replace(TINY, features=VISUAL_KINDS)
        params = init_params(cfg, seed=0)
        assert not any(n.startswith("xattn") for n in params)
        res = forward(tiny_bundle(), params, cfg)
        assert 0.0 < res.nawp_hat < 1.0

    def test_features_without_a_fusion_input_are_refused(self):
        with pytest.raises(DataError, match=r"features \('text',\) give the fusion MLP no input"):
            replace(TINY, features=("text",)).validate()
        replace(TINY, features=("text",), duration_as_input=True).validate()

    def test_visual_only_subset(self):
        cfg = replace(TINY, features=("semantic",))
        params = init_params(cfg, seed=0)
        bundle = tiny_bundle(kinds=("semantic",))
        res = forward(bundle, params, cfg)
        assert 0.0 < res.ecr_hat < 1.0


class TestDurationInput:
    def test_requires_duration(self):
        cfg = replace(TINY, duration_as_input=True)
        params = init_params(cfg, seed=0)
        with pytest.raises(DataError):
            forward(tiny_bundle(), params, cfg)

    def test_duration_changes_output(self):
        cfg = replace(TINY, duration_as_input=True)
        params = init_params(cfg, seed=0)
        bundle = tiny_bundle()
        a = forward(bundle, params, cfg, duration_s=12.0)
        b = forward(bundle, params, cfg, duration_s=55.0)
        assert a.nawp_hat != b.nawp_hat

    def test_widens_fusion_input(self):
        cfg = replace(TINY, duration_as_input=True)
        assert cfg.fusion_input_dim() == TINY.fusion_input_dim() + 1


class TestEcrCausalMask:
    def test_masked_path_ignores_later_clips(self):
        cfg = replace(TINY, ecr_causal_mask=True, frames_per_clip=16, max_clips=12)
        params = init_params(cfg, seed=7)
        bundle = tiny_bundle(seed=7, n_clips=10, frame_rate=16.0)
        res = forward(bundle, params, cfg)
        assert res.n_ecr_clips == 5
        # Perturb clips after the window: masked ecr must not move at all.
        perturbed = FeatureBundle(
            video_id=bundle.video_id,
            n_clips=bundle.n_clips,
            frame_rate=bundle.frame_rate,
            clip_features={
                k: np.concatenate([v[:5], v[5:] + 3.0]) for k, v in bundle.clip_features.items()
            },
            text_tokens=bundle.text_tokens,
        )
        res2 = forward(perturbed, params, cfg)
        assert res2.ecr_hat == res.ecr_hat
        assert res2.nawp_hat != res.nawp_hat

    def test_unmasked_path_leaks_by_attention(self):
        cfg = replace(TINY, frames_per_clip=16, max_clips=12)
        params = init_params(cfg, seed=7)
        bundle = tiny_bundle(seed=7, n_clips=10, frame_rate=16.0)
        res = forward(bundle, params, cfg)
        perturbed = FeatureBundle(
            video_id=bundle.video_id,
            n_clips=bundle.n_clips,
            frame_rate=bundle.frame_rate,
            clip_features={
                k: np.concatenate([v[:5], v[5:] + 3.0]) for k, v in bundle.clip_features.items()
            },
            text_tokens=bundle.text_tokens,
        )
        res2 = forward(perturbed, params, cfg)
        assert res2.ecr_hat != res.ecr_hat

    def test_masked_differs_from_unmasked(self):
        cfg_masked = replace(TINY, ecr_causal_mask=True, frames_per_clip=16, max_clips=12)
        params = init_params(cfg_masked, seed=8)
        bundle = tiny_bundle(seed=8, n_clips=10, frame_rate=16.0)
        masked = forward(bundle, params, cfg_masked)
        unmasked = forward(bundle, params, replace(cfg_masked, ecr_causal_mask=False))
        assert masked.ecr_hat != unmasked.ecr_hat
        assert masked.nawp_hat == unmasked.nawp_hat


class TestPermutation:
    def _permuted(self, bundle, perm):
        return FeatureBundle(
            video_id=bundle.video_id,
            n_clips=bundle.n_clips,
            frame_rate=bundle.frame_rate,
            clip_features={k: v[perm] for k, v in bundle.clip_features.items()},
            text_tokens=bundle.text_tokens,
        )

    def test_invariant_with_zero_position_embeddings(self):
        params = init_params(TINY, seed=9)
        params["pos_embed"] = Tensor(np.zeros_like(params["pos_embed"].data))
        bundle = tiny_bundle(seed=9, n_clips=6)
        perm = np.random.default_rng(1).permutation(6)
        base = forward(bundle, params, TINY)
        shuffled = forward(self._permuted(bundle, perm), params, TINY)
        assert shuffled.nawp_hat == pytest.approx(base.nawp_hat, abs=1e-12)
        # Per-clip outputs permute along with the clips.
        f1 = base.f1
        f1_perm = shuffled.f1
        np.testing.assert_allclose(f1_perm, f1[perm], atol=1e-12)

    def test_sensitive_with_position_embeddings(self):
        params = init_params(TINY, seed=9)
        bundle = tiny_bundle(seed=9, n_clips=6)
        perm = np.array([5, 0, 3, 1, 4, 2])
        base = forward(bundle, params, TINY)
        shuffled = forward(self._permuted(bundle, perm), params, TINY)
        assert abs(shuffled.nawp_hat - base.nawp_hat) > 1e-9


class TestPackedBatch:
    """One pass over a packed batch matches separate passes over its videos."""

    # (n_clips, frame_rate): unequal lengths, a 1-clip video, a full-length
    # one, and ECR windows from 1 clip up to the whole video.
    LAYOUT = [(5, 16.0), (1, 16.0), (12, 3.0), (7, 30.0), (3, 16.0), (9, 8.0), (2, 1.0), (11, 16.0)]

    @pytest.mark.parametrize(
        "cfg",
        [
            replace(TINY, frames_per_clip=16),
            replace(TINY, frames_per_clip=16, ecr_causal_mask=True),
            replace(TINY, frames_per_clip=16, duration_as_input=True),
        ],
        ids=["default", "ecr_causal_mask", "duration_as_input"],
    )
    def test_matches_per_video_tapes(self, cfg):
        params = init_params(cfg, seed=12)
        bundles = [
            tiny_bundle(seed=200 + i, n_clips=n, frame_rate=fps) for i, (n, fps) in enumerate(self.LAYOUT)
        ]
        durations = [10.0 + 6.0 * i for i in range(len(bundles))]
        y1 = np.linspace(0.1, 0.9, len(bundles))
        y2 = np.linspace(0.8, 0.3, len(bundles))
        inv = 1.0 / len(bundles)

        with Tape() as tape:
            out = forward_batch(bundles, params, cfg, durations)
            loss = ad.add(
                ad.scale(ad.squared_error(out.nawp_node, y1.reshape(-1, 1)), inv),
                ad.scale(ad.squared_error(out.ecr_node, y2.reshape(-1, 1)), inv),
            )
        tape.backward(loss)
        packed_grads = {name: p.grad for name, p in params.items()}
        for p in params.values():
            p.grad = None

        preds = []
        for i, bundle in enumerate(bundles):
            with Tape() as tape:
                res = forward(bundle, params, cfg, duration_s=durations[i])
                loss = ad.add(
                    ad.scale(ad.squared_error(res.nawp_node, np.asarray(y1[i])), inv),
                    ad.scale(ad.squared_error(res.ecr_node, np.asarray(y2[i])), inv),
                )
            tape.backward(loss)
            preds.append((res.nawp_hat, res.ecr_hat))
            assert out.n_ecr_clips[i] == res.n_ecr_clips

        preds = np.array(preds)
        packed = np.hstack([out.nawp_node.data, out.ecr_node.data])
        assert np.max(np.abs(packed - preds) / np.abs(preds)) <= 1e-12
        assert {n for n, g in packed_grads.items() if g is not None} == {
            n for n, p in params.items() if p.grad is not None
        }
        scale = max(np.abs(g).max() for g in packed_grads.values() if g is not None)
        assert scale > 0.0
        for name, p in params.items():
            if p.grad is not None:
                assert np.max(np.abs(packed_grads[name] - p.grad)) <= 1e-12 * scale, name

    def test_forward_is_the_one_video_batch(self):
        params = init_params(TINY, seed=13)
        bundle = tiny_bundle(seed=13, n_clips=6)
        res = forward(bundle, params, TINY)
        out = forward_batch([bundle], params, TINY)
        assert res.nawp_hat == float(out.nawp_node.data[0, 0])
        assert res.ecr_hat == float(out.ecr_node.data[0, 0])

    def test_bad_bundle_in_batch_rejected(self):
        params = init_params(TINY, seed=0)
        with pytest.raises(DataError):
            forward_batch([tiny_bundle(), tiny_bundle(dim=6)], params, TINY)


class TestBundleValidByConstruction:
    """A ``FeatureBundle`` checks itself when it is made and cannot be written into after."""

    @pytest.mark.parametrize(
        "where, message",
        [("semantic", "bundle 'v1': semantic has non-finite values"),
         ("text", "bundle 'v1': text tokens have non-finite values")],
    )
    def test_non_finite_values_refused(self, where, message):
        good = tiny_bundle(seed=1)
        clip_features = {kind: arr.copy() for kind, arr in good.clip_features.items()}
        text_tokens = good.text_tokens.copy()
        if where == "text":
            text_tokens[-1, 0] = np.inf
        else:
            clip_features[where][2, 1] = np.nan
        with pytest.raises(DataError, match=f"^{message}$"):
            FeatureBundle(good.video_id, good.n_clips, good.frame_rate, clip_features, text_tokens)

    def test_clip_count_mismatch_refused(self):
        good = tiny_bundle(seed=1, n_clips=5)
        message = r"^bundle 'v1': semantic has shape \(5, 4\), expected \(6, D\)$"
        with pytest.raises(DataError, match=message):
            FeatureBundle(good.video_id, 6, good.frame_rate, dict(good.clip_features), good.text_tokens)
        with pytest.raises(DataError, match=message):
            replace(good, n_clips=6)
        with pytest.raises(DataError, match="^bundle 'v1': n_clips must be >= 1$"):
            replace(good, n_clips=0)

    @pytest.mark.parametrize("video_id, kind", [("v\ud800", "semantic"), ("vidéo", "sem\udc00")])
    def test_names_utf8_cannot_encode_refused(self, video_id, kind):
        with pytest.raises(DataError, match=r"id and kind names must be UTF-8 text$"):
            FeatureBundle(video_id, 1, 16.0, {kind: np.ones((1, 2))}, np.ones((1, 2)))
        assert FeatureBundle("vidéo 🎬", 1, 16.0, {"sémantique": np.ones((1, 2))}, np.ones((1, 2)))

    def test_arrays_and_mapping_are_read_only(self):
        clip_features = {"semantic": np.ones((2, 3))}
        text_tokens = np.ones((1, 3))
        bundle = FeatureBundle("v0", 2, 16.0, clip_features, text_tokens)
        # Marked in place: the bundle holds the very arrays it was given.
        assert bundle.clip_features["semantic"] is clip_features["semantic"] and bundle.text_tokens is text_tokens
        with pytest.raises(ValueError, match="read-only"):
            bundle.clip_features["semantic"][0, 0] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            bundle.text_tokens[0, 0] = np.nan
        with pytest.raises(TypeError):
            bundle.clip_features["semantic"] = np.ones((2, 3))
        with pytest.raises(TypeError):
            bundle.clip_features["action"] = np.ones((2, 3))
        with pytest.raises(AttributeError):
            bundle.n_clips = 3
        # The dict it was made from no longer reaches it.
        clip_features["action"] = np.full((2, 3), np.nan)
        assert list(bundle.clip_features) == ["semantic"]
        assert np.all(bundle.clip_features["semantic"] == 1.0) and np.all(bundle.text_tokens == 1.0)


# Model variants of the prediction property: every path ``forward_batch`` has.
PREDICT_VARIANTS = {
    "default": {},
    "duration_as_input": {"duration_as_input": True},
    "ecr_causal_mask": {"ecr_causal_mask": True},
    "no_cross_attention": {"features": ("semantic", "distortion", "aesthetic", "text")},
}


def _hex_estimates(estimates):
    return [(nawp.hex(), ecr.hex()) for nawp, ecr in estimates]


def _forward_each(bundles, params, cfg, durations):
    return [(res.nawp_hat, res.ecr_hat) for res in (forward(b, params, cfg, d) for b, d in zip(bundles, durations))]


class TestPredict:
    """``predict`` gives every video the bits of a one-video ``forward``, at any chunking."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        videos=st.lists(
            st.tuples(st.integers(1, 12), st.integers(1, 5), st.sampled_from([1.0, 4.0, 16.0, 30.0])),
            min_size=1,
            max_size=10,
        ),
        widths=st.sampled_from([(8, 4), (32, 64)]),  # (d_model, feature dim); 32/64 is the desk's
        variant=st.sampled_from(sorted(PREDICT_VARIANTS)),
        chunk=st.integers(1, 11),
    )
    def test_bit_identical_to_forward(self, seed, videos, widths, variant, chunk):
        d_model, dim = widths
        cfg = ModelConfig(
            d_model=d_model, feature_dims={k: dim for k in ALL_KINDS}, frames_per_clip=4, max_clips=12,
            **PREDICT_VARIANTS[variant],
        )
        rng = np.random.default_rng(seed)
        bundles = [
            FeatureBundle(
                video_id=f"v{i}",
                n_clips=n_clips,
                frame_rate=fps,
                clip_features={k: rng.normal(size=(n_clips, dim)) for k in VISUAL_KINDS},
                text_tokens=rng.normal(size=(n_tokens, dim)),
            )
            for i, (n_clips, n_tokens, fps) in enumerate(videos)
        ]
        durations = rng.uniform(1.0, 60.0, size=len(bundles)).tolist()
        params = init_params(cfg, seed=seed % 1000)
        with mock.patch.object(model, "PREDICT_CHUNK", chunk):
            packed = predict(bundles, params, cfg, durations)
        assert _hex_estimates(packed) == _hex_estimates(_forward_each(bundles, params, cfg, durations))

    def test_empty_and_mismatched_inputs(self):
        params = init_params(TINY, seed=0)
        assert predict([], params, TINY) == []
        with pytest.raises(ValueError):
            predict([tiny_bundle()], params, TINY, [1.0, 2.0])


class TestGradientFlow:
    def test_every_parameter_gets_gradient(self):
        cfg = replace(TINY, max_clips=8)
        params = init_params(cfg, seed=10)
        touched = {name: False for name in params}
        for seed in range(16):
            bundle = tiny_bundle(seed=100 + seed, n_clips=8)
            with Tape() as tape:
                res = forward(bundle, params, cfg)
                loss = ad.add(
                    ad.squared_error(res.nawp_node, np.asarray(0.3)),
                    ad.squared_error(res.ecr_node, np.asarray(0.7)),
                )
            tape.backward(loss)
            for name, p in params.items():
                if p.grad is not None and np.any(p.grad != 0.0):
                    touched[name] = True
                p.grad = None
        dead = [name for name, ok in touched.items() if not ok]
        assert not dead, f"parameters with no gradient signal: {dead}"


class TestFullModelGradients:
    def test_finite_difference_spot_check(self):
        from test_autodiff import KinkAwareDifference

        cfg = ModelConfig(
            d_model=6,
            feature_dims={k: 3 for k in ALL_KINDS},
            frames_per_clip=4,
            max_clips=4,
        )
        params = init_params(cfg, seed=11)
        bundle = tiny_bundle(seed=11, n_clips=3, dim=3, text_dim=3)
        target_n, target_e = 0.4, 0.6

        def build():
            res = forward(bundle, params, cfg)
            return ad.add(
                ad.squared_error(res.nawp_node, np.asarray(target_n)),
                ad.squared_error(res.ecr_node, np.asarray(target_e)),
            )

        with Tape() as tape:
            loss = build()
        tape.backward(loss)
        reference = KinkAwareDifference(build)
        rng = np.random.default_rng(0)
        worst = 0.0
        for name, p in params.items():
            analytic = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            flat = p.data.reshape(-1)
            picks = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for i in picks:
                numeric = reference.derivative(flat, i, f"{name}[{i}]")
                a = analytic.reshape(-1)[i]
                rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
                worst = max(worst, rel)
        assert worst < 1e-4, f"max rel err {worst:.3e}"


def test_config_for_bundle_infers_dims():
    bundle = tiny_bundle(dim=4, text_dim=4)
    cfg = config_for_bundle(ModelConfig(d_model=8), bundle)
    assert cfg.feature_dims["semantic"] == 4
    assert cfg.feature_dims["text"] == 4


def test_config_for_bundle_ignores_arrays_of_other_kinds():
    bundle = tiny_bundle(dim=4, text_dim=4)
    bundle = replace(bundle, clip_features={"optical_flow": np.zeros((bundle.n_clips, 3)), **bundle.clip_features})
    cfg = config_for_bundle(ModelConfig(d_model=8), bundle)
    assert list(cfg.feature_dims) == list(ALL_KINDS)
    cfg.validate()


def test_config_feature_dims_in_canonical_order():
    cfg = ModelConfig.from_dict({"feature_dims": {k: 4 for k in reversed(ALL_KINDS)}})
    assert list(cfg.to_dict()["feature_dims"]) == list(ALL_KINDS)


def test_config_validation():
    with pytest.raises(DataError):
        ModelConfig(features=()).validate()
    with pytest.raises(DataError):
        ModelConfig(features=("bogus",)).validate()
    ModelConfig().validate()


@pytest.mark.parametrize(
    "config, change, message",
    [
        (ModelConfig(), {"d_model": 0}, "d_model must be >= 1"),
        (TrainConfig(), {"batch_size": 0}, "batch_size must be >= 1"),
        (SynthConfig(), {"coupling": 2.0}, "coupling must lie in"),
    ],
    ids=["ModelConfig", "TrainConfig", "SynthConfig"],
)
def test_a_config_is_checked_as_it_is_made(config, change, message):
    with pytest.raises(DataError, match=message):
        replace(config, **change)


def test_config_json_round_trip():
    cfg = ModelConfig(d_model=16, features=("semantic", "action", "text"), ecr_causal_mask=True)
    clone = ModelConfig.from_dict(cfg.to_dict())
    assert clone == cfg


@pytest.mark.parametrize(
    "payload",
    [
        {"d_model": "8"},
        {"d_model": 8.0},
        {"ecr_window_s": 10**400},
        {"ecr_causal_mask": 1},
        {"features": "semantic"},
        {"feature_dims": {"text": "64"}},
        {"feature_dims": {**{k: 4 for k in ALL_KINDS}, "optical_flow": 3}},
        {"no_such_key": 1},
    ],
)
def test_config_from_dict_rejects_bad_payloads(payload):
    with pytest.raises(DataError):
        ModelConfig.from_dict(payload)


def test_tape_op_counts_at_desk_width():
    # The benchmark's train settings: d_model 32, every feature kind, joint
    # loss over a packed batch of 8 videos. Op counts depend on none of the
    # widths or clip counts.
    cfg = ModelConfig(d_model=32, feature_dims={k: 4 for k in ALL_KINDS}, frames_per_clip=4, max_clips=64)
    params = init_params(cfg, seed=0)
    bundles = [tiny_bundle(seed=300 + i, n_clips=2 + i) for i in range(8)]
    with Tape() as tape:
        out = forward_batch(bundles, params, cfg)
        _batch_loss_node(out, [0.5] * 8, [0.5] * 8, "joint")
    assert len(tape) == 112
    with Tape() as tape:
        forward(bundles[0], params, cfg)
    assert len(tape) == 111
