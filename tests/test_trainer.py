"""Training loop: splits, loss arithmetic, determinism, checkpoint resume."""

import concurrent.futures
import hashlib
import json
import math
import re
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engpred import cli, trainer
from engpred.autodiff import Tape
from engpred.errors import DataError, NumericError
from engpred.model import (
    ALL_KINDS,
    FeatureBundle,
    ModelConfig,
    config_for_bundle,
    forward,
    forward_batch,
    init_params,
)
from engpred.serialize import load_bundle, read_manifest, save_bundle
from engpred.synth import SynthConfig, generate_events, generate_features
from engpred.trainer import (
    MODES,
    TrainConfig,
    _batch_loss_node,
    compare_modes,
    config_hash,
    load_checkpoint,
    loss_value,
    save_checkpoint,
    split_dataset,
    train,
)
from engpred.optim import AdamState, FlatParams


SMALL_SYNTH = SynthConfig(
    n_videos=24,
    views_per_video=20,
    seed=5,
    feature_dim=6,
    text_dim=6,
    frame_rate=4.0,
    frames_per_clip=4,
)

SMALL_MODEL = ModelConfig(d_model=8, frames_per_clip=4, max_clips=64)

SMALL_TRAIN = TrainConfig(
    batch_size=4,
    iterations=12,
    seed=5,
    eval_interval=6,
    lr_max=3e-4,
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    corpus = generate_events(SMALL_SYNTH)
    generate_features(corpus.truth, SMALL_SYNTH, out_dir=out)
    return out


class TestSplitDataset:
    def test_ten_videos_ratio_point_nine(self):
        ids = [f"v{i}" for i in range(10)]
        train_ids, test_ids = split_dataset(ids, 0.9, seed=1)
        assert len(train_ids) == 9
        assert len(test_ids) == 1

    def test_same_seed_same_split(self):
        ids = [f"v{i}" for i in range(37)]
        assert split_dataset(ids, 0.8, seed=7) == split_dataset(ids, 0.8, seed=7)

    def test_different_seed_different_split(self):
        ids = [f"v{i}" for i in range(37)]
        assert split_dataset(ids, 0.8, seed=7) != split_dataset(ids, 0.8, seed=8)

    def test_partition(self):
        ids = [f"v{i}" for i in range(23)]
        train_ids, test_ids = split_dataset(ids, 0.7, seed=3)
        assert set(train_ids) | set(test_ids) == set(ids)
        assert not set(train_ids) & set(test_ids)

    def test_both_sides_non_empty_at_extremes(self):
        ids = ["a", "b", "c"]
        train_ids, test_ids = split_dataset(ids, 0.99, seed=0)
        assert test_ids
        train_ids, test_ids = split_dataset(ids, 0.01, seed=0)
        assert train_ids

    def test_too_few_videos(self):
        with pytest.raises(DataError):
            split_dataset(["only"], 0.9, seed=0)

    def test_iterator_of_distinct_ids(self):
        assert split_dataset(iter(["a", "b", "c"]), 0.5, seed=0) == split_dataset(["a", "b", "c"], 0.5, seed=0)


class TestLossValue:
    def test_perfect_predictions(self):
        assert loss_value([0.5], [0.4], [0.5], [0.4]) == 0.0

    def test_joint_hand_arithmetic(self):
        assert loss_value([0.8], [0.9], [0.5], [0.5], mode="joint") == pytest.approx(0.25)

    def test_nawp_only(self):
        assert loss_value([0.8], [0.9], [0.5], [0.5], mode="nawp_only") == pytest.approx(0.09)

    def test_ecr_only(self):
        assert loss_value([0.8], [0.9], [0.5], [0.5], mode="ecr_only") == pytest.approx(0.16)

    def test_batch_mean(self):
        out = loss_value([0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], mode="nawp_only")
        assert out == pytest.approx(0.5)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p, q, r, s = (rng.random(5) for _ in range(4))
            assert loss_value(p, q, r, s) >= 0.0

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_trainer_tape_loss(self, mode):
        """The trainer's tape loss over a packed batch is loss_value over the batch."""
        rows, bundles = generate_features(generate_events(SMALL_SYNTH).truth, SMALL_SYNTH)
        batch = rows[:8]
        cfg = config_for_bundle(SMALL_MODEL, bundles[batch[0].video_id])
        params = init_params(cfg, seed=3)
        truth_nawp = [row.nawp_label for row in batch]
        truth_ecr = [row.ecr_label for row in batch]
        with Tape():
            out = forward_batch([bundles[row.video_id] for row in batch], params, cfg, [row.duration_s for row in batch])
            node = _batch_loss_node(out, truth_nawp, truth_ecr, mode)
        expected = loss_value(out.nawp_node.data[:, 0], out.ecr_node.data[:, 0], truth_nawp, truth_ecr, mode=mode)
        assert expected > 0.0
        assert abs(float(node.data) - expected) <= 1e-12


DESK_TRAIN = TrainConfig(batch_size=8, iterations=6, seed=7, eval_interval=3)
DESK_MODEL = ModelConfig(d_model=32, frames_per_clip=4, max_clips=64)
DESK_PREDICTIONS_SHA256 = "1fd19809367861db4bbb27a6154c42b5b6c8d62a2423a69f22d0aeb53498eef0"


def _adam_failing_at(step: int):
    """``adam_step`` that raises on its ``step``-th call of a fresh run."""
    real_adam = trainer.adam_step

    def failing_adam(params, state, lr):
        if state.t == step - 1:
            raise NumericError("adam failed")
        real_adam(params, state, lr)

    return failing_adam


class TestTrainLoop:
    def test_smoke_run_and_artifacts(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        result = train(corpus_dir / "manifest.jsonl", SMALL_TRAIN, SMALL_MODEL, out_dir=out)
        assert (out / "checkpoint.engw").exists()
        assert (out / "train_log.jsonl").exists()
        assert (out / "test_predictions.jsonl").exists()
        log = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
        assert [row["step"] for row in log] == [6, 12]
        assert set(log[0]) == {"step", "lr", "train_loss", "eval_srcc_nawp", "eval_srcc_ecr"}
        assert all(np.isfinite(row["train_loss"]) for row in log)
        preds = [json.loads(l) for l in (out / "test_predictions.jsonl").read_text().splitlines()]
        assert {p["video_id"] for p in preds} == set(result.test_ids)
        assert all(0.0 < p["nawp_hat"] < 1.0 for p in preds)

    def test_lr_schedule_endpoints_logged(self, corpus_dir, tmp_path):
        cfg = replace(SMALL_TRAIN, iterations=4, eval_interval=1)
        result = train(corpus_dir / "manifest.jsonl", cfg, SMALL_MODEL)
        lrs = [row.lr for row in result.log_rows]
        assert lrs[0] == pytest.approx(cfg.lr_max)
        assert lrs[-1] == pytest.approx(cfg.lr_min)

    def test_deterministic_across_runs(self, corpus_dir):
        a = train(corpus_dir / "manifest.jsonl", SMALL_TRAIN, SMALL_MODEL)
        b = train(corpus_dir / "manifest.jsonl", SMALL_TRAIN, SMALL_MODEL)
        assert a.log_rows == b.log_rows
        for name in a.params:
            assert a.params[name].data.tobytes() == b.params[name].data.tobytes()

    def test_zero_lr_keeps_initialization(self, corpus_dir):
        cfg = replace(SMALL_TRAIN, iterations=2, lr_max=0.0, lr_min=0.0, eval_interval=2)
        result = train(corpus_dir / "manifest.jsonl", cfg, SMALL_MODEL)
        init = init_params(result.model_cfg, cfg.seed)
        for name in init:
            assert result.params[name].data.tobytes() == init[name].data.tobytes()

    def test_nawp_only_leaves_ecr_head_at_init(self, corpus_dir):
        cfg = replace(SMALL_TRAIN, mode="nawp_only")
        result = train(corpus_dir / "manifest.jsonl", cfg, SMALL_MODEL)
        init = init_params(result.model_cfg, cfg.seed)
        for name in init:
            same = result.params[name].data.tobytes() == init[name].data.tobytes()
            if name.startswith("head_ecr"):
                assert same, f"{name} moved in nawp_only mode"
            elif name.startswith("head_nawp"):
                assert not same, f"{name} did not move"

    def test_ecr_only_leaves_nawp_head_at_init(self, corpus_dir):
        cfg = replace(SMALL_TRAIN, mode="ecr_only")
        result = train(corpus_dir / "manifest.jsonl", cfg, SMALL_MODEL)
        init = init_params(result.model_cfg, cfg.seed)
        assert result.params["head_nawp.1.w"].data.tobytes() == init["head_nawp.1.w"].data.tobytes()
        assert result.params["head_ecr.1.w"].data.tobytes() != init["head_ecr.1.w"].data.tobytes()

    def test_resume_reproduces_uninterrupted_run(self, corpus_dir, tmp_path, monkeypatch):
        full_cfg = replace(SMALL_TRAIN, iterations=10, eval_interval=5)
        full = train(corpus_dir / "manifest.jsonl", full_cfg, SMALL_MODEL)

        half_dir = tmp_path / "half"
        # Same schedule, failing at step 7; the checkpoint of the step-5 evaluation is left.
        monkeypatch.setattr(trainer, "adam_step", _adam_failing_at(7))
        with pytest.raises(NumericError, match="adam failed"):
            train(corpus_dir / "manifest.jsonl", full_cfg, SMALL_MODEL, out_dir=half_dir)
        monkeypatch.undo()
        assert load_checkpoint(half_dir / "checkpoint.engw").step == 5
        resumed = train(
            corpus_dir / "manifest.jsonl",
            full_cfg,
            SMALL_MODEL,
            resume_from=half_dir / "checkpoint.engw",
        )
        for name in full.params:
            assert full.params[name].data.tobytes() == resumed.params[name].data.tobytes()
        assert [r.step for r in resumed.log_rows] == [10]
        assert resumed.final_srcc_nawp == full.final_srcc_nawp

    def test_desk_width_run_writes_pinned_bytes(self, corpus_dir, tmp_path):
        # Six seeded steps at the desk width (d_model 32) with two held-out
        # evaluations. The sha256 values are those the model wrote before its
        # ReLUs, residual adds and layer-norm affines were fused into their
        # ops: fusion changed no bit of the parameters, the Adam moments or the
        # predictions.
        train(corpus_dir / "manifest.jsonl", DESK_TRAIN, DESK_MODEL, out_dir=tmp_path)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("checkpoint.engw", "test_predictions.jsonl")
        }
        assert digests == {
            "checkpoint.engw": "ebfc1b8e49f49f2f074787621088c6b7151f5f4c6054d71d593aae8b7ca2e604",
            "test_predictions.jsonl": DESK_PREDICTIONS_SHA256,
        }

    def test_desk_width_run_writes_pinned_log(self, corpus_dir, tmp_path):
        # The sha256 of the log as ``json`` wrote it, one dict per line, before its lines became rows.
        train(corpus_dir / "manifest.jsonl", DESK_TRAIN, DESK_MODEL, out_dir=tmp_path)
        digest = hashlib.sha256((tmp_path / "train_log.jsonl").read_bytes()).hexdigest()
        assert digest == "b5c1b062bd2f2dc7c8d4020020612c0140f102f51f8ec95f4267810aa41523a0"

    def test_desk_width_checkpoint_re_predicts_its_predictions(self, corpus_dir, tmp_path):
        # The benchmark's round trip: each written prediction is the one-video
        # forward of the saved checkpoint times its label scale, to the bit.
        # Half the corpus is held out: with 12 test videos, one product over
        # all rows of a pass would round some of them differently.
        train(corpus_dir / "manifest.jsonl", replace(DESK_TRAIN, split_ratio=0.5), DESK_MODEL, out_dir=tmp_path)
        ckpt = load_checkpoint(tmp_path / "checkpoint.engw")
        manifest = {row.video_id: row for row in read_manifest(corpus_dir / "manifest.jsonl")}
        rows = [json.loads(line) for line in (tmp_path / "test_predictions.jsonl").read_text().splitlines()]
        assert rows
        for row in rows:
            entry = manifest[row["video_id"]]
            res = forward(load_bundle(corpus_dir / entry.feature_path), ckpt.params, ckpt.model_cfg,
                          duration_s=entry.duration_s)
            assert (res.nawp_hat * ckpt.label_scale[0]).hex() == float(row["nawp_hat"]).hex()
            assert (res.ecr_hat * ckpt.label_scale[1]).hex() == float(row["ecr_hat"]).hex()

    def test_resume_rejects_config_mismatch(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        train(corpus_dir / "manifest.jsonl", SMALL_TRAIN, SMALL_MODEL, out_dir=out)
        other = replace(SMALL_TRAIN, lr_max=9e-4)
        with pytest.raises(DataError):
            train(
                corpus_dir / "manifest.jsonl",
                other,
                SMALL_MODEL,
                resume_from=out / "checkpoint.engw",
            )

    def test_awt_target_with_scaled_labels(self, corpus_dir):
        cfg = replace(SMALL_TRAIN, target="awt", iterations=4, eval_interval=4)
        result = train(corpus_dir / "manifest.jsonl", cfg, SMALL_MODEL)
        assert result.label_scale[0] > 1.0
        # Predictions are descaled back to seconds.
        assert any(p.nawp_hat > 1.0 for p in result.predictions)

    def test_duration_as_input_flows_to_model(self, corpus_dir):
        cfg = replace(SMALL_TRAIN, iterations=2, eval_interval=2, duration_as_input=True)
        result = train(corpus_dir / "manifest.jsonl", cfg, SMALL_MODEL)
        assert result.model_cfg.duration_as_input
        assert "fusion.0.w" in result.params

    def test_duration_as_input_in_the_model_config_is_honoured(self, corpus_dir):
        cfg = replace(SMALL_TRAIN, iterations=2, eval_interval=2)
        result = train(corpus_dir / "manifest.jsonl", cfg, replace(SMALL_MODEL, duration_as_input=True))
        assert result.model_cfg.duration_as_input
        fusion_in, d = result.params["fusion.0.w"].shape
        assert (fusion_in % d, d) == (1, SMALL_MODEL.d_model)  # one column of duration

    def test_missing_labels_rejected(self, corpus_dir, tmp_path):
        manifest = corpus_dir / "manifest.jsonl"
        rows = [json.loads(l) for l in manifest.read_text().splitlines()]
        for row in rows:
            del row["awt_label"]
        stripped = tmp_path / "manifest.jsonl"
        with open(stripped, "w") as f:
            for row in rows:
                f.write(json.dumps(row) + "\n")
        (tmp_path / "features").symlink_to(corpus_dir / "features")
        cfg = replace(SMALL_TRAIN, target="awt", iterations=2)
        with pytest.raises(DataError):
            train(stripped, cfg, SMALL_MODEL)


@st.composite
def _interrupted_runs(draw):
    """(iterations T, eval_interval N in 1..T, failing step k in 1..T)."""
    iterations = draw(st.integers(2, 8))
    return iterations, draw(st.integers(1, iterations)), draw(st.integers(1, iterations))


class TestResumeAfterFailure:
    @given(run=_interrupted_runs())
    @settings(max_examples=30, deadline=None)
    def test_failed_run_resumes_to_the_uninterrupted_outputs(self, corpus_dir, run):
        iterations, interval, failing = run
        cfg = replace(SMALL_TRAIN, iterations=iterations, eval_interval=interval)
        manifest = corpus_dir / "manifest.jsonl"
        with tempfile.TemporaryDirectory() as tmp:
            full_dir, run_dir = Path(tmp) / "full", Path(tmp) / "run"
            full = train(manifest, cfg, SMALL_MODEL, out_dir=full_dir)
            with mock.patch.object(trainer, "adam_step", _adam_failing_at(failing)), \
                    pytest.raises(NumericError, match="adam failed"):
                train(manifest, cfg, SMALL_MODEL, out_dir=run_dir)
            checkpoint = run_dir / "checkpoint.engw"
            if failing <= interval:
                assert not checkpoint.exists()
                return
            # The last evaluation before the failing step left its checkpoint.
            resume_step = (failing - 1) // interval * interval
            assert load_checkpoint(checkpoint).step == resume_step
            resumed = train(manifest, cfg, SMALL_MODEL, out_dir=run_dir, resume_from=checkpoint)
            for name in ("checkpoint.engw", "test_predictions.jsonl", "train_summary.json"):
                assert (run_dir / name).read_bytes() == (full_dir / name).read_bytes(), name
            assert resumed.log_rows == [row for row in full.log_rows if row.step > resume_step]


class TestHeldOutPasses:
    """One prediction pass per evaluation, made in the training process."""

    def test_one_forward_per_test_video_per_evaluation(self, corpus_dir, monkeypatch):
        videos = []
        real_predict = trainer.predict

        def counting_predict(bundles, *args, **kwargs):
            videos.extend(bundle.video_id for bundle in bundles)
            return real_predict(bundles, *args, **kwargs)

        monkeypatch.setattr(trainer, "predict", counting_predict)
        result = train(corpus_dir / "manifest.jsonl", SMALL_TRAIN, SMALL_MODEL)
        assert [row.step for row in result.log_rows] == [6, 12]
        assert videos == result.test_ids * 2

    def test_two_evaluations_start_no_process(self, corpus_dir, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("train started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        result = train(corpus_dir / "manifest.jsonl", SMALL_TRAIN, SMALL_MODEL)
        assert [row.step for row in result.log_rows] == [6, 12]
        assert all(row.eval_srcc_nawp is not None for row in result.log_rows)

    @pytest.mark.parametrize(
        "eval_interval, failing_step",
        [(6, None), (6, 9)],
        ids=["mid_run_and_final", "step_fails_after_mid_run"],
    )
    def test_wrong_bundle_id_exits_two_as_with_one_cpu(self, corpus_dir, tmp_path, capsys, monkeypatch,
                                                       eval_interval, failing_step):
        copy = tmp_path / "corpus"
        shutil.copytree(corpus_dir, copy)
        paths = {row["video_id"]: row["feature_path"]
                 for row in map(json.loads, (copy / "manifest.jsonl").read_text().splitlines())}
        ids = sorted(paths)
        _, test_ids = split_dataset(ids, SMALL_TRAIN.split_ratio, SMALL_TRAIN.seed)
        # The step-6 pass meets test_ids[0] first; it is not opened to size the model.
        assert ids[0] not in test_ids
        (copy / paths[test_ids[0]]).write_bytes((copy / paths[ids[0]]).read_bytes())
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**replace(SMALL_TRAIN, eval_interval=eval_interval).to_dict(),
                                      "d_model": 8, "frames_per_clip": 4, "max_clips": 64}))
        if failing_step is not None:
            monkeypatch.setattr(trainer, "adam_step", _adam_failing_at(failing_step))
        out = tmp_path / "run"
        code = cli.main(["train", "--manifest", str(copy / "manifest.jsonl"), "--out-dir", str(out),
                         "--config", str(config)])
        assert not out.exists()
        assert (code, capsys.readouterr().err) == (
            cli.EXIT_DATA, f"data error: bundle {copy / paths[test_ids[0]]} carries id {ids[0]!r}\n")

    def test_resume_at_last_step_writes_the_same_predictions(self, corpus_dir, tmp_path):
        train(corpus_dir / "manifest.jsonl", SMALL_TRAIN, SMALL_MODEL, out_dir=tmp_path / "full")
        resumed = train(corpus_dir / "manifest.jsonl", SMALL_TRAIN, SMALL_MODEL, out_dir=tmp_path / "resumed",
                        resume_from=tmp_path / "full" / "checkpoint.engw")
        assert resumed.log_rows == []
        name = "test_predictions.jsonl"
        assert (tmp_path / "resumed" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


class TestBundlesReadBeforeStepZero:
    """Every bundle is read and checked before the first step runs."""

    @pytest.mark.parametrize("fault", ["truncated_held_out_bundle", "training_bundle_of_another_video",
                                       "training_bundle_of_another_dim", "held_out_bundle_past_max_clips",
                                       "training_bundle_holding_nan"])
    def test_bad_bundle_raises_before_the_first_adam_step(self, corpus_dir, tmp_path, monkeypatch, fault):
        copy = tmp_path / "corpus"
        shutil.copytree(corpus_dir, copy)
        paths = {row.video_id: copy / row.feature_path for row in read_manifest(copy / "manifest.jsonl")}
        ids = sorted(paths)
        train_ids, test_ids = split_dataset(ids, SMALL_TRAIN.split_ratio, SMALL_TRAIN.seed)
        # Held-out videos are first predicted at step eval_interval.
        held_out = test_ids[-1]
        # A video of the first epoch's last batch, not the one opened to size the model.
        last_slot = math.ceil(len(train_ids) / SMALL_TRAIN.batch_size) - 1
        late = trainer._batch_ids(train_ids, SMALL_TRAIN, last_slot)[-1]
        assert late != ids[0] and last_slot > 0
        if fault == "truncated_held_out_bundle":
            bad = paths[held_out]
            bad.write_bytes(bad.read_bytes()[:-5])
            message = "truncated file while reading data of"
        elif fault == "training_bundle_of_another_video":
            bad = paths[late]
            bad.write_bytes(paths[test_ids[0]].read_bytes())
            message = f"bundle {bad} carries id {test_ids[0]!r}"
        elif fault == "training_bundle_of_another_dim":
            bundle = load_bundle(paths[late])
            dim = bundle.clip_features["semantic"].shape[1]
            bundle.clip_features["semantic"] = bundle.clip_features["semantic"][:, :-1]
            save_bundle(paths[late], bundle)
            message = f"bundle {late!r}: semantic dim {dim - 1} != configured {dim}"
        elif fault == "training_bundle_holding_nan":
            bundle = load_bundle(paths[late])
            bundle.clip_features["action"][-1, -1] = np.nan
            save_bundle(paths[late], bundle)
            message = f"bundle {late!r}: action has non-finite values"
        else:
            bundle = load_bundle(paths[held_out])
            reps = SMALL_MODEL.max_clips // bundle.n_clips + 1
            save_bundle(paths[held_out], replace(
                bundle, n_clips=bundle.n_clips * reps,
                clip_features={kind: np.tile(arr, (reps, 1)) for kind, arr in bundle.clip_features.items()}))
            message = (f"bundle {held_out!r} has {bundle.n_clips * reps} clips, "
                       f"model supports {SMALL_MODEL.max_clips}")
        steps = []
        real_adam = trainer.adam_step

        def counting_adam(params, state, lr):
            steps.append(state.t)
            real_adam(params, state, lr)

        monkeypatch.setattr(trainer, "adam_step", counting_adam)
        with pytest.raises(DataError, match=re.escape(message)):
            train(copy / "manifest.jsonl", SMALL_TRAIN, SMALL_MODEL)
        assert steps == []


class TestBundlesValidatedWhereTheyEnter:
    """``train`` validates each bundle once, at load; a training step validates none."""

    def test_validate_runs_at_load_and_in_held_out_passes_only(self, corpus_dir, monkeypatch):
        calls = []
        where = ["outside"]
        real_validate = FeatureBundle.validate

        def spy(bundle):
            calls.append((where[0], bundle.video_id))
            real_validate(bundle)

        def inside(name, fn):
            def wrapped(*args, **kwargs):
                outer, where[0] = where[0], name
                try:
                    return fn(*args, **kwargs)
                finally:
                    where[0] = outer

            return wrapped

        monkeypatch.setattr(FeatureBundle, "validate", spy)
        monkeypatch.setattr(trainer, "load_bundle", inside("load", trainer.load_bundle))
        monkeypatch.setattr(trainer, "forward_batch", inside("step", trainer.forward_batch))
        monkeypatch.setattr(trainer, "predict", inside("predict", trainer.predict))
        result = train(corpus_dir / "manifest.jsonl", DESK_TRAIN, DESK_MODEL)
        assert [row.step for row in result.log_rows] == [3, 6]
        loaded = [vid for phase, vid in calls if phase == "load"]
        assert sorted(loaded) == sorted(result.train_ids + result.test_ids)
        assert [vid for phase, vid in calls if phase == "step"] == []
        assert [vid for phase, vid in calls if phase == "predict"] == result.test_ids * 2
        assert [vid for phase, vid in calls if phase == "outside"] == []


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = ModelConfig(d_model=8, feature_dims={k: 4 for k in ALL_KINDS}, max_clips=6)
        params = FlatParams(init_params(cfg, seed=1))
        state = AdamState(params)
        rng = np.random.default_rng(0)
        for name in state.m:
            state.m[name][:] = rng.normal(size=state.m[name].shape)
            state.v[name][:] = rng.random(state.v[name].shape)
        state.t = 17
        train_cfg = TrainConfig()
        path = tmp_path / "ck.engw"
        save_checkpoint(path, params, state, 17, train_cfg, cfg, (1.0, 1.0))
        loaded = load_checkpoint(path)
        assert loaded.step == 17
        assert loaded.state.t == 17
        assert loaded.model_cfg == cfg
        assert loaded.label_scale == (1.0, 1.0)
        for name in params:
            assert loaded.params[name].data.tobytes() == params[name].data.tobytes()
            assert loaded.state.m[name].tobytes() == state.m[name].tobytes()
            assert loaded.state.v[name].tobytes() == state.v[name].tobytes()


class TestCompareModes:
    def test_comparison_structure(self, corpus_dir, tmp_path):
        cfg = replace(SMALL_TRAIN, iterations=4, eval_interval=4)
        out = tmp_path / "cmp"
        comparison = compare_modes(corpus_dir / "manifest.jsonl", cfg, SMALL_MODEL, out_dir=out)
        assert set(comparison) == {"joint", "separate"}
        for setting in ("joint", "separate"):
            assert set(comparison[setting]) == {"srcc_nawp", "srcc_ecr"}
        assert (out / "mode_comparison.json").exists()
        assert (out / "joint" / "checkpoint.engw").exists()
        assert (out / "nawp_only" / "checkpoint.engw").exists()
        assert (out / "ecr_only" / "checkpoint.engw").exists()


def test_config_hash_pinned():
    """Digests of earlier releases: their checkpoints must still resume."""
    assert config_hash(TrainConfig(), ModelConfig()).hex() == (
        "6b871d5bb911ed6f80d0a7e9fd11c4148a16de5db33e8a06c596ea35c1321752"
    )
    small = config_hash(TrainConfig(batch_size=4, iterations=40, seed=33), ModelConfig(d_model=8, max_clips=64))
    assert small.hex() == "912772b0027b135872fcea37553bc0bf33859664f6784e6f1c43866d13473098"


def test_config_hash_pinned_for_bundle_with_extra_array():
    """An array of a kind the model does not read leaves the digest unchanged."""
    rng = np.random.default_rng(0)
    clip_features = {"optical_flow": rng.normal(size=(3, 3))}
    for kind in reversed(ALL_KINDS[:-1]):
        clip_features[kind] = rng.normal(size=(3, 5))
    bundle = FeatureBundle("v0", 3, 4.0, clip_features, rng.normal(size=(2, 7)))
    model_cfg = config_for_bundle(ModelConfig(d_model=8, max_clips=64), bundle)
    digest = config_hash(TrainConfig(batch_size=4, iterations=40, seed=33), model_cfg)
    assert digest.hex() == "4d22cdcd0a4d557537df70714237235a6139e96d070510b686f823cebba2c618"


def test_config_validation():
    with pytest.raises(DataError):
        TrainConfig(mode="bogus").validate()
    with pytest.raises(DataError):
        TrainConfig(split_ratio=1.5).validate()
    for bad in ({"seed": -1}, {"lr_max": -1e-4}, {"lr_min": -1e-7}):
        with pytest.raises(DataError, match="seed, lr_max and lr_min must be >= 0"):
            TrainConfig(**bad).validate()
    TrainConfig(lr_max=0.0, lr_min=0.0).validate()
    with pytest.raises(DataError):
        TrainConfig.from_dict({"nonsense": 1})
    with pytest.raises(DataError):
        TrainConfig.from_dict({"batch_size": "8"})
    TrainConfig().validate()
