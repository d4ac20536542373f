"""CLI subcommands, exit codes, and pipeline determinism."""

import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engpred import cli, trainer
from engpred.aggregate import ParseFailure, parse_events
from engpred.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from engpred.envelope import MAX_BINS
from engpred.model import MAX_PARAMS
from engpred.records import WatchEvent, line_ranges, read_metas
from engpred.serialize import load_bundle, load_weights, save_weights


SYNTH_ARGS = ["--n-videos", "40", "--views", "60", "--seed", "21"]

# `python -m engpred` in a child process runs the package these tests import.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    assert run_cli("synth", "--out", str(out), *SYNTH_ARGS) == EXIT_OK
    return out


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert run_cli() == EXIT_USAGE

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == EXIT_USAGE

    def test_unknown_flag_rejected(self, corpus, tmp_path):
        code = run_cli(
            "aggregate",
            "--events", str(corpus / "events.jsonl"),
            "--metas", str(corpus / "metas.jsonl"),
            "--out", str(tmp_path / "r.jsonl"),
            "--bogus-flag", "1",
        )
        assert code == EXIT_USAGE

    def test_missing_required_flag(self):
        assert run_cli("aggregate", "--events", "x.jsonl") == EXIT_USAGE

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0
        assert run_cli("synth", "--help") == 0


class TestDataErrors:
    def test_missing_events_file(self, corpus, tmp_path):
        code = run_cli(
            "aggregate",
            "--events", str(tmp_path / "missing.jsonl"),
            "--metas", str(corpus / "metas.jsonl"),
            "--out", str(tmp_path / "r.jsonl"),
        )
        assert code == EXIT_DATA

    def test_bad_config_json(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{broken")
        assert run_cli("synth", "--out", str(tmp_path / "o"), "--config", str(bad)) == EXIT_DATA

    def test_unknown_config_key(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"no_such_knob": 3}')
        assert run_cli("synth", "--out", str(tmp_path / "o"), "--config", str(bad)) == EXIT_DATA

    @pytest.mark.parametrize(
        "command, config",
        [
            ("synth", '{"n_videos": "8"}'),
            ("train", '{"batch_size": "8"}'),
            ("train", '{"d_model": "8"}'),
            ("train", '{"no_such_knob": 3}'),
            ("train", '{"feature_dims": {"optical_flow": 3}}'),
        ],
    )
    def test_bad_config_values(self, corpus, tmp_path, command, config):
        bad = tmp_path / "cfg.json"
        bad.write_text(config)
        out = ["--out", str(tmp_path / "o")] if command == "synth" else [
            "--manifest", str(corpus / "manifest.jsonl"), "--out-dir", str(tmp_path / "o")]
        assert run_cli(command, *out, "--config", str(bad)) == EXIT_DATA

    @pytest.mark.parametrize(
        "command, config, where",
        [
            ("synth", '{"coupling": NaN}', "SynthConfig.coupling"),
            ("synth", '{"frame_rate": Infinity}', "SynthConfig.frame_rate"),
            ("train", '{"ecr_window_s": NaN}', "ModelConfig.ecr_window_s"),
            ("train", '{"lr_max": -Infinity}', "TrainConfig.lr_max"),
        ],
    )
    def test_non_finite_config_value_names_the_field(self, corpus, tmp_path, capsys, command, config, where):
        bad = tmp_path / "cfg.json"
        bad.write_text(config)
        out = ["--out", str(tmp_path / "o")] if command == "synth" else [
            "--manifest", str(corpus / "manifest.jsonl"), "--out-dir", str(tmp_path / "o")]
        assert run_cli(command, *out, "--config", str(bad)) == EXIT_DATA
        assert f"{where} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag",
        [["--frame-rate", "0"], ["--ecr-threshold", "-1"],
         # Past the model's 225 clips per 60 s video: validation refuses these before any allocation.
         ["--frame-rate", "1e308"], ["--frame-rate", "1e9"], ["--frame-rate", repr(math.nextafter(60.0, math.inf))]],
    )
    def test_bad_synth_value_writes_nothing(self, tmp_path, flag):
        out = tmp_path / "corpus"
        assert run_cli("synth", "--out", str(out), *SYNTH_ARGS, *flag) == EXIT_DATA
        assert not out.exists()

    def test_synth_zero_frames_per_clip_writes_nothing(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"frames_per_clip": 0}')
        out = tmp_path / "corpus"
        assert run_cli("synth", "--out", str(out), *SYNTH_ARGS, "--config", str(config)) == EXIT_DATA
        assert "frames_per_clip must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_train_config_key_names_the_train_config(self, corpus, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"lr": 0.1}')
        out = ["--manifest", str(corpus / "manifest.jsonl"), "--out-dir", str(tmp_path / "o")]
        assert run_cli("train", *out, "--config", str(bad)) == EXIT_DATA
        assert "unknown train config keys ['lr']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row",
        [
            '{"video_id": "v00000", "ecr_hat": 0.5}',
            '["v00000", 0.5, 0.5]',
            '{"video_id": 7, "nawp_hat": 0.5, "ecr_hat": 0.5}',
            '{"video_id": "v00000", "nawp_hat": "0.5", "ecr_hat": 0.5}',
            '{"video_id": "v00000", "nawp_hat": NaN, "ecr_hat": 0.5}',
            '{"video_id": "v00000", "nawp_hat": 0.5, "ecr_hat": -Infinity}',
        ],
    )
    def test_malformed_prediction_row(self, corpus, tmp_path, row):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(row + "\n")
        code = run_cli(
            "eval",
            "--predictions", str(preds),
            "--manifest", str(corpus / "manifest.jsonl"),
            "--out", str(tmp_path / "report.json"),
        )
        assert code == EXIT_DATA
        assert not (tmp_path / "report.json").exists()


    def test_repeated_prediction_id_names_its_line(self, corpus, tmp_path, capsys):
        rows = [json.loads(l) for l in (corpus / "manifest.jsonl").read_text().splitlines()][:3]
        lines = [json.dumps({"video_id": row["video_id"], "nawp_hat": 0.5, "ecr_hat": 0.5}) for row in rows]
        preds = tmp_path / "preds.jsonl"
        preds.write_text("\n".join([*lines, lines[1]]) + "\n")
        out = tmp_path / "report.json"
        code = run_cli("eval", "--predictions", str(preds), "--manifest", str(corpus / "manifest.jsonl"),
                       "--out", str(out))
        assert code == EXIT_DATA
        assert f"predictions line 4: duplicate video_id {rows[1]['video_id']!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "reader, key, value, message",
        [
            ("records", "views", "2.9", "views must be int, got 2.9"),
            ("records", "awt_s", "true", "awt_s must be float, got True"),
            ("records", "awp", '"0.5"', "awp must be float, got '0.5'"),
            ("records", "video_id", "7", "video_id must be str, got 7"),
            ("records", "source", '"x"', "unknown keys ['source']"),
            ("metas", "frame_rate", "true", "frame_rate must be float, got True"),
        ],
        ids=["views_2.9", "awt_s_true", "awp_string", "video_id_int", "records_extra_key", "frame_rate_true"],
    )
    def test_row_value_of_another_json_type_exits_two(self, corpus, tmp_path, capsys, reader, key, value, message):
        good = {"records": {"video_id": "v1", "duration_s": 20.0, "views": 10, "awt_s": 5.0, "awp": 0.25,
                            "ecr": 0.5, "like_rate": None, "nawp": 0.5},
                "metas": {"video_id": "v1", "duration_s": 20.0, "frame_rate": 30.0}}[reader]
        path = tmp_path / f"{reader}.jsonl"
        path.write_text(json.dumps(good) + "\n"
                        + json.dumps({**good, "video_id": "v2", key: "@"}).replace('"@"', value) + "\n")
        out = tmp_path / "out.json"
        argv = {
            "records": ["report", "--records", str(path), "--out", str(out)],
            "metas": ["aggregate", "--events", str(corpus / "events.jsonl"), "--metas", str(path),
                      "--out", str(out)],
        }[reader]
        assert run_cli(*argv) == EXIT_DATA
        assert f"data error: {reader} line 2: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_hostile_event_lines_are_counted(self, corpus, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_bytes(
            (corpus / "events.jsonl").read_bytes()
            + b'{"video_id":"v00000","watch_time_s":' + b"9" * 400 + b"}\n"
            + b'{"video_id":"v00000","watch_time_s":' + b"9" * 5000 + b"}\n"
            + b"\xff\xfe\n"
        )
        code = run_cli(
            "aggregate",
            "--events", str(events),
            "--metas", str(corpus / "metas.jsonl"),
            "--out", str(tmp_path / "r.jsonl"),
            "--min-views", "1",
        )
        assert code == EXIT_OK
        assert "(3 malformed lines skipped)" in capsys.readouterr().out

    def test_watch_time_sum_past_float_range(self, tmp_path, capsys):
        metas = tmp_path / "metas.jsonl"
        metas.write_text('{"video_id":"v1","duration_s":20.0,"frame_rate":30.0}\n')
        events = tmp_path / "events.jsonl"
        events.write_text('{"video_id":"v1","watch_time_s":1e308}\n' * 2)
        out = tmp_path / "r.jsonl"
        code = run_cli("aggregate", "--events", str(events), "--metas", str(metas),
                       "--out", str(out), "--min-views", "1")
        assert code == EXIT_DATA
        assert "data error: video 'v1': watch-time sum exceeds the float range" in capsys.readouterr().err
        assert not out.exists()

    def test_awp_past_float_range(self, tmp_path, capsys):
        metas = tmp_path / "metas.jsonl"
        metas.write_text('{"video_id":"v1","duration_s":0.001,"frame_rate":30.0}\n')
        events = tmp_path / "events.jsonl"
        events.write_text('{"video_id":"v1","watch_time_s":1e306}\n')
        out = tmp_path / "r.jsonl"
        code = run_cli("aggregate", "--events", str(events), "--metas", str(metas),
                       "--out", str(out), "--duration-min", "0", "--min-views", "1")
        assert code == EXIT_DATA
        assert "data error: video 'v1': average watch percentage exceeds the float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["duration_s", "frame_rate"])
    def test_meta_value_past_float_range_names_the_line(self, corpus, tmp_path, capsys, key):
        values = {"duration_s": "20.0", "frame_rate": "30.0", key: "1" + "0" * 400}
        metas = tmp_path / "metas.jsonl"
        metas.write_text('{"video_id":"v1","duration_s":20.0,"frame_rate":30.0}\n'
                         '{"video_id":"v2","duration_s":%(duration_s)s,"frame_rate":%(frame_rate)s}\n' % values)
        code = run_cli("aggregate", "--events", str(corpus / "events.jsonl"), "--metas", str(metas),
                       "--out", str(tmp_path / "r.jsonl"))
        assert code == EXIT_DATA
        assert f"metas line 2: {key} must be float" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("command", ["fit-norm", "report"])
    @pytest.mark.parametrize(
        "key, value",
        [("views", "1e400"), ("duration_s", "1" + "0" * 400)],
        ids=["views_1e400", "duration_s_400_digits"],
    )
    def test_record_value_past_float_range_names_the_line(self, tmp_path, capsys, command, key, value):
        row = {"video_id": "v1", "duration_s": 20.0, "views": 10, "awt_s": 5.0, "awp": 0.25,
               "ecr": 0.5, "like_rate": None, "nawp": 0.5}
        bad = json.dumps({**row, "video_id": "v2", key: "@"}).replace('"@"', value)
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(row) + "\n" + bad + "\n")
        out = tmp_path / "out.json"
        argv = {
            "fit-norm": ["fit-norm", "--records", str(records), "--out-envelope", str(out)],
            "report": ["report", "--records", str(records), "--out", str(out)],
        }[command]
        assert run_cli(*argv) == EXIT_DATA
        expected = {"views": "int", "duration_s": "float"}[key]
        assert f"records line 2: {key} must be {expected}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit-norm", "report"])
    @pytest.mark.parametrize("key", ["duration_s", "awt_s", "awp", "ecr", "like_rate", "nawp"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_record_value_names_the_line(self, tmp_path, capsys, command, key, value):
        rows = [{"video_id": f"v{i}", "duration_s": 20.0 + i % 40, "views": 10, "awt_s": 5.0 + i % 7,
                 "awp": 0.25, "ecr": 0.5, "like_rate": 0.1, "nawp": 0.5} for i in range(40)]
        lines = [json.dumps(row) for row in rows]
        lines[7] = json.dumps({**rows[7], key: "@"}).replace('"@"', value)
        records = tmp_path / "records.jsonl"
        records.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.json"
        argv = {
            "fit-norm": ["fit-norm", "--records", str(records), "--out-envelope", str(out)],
            "report": ["report", "--records", str(records), "--out", str(out)],
        }[command]
        assert run_cli(*argv) == EXIT_DATA
        assert f"records line 8: {key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["metas", "records", "manifest", "predictions"])
    def test_undecodable_line_names_the_line(self, corpus, tmp_path, capsys, reader):
        records = tmp_path / "records.jsonl"
        assert run_cli(
            "aggregate",
            "--events", str(corpus / "events.jsonl"),
            "--metas", str(corpus / "metas.jsonl"),
            "--out", str(records),
            "--min-views", "1",
        ) == EXIT_OK
        manifest = corpus / "manifest.jsonl"
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"video_id": "v00000", "nawp_hat": 0.5, "ecr_hat": 0.5}\n')
        source = {"metas": corpus / "metas.jsonl", "records": records,
                  "manifest": manifest, "predictions": preds}[reader]
        bad = tmp_path / f"bad_{reader}.jsonl"
        bad.write_bytes(source.read_bytes().splitlines(keepends=True)[0] + b"\xff\xfe\n")
        argv = {
            "metas": ["aggregate", "--events", str(corpus / "events.jsonl"), "--metas", str(bad),
                      "--out", str(tmp_path / "r2.jsonl")],
            "records": ["report", "--records", str(bad), "--out", str(tmp_path / "rep.json")],
            "manifest": ["eval", "--predictions", str(preds), "--manifest", str(bad),
                         "--out", str(tmp_path / "ev.json")],
            "predictions": ["eval", "--predictions", str(bad), "--manifest", str(manifest),
                            "--out", str(tmp_path / "ev.json")],
        }[reader]
        capsys.readouterr()
        assert run_cli(*argv) == EXIT_DATA
        assert f"{reader} line 2: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["null", '"0.5"', "[0.5]", "true", "NaN", "Infinity"])
    def test_non_numeric_manifest_label(self, corpus, tmp_path, capsys, label):
        rows = [json.loads(l) for l in (corpus / "manifest.jsonl").read_text().splitlines()]
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(
            json.dumps(row).replace(f'"nawp_label": {json.dumps(row["nawp_label"])}', f'"nawp_label": {label}')
            + "\n" for row in rows))
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(
            json.dumps({"video_id": row["video_id"], "nawp_hat": 0.5, "ecr_hat": 0.5}) + "\n" for row in rows))
        code = run_cli("eval", "--predictions", str(preds), "--manifest", str(manifest),
                       "--out", str(tmp_path / "report.json"))
        assert code == EXIT_DATA
        assert "nawp_label" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("nawp_label", "abc"), ("duration_s", None), ("feature_path", 5)],
    )
    def test_bad_manifest_value_stops_train(self, corpus, tmp_path, capsys, key, value):
        rows = [json.loads(l) for l in (corpus / "manifest.jsonl").read_text().splitlines()]
        rows[1][key] = value
        manifest = corpus / f"bad_{key}_manifest.jsonl"
        manifest.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code = run_cli("train", "--manifest", str(manifest), "--out-dir", str(tmp_path / "run"),
                       "--iterations", "1", "--d-model", "8")
        assert code == EXIT_DATA
        assert f"manifest line 2: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["events", "metas", "records", "manifest"])
    def test_deeply_nested_line(self, corpus, tmp_path, capsys, reader):
        nested = b'{"a":' * 3000 + b"1" + b"}" * 3000 + b"\n"
        events, metas, records = corpus / "events.jsonl", corpus / "metas.jsonl", tmp_path / "records.jsonl"
        assert run_cli("aggregate", "--events", str(events), "--metas", str(metas), "--out", str(records),
                       "--min-views", "1") == EXIT_OK
        source = {"events": events, "metas": metas, "records": records, "manifest": corpus / "manifest.jsonl"}[reader]
        bad = tmp_path / f"bad_{reader}.jsonl"
        bad.write_bytes(source.read_bytes().splitlines(keepends=True)[0] + nested)
        argv = {
            "events": ["aggregate", "--events", str(bad), "--metas", str(metas), "--out", str(tmp_path / "r2.jsonl"),
                       "--min-views", "1"],
            "metas": ["aggregate", "--events", str(events), "--metas", str(bad), "--out", str(tmp_path / "r2.jsonl")],
            "records": ["fit-norm", "--records", str(bad), "--out-envelope", str(tmp_path / "env.json")],
            "manifest": ["train", "--manifest", str(bad), "--out-dir", str(tmp_path / "run"), "--iterations", "1"],
        }[reader]
        capsys.readouterr()
        if reader == "events":
            assert run_cli(*argv) == EXIT_OK
            assert "(1 malformed lines skipped)" in capsys.readouterr().out
        else:
            assert run_cli(*argv) == EXIT_DATA
            assert f"{reader} line 2: invalid JSON: nested too deeply" in capsys.readouterr().err

    def test_output_in_missing_directory_names_the_target(self, corpus, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "records.jsonl"
        code = run_cli(
            "aggregate",
            "--events", str(corpus / "events.jsonl"),
            "--metas", str(corpus / "metas.jsonl"),
            "--out", str(target),
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"cannot write {target}" in err
        assert ".tmp" not in err

    def test_synth_out_that_is_a_file_exits_two(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        out.write_text("kept")
        assert run_cli("synth", "--out", str(out), *SYNTH_ARGS) == EXIT_DATA
        assert f"data error: cannot make directory {out}: " in capsys.readouterr().err
        assert out.read_text() == "kept"

    def test_train_out_dir_that_is_a_file_exits_two_before_step_zero(self, corpus, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("kept")
        with mock.patch.object(trainer, "adam_step", side_effect=AssertionError("a step ran")):
            code = run_cli("train", "--manifest", str(corpus / "manifest.jsonl"), "--out-dir", str(out), *TRAIN_ARGS)
        assert code == EXIT_DATA
        assert f"data error: cannot make directory {out}: " in capsys.readouterr().err
        assert out.read_text() == "kept"

    def test_held_out_split_of_one_video_exits_two_before_reading_bundles(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert run_cli("synth", "--out", str(corpus), "--n-videos", "10", "--views", "20", "--seed", "21") == EXIT_OK
        run = tmp_path / "run"
        with mock.patch.object(trainer, "load_bundle", side_effect=AssertionError("a bundle was read")):
            code = run_cli("train", "--manifest", str(corpus / "manifest.jsonl"), "--out-dir", str(run),
                           "--iterations", "2", "--d-model", "4", "--eval-interval", "1")
        assert code == EXIT_DATA
        assert ("data error: the held-out split has 1 video of 10 at split_ratio 0.9; evaluation needs at least 2"
                in capsys.readouterr().err)
        assert not (run / "checkpoint.engw").exists()


TRAIN_ARGS = ["--iterations", "2", "--batch-size", "4", "--d-model", "8", "--max-clips", "64", "--seed", "21"]


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    """The checkpoint of a run with TRAIN_ARGS."""
    run = tmp_path_factory.mktemp("trained")
    assert run_cli("train", "--manifest", str(corpus / "manifest.jsonl"), "--out-dir", str(run),
                   *TRAIN_ARGS) == EXIT_OK
    return run / "checkpoint.engw"


class TestResumeValidation:
    def _resume(self, corpus, run_dir, checkpoint):
        return run_cli("train", "--manifest", str(corpus / "manifest.jsonl"), "--out-dir", str(run_dir),
                       *TRAIN_ARGS, "--resume", str(checkpoint))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: a.pop("param/fusion.0.w"), "is missing 'param/fusion.0.w'"),
            (lambda a: a.pop("adam.m/temporal.1.attn.q.b"), "is missing 'adam.m/temporal.1.attn.q.b'"),
            (lambda a: a.update({"adam.v/head_ecr.0.w": a["adam.v/head_ecr.0.w"][:, :-1]}),
             "'adam.v/head_ecr.0.w' has shape (8, 7), expected (8, 8)"),
            (lambda a: a.update({"param/proj.semantic.1.w": a["param/proj.semantic.1.w"][:-1]}),
             "'param/proj.semantic.1.w' has shape (7, 8), expected (8, 8)"),
            (lambda a: a.update({"adam.v/fusion.0.b": a["adam.v/fusion.0.b"] * np.nan}),
             "'adam.v/fusion.0.b' is not finite"),
            (lambda a: a.update({"param/extra.w": np.zeros(2)}), "arrays the model does not have: ['param/extra.w']"),
        ],
        ids=["missing_param", "missing_adam_m", "adam_v_shape", "param_shape", "adam_v_nan", "extra_array"],
    )
    def test_bad_checkpoint_exits_two(self, corpus, tmp_path, capsys, trained, edit, message):
        arrays = load_weights(trained)
        edit(arrays)
        bad = tmp_path / "bad.engw"
        save_weights(bad, arrays)
        assert self._resume(corpus, tmp_path / "run", bad) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.engw").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("meta/model_json", lambda a: np.append(a, 300.0), "'meta/model_json' must hold byte values 0-255"),
            ("meta/config_sha256", lambda a: np.append(a[:-1], -1.0),
             "'meta/config_sha256' must hold byte values 0-255"),
            ("meta/adam_t", lambda a: np.array([np.nan]), "'meta/adam_t' must hold one non-negative integer"),
            ("meta/adam_t", lambda a: a + 0.5, "'meta/adam_t' must hold one non-negative integer"),
            ("meta/step", lambda a: np.zeros(0), "'meta/step' must hold one non-negative integer"),
            ("meta/label_scale", lambda a: a[:1], "'meta/label_scale' must hold two finite positive values"),
            # A model of 2**40 width is refused by its parameter count, before any of it is allocated.
            ("meta/model_json",
             lambda a: np.array(list(json.dumps({**json.loads(bytes(a.astype(np.uint8))), "d_model": 2**40}).encode()),
                                dtype=np.float64),
             f"parameters, more than {MAX_PARAMS}"),
        ],
        ids=["model_json_300", "config_sha256_negative", "adam_t_nan", "adam_t_fraction", "step_empty",
             "label_scale_one_value", "model_json_d_model_2_40"],
    )
    def test_bad_checkpoint_meta_exits_two(self, corpus, tmp_path, capsys, trained, key, value, message):
        arrays = load_weights(trained)
        arrays[key] = value(arrays[key])
        bad = tmp_path / "bad.engw"
        save_weights(bad, arrays)
        assert self._resume(corpus, tmp_path / "run", bad) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.engw").exists()

    def test_rank_past_the_limit_exits_two(self, corpus, tmp_path, capsys, trained):
        # Rank 65 with 65 zero dims: no data bytes, and more dims than numpy can reshape to.
        bad = tmp_path / "bad.engw"
        bad.write_bytes(trained.read_bytes() + struct.pack("<I", 4) + b"deep" + struct.pack("<66I", 65, *[0] * 65))
        assert self._resume(corpus, tmp_path / "run", bad) == EXIT_DATA
        assert "array 'deep' declares rank 65, above 32" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.engw").exists()

    def test_missing_checkpoint_exits_two(self, corpus, tmp_path, capsys):
        missing = tmp_path / "nope.engw"
        assert self._resume(corpus, tmp_path / "run", missing) == EXIT_DATA
        assert f"cannot open weights file {missing}" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.engw").exists()

    def test_missing_bundle_exits_two(self, corpus, tmp_path, capsys):
        # The manifest's feature paths are relative to it, so a copy elsewhere finds no bundles.
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_bytes((corpus / "manifest.jsonl").read_bytes())
        code = run_cli("train", "--manifest", str(manifest), "--out-dir", str(tmp_path / "run"), *TRAIN_ARGS)
        assert code == EXIT_DATA
        assert f"cannot open feature bundle {tmp_path / 'features'}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unedited_checkpoint_resumes_to_the_same_bytes(self, corpus, tmp_path, trained):
        assert self._resume(corpus, tmp_path / "run", trained) == EXIT_OK
        assert (tmp_path / "run" / "checkpoint.engw").read_bytes() == trained.read_bytes()

    @pytest.mark.parametrize("checkpoint", ["trained", "missing"])
    def test_compare_modes_refuses_resume(self, corpus, tmp_path, capsys, trained, checkpoint):
        path = trained if checkpoint == "trained" else tmp_path / "nope.engw"
        code = run_cli("train", "--manifest", str(corpus / "manifest.jsonl"), "--out-dir", str(tmp_path / "run"),
                       *TRAIN_ARGS, "--compare-modes", "--resume", str(path))
        assert code == EXIT_USAGE
        assert "argument --resume: not allowed with argument --compare-modes" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestNumericErrors:
    def test_degenerate_fit_exits_three(self, tmp_path):
        records = tmp_path / "records.jsonl"
        rows = [
            {"video_id": f"v{i}", "duration_s": 30.5, "views": 10,
             "awt_s": 5.0 + i, "awp": 0.17, "ecr": 0.5, "like_rate": None, "nawp": None}
            for i in range(40)
        ]
        records.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        code = run_cli(
            "fit-norm",
            "--records", str(records),
            "--out-envelope", str(tmp_path / "env.json"),
            "--min-bin-count", "5",
        )
        assert code == EXIT_NUMERIC


# Each config flag: its argv, its field, a --config value for the field, and
# the value the flag gives it.
SYNTH_FLAGS = [
    (["--seed", "0"], "seed", 5, 0),
    (["--n-videos", "5"], "n_videos", 4, 5),
    (["--views", "7"], "views_per_video", 6, 7),
    (["--frame-rate", "12"], "frame_rate", 24.0, 12.0),
    (["--coupling", "0.25"], "coupling", 0.5, 0.25),
    (["--feature-noise", "0.125"], "feature_noise", 0.0625, 0.125),
    (["--ecr-threshold", "4"], "ecr_threshold_s", 3.0, 4.0),
]
TRAIN_FLAGS = [
    (["--seed", "0"], "seed", 5, 0),
    (["--mode", "ecr_only"], "mode", "nawp_only", "ecr_only"),
    (["--target", "awp"], "target", "awt", "awp"),
    (["--duration-as-input"], "duration_as_input", False, True),
    (["--iterations", "9"], "iterations", 8, 9),
    (["--batch-size", "3"], "batch_size", 2, 3),
    (["--lr-max", "0.01"], "lr_max", 0.02, 0.01),
    (["--lr-min", "0.001"], "lr_min", 0.002, 0.001),
    (["--split-ratio", "0.75"], "split_ratio", 0.5, 0.75),
    (["--eval-interval", "4"], "eval_interval", 2, 4),
    (["--d-model", "12"], "d_model", 8, 12),
    (["--max-clips", "6"], "max_clips", 5, 6),
    (["--features", "semantic, text"], "features", ["action"], ("semantic", "text")),
    (["--ecr-causal-mask"], "ecr_causal_mask", False, True),
]


def _flag_id(flag):
    return flag[0][0] if flag else "no-flag"


class TestConfigFlags:
    """A given flag beats ``--config``, which beats the field's default."""

    @pytest.mark.parametrize("flag", [None, *SYNTH_FLAGS], ids=_flag_id)
    def test_synth_flag_over_config(self, tmp_path, flag):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({field: value for _, field, value, _ in SYNTH_FLAGS}))
        out = tmp_path / "corpus"
        argv = flag[0] if flag else []
        assert run_cli("synth", "--out", str(out), "--config", str(config), *argv) == EXIT_OK
        cfg = json.loads((out / "synth_summary.json").read_text())["config"]
        for other in SYNTH_FLAGS:
            _, field, from_config, from_flag = other
            assert cfg[field] == (from_flag if other == flag else from_config), field

    @pytest.mark.parametrize("flag", [None, *TRAIN_FLAGS], ids=_flag_id)
    def test_train_flag_over_config(self, tmp_path, flag):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({field: value for _, field, value, _ in TRAIN_FLAGS}))
        argv = ["train", "--manifest", "m.jsonl", "--out-dir", "run", "--config", str(config)]
        args = cli.build_parser().parse_args(argv + (flag[0] if flag else []))
        train_cfg, model_cfg = cli._train_configs(args)
        for other in TRAIN_FLAGS:
            _, field, from_config, from_flag = other
            expected = from_flag if other == flag else from_config
            if isinstance(expected, list):
                expected = tuple(expected)
            cfg = train_cfg if field in train_cfg.__dataclass_fields__ else model_cfg
            assert getattr(cfg, field) == expected, field

    def test_absent_store_true_flag_keeps_config_true(self, tmp_path):
        config = tmp_path / "train.json"
        config.write_text('{"duration_as_input": true, "ecr_causal_mask": true}')
        args = cli.build_parser().parse_args(
            ["train", "--manifest", "m.jsonl", "--out-dir", "run", "--config", str(config)])
        train_cfg, model_cfg = cli._train_configs(args)
        assert train_cfg.duration_as_input and model_cfg.ecr_causal_mask


def _float_flags():
    """``(subcommand, option)`` for every float-valued flag that ``build_parser`` defines."""
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (command, action.option_strings[0])
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.type in (float, cli.number)
    ]


FLOAT_FLAGS = _float_flags()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _valid_stage_args(command, corpus, tmp_path):
    """Valid inputs for ``command``, so that a float flag's value reaches the stage."""
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("".join(
        json.dumps({"video_id": row["video_id"], "nawp_hat": row["nawp_label"], "ecr_hat": row["ecr_label"]})
        + "\n" for row in map(json.loads, (corpus / "manifest.jsonl").read_text().splitlines())
    ))
    valid = {
        "synth": ["--out", tmp_path / "synth", "--n-videos", "3", "--views", "2"],
        "aggregate": ["--events", corpus / "events.jsonl", "--metas", corpus / "metas.jsonl",
                      "--out", tmp_path / "records.jsonl"],
        "fit-norm": ["--records", corpus / "truth_records.jsonl", "--out-envelope", tmp_path / "env.json"],
        "train": ["--manifest", corpus / "manifest.jsonl", "--out-dir", tmp_path / "run",
                  "--iterations", "1", "--d-model", "4"],
        "eval": ["--predictions", predictions, "--manifest", corpus / "manifest.jsonl",
                 "--out", tmp_path / "eval.json"],
        "report": ["--records", corpus / "truth_records.jsonl", "--out", tmp_path / "report.json"],
    }
    assert command in valid, f"give {command} valid inputs in this test"
    return list(map(str, valid[command]))


class TestFloatFlags:
    """Every float flag of every subcommand refuses NaN, and takes extreme values, without a traceback."""

    def test_walk_finds_the_float_flags(self):
        assert {("aggregate", "--ecr-threshold"), ("fit-norm", "--bin-width"),
                ("eval", "--topk-percent"), ("train", "--lr-max")} <= set(FLOAT_FLAGS)

    @pytest.mark.parametrize("command, option", FLOAT_FLAGS, ids=[" ".join(f) for f in FLOAT_FLAGS])
    def test_nan_is_refused(self, corpus, tmp_path, capsys, command, option):
        code = run_cli(command, *_valid_stage_args(command, corpus, tmp_path), option, "nan")
        assert code in (EXIT_USAGE, EXIT_DATA)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "-inf", "1e308", "5e-324"])
    @pytest.mark.parametrize("command, option", FLOAT_FLAGS, ids=[" ".join(f) for f in FLOAT_FLAGS])
    def test_extreme_value_exits_with_a_code_and_strict_json(self, corpus, tmp_path, capsys, command, option,
                                                             value):
        # "--flag=-inf", as "-inf" alone would read as an option.
        code = run_cli(command, *_valid_stage_args(command, corpus, tmp_path), f"{option}={value}")
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)
        assert "Traceback" not in capsys.readouterr().err
        for path in tmp_path.rglob("*"):
            if path.suffix in (".json", ".jsonl"):
                text = path.read_text()
                for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
                    json.loads(doc, parse_constant=_refuse_constant)
            elif path.suffix == ".engf":
                load_bundle(path)


def _numeric_flags():
    """``(subcommand, option, value)``: ``0`` and ``-1`` for every numeric flag, ``1e308`` and
    ``-1e308`` too for a float one, and ``2**40`` for an integer one save ``--iterations``,
    where a long run is legitimate."""
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]

    def extremes(action):
        if action.type is cli.number:
            return ["1e308", "-1e308"]
        return [] if action.option_strings[0] == "--iterations" else [str(2**40)]

    return [
        (command, action.option_strings[0], value)
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.type in (int, cli.number)
        for value in ["0", "-1", *extremes(action)]
    ]


NUMERIC_FLAGS = _numeric_flags()


class TestNumericFlagSweep:
    """Every numeric flag at 0, -1 and the ends of the float range, and every integer flag
    at 2**40, exits with a code, and no traceback or warning (Tier-1 makes a warning an
    error). A size past its bound is refused before anything of that size is allocated."""

    def test_sweep_covers_every_stage(self):
        assert {command for command, _, _ in NUMERIC_FLAGS} == {
            "synth", "aggregate", "fit-norm", "train", "eval", "report"}

    def test_sweep_takes_each_model_and_corpus_size_past_its_bound(self):
        assert {("synth", "--n-videos"), ("synth", "--views"), ("train", "--d-model"),
                ("train", "--max-clips")} <= {(c, o) for c, o, v in NUMERIC_FLAGS if v == str(2**40)}
        assert ("train", "--iterations", str(2**40)) not in NUMERIC_FLAGS

    @pytest.mark.parametrize("value", [0, -1, 10**12])
    @pytest.mark.parametrize("size", ["n_videos", "views_per_video", "feature_dim", "text_dim",
                                      "text_tokens_per_video"])
    def test_synth_config_size_out_of_range_is_a_data_error(self, tmp_path, capsys, size, value):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"n_videos": 3, "views_per_video": 2, size: value}))
        assert run_cli("synth", "--out", str(tmp_path / "synth"), "--config", str(config)) == EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "synth").exists()

    @pytest.mark.parametrize("option", ["--d-model", "--max-clips"])
    def test_a_model_past_max_params_is_refused_before_allocating(self, corpus, tmp_path, capsys, option):
        with mock.patch.object(trainer, "init_params", side_effect=AssertionError("parameters were made")):
            code = run_cli("train", *_valid_stage_args("train", corpus, tmp_path), f"{option}={2**40}")
        assert code == EXIT_DATA
        assert f"parameters, more than {MAX_PARAMS}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, option, value", NUMERIC_FLAGS, ids=[" ".join(f) for f in NUMERIC_FLAGS])
    def test_value_exits_with_a_code(self, corpus, tmp_path, capsys, command, option, value):
        code = run_cli(command, *_valid_stage_args(command, corpus, tmp_path), f"{option}={value}")
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_negative_seed_is_a_data_error(self, corpus, tmp_path, capsys, command):
        assert run_cli(command, *_valid_stage_args(command, corpus, tmp_path), "--seed=-1") == EXIT_DATA
        assert {"synth": "seed must be >= 0", "train": "seed, lr_max and lr_min must be >= 0"}[command] in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("option", ["--lr-max", "--lr-min"])
    def test_negative_learning_rate_is_a_data_error(self, corpus, tmp_path, capsys, option):
        code = run_cli("train", *_valid_stage_args("train", corpus, tmp_path), f"{option}=-1")
        assert code == EXIT_DATA
        assert "seed, lr_max and lr_min must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_overflowing_adam_update_is_a_numeric_failure(self, corpus, tmp_path, capsys):
        code = run_cli("train", *_valid_stage_args("train", corpus, tmp_path), "--iterations=2",
                       "--lr-max=1e308", "--lr-min=1e308")
        assert code == EXIT_NUMERIC
        assert "non-finite update" in capsys.readouterr().err

    def test_empty_duration_window_is_refused_before_the_log_is_read(self, corpus, tmp_path, capsys):
        with mock.patch.object(cli, "open_input", side_effect=AssertionError("the log was opened")):
            code = run_cli("aggregate", *_valid_stage_args("aggregate", corpus, tmp_path),
                           "--duration-min", "50", "--duration-max", "10")
        assert code == EXIT_DATA
        assert "duration range is empty" in capsys.readouterr().err
        assert not (tmp_path / "records.jsonl").exists()


class TestFeatureSets:
    def test_features_without_a_fusion_input_are_a_data_error(self, corpus, tmp_path, capsys):
        code = run_cli("train", *_valid_stage_args("train", corpus, tmp_path), "--features", "text")
        assert code == EXIT_DATA
        assert "features ('text',) give the fusion MLP no input" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_text_with_duration_as_input_trains(self, corpus, tmp_path):
        assert run_cli("train", *_valid_stage_args("train", corpus, tmp_path), "--features", "text",
                       "--duration-as-input") == EXIT_OK


# sha256 of the files ``engpred synth --seed 3 --n-videos 30 --views 40`` wrote
# with the per-event ``json.dumps`` writer and the per-scalar event builder
# that the direct line formatter and the whole-array builder replaced.
SYNTH_SHA256 = {
    "events.jsonl": "55063e0db5ea02e01467702c7adef48b575473076236bc93e8b1403fc02b21aa",
    "metas.jsonl": "47cadb3c9c41826f186b10901dd526ed4ca2b706e51132d0a0d8a2474782dbb9",
    "truth_records.jsonl": "efd452513f241f610c0bd34826060c773ca2870bba597a6679dddccdc9b60e65",
    "manifest.jsonl": "2809b455bab03471d6b9187fee20196ad8700af5f131f0b61a9896b8ef0d6a33",
}


class TestReportBins:
    def test_bins_past_the_cap_exit_two_at_once_and_write_nothing(self, corpus, tmp_path, capsys):
        out = tmp_path / "report.json"
        with mock.patch.object(np, "histogram", side_effect=AssertionError("a histogram was built")):
            code = run_cli("report", "--records", str(corpus / "truth_records.jsonl"), "--out", str(out),
                           "--bins", str(10**12))
        assert code == EXIT_DATA
        assert not out.exists()
        assert f"bins must be between 1 and {MAX_BINS}" in capsys.readouterr().err

    def test_the_cap_is_accepted(self, corpus, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("report", "--records", str(corpus / "truth_records.jsonl"), "--out", str(out),
                       "--bins", str(MAX_BINS)) == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["nawp"]["counts"]) == len(payload["ecr"]["counts"]) == MAX_BINS


class TestPipeline:
    def test_synth_writes_expected_artifacts(self, corpus):
        for name in ("events.jsonl", "metas.jsonl", "truth_records.jsonl",
                     "manifest.jsonl", "synth_summary.json"):
            assert (corpus / name).exists()
        manifest = [json.loads(l) for l in (corpus / "manifest.jsonl").read_text().splitlines()]
        assert len(manifest) == 40
        assert (corpus / manifest[0]["feature_path"]).exists()

    def test_aggregate_fit_report_chain(self, corpus, tmp_path):
        records = tmp_path / "records.jsonl"
        assert run_cli(
            "aggregate",
            "--events", str(corpus / "events.jsonl"),
            "--metas", str(corpus / "metas.jsonl"),
            "--out", str(records),
            "--min-views", "30",
            "--shards", "4",
        ) == EXIT_OK
        env_path = tmp_path / "envelope.json"
        annotated = tmp_path / "annotated.jsonl"
        assert run_cli(
            "fit-norm",
            "--records", str(records),
            "--out-envelope", str(env_path),
            "--out-records", str(annotated),
            "--bin-width", "10",
            "--min-bin-count", "4",
        ) == EXIT_OK
        env = json.loads(env_path.read_text())
        assert set(env) == {"slope_a", "intercept_b", "quantile_tau", "bin_width_s", "fit_stats"}
        report = tmp_path / "dist.json"
        assert run_cli(
            "report", "--records", str(annotated), "--out", str(report), "--bins", "12"
        ) == EXIT_OK
        payload = json.loads(report.read_text())
        assert set(payload) == {"nawp", "ecr", "correlation"}
        assert sum(payload["nawp"]["counts"]) > 0

    def test_labels_stages_call_the_benchmark_hooked_names(self, corpus, tmp_path, monkeypatch):
        # benchmarks/layers.py times records I/O and annotation by wrapping these names in cli.
        calls = []
        for name in ("read_metas", "read_records", "write_records", "annotate_nawp"):
            def spy(*args, _name=name, _fn=getattr(cli, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(cli, name, spy)
        records, annotated = tmp_path / "records.jsonl", tmp_path / "annotated.jsonl"
        stages = {
            "aggregate": ["--events", corpus / "events.jsonl", "--metas", corpus / "metas.jsonl", "--out", records,
                          "--min-views", "30", "--shards", "2"],
            "fit-norm": ["--records", records, "--out-envelope", tmp_path / "envelope.json", "--out-records",
                         annotated, "--bin-width", "10", "--min-bin-count", "4"],
            "report": ["--records", annotated, "--out", tmp_path / "dist.json", "--bins", "12"],
        }
        called = {}
        for stage, argv in stages.items():
            calls.clear()
            assert run_cli(stage, *map(str, argv)) == EXIT_OK
            called[stage] = sorted(calls)
        assert called == {
            "aggregate": ["read_metas", "write_records"],
            "fit-norm": ["annotate_nawp", "read_records", "write_records"],
            "report": ["read_records"],
        }

    def test_eval_on_perfect_predictions(self, corpus, tmp_path):
        manifest = [json.loads(l) for l in (corpus / "manifest.jsonl").read_text().splitlines()]
        preds = tmp_path / "preds.jsonl"
        with open(preds, "w") as f:
            for row in manifest:
                f.write(json.dumps({
                    "video_id": row["video_id"],
                    "nawp_hat": row["nawp_label"],
                    "ecr_hat": row["ecr_label"],
                }) + "\n")
        out = tmp_path / "report.json"
        assert run_cli(
            "eval",
            "--predictions", str(preds),
            "--manifest", str(corpus / "manifest.jsonl"),
            "--out", str(out),
            "--group-width", "20",
        ) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["nawp"]["srcc"] == pytest.approx(1.0)
        assert payload["nawp"]["plcc"] == pytest.approx(1.0)
        assert payload["nawp"]["rmse"] == 0.0
        assert payload["ecr"]["rmse_topk"] == 0.0
        assert payload["grouped_srcc"]["average"] == pytest.approx(1.0)

    def test_train_and_eval_small(self, corpus, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli(
            "train",
            "--manifest", str(corpus / "manifest.jsonl"),
            "--out-dir", str(run_dir),
            "--iterations", "6",
            "--batch-size", "4",
            "--eval-interval", "3",
            "--d-model", "8",
            "--max-clips", "64",
            "--seed", "21",
        ) == EXIT_OK
        assert (run_dir / "checkpoint.engw").exists()
        assert run_cli(
            "eval",
            "--predictions", str(run_dir / "test_predictions.jsonl"),
            "--manifest", str(corpus / "manifest.jsonl"),
            "--out", str(tmp_path / "eval.json"),
            "--topk-percent", "25",
        ) == EXIT_OK

    def test_train_feature_toggle_flag(self, corpus, tmp_path):
        assert run_cli(
            "train",
            "--manifest", str(corpus / "manifest.jsonl"),
            "--out-dir", str(tmp_path / "toggled"),
            "--iterations", "2",
            "--eval-interval", "2",
            "--d-model", "8",
            "--max-clips", "64",
            "--features", "semantic,action,text",
            "--ecr-causal-mask",
        ) == EXIT_OK

    def test_repeat_runs_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("synth", "--out", str(out), "--n-videos", "12",
                           "--views", "25", "--seed", "33") == EXIT_OK
            records = out / "records.jsonl"
            assert run_cli(
                "aggregate",
                "--events", str(out / "events.jsonl"),
                "--metas", str(out / "metas.jsonl"),
                "--out", str(records),
                "--min-views", "10",
            ) == EXIT_OK
        for name in ("events.jsonl", "metas.jsonl", "truth_records.jsonl",
                     "manifest.jsonl", "synth_summary.json", "records.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        features_a = sorted((out_a / "features").iterdir())
        features_b = sorted((out_b / "features").iterdir())
        assert [f.name for f in features_a] == [f.name for f in features_b]
        for fa, fb in zip(features_a, features_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_synth_outputs_pinned(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path), "--seed", "3", "--n-videos", "30", "--views", "40") == EXIT_OK
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SYNTH_SHA256}
        assert digests == SYNTH_SHA256


def _inline_executor(calls, pickled_args=None, pickled_results=None):
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs each task
    at once, pickling its arguments and result as a worker process would. Each
    task's pickled arguments and result are appended to ``pickled_args`` and
    ``pickled_results`` when they are given."""

    class InlineExecutor(concurrent.futures.Executor):
        def __init__(self, max_workers):
            calls.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            data = pickle.dumps(args)
            if pickled_args is not None:
                pickled_args.append(data)
            result = pickle.dumps(fn(*pickle.loads(data)))
            if pickled_results is not None:
                pickled_results.append(result)
            future.set_result(pickle.loads(result))
            return future

    return InlineExecutor


def _aggregate_outputs(events, metas, out, shards):
    """``engpred aggregate`` run in-process: (exit code, records bytes, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli("aggregate", "--events", str(events), "--metas", str(metas),
                       "--out", str(out), "--min-views", "1", "--shards", str(shards))
    return code, out.read_bytes() if out.exists() else None, stdout.getvalue(), stderr.getvalue()


def _hostile_log(corpus):
    good = (corpus / "events.jsonl").read_bytes().splitlines(keepends=True)[:120]
    hostile = [
        b"\n",
        b"   \t \n",
        b'{"video_id":"v00001","watch_time_s":3.0}\r\n',
        b"\xff\xfe\n",
        b'{"video_id":"v00000","watch_time_s":' + b"9" * 400 + b"}\n",
        b'{"video_id":"v00000","watch_time_s":' + b"9" * 5000 + b"}\n",
        b'{"video_id":"nobody","watch_time_s":4.0}\n',
        b'{"video_id":"v00002","watch_time_s":100000.0}\r\n',
        b'{"video_id":"v00003","watch_time_s":2.5,"pad":"' + b"x" * 20000 + b'"}\n',
        b"{broken\n",
    ]
    lines = []
    for i, line in enumerate(good):
        lines.append(line)
        if i % 12 == 5:
            lines.append(hostile[(i // 12) % len(hostile)])
    lines += hostile
    return b"".join(lines) + b'{"video_id":"v00004","watch_time_s":7.25}'


# sha256 of records.jsonl, stdout and stderr of ``engpred aggregate --min-views 1``
# over ``_hostile_log``, as written by the Shewchuk-partials reducer this one replaced.
HOSTILE_LOG_SHA256 = (
    "7ab2540821397a4886b66124f8479b207fd849e1b39319bd828da550aea8f437",
    "3ea680f97964902c155a9283e2a8c3da4a0c3f49bdd40c2aa546c3f808ba2f34",
    "6e226fe079b0329ca1920209e85a858a38b2c099574f88231ea22f6b6b5d93aa",
)


class TestShardedAggregate:
    """``--shards N`` cuts the log into byte ranges reduced in worker processes."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        calls = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_executor(calls))
        monkeypatch.setattr(cli, "available_cpus", lambda: 8)
        return calls

    @pytest.mark.parametrize("shards", range(1, 9))
    def test_hostile_log_identical_for_every_shard_count(self, corpus, tmp_path, cpus, shards):
        events = tmp_path / "events.jsonl"
        events.write_bytes(_hostile_log(corpus))
        metas = corpus / "metas.jsonl"
        single = _aggregate_outputs(events, metas, tmp_path / "one.jsonl", 1)
        assert single[0] == EXIT_OK
        assert "malformed lines skipped" in single[2]
        assert "warning: line " in single[3] and "unknown video ids" in single[3]
        assert "extreme watch times" in single[3]
        assert _aggregate_outputs(events, metas, tmp_path / "many.jsonl", shards) == single
        with open(events, "rb") as f:
            ranges = line_ranges(f, shards)
        assert cpus == ([] if shards == 1 else [len(ranges)])
        if shards == 8:  # the padded line is longer than a range and swallows a cut
            assert len(ranges) < 8

    @pytest.mark.parametrize("shards", [1, 4])
    def test_hostile_log_outputs_pinned(self, corpus, tmp_path, cpus, shards):
        events = tmp_path / "events.jsonl"
        events.write_bytes(_hostile_log(corpus))
        code, records, out, err = _aggregate_outputs(events, corpus / "metas.jsonl", tmp_path / "r.jsonl", shards)
        digests = tuple(hashlib.sha256(b).hexdigest() for b in (records, out.encode(), err.encode()))
        assert (code, digests) == (EXIT_OK, HOSTILE_LOG_SHA256)

    def test_workers_receive_the_meta_table_as_columns(self, corpus, tmp_path, monkeypatch):
        pickled = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_executor([], pickled))
        monkeypatch.setattr(cli, "available_cpus", lambda: 8)
        events = tmp_path / "events.jsonl"
        events.write_bytes(_hostile_log(corpus))
        metas = corpus / "metas.jsonl"
        single = _aggregate_outputs(events, metas, tmp_path / "one.jsonl", 1)
        assert _aggregate_outputs(events, metas, tmp_path / "four.jsonl", 4) == single
        with open(events, "rb") as f:
            assert len(pickled) == len(line_ranges(f, 4)) > 1
        assert b"VideoMeta" in pickle.dumps(read_metas(metas))
        for data in pickled:
            assert b"VideoMeta" not in data
            _, _, _, table, _ = pickle.loads(data)
            assert list(table.items()) == [(vid, m.duration_s) for vid, m in read_metas(metas).items()]

    def test_workers_return_parse_failures_as_pairs(self, corpus, tmp_path, monkeypatch):
        pickled = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_executor([], None, pickled))
        monkeypatch.setattr(cli, "available_cpus", lambda: 8)
        events = tmp_path / "events.jsonl"
        events.write_bytes(_hostile_log(corpus))
        metas = corpus / "metas.jsonl"
        single = _aggregate_outputs(events, metas, tmp_path / "one.jsonl", 1)
        assert _aggregate_outputs(events, metas, tmp_path / "four.jsonl", 4) == single
        assert len(pickled) > 1
        assert b"ParseFailure" in pickle.dumps([ParseFailure(1, "invalid JSON")])
        failures = []
        for data in pickled:
            assert b"ParseFailure" not in data
            failures += pickle.loads(data)[1]
        assert failures and all(type(n) is int and type(message) is str for n, message in failures)

    def test_worker_processes_match_single_pass(self, corpus, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_bytes(_hostile_log(corpus))
        metas = corpus / "metas.jsonl"
        single = _aggregate_outputs(events, metas, tmp_path / "one.jsonl", 1)
        out = tmp_path / "two.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "engpred", "aggregate", "--events", str(events), "--metas", str(metas),
             "--out", str(out), "--min-views", "1", "--shards", "2"],
            capture_output=True, text=True, timeout=120, env=CHILD_ENV,
        )
        assert (proc.returncode, out.read_bytes(), proc.stdout, proc.stderr) == single

    def test_pipe_input_matches_file(self, corpus, tmp_path):
        # A pipe has no size, so it gives no ranges and is read in-process in
        # blocks, whatever the short reads of the pipe.
        log = _hostile_log(corpus)
        events = tmp_path / "events.jsonl"
        events.write_bytes(log)
        metas = corpus / "metas.jsonl"
        single = _aggregate_outputs(events, metas, tmp_path / "one.jsonl", 1)
        out = tmp_path / "pipe.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "engpred", "aggregate", "--events", "/dev/stdin", "--metas", str(metas),
             "--out", str(out), "--min-views", "1", "--shards", "4"],
            input=log, capture_output=True, timeout=120, env=CHILD_ENV,
        )
        assert (proc.returncode, out.read_bytes(), proc.stdout.decode(), proc.stderr.decode()) == single

    def test_workers_capped_at_cpus(self, corpus, tmp_path, cpus, monkeypatch):
        monkeypatch.setattr(cli, "available_cpus", lambda: 3)
        code, *_ = _aggregate_outputs(corpus / "events.jsonl", corpus / "metas.jsonl",
                                      tmp_path / "r.jsonl", 1_000_000)
        assert code == EXIT_OK
        assert cpus == [3]

    def test_never_more_ranges_than_lines(self, corpus, tmp_path, cpus):
        events = tmp_path / "events.jsonl"
        events.write_bytes(b'{"video_id":"v00000","watch_time_s":1.0}\n' * 2
                           + b'{"video_id":"v00000","watch_time_s":1.0}')
        code, records, *_ = _aggregate_outputs(events, corpus / "metas.jsonl", tmp_path / "r.jsonl", 8)
        assert code == EXIT_OK
        assert b'"views":3' in records
        assert cpus == [3]

    def test_one_shard_starts_no_pool(self, corpus, tmp_path, cpus):
        code, *_ = _aggregate_outputs(corpus / "events.jsonl", corpus / "metas.jsonl",
                                      tmp_path / "r.jsonl", 1)
        assert code == EXIT_OK
        assert cpus == []

    def test_empty_log(self, corpus, tmp_path, cpus):
        events = tmp_path / "events.jsonl"
        events.write_bytes(b"")
        code, records, out, _ = _aggregate_outputs(events, corpus / "metas.jsonl", tmp_path / "r.jsonl", 4)
        assert (code, records, cpus) == (EXIT_OK, b"", [])
        assert "aggregated 0 videos (0 malformed lines skipped)" in out


LOG_PIECES = st.one_of(
    st.binary(max_size=12),
    st.sampled_from([
        b"\n", b"\r\n", b" ", b"\xff", b"{", b'"', b"}", b"null", b"[1]", b"-1", b"1e999", b"9" * 400,
        b'{"video_id":"v00000","watch_time_s":1.5}',
        b'{"video_id":"v00001","watch_time_s":2,"liked":true}',
        b'{"video_id":"v00002","watch_time_s":1e6}',
        b'{"video_id":"zz","watch_time_s":3}',
        b'{"video_id":"","watch_time_s":3}',
    ]),
)


class TestArbitraryLogs:
    @pytest.fixture(scope="class")
    def metas(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("metas") / "metas.jsonl"
        path.write_text("".join(
            json.dumps({"video_id": f"v{i:05d}", "duration_s": 20.0, "frame_rate": 16.0}) + "\n"
            for i in range(3)))
        return path

    @given(pieces=st.lists(LOG_PIECES, max_size=14), shards=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_shards_match_single_pass(self, metas, pieces, shards):
        log = b"".join(pieces)
        items = list(parse_events(line.decode("utf-8", errors="replace") for line in io.BytesIO(log)))
        assert all(isinstance(item, (WatchEvent, ParseFailure)) for item in items)
        line_nos = [item.line_no for item in items if isinstance(item, ParseFailure)]
        assert line_nos == sorted(set(line_nos))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            events = tmp / "events.jsonl"
            events.write_bytes(log)
            with open(events, "rb") as f:
                ranges = line_ranges(f, shards)
            assert len(ranges) <= shards
            assert [start for start, _ in ranges[1:]] == [end for _, end in ranges[:-1]]
            assert all(start < end and (start == 0 or log[start - 1:start] == b"\n")
                       for start, end in ranges)
            calls = []
            with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", _inline_executor(calls)), \
                    mock.patch.object(cli, "available_cpus", lambda: 8):
                single = _aggregate_outputs(events, metas, tmp / "one.jsonl", 1)
                assert _aggregate_outputs(events, metas, tmp / "many.jsonl", shards) == single
            assert calls == ([len(ranges)] if len(ranges) > 1 else [])


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "engpred", "--help"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert out.returncode == 0
    assert "synth" in out.stdout
