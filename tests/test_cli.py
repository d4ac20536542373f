"""CLI subcommands, exit codes, and pipeline determinism."""

import concurrent.futures
import contextlib
import hashlib
import io
import json
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engpred import cli
from engpred.aggregate import ParseFailure, parse_events
from engpred.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from engpred.records import LineRange, WatchEvent, line_ranges


SYNTH_ARGS = ["--n-videos", "40", "--views", "60", "--seed", "21"]


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
        assert "meta line 2:" in capsys.readouterr().err

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
        argv = {
            "fit-norm": ["fit-norm", "--records", str(records), "--out-envelope", str(tmp_path / "env.json")],
            "report": ["report", "--records", str(records), "--out", str(tmp_path / "rep.json")],
        }[command]
        assert run_cli(*argv) == EXIT_DATA
        assert "records line 2: invalid fields" in capsys.readouterr().err

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
        assert f"records line 8: {key} is not finite" in capsys.readouterr().err
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

    @pytest.mark.parametrize("label", ["null", '"0.5"', "[0.5]", "true"])
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


def _inline_executor(calls):
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs each task
    at once, pickling its arguments and result as a worker process would."""

    class InlineExecutor:
        def __init__(self, max_workers):
            calls.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            result = fn(*pickle.loads(pickle.dumps(args)))
            future.set_result(pickle.loads(pickle.dumps(result)))
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

    def test_worker_processes_match_single_pass(self, corpus, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_bytes(_hostile_log(corpus))
        metas = corpus / "metas.jsonl"
        single = _aggregate_outputs(events, metas, tmp_path / "one.jsonl", 1)
        out = tmp_path / "two.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "engpred", "aggregate", "--events", str(events), "--metas", str(metas),
             "--out", str(out), "--min-views", "1", "--shards", "2"],
            capture_output=True, text=True, timeout=120,
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
            input=log, capture_output=True, timeout=120,
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
        items = list(parse_events(LineRange(io.BytesIO(log))))
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
    )
    assert out.returncode == 0
    assert "synth" in out.stdout
