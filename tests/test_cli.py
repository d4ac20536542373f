"""CLI subcommands, exit codes, and pipeline determinism."""

import json
import subprocess
import sys

import pytest

from engpred.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main


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


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "engpred", "--help"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "synth" in out.stdout
