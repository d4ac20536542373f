"""Round-trips and validation for the ENGW/ENGF binary containers."""

import json
import struct

import numpy as np
import pytest

from engpred.errors import DataError
from engpred.model import FeatureBundle
from engpred.records import write_json, write_jsonl
from engpred.serialize import (
    ManifestRow,
    load_bundle,
    load_weights,
    read_manifest,
    save_bundle,
    save_weights,
)


def _arrays(rng):
    return {
        "layer.w": rng.normal(size=(4, 7)),
        "layer.b": rng.normal(size=(7,)),
        "scalar": np.array([0.1]),
        "cube": rng.normal(size=(2, 3, 4)),
    }


class TestWeights:
    def test_round_trip_bit_exact(self, tmp_path):
        arrays = _arrays(np.random.default_rng(0))
        path = tmp_path / "w.engw"
        save_weights(path, arrays)
        loaded = load_weights(path)
        assert list(loaded) == list(arrays)  # order preserved
        for name in arrays:
            assert loaded[name].shape == arrays[name].shape
            assert loaded[name].tobytes() == arrays[name].tobytes()

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "w.engw"
        save_weights(path, {"a": np.zeros(2)})
        assert path.read_bytes()[:4] == b"ENGW"

    def test_unicode_names(self, tmp_path):
        path = tmp_path / "w.engw"
        save_weights(path, {"läyer.ω": np.ones(3)})
        assert "läyer.ω" in load_weights(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.engw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_weights(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "w.engw"
        save_weights(path, {"a": np.arange(10.0)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(DataError):
            load_weights(path)


def _u32(*values):
    return struct.pack(f"<{len(values)}I", *values)


class TestCorruptHeaders:
    """Lengths declared past the end of the file are rejected before any read.

    The reader compares each declared size with the bytes left in the file
    first, so none of these inputs makes it request a buffer of that size.
    """

    @pytest.mark.parametrize(
        "dims",
        [(2**32 - 1, 2**32 - 1), (2**20, 2**11), (2**32 - 1,), (3, 4)],
        ids=["product_past_int64", "16_GiB", "32_GiB", "96_bytes"],
    )
    def test_data_size_past_the_end(self, tmp_path, dims):
        path = tmp_path / "w.engw"
        path.write_bytes(b"ENGW" + _u32(1) + _u32(1) + b"a" + _u32(len(dims), *dims) + b"\0" * 64)
        with pytest.raises(DataError, match="truncated file while reading data of 'a'"):
            load_weights(path)

    def test_name_length_past_the_end(self, tmp_path):
        path = tmp_path / "w.engw"
        path.write_bytes(b"ENGW" + _u32(1) + _u32(2**32 - 1) + b"a" * 64)
        with pytest.raises(DataError, match="truncated file while reading array name"):
            load_weights(path)

    def test_video_id_length_past_the_end(self, tmp_path):
        path = tmp_path / "b.engf"
        path.write_bytes(b"ENGF" + _u32(1) + _u32(2**31) + b"v" * 64)
        with pytest.raises(DataError, match="truncated file while reading video_id"):
            load_bundle(path)

    def test_rank_past_the_end(self, tmp_path):
        path = tmp_path / "w.engw"
        path.write_bytes(b"ENGW" + _u32(1) + _u32(1) + b"a" + _u32(2**32 - 1) + _u32(1) * 8)
        with pytest.raises(DataError, match="truncated file while reading dims of 'a'"):
            load_weights(path)

    def test_undecodable_name(self, tmp_path):
        path = tmp_path / "w.engw"
        path.write_bytes(b"ENGW" + _u32(1) + _u32(2) + b"\xff\xfe" + _u32(1, 1) + b"\0" * 8)
        with pytest.raises(DataError, match="array name is not UTF-8"):
            load_weights(path)


def _bundle(rng, n_clips=5, kinds=("semantic", "action")):
    return FeatureBundle(
        video_id="vid-1",
        n_clips=n_clips,
        frame_rate=30.0,
        clip_features={k: rng.normal(size=(n_clips, 6)) for k in kinds},
        text_tokens=rng.normal(size=(3, 8)),
    )


class TestBundles:
    def test_round_trip(self, tmp_path):
        bundle = _bundle(np.random.default_rng(1))
        path = tmp_path / "v.engf"
        save_bundle(path, bundle)
        loaded = load_bundle(path)
        assert loaded.video_id == bundle.video_id
        assert loaded.n_clips == bundle.n_clips
        assert loaded.frame_rate == bundle.frame_rate
        assert set(loaded.clip_features) == set(bundle.clip_features)
        for kind, arr in bundle.clip_features.items():
            assert loaded.clip_features[kind].tobytes() == arr.tobytes()
        assert loaded.text_tokens.tobytes() == bundle.text_tokens.tobytes()

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "v.engf"
        save_bundle(path, _bundle(np.random.default_rng(2)))
        assert path.read_bytes()[:4] == b"ENGF"

    def test_weights_file_rejected_as_bundle(self, tmp_path):
        path = tmp_path / "w.engw"
        save_weights(path, {"a": np.zeros(2)})
        with pytest.raises(DataError):
            load_bundle(path)

    def test_clip_count_mismatch_rejected(self, tmp_path):
        bundle = _bundle(np.random.default_rng(3))
        bundle.n_clips = 7  # arrays still carry 5 rows
        path = tmp_path / "v.engf"
        save_bundle(path, bundle)
        with pytest.raises(DataError):
            load_bundle(path)

    def test_validate_rejects_non_finite(self):
        rng = np.random.default_rng(4)
        bundle = _bundle(rng)
        bundle.clip_features["semantic"][0, 0] = np.nan
        with pytest.raises(DataError):
            bundle.validate()


class TestManifest:
    def test_round_trip(self, tmp_path):
        rows = [
            {
                "video_id": "v0",
                "duration_s": 20.5,
                "frame_rate": 16.0,
                "feature_path": "features/v0.engf",
                "nawp_label": 0.4,
                "ecr_label": 0.6,
                "awt_label": 9.1,
                "awp_label": 0.44,
            }
        ]
        path = tmp_path / "manifest.jsonl"
        write_jsonl(path, rows)
        assert read_manifest(path) == [ManifestRow(**row) for row in rows]

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"video_id": "v0"}\n')
        with pytest.raises(DataError):
            read_manifest(path)

    @pytest.mark.parametrize(
        "second_line, message",
        [("{broken", "manifest line 2: invalid JSON"), ("[1, 2]", "manifest line 2: not a JSON object")],
    )
    def test_bad_line_rejected_with_its_number(self, tmp_path, second_line, message):
        row = {k: "x" for k in ("video_id", "feature_path")}
        row.update(duration_s=20.0, frame_rate=16.0, nawp_label=0.4, ecr_label=0.6)
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(row) + "\n" + second_line + "\n")
        with pytest.raises(DataError, match=message):
            read_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            read_manifest(tmp_path / "nope.jsonl")

    def test_repeated_video_id_rejected_with_its_line(self, tmp_path):
        row = {"video_id": "v0", "duration_s": 20.0, "frame_rate": 16.0, "feature_path": "f/v0.engf",
               "nawp_label": 0.4, "ecr_label": 0.6}
        path = tmp_path / "manifest.jsonl"
        write_jsonl(path, [row, {**row, "video_id": "v1"}, {**row, "nawp_label": 0.9}])
        with pytest.raises(DataError, match="manifest line 3: duplicate video_id 'v0'"):
            read_manifest(path)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            read_manifest(path)


def _rows_failing_after_one():
    yield {"video_id": "v0"}
    raise RuntimeError("fails mid-write")


class TestAtomicWrites:
    """A writer that fails part-way leaves the previous file and no temporary file."""

    FAILING_WRITES = {
        "write_json": lambda path: write_json(path, {"a": 1.0, "b": object()}),
        "write_jsonl": lambda path: write_jsonl(path, _rows_failing_after_one()),
        "save_weights": lambda path: save_weights(path, {"a": np.ones(2), "b": object()}),
        "save_bundle": lambda path: save_bundle(
            path, FeatureBundle("v0", 1, 16.0, {"semantic": np.ones((1, 2))}, object())
        ),
    }

    @pytest.mark.parametrize("writer", sorted(FAILING_WRITES))
    def test_failed_write_keeps_old_file(self, tmp_path, writer):
        path = tmp_path / "artifact"
        path.write_bytes(b"previous contents\n")
        with pytest.raises((TypeError, RuntimeError)):
            self.FAILING_WRITES[writer](path)
        assert path.read_bytes() == b"previous contents\n"
        assert list(tmp_path.iterdir()) == [path]
