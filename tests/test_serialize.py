"""Round-trips and validation for the ENGW/ENGF binary containers."""

import contextlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engpred.errors import DataError
from engpred.model import FeatureBundle, ModelConfig, init_params
from engpred.optim import AdamState, FlatParams
from engpred.records import write_json, write_rows
from engpred.serialize import (
    MAX_RANK,
    ManifestRow,
    load_bundle,
    load_weights,
    read_manifest,
    save_bundle,
    save_weights,
)
from engpred.trainer import TrainConfig, load_checkpoint, save_checkpoint


def write_jsonl(path: Path, rows) -> None:
    """Rows as compact JSON, one per line."""
    path.write_text("".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows))


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

    @pytest.mark.parametrize("rank", [MAX_RANK + 1, 65])
    def test_rank_above_the_limit_rejected(self, tmp_path, rank):
        # Zero dims need no data bytes; rank 65 is past what any numpy can reshape to.
        bundle = tmp_path / "b.engf"
        save_bundle(bundle, _bundle(np.random.default_rng(5)))
        bundle.write_bytes(bundle.read_bytes() + _u32(4) + b"deep" + _u32(rank, *[0] * rank))
        with pytest.raises(DataError, match=f"array 'deep' declares rank {rank}, above {MAX_RANK}"):
            load_bundle(bundle)

    def test_rank_at_the_limit_loads(self, tmp_path):
        path = tmp_path / "w.engw"
        path.write_bytes(b"ENGW" + _u32(1) + _u32(1) + b"a" + _u32(MAX_RANK, *[1] * MAX_RANK) + b"\0" * 8)
        assert load_weights(path)["a"].shape == (1,) * MAX_RANK

    def test_zero_size_shape_too_big_to_index_rejected(self, tmp_path):
        path = tmp_path / "w.engw"
        path.write_bytes(b"ENGW" + _u32(1) + _u32(1) + b"a" + _u32(3, 0, 2**32 - 1, 2**32 - 1))
        with pytest.raises(DataError, match="array 'a' has shape \\(0, 4294967295, 4294967295\\), too big"):
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
        "write_rows": lambda path: write_rows(path, _rows_failing_after_one()),
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


def _array_fields(blob, at):
    """Offsets of the u32 name-length, rank and dim fields of the named arrays from offset ``at``."""
    offsets = []
    while at < len(blob):
        (n,) = struct.unpack_from("<I", blob, at)
        offsets.append(at)
        at += 4 + n
        (rank,) = struct.unpack_from("<I", blob, at)
        dims = struct.unpack_from(f"<{rank}I", blob, at + 4)
        offsets += [at + 4 * i for i in range(rank + 1)]
        at += 4 + 4 * rank + 8 * math.prod(dims)
    return offsets


@dataclass
class ValidFile:
    loader: Callable
    path: Path
    blob: bytes = field(repr=False)
    fields: list[int] = field(repr=False)  # offsets of u32 length, rank and dim fields


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A bundle, a weights file and a small checkpoint, with the offsets of their u32 fields."""
    tmp_path = tmp_path_factory.mktemp("valid")
    bundle = _bundle(np.random.default_rng(6), n_clips=2)
    save_bundle(tmp_path / "b.engf", bundle)
    save_weights(tmp_path / "w.engw", _arrays(np.random.default_rng(7)))
    model_cfg = ModelConfig(d_model=2, feature_dims={"semantic": 2, "text": 2}, features=("semantic", "text"),
                            max_clips=4)
    params = FlatParams(init_params(model_cfg, 0))
    save_checkpoint(tmp_path / "c.engw", params, AdamState(params), 1, TrainConfig(), model_cfg, (1.0, 1.0))
    id_len = len(bundle.video_id.encode("utf-8"))
    files = {}
    for name, loader, header_fields, arrays_at in (
        ("b.engf", load_bundle, [4, 8, 12 + id_len], 24 + id_len),
        ("w.engw", load_weights, [4], 8),
        ("c.engw", load_checkpoint, [4], 8),
    ):
        blob = (tmp_path / name).read_bytes()
        files[name] = ValidFile(loader, tmp_path / name, blob, header_fields + _array_fields(blob, arrays_at))
    return files


INTERESTING_U32 = [0, 1, 2, 3, MAX_RANK, MAX_RANK + 1, 64, 65, 2**31 - 1, 2**31, 2**32 - 1]


@st.composite
def _mutation(draw, blob, fields):
    """One edit of a valid file: truncation, an overwritten u32 field, or inserted bytes."""
    kind = draw(st.sampled_from(["truncate", "u32", "insert"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, max(len(blob) - 1, 0)))]
    if kind == "u32":
        at = draw(st.sampled_from(fields))
        value = draw(st.one_of(st.sampled_from(INTERESTING_U32), st.integers(0, 2**32 - 1)))
        return blob[:at] + _u32(value) + blob[at + 4 :]
    at = draw(st.integers(0, len(blob)))
    return blob[:at] + draw(st.binary(min_size=1, max_size=12)) + blob[at:]


class TestHostileBinaries:
    """Every binary reader returns or raises DataError on any input, never another exception."""

    @pytest.mark.parametrize("name", ["b.engf", "w.engw", "c.engw"])
    def test_valid_files_load(self, valid_files, name):
        valid = valid_files[name]
        valid.loader(valid.path)
        assert len(valid.fields) > 3

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_files_load_or_raise_data_error(self, valid_files, tmp_path_factory, data):
        name = data.draw(st.sampled_from(sorted(valid_files)))
        valid = valid_files[name]
        blob = valid.blob
        for _ in range(data.draw(st.integers(1, 3))):
            blob = data.draw(_mutation(blob, valid.fields))
        self._load(valid.loader, tmp_path_factory, name, blob)

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(["b.engf", "w.engw", "c.engw"]), prefix=st.sampled_from([b"", b"ENGF", b"ENGW"]),
           version=st.sampled_from([b"", _u32(1)]), tail=st.binary(max_size=200))
    def test_arbitrary_bytes_load_or_raise_data_error(self, valid_files, tmp_path_factory, name, prefix, version,
                                                      tail):
        self._load(valid_files[name].loader, tmp_path_factory, name, prefix + version + tail)

    @staticmethod
    def _load(loader, tmp_path_factory, name, blob):
        path = tmp_path_factory.getbasetemp() / f"hostile-{name}"
        path.write_bytes(blob)
        with contextlib.suppress(DataError):
            loader(path)
