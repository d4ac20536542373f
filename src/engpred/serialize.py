"""Binary containers: ENGW named-array checkpoints and ENGF feature bundles.

Both formats share the named-array encoding:

    u32 name_len | name (UTF-8) | u32 rank | u32 dims[rank] | f64 data (row-major)

with all integers little-endian and array payloads little-endian float64,
and a rank of at most ``MAX_RANK``.
An ENGW file is ``b"ENGW" | u32 version`` followed by named arrays until
EOF. An ENGF file is ``b"ENGF" | u32 version | u32 id_len | video_id |
u32 n_clips | f64 frame_rate`` followed by named arrays until EOF;
``load_bundle`` returns it as a ``FeatureBundle``, which checks itself as it
is made.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import IO

import numpy as np

from .errors import DataError
from .model import TEXT_KIND, FeatureBundle
from .records import ManifestRow, atomic_write, open_input, read_rows, rows_by_id

WEIGHTS_MAGIC = b"ENGW"
FEATURES_MAGIC = b"ENGF"
FORMAT_VERSION = 1
# The highest array rank numpy 1.x can hold; the writers emit ranks 1 and 2.
MAX_RANK = 32


def _write_u32(f: IO[bytes], value: int) -> None:
    f.write(struct.pack("<I", value))


class _Reader:
    """Reads a binary file front to back.

    Every length the file declares is checked against the bytes left in it
    before anything is read, so a corrupt length gives a DataError, never an
    allocation of that size.
    """

    def __init__(self, f: IO[bytes]) -> None:
        self.f = f
        self.left = os.fstat(f.fileno()).st_size - f.tell()

    def read(self, n: int, what: str) -> bytes:
        buf = self.f.read(n) if n <= self.left else b""
        if len(buf) != n:
            raise DataError(f"truncated file while reading {what}")
        self.left -= n
        return buf

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.read(4, what))[0]

    def text(self, what: str) -> str:
        """A u32 byte length, then that many bytes of UTF-8."""
        raw = self.read(self.u32(f"{what} length"), what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{what} is not UTF-8") from exc


def write_named_arrays(f: IO[bytes], arrays: dict[str, np.ndarray]) -> None:
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        data = np.ascontiguousarray(arr, dtype="<f8")
        _write_u32(f, len(encoded))
        f.write(encoded)
        _write_u32(f, data.ndim)
        for dim in data.shape:
            _write_u32(f, dim)
        f.write(data.tobytes(order="C"))


def read_named_arrays(r: _Reader) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    while r.left:
        name = r.text("array name")
        rank = r.u32(f"rank of {name!r}")
        raw_dims = r.read(4 * rank, f"dims of {name!r}")
        if rank > MAX_RANK:
            raise DataError(f"array {name!r} declares rank {rank}, above {MAX_RANK}")
        dims = struct.unpack(f"<{rank}I", raw_dims)
        payload = r.read(8 * math.prod(dims), f"data of {name!r}")
        try:
            arr = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
        except ValueError as exc:  # a zero dim beside dims whose product numpy cannot index
            raise DataError(f"array {name!r} has shape {dims}, too big to index") from exc
        if name in arrays:
            raise DataError(f"duplicate array {name!r}")
        arrays[name] = arr
    return arrays


def save_weights(path: Path | str, arrays: dict[str, np.ndarray]) -> None:
    with atomic_write(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        _write_u32(f, FORMAT_VERSION)
        write_named_arrays(f, arrays)


def load_weights(path: Path | str) -> dict[str, np.ndarray]:
    with open_input(path, "weights file") as f:
        r = _Reader(f)
        magic = r.read(4, "magic")
        if magic != WEIGHTS_MAGIC:
            raise DataError(f"not a weights file (magic {magic!r})")
        version = r.u32("version")
        if version != FORMAT_VERSION:
            raise DataError(f"unsupported weights format version {version}")
        return read_named_arrays(r)


def save_bundle(path: Path | str, bundle: FeatureBundle) -> None:
    with atomic_write(path, "wb") as f:
        f.write(FEATURES_MAGIC)
        _write_u32(f, FORMAT_VERSION)
        encoded = bundle.video_id.encode("utf-8")
        _write_u32(f, len(encoded))
        f.write(encoded)
        _write_u32(f, bundle.n_clips)
        f.write(struct.pack("<d", bundle.frame_rate))
        arrays = dict(bundle.clip_features)
        arrays[TEXT_KIND + "_tokens"] = bundle.text_tokens
        write_named_arrays(f, arrays)


def load_bundle(path: Path | str) -> FeatureBundle:
    with open_input(path, "feature bundle") as f:
        r = _Reader(f)
        magic = r.read(4, "magic")
        if magic != FEATURES_MAGIC:
            raise DataError(f"not a feature bundle (magic {magic!r})")
        version = r.u32("version")
        if version != FORMAT_VERSION:
            raise DataError(f"unsupported bundle format version {version}")
        video_id = r.text("video_id")
        n_clips = r.u32("n_clips")
        (frame_rate,) = struct.unpack("<d", r.read(8, "frame_rate"))
        arrays = read_named_arrays(r)
    text_key = TEXT_KIND + "_tokens"
    if text_key not in arrays:
        raise DataError(f"bundle {video_id!r} is missing text tokens")
    text_tokens = arrays.pop(text_key)
    return FeatureBundle(video_id, n_clips, frame_rate, clip_features=arrays, text_tokens=text_tokens)


def read_manifest(path: Path | str) -> list[ManifestRow]:
    """The manifest's rows; a repeated video id or a file with none is an error."""
    rows = list(rows_by_id(read_rows(path, ManifestRow, "manifest"), "manifest").values())
    if not rows:
        raise DataError(f"manifest {path} is empty")
    return rows
