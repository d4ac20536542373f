"""Core record types, their JSON-lines encodings, and the package's JSON I/O.

JSONL field order is fixed so that repeated runs produce byte-identical
output files. Every JSON and JSONL artifact is written through
``atomic_write`` (by ``write_json`` or ``write_jsonl``), so a failed write
leaves the previous file in place, and every JSONL file except the event
stream is read by ``read_jsonl``. Config dataclasses take their JSON schema
from their fields (``JsonFields``).
"""

from __future__ import annotations

import json
import math
import os
import types
from collections.abc import Mapping
from contextlib import contextmanager, suppress
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Union, get_args, get_origin, get_type_hints

from .errors import DataError


def typed_value(value: Any, tp: Any, where: str) -> Any:
    """``value`` checked against the annotation ``tp``; JSON lists become tuples.

    Integers are accepted for float fields and converted; bools are never
    numbers. Nested dataclasses are built from JSON objects.
    """
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        return _from_fields(tp, value, where)
    if origin in (Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return typed_value(value, inner, where)
    if origin is tuple and isinstance(value, (list, tuple)):
        item_types = [args[0]] * len(value) if args[-1] is Ellipsis else list(args)
        if len(item_types) == len(value):
            return tuple(
                typed_value(v, t, f"{where}[{i}]") for i, (v, t) in enumerate(zip(value, item_types))
            )
    elif origin in (dict, Mapping) and isinstance(value, dict):
        key_type, value_type = args
        return {
            typed_value(k, key_type, where): typed_value(v, value_type, f"{where}[{k!r}]")
            for k, v in value.items()
        }
    elif tp is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        with suppress(OverflowError):
            return float(value)
    elif tp in (int, str, bool) and isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
        return value
    raise DataError(f"{where} must be {tp if origin else tp.__name__}, got {value!r}")


def _from_fields(cls: type, payload: Any, where: str) -> Any:
    """Dataclass ``cls`` built from a JSON object whose keys are its fields."""
    if not isinstance(payload, dict):
        raise DataError(f"{where} must be a JSON object, got {payload!r}")
    known = {f.name: f for f in fields(cls)}
    unknown = [k for k in payload if k not in known]
    if unknown:
        raise DataError(f"unknown {where} keys {unknown}")
    missing = [
        name
        for name, f in known.items()
        if name not in payload and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise DataError(f"{where} is missing keys {missing}")
    hints = get_type_hints(cls)
    return cls(**{k: typed_value(v, hints[k], f"{where}.{k}") for k, v in payload.items()})


class JsonFields:
    """Mixin for dataclasses whose fields are their JSON schema."""

    __slots__ = ()

    def validate(self) -> None:
        """Check values beyond their types; raises DataError."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Any):
        """Reject unknown keys and wrong-typed values, then validate."""
        obj = _from_fields(cls, payload, cls.__name__)
        obj.validate()
        return obj


@contextmanager
def atomic_write(path: Path | str, mode: str = "w") -> Iterator[IO]:
    """Write to a temporary file beside ``path``; replace ``path`` only on success."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        try:
            f = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
        except OSError as exc:  # e.g. the directory does not exist
            raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc
        with f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _compact_json(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"))


def write_json(path: Path | str, obj: Any) -> None:
    """Pretty JSON with sorted keys and a trailing newline."""
    with atomic_write(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_lines(f: IO[str], rows: Iterable, encode: Callable[[Any], str]) -> None:
    for row in rows:
        f.write(encode(row))
        f.write("\n")


def write_jsonl(path: Path | str, rows: Iterable, encode: Callable[[Any], str] = _compact_json) -> None:
    """One encoded row per line."""
    with atomic_write(path) as f:
        _write_lines(f, rows, encode)


def open_input(path: Path | str, what: str) -> IO[bytes]:
    """The input file opened as bytes; each reader decodes it as UTF-8 itself."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot open {what} {path}: {exc}") from exc


def _json_object(raw: bytes, where: str) -> dict:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise DataError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{where}: not a JSON object")
    return obj


def read_json(path: Path | str, what: str) -> dict:
    """A file holding one JSON object."""
    with open_input(path, what) as f:
        return _json_object(f.read(), f"{what} {path}")


def read_jsonl(path: Path | str, what: str) -> list[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line; anything else raises DataError."""
    with open_input(path, what) as f:
        return [
            (line_no, _json_object(line, f"{what} line {line_no}"))
            for line_no, line in enumerate(f, start=1)
            if line.strip()
        ]


@dataclass(frozen=True, slots=True)
class WatchEvent:
    """One viewer's watch of one video."""

    video_id: str
    watch_time_s: float
    liked: bool | None = None


@dataclass(frozen=True, slots=True)
class VideoMeta:
    """Static per-video properties."""

    video_id: str
    duration_s: float
    frame_rate: float

    def validate(self) -> None:
        if not self.video_id:
            raise DataError("video meta has empty video_id")
        if not math.isfinite(self.duration_s) or self.duration_s <= 0:
            raise DataError(f"video {self.video_id!r}: duration_s must be positive")
        if not math.isfinite(self.frame_rate) or self.frame_rate <= 0:
            raise DataError(f"video {self.video_id!r}: frame_rate must be positive")


@dataclass(frozen=True, slots=True)
class VideoRecord:
    """Per-video engagement aggregate.

    ``awp`` may exceed 1 when viewers rewatch; ``ecr`` is the fraction of
    views strictly longer than the configured threshold and always lies in
    [0, 1]. ``like_rate`` and ``nawp`` are optional until computed.
    """

    video_id: str
    duration_s: float
    views: int
    awt_s: float
    awp: float
    ecr: float
    like_rate: float | None = None
    nawp: float | None = None


# Fixed key order for diff-stable JSONL output.
_RECORD_KEYS = tuple(f.name for f in fields(VideoRecord))
_RECORD_FLOATS = ("duration_s", "awt_s", "awp", "ecr", "like_rate", "nawp")


def record_to_json(record: VideoRecord) -> str:
    payload = {key: getattr(record, key) for key in _RECORD_KEYS}
    return json.dumps(payload, separators=(",", ":"))


def write_records(path: Path | str, records: Iterable[VideoRecord]) -> None:
    write_jsonl(path, records, record_to_json)


def read_records(path: Path | str) -> list[VideoRecord]:
    """Records, one per line.

    Fields are converted one by one, not through ``JsonFields``: a count
    written as ``3.0``, a numeric video id and extra keys are accepted, so
    files written by other tools keep loading. ``read_metas`` does the same.
    """
    records = []
    for line_no, payload in read_jsonl(path, "records"):
        try:
            records.append(
                VideoRecord(
                    video_id=str(payload["video_id"]),
                    duration_s=float(payload["duration_s"]),
                    views=int(payload["views"]),
                    awt_s=float(payload["awt_s"]),
                    awp=float(payload["awp"]),
                    ecr=float(payload["ecr"]),
                    like_rate=None if payload.get("like_rate") is None else float(payload["like_rate"]),
                    nawp=None if payload.get("nawp") is None else float(payload["nawp"]),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"records line {line_no}: invalid fields: {exc}") from exc
        for name in _RECORD_FLOATS:
            value = getattr(records[-1], name)
            if value is not None and not math.isfinite(value):
                raise DataError(f"records line {line_no}: {name} is not finite")
    return records


def meta_to_json(meta: VideoMeta) -> str:
    payload = {
        "video_id": meta.video_id,
        "duration_s": meta.duration_s,
        "frame_rate": meta.frame_rate,
    }
    return json.dumps(payload, separators=(",", ":"))


def read_metas(path: Path | str) -> dict[str, VideoMeta]:
    """Load a meta table keyed by video_id; duplicate ids are an error."""
    metas: dict[str, VideoMeta] = {}
    for line_no, payload in read_jsonl(path, "metas"):
        try:
            meta = VideoMeta(
                video_id=str(payload["video_id"]),
                duration_s=float(payload["duration_s"]),
                frame_rate=float(payload["frame_rate"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"meta line {line_no}: {exc}") from exc
        meta.validate()
        if meta.video_id in metas:
            raise DataError(f"meta line {line_no}: duplicate video_id {meta.video_id!r}")
        metas[meta.video_id] = meta
    return metas


def event_to_json(event: WatchEvent) -> str:
    payload: dict[str, object] = {
        "video_id": event.video_id,
        "watch_time_s": event.watch_time_s,
    }
    if event.liked is not None:
        payload["liked"] = event.liked
    return json.dumps(payload, separators=(",", ":"))


def write_events(f: IO[str], events: Iterable[WatchEvent]) -> None:
    """The event log's lines, written to an open file so it can be streamed."""
    _write_lines(f, events, event_to_json)


def line_ranges(f: IO[bytes], n: int) -> list[tuple[int, int]]:
    """At most ``n`` non-empty byte ranges of whole lines that tile the file ``f``.

    Each cut is moved forward to the next line start, so no range splits a
    line and none is empty: a line longer than a range swallows the cuts that
    fall inside it. A stream that is not a regular file (a pipe) has size 0
    here and gives no ranges.
    """
    size = os.fstat(f.fileno()).st_size
    if size == 0:
        return []
    cuts = [0]
    for k in range(1, n):
        nominal = size * k // n
        if nominal <= cuts[-1]:
            continue
        f.seek(nominal - 1)
        f.readline()
        if cuts[-1] < f.tell() < size:
            cuts.append(f.tell())
    f.seek(0)
    cuts.append(size)
    return [(start, end) for start, end in zip(cuts, cuts[1:]) if end > start]


# Bytes read per block of the event log; a line longer than this spans blocks.
BLOCK_BYTES = 8192


class LineRange:
    """The event log's lines from the stream's position on, decoded as UTF-8.

    Reads ``size`` bytes, which must end at a line start, or to the end of
    the stream when ``size`` is None, in blocks of whole lines (``blocks``)
    or line by line. Lines end at "\n" only. A block is decoded once, with
    undecodable bytes as U+FFFD; that equals decoding each line alone, as a
    newline byte never occurs inside a UTF-8 sequence. ``count`` is the
    number of lines read so far.
    """

    def __init__(self, f: IO[bytes], size: int | None = None) -> None:
        self.f = f
        self.size = size
        self.count = 0

    def blocks(self) -> Iterator[str]:
        """Blocks of lines, each ending in a newline except perhaps the last."""
        left = math.inf if self.size is None else self.size
        pending: list[bytes] = []  # the bytes of the unfinished line
        while left > 0 and (chunk := self.f.read(min(BLOCK_BYTES, left))):
            left -= len(chunk)
            cut = chunk.rfind(b"\n") + 1
            if cut:
                data = b"".join([*pending, chunk[:cut]])
                pending = []
                self.count += data.count(b"\n")
                yield data.decode("utf-8", errors="replace")
            pending.append(chunk[cut:])
        if any(pending):
            self.count += 1
            yield b"".join(pending).decode("utf-8", errors="replace")

    def __iter__(self) -> Iterator[str]:
        for block in self.blocks():
            *lines, tail = block.split("\n")
            for line in lines:
                yield line + "\n"
            if tail:
                yield tail
