"""The JSON-lines writers, and the one typed row reader behind every JSONL input except the event log."""

import io
import json
import math
import sys
import tempfile
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from engpred import records
from engpred.errors import DataError
from engpred.records import (
    PredictionRow,
    VideoMeta,
    VideoRecord,
    WatchEvent,
    read_metas,
    read_records,
    read_rows,
    row_to_json,
)
from engpred.serialize import ManifestRow, read_manifest

READERS = {
    "records": (VideoRecord, read_records),
    "metas": (VideoMeta, lambda path: list(read_metas(path).values())),
    "manifest": (ManifestRow, read_manifest),
    "predictions": (PredictionRow, lambda path: [row for _, row in read_rows(path, PredictionRow, "predictions")]),
}

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
GARBAGE_LINES = st.binary(max_size=12).filter(lambda b: b"\n" not in b)


def _plain_type(tp):
    """The type a field's non-null values must have after reading."""
    args = [a for a in typing.get_args(tp) if a is not type(None)]
    return args[0] if args else tp


def _field_values(tp, mutated):
    """Values of the field's JSON type; in a mutated row, sometimes any JSON value."""
    typed = {
        float: st.floats(allow_nan=mutated, allow_infinity=mutated) | st.integers(),
        int: st.integers() | st.floats() if mutated else st.integers(),
        str: st.text(max_size=6),
    }[_plain_type(tp)]
    return st.one_of(typed, typed, JSON_VALUES) if mutated else typed


@st.composite
def row_lines(draw, cls):
    """One JSONL line: a row object, one with keys dropped or added and junk values, a blank line, or junk."""
    kind = draw(st.sampled_from(["row"] * 4 + ["mutated"] * 3 + ["blank", "garbage", "value"]))
    if kind == "blank":
        return b"  "
    if kind == "garbage":
        return draw(GARBAGE_LINES)
    if kind == "value":
        return json.dumps(draw(JSON_VALUES)).encode()
    mutated = kind == "mutated"
    hints = typing.get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    dropped = draw(st.lists(st.sampled_from(names), max_size=1)) if mutated else []
    extra = draw(st.lists(st.sampled_from(["extra", "", "Video_id"]), max_size=1)) if mutated else []
    row = {name: draw(_field_values(hints[name], mutated)) for name in names if name not in dropped}
    row.update({key: draw(JSON_VALUES) for key in extra})
    return json.dumps(row).encode()


@pytest.mark.parametrize("what", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reader_returns_typed_rows_or_names_the_line(what, data):
    cls, read = READERS[what]
    lines = data.draw(st.lists(row_lines(cls), min_size=1, max_size=4), label="lines")
    if what == "metas" and data.draw(st.booleans(), label="repeat an id"):
        lines.append(lines[0])
    data_lines = [n for n, line in enumerate(lines, start=1) if line.strip()]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{what}.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        try:
            rows = read(path)
        except DataError as exc:
            message = str(exc)
            if what == "manifest" and not data_lines:
                assert message == f"manifest {path} is empty"
                return
            assert message.startswith(f"{what} line "), message
            line_no = int(message[len(f"{what} line "):].split(":")[0])
            assert line_no in data_lines
            event("refused")
            return
    event("read")
    assert len(rows) == len(data_lines)
    hints = typing.get_type_hints(cls)
    for row in rows:
        assert type(row) is cls
        for f in fields(cls):
            value = getattr(row, f.name)
            if value is None:
                assert type(None) in typing.get_args(hints[f.name])
            else:
                assert type(value) is _plain_type(hints[f.name])


# Pieces of JSONL: whole valid lines of each reader's row, keys, values and
# punctuation, hostile numbers and nesting, line ends and bytes that are not UTF-8.
JSONISH_FRAGMENTS = st.one_of(
    st.binary(max_size=8),
    st.sampled_from([
        b'{"video_id":"v1","duration_s":20.0,"frame_rate":30.0}\n',
        b'{"video_id":"v1","duration_s":20.0,"views":10,"awt_s":5.0,"awp":0.25,"ecr":0.5}\n',
        b'{"video_id":"v1","duration_s":20.0,"frame_rate":30.0,"feature_path":"f/v1.engf",'
        b'"nawp_label":0.5,"ecr_label":0.5}\n',
        b'{"video_id":"v1","nawp_hat":0.5,"ecr_hat":0.25}\n',
        b"{", b"}", b"[", b"]", b",", b":", b'"', b"\\", b"\n", b"\r\n", b" ", b"\t",
        b'"video_id"', b'"v1"', b'"duration_s"', b'"frame_rate"', b'"nawp_hat"', b'"ecr_hat"', b'"views"',
        b"0", b"-0.0", b"20", b"1.5", b"1e999", b"-1e999", b"NaN", b"Infinity", b"true", b"null",
        b"9" * 5000, b'{"a":' * 3000, b"}" * 3000, b"\xff", b"\xe3\x80\x80", b"\x00",
    ]),
)


@pytest.mark.parametrize("what", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(blob=st.binary(max_size=64) | st.lists(JSONISH_FRAGMENTS, max_size=16).map(b"".join))
def test_reader_takes_any_bytes_as_rows_or_a_data_error(what, blob):
    cls, read = READERS[what]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{what}.jsonl"
        path.write_bytes(blob)
        try:
            rows = read(path)
        except DataError:
            event("refused")
            return
    event("read")
    assert all(type(row) is cls for row in rows)


def test_row_round_trips_through_its_encoding(tmp_path):
    records = [
        VideoRecord("v1", 20.0, 10, 5.0, 0.25, 0.5),
        VideoRecord("v2", 31.5, 3, 7.25, 0.23, 0.0, like_rate=0.1, nawp=0.4),
    ]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(row_to_json(r) + "\n" for r in records))
    assert read_records(path) == records
    assert path.read_text().splitlines()[0] == (
        '{"video_id":"v1","duration_s":20.0,"views":10,"awt_s":5.0,"awp":0.25,"ecr":0.5,'
        '"like_rate":null,"nawp":null}'
    )


def test_integer_is_read_as_a_float(tmp_path):
    path = tmp_path / "metas.jsonl"
    path.write_text('{"video_id": "v1", "duration_s": 20, "frame_rate": 30}\n')
    meta = read_metas(path)["v1"]
    assert (type(meta.duration_s), type(meta.frame_rate)) == (float, float)


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"video_id": "v1", "duration_s": 20.0}', "metas line 2: missing keys ['frame_rate']"),
        ('{"video_id": "v1", "duration_s": 20.0, "frame_rate": 30.0, "fps": 30}', "metas line 2: unknown keys ['fps']"),
        ('{"video_id": "", "duration_s": 20.0, "frame_rate": 30.0}', "metas line 2: video_id must not be empty"),
        ('{"video_id": "v1", "duration_s": -1.0, "frame_rate": 30.0}', "metas line 2: duration_s must be positive"),
        ('{"video_id": "v0", "duration_s": 20.0, "frame_rate": 30.0}', "metas line 2: duplicate video_id 'v0'"),
    ],
)
def test_meta_errors_name_the_line(tmp_path, line, message):
    path = tmp_path / "metas.jsonl"
    path.write_text('{"video_id": "v0", "duration_s": 20.0, "frame_rate": 30.0}\n' + line + "\n")
    with pytest.raises(DataError) as info:
        read_metas(path)
    assert str(info.value) == message


# Text with every code point, lone surrogates included, and JSON's escaped characters made likely.
ANY_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\u2028\xe9'))
NESTED_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ANY_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(ANY_TEXT, inner, max_size=4),
    max_leaves=12,
)


@given(NESTED_JSON)
@settings(max_examples=200)
def test_compact_encoder_equals_json_dumps(value):
    assert records._compact_json(value) == json.dumps(value, separators=(",", ":"))


def reference_event_to_json(watch_event: WatchEvent) -> str:
    """``records.event_to_json`` before it formatted lines directly: one ``json.dumps`` per event."""
    payload = {"video_id": watch_event.video_id, "watch_time_s": watch_event.watch_time_s}
    if watch_event.liked is not None:
        payload["liked"] = watch_event.liked
    return json.dumps(payload, separators=(",", ":"))


class _StrId(str):
    """A ``str`` subclass: its events go through ``json``."""


WATCH_TIMES = (
    st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, sys.float_info.max])
    | st.floats().map(np.float64)
    | st.integers()
    | st.booleans()
)
ANY_EVENT = st.builds(
    WatchEvent,
    ANY_TEXT | ANY_TEXT.map(_StrId) | st.integers() | st.none() | st.floats(),
    WATCH_TIMES,
    # ``1 == True`` and ``0 == False``: these must still be written as the integers they are.
    st.sampled_from([None, True, False, 0, 1]),
)
# Events whose line the parser's pattern takes: JSON leaves the id unescaped,
# and the watch time is finite and unsigned.
PLAIN_WATCH = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from([5e-324, sys.float_info.max])
PLAIN_EVENT = st.builds(
    WatchEvent,
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7F, exclude_characters='"\\'), min_size=1),
    PLAIN_WATCH | PLAIN_WATCH.map(np.float64),
    st.sampled_from([None, True, False]),
)


class TestEventWriter:
    @given(ANY_EVENT | PLAIN_EVENT)
    @settings(max_examples=1000)
    def test_line_equals_the_json_dumps_reference(self, watch_event):
        line = records.event_to_json(watch_event)
        assert line == reference_event_to_json(watch_event)
        video_id, watch, liked = watch_event.video_id, watch_event.watch_time_s, watch_event.liked
        plain = (
            type(video_id) is str and video_id and json.dumps(video_id) == f'"{video_id}"'
            and isinstance(watch, float) and math.isfinite(watch) and math.copysign(1.0, watch) > 0
            and any(liked is value for value in (None, True, False))
        )
        event("plain" if plain else "other")
        if plain:  # the parser's fast pattern takes every such line
            match = records.EVENT_LINE.fullmatch(line)
            assert match and (match[1], float(match[2])) == (video_id, watch)
            assert match[3] == (None if liked is None else json.dumps(liked))

    @pytest.mark.parametrize("n_events, writes", [(0, []), (3, [3]), (10, [3, 3, 3, 1])])
    def test_write_events_streams_in_chunks(self, monkeypatch, n_events, writes):
        events = [WatchEvent(f"v{i}", i / 4, (None, True, False)[i % 3]) for i in range(n_events)]
        written = []  # lines in each write
        lines_written_at_pull = []

        class File(io.StringIO):
            def write(self, text):
                written.append(text.count("\n"))
                return super().write(text)

        f = File()

        def one_shot():
            for watch_event in events:
                lines_written_at_pull.append(sum(written))
                yield watch_event

        monkeypatch.setattr(records, "WRITE_CHUNK_ROWS", 3)
        records.write_events(f, one_shot())
        assert f.getvalue() == "".join(reference_event_to_json(e) + "\n" for e in events)
        assert written == writes
        assert all(i < done + 3 for i, done in enumerate(lines_written_at_pull))
