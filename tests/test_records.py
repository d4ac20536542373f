"""The JSON-lines writers, and the one typed row reader behind every JSONL input except the event log."""

import dataclasses
import io
import json
import math
import sys
import tempfile
import typing
from dataclasses import fields
from pathlib import Path
from unittest import mock

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
        line = records.row_to_json(watch_event)
        assert line == reference_event_to_json(watch_event)
        video_id, watch, liked = watch_event.video_id, watch_event.watch_time_s, watch_event.liked
        plain = (
            type(video_id) is str and video_id and json.dumps(video_id) == f'"{video_id}"'
            and isinstance(watch, float) and math.isfinite(watch) and math.copysign(1.0, watch) > 0
            and any(liked is value for value in (None, True, False))
        )
        event("plain" if plain else "other")
        if plain:  # the parser's fast pattern takes every such line
            match = records.row_codec(WatchEvent).pattern.fullmatch(line)
            assert match and (match[1], float(match[2])) == (video_id, watch)
            assert match[3] == (None if liked is None else json.dumps(liked))

    @given(st.lists(ANY_EVENT | PLAIN_EVENT, max_size=6))
    @settings(max_examples=300)
    def test_written_log_equals_the_json_dumps_reference(self, events):
        f = io.StringIO()
        records.write_events(f, events)
        assert f.getvalue() == "".join(reference_event_to_json(e) + "\n" for e in events)
        event("column by column" if events and records.row_codec(WatchEvent).write(events) else "row_to_json")

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

        monkeypatch.setattr(records, "ROW_CHUNK_LINES", 3)
        records.write_events(f, one_shot())
        assert f.getvalue() == "".join(reference_event_to_json(e) + "\n" for e in events)
        assert written == writes
        assert all(i < done + 3 for i, done in enumerate(lines_written_at_pull))


# -- the column-by-column row codec ----------------------------------------

ROW_TYPES = [VideoMeta, VideoRecord, ManifestRow, PredictionRow]
# Ids JSON writes as they are, and ids it must escape or that are not ASCII.
PLAIN_TEXT = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'), min_size=1, max_size=8
)
ESCAPED_TEXT = st.text(
    st.sampled_from('"\\ \xe9☃/') | st.characters(max_codepoint=0x1F) | st.characters(), min_size=1, max_size=6
)
WRITER_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, sys.float_info.max, -sys.float_info.max, 1e16, 1e-7]
)
# Floats every row type's ``validate`` takes.
POSITIVE_FLOATS = st.floats(min_value=5e-324, allow_infinity=False) | st.sampled_from([5e-324, sys.float_info.max])


def _codec_fields(cls):
    """(name, scalar type, optional) for each of ``cls``'s fields."""
    hints = typing.get_type_hints(cls)
    return [(f.name, _plain_type(hints[f.name]), type(None) in typing.get_args(hints[f.name])) for f in fields(cls)]


@st.composite
def writer_rows(draw, cls, text, floats):
    """A row of ``cls`` holding values of its fields' own types, None in an optional field half the time."""
    values = {str: text, int: st.integers(), float: floats}
    return cls(*(
        draw(st.none() | values[kind] if optional else values[kind]) for _, kind, optional in _codec_fields(cls)
    ))


def writer_files(cls, text=(PLAIN_TEXT, PLAIN_TEXT | ESCAPED_TEXT), max_size=7):
    """Rows of ``cls`` for one file: all of them with plain text, or with valid floats, half the time each."""
    return st.tuples(st.sampled_from(text), st.sampled_from([POSITIVE_FLOATS, WRITER_FLOATS])).flatmap(
        lambda strategies: st.lists(writer_rows(cls, *strategies), min_size=1, max_size=max_size)
    )


def write_jsonl(path: Path, rows, encode) -> None:
    """The reference writer: one ``encode``d row per line."""
    path.write_text("".join(encode(row) + "\n" for row in rows))


def _reference_read(blob: bytes, cls, what: str):
    """``read_rows`` a line at a time: its rows as (line number, line), or the DataError text."""
    try:
        rows = records._read_lines(io.BytesIO(blob).readlines(), 1, cls, what)
    except DataError as exc:
        return str(exc)
    return [(n, row_to_json(row)) for n, row in rows]


def _read(path: Path, cls, what: str):
    try:
        rows = read_rows(path, cls, what)
    except DataError as exc:
        return str(exc)
    return [(n, row_to_json(row)) for n, row in rows]


def _plain_strings(row) -> bool:
    return all(json.dumps(v) == f'"{v}"' for v in (getattr(row, f.name) for f in fields(row)) if isinstance(v, str))


@pytest.mark.parametrize("cls", ROW_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_codec_writes_row_to_json_bytes_and_reads_them_back(cls, data):
    rows = data.draw(writer_files(cls), label="rows")
    codec = records.row_codec(cls)
    assert codec.write(rows) is not None  # every value has its field's own type
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "rows.jsonl", Path(tmp) / "reference.jsonl"
        records.write_rows(path, rows)
        write_jsonl(reference, rows, row_to_json)
        blob = path.read_bytes()
        assert blob == reference.read_bytes()
        got = _read(path, cls, "rows")
    assert got == _reference_read(blob, cls, "rows")
    valid = not isinstance(got, str)
    if valid:
        assert got == [(n, row_to_json(row)) for n, row in enumerate(rows, start=1)]
    fast = codec.read(blob.splitlines(keepends=True)) is not None
    assert fast == (valid and all(map(_plain_strings, rows)))
    event("column by column" if fast else "line by line")


class _Text(str):
    """A ``str`` subclass: its chunk is written through ``row_to_json``."""


ODD_VALUES = {
    str: st.builds(_Text, PLAIN_TEXT),
    int: st.booleans() | WRITER_FLOATS,
    float: st.sampled_from([math.nan, math.inf, -math.inf]) | st.integers() | WRITER_FLOATS.map(np.float64),
}


@pytest.mark.parametrize("cls", ROW_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_chunk_with_other_value_types_is_written_as_row_to_json(cls, data):
    rows = data.draw(writer_files(cls, (PLAIN_TEXT,), max_size=4), label="rows")
    i = data.draw(st.integers(0, len(rows) - 1), label="odd row")
    name, kind, _ = data.draw(st.sampled_from(_codec_fields(cls)), label="odd field")
    rows[i] = dataclasses.replace(rows[i], **{name: data.draw(ODD_VALUES[kind], label="odd value")})
    event("column by column" if records.row_codec(cls).write(rows) is not None else "row_to_json")
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "rows.jsonl", Path(tmp) / "reference.jsonl"
        records.write_rows(path, rows)
        write_jsonl(reference, rows, row_to_json)
        assert path.read_bytes() == reference.read_bytes()


def _token_spans(line: bytes, cls) -> dict[str, tuple[int, int]]:
    """Each field's value token in a writer-form line, by field name (a string's with its quotes)."""
    match = records.row_codec(cls).pattern.fullmatch(line.decode())
    return {name: (match.start(k) - (kind is str), match.end(k) + (kind is str))
            for k, (name, kind, _) in enumerate(_codec_fields(cls), start=1)}


def _splice(line: bytes, span: tuple[int, int], token: bytes) -> bytes:
    return line[: span[0]] + token + line[span[1]:]


MUTATIONS = [
    "swapped keys", "a space", "\\/", "1e999", "int token in a float field", "float token in an int field",
    "5,000 digits", "\\r\\n", "a blank line", "no final newline", "\\xff",
]


def _mutate(data, lines: list[bytes], cls, how: str) -> bytes:
    """The file of ``lines`` (writer form, no line ends) with one token mutated as ``how`` says."""
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    line, spans = lines[i], _token_spans(lines[i], cls)
    kinds = {name: kind for name, kind, _ in _codec_fields(cls)}
    at = data.draw(st.integers(0, len(line)), label="at")
    if how == "swapped keys":
        obj = json.loads(line)
        keys = list(obj)
        k = data.draw(st.integers(0, len(keys) - 2), label="key")
        keys[k], keys[k + 1] = keys[k + 1], keys[k]
        line = json.dumps({key: obj[key] for key in keys}, separators=(",", ":")).encode()
    elif how in ("a space", "\\/", "\\xff"):
        line = line[:at] + {"a space": b" ", "\\/": b"\\/", "\\xff": b"\xff"}[how] + line[at:]
    elif how in ("1e999", "int token in a float field", "5,000 digits"):
        numeric = [name for name in spans if kinds[name] is float or (how == "5,000 digits" and kinds[name] is int)]
        name = data.draw(st.sampled_from(numeric), label="field")
        token = {"1e999": b"1e999", "5,000 digits": b"9" * 5000}.get(how) or str(data.draw(st.integers())).encode()
        line = _splice(line, spans[name], token)
    elif how == "float token in an int field":
        ints = [name for name in spans if kinds[name] is int]
        if ints:
            line = _splice(line, spans[ints[0]], repr(data.draw(WRITER_FLOATS)).encode())
    lines = [*lines[:i], line, *lines[i + 1:]]
    ends = [b"\n"] * len(lines)
    if how == "\\r\\n":
        ends[i] = b"\r\n"
    elif how == "a blank line":
        ends[i] = b"\n" + data.draw(st.sampled_from([b"", b" ", b"\t\r"]), label="blank") + b"\n"
    elif how == "no final newline":
        ends[-1] = b""
    return b"".join(line + end for line, end in zip(lines, ends))


@pytest.mark.parametrize("chunk_rows", [1, 3, records.ROW_CHUNK_LINES])
@pytest.mark.parametrize("cls", ROW_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_writer_lines_read_as_line_by_line(cls, chunk_rows, data):
    rows = data.draw(writer_files(cls, (PLAIN_TEXT,)), label="rows")
    how = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    blob = _mutate(data, [row_to_json(row).encode() for row in rows], cls, how)
    event(how)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(records, "ROW_CHUNK_LINES", chunk_rows):
        path = Path(tmp) / "rows.jsonl"
        path.write_bytes(blob)
        got = _read(path, cls, "rows")
    assert got == _reference_read(blob, cls, "rows")
    event("refused" if isinstance(got, str) else "read")


@pytest.mark.parametrize("token", [b"1e999", b"9" * 5000, b"9" * 5000 + b".5", b"20", b"-0.0", b'"v"', b"null", b"true"])
@pytest.mark.parametrize("field", [f.name for f in fields(VideoRecord)])
def test_each_token_in_each_field_reads_as_line_by_line(tmp_path, field, token):
    lines = [row_to_json(VideoRecord(f"v{i}", 20.0, 10, 5.0, 0.25, 0.5, 0.1, 0.5)).encode() for i in range(2)]
    lines[1] = _splice(lines[1], _token_spans(lines[1], VideoRecord)[field], token)
    blob = b"\n".join(lines) + b"\n"
    path = tmp_path / "records.jsonl"
    path.write_bytes(blob)
    assert _read(path, VideoRecord, "records") == _reference_read(blob, VideoRecord, "records")


@pytest.mark.parametrize("chunk_rows", [1, 3])
def test_chunks_are_read_and_numbered_on_their_own(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(records, "ROW_CHUNK_LINES", chunk_rows)
    metas = [VideoMeta(f"v{i}", 10.0 + i, 30.0) for i in range(8)]
    lines = [row_to_json(meta) for meta in metas]
    lines[4] = json.dumps(metas[4].to_dict())  # spaced: read line by line
    lines.insert(2, "")
    path = tmp_path / "metas.jsonl"
    path.write_text("\n".join(lines) + "\n")
    taken = []  # what the codec made of each chunk
    codec_read = records.RowCodec.read

    def read(codec, chunk):
        taken.append(codec_read(codec, chunk))
        return taken[-1]

    monkeypatch.setattr(records.RowCodec, "read", read)
    assert read_rows(path, VideoMeta, "metas") == [*zip([1, 2], metas[:2]), *zip(range(4, 10), metas[2:])]
    # A chunk holding the blank or the spaced line is read line by line, every other chunk a column at a time.
    fast = {1: [1, 1, 0, 1, 1, 0, 1, 1, 1], 3: [0, 0, 1]}[chunk_rows]
    assert [chunk is not None for chunk in taken] == [bool(f) for f in fast]
    path.write_text("\n".join(lines[:7] + ['{"video_id":"v9","duration_s":-1.0,"frame_rate":30.0}']) + "\n")
    with pytest.raises(DataError, match=r"^metas line 8: duration_s must be positive$"):
        read_metas(path)


@pytest.mark.parametrize("chunk_rows", [1, 3])
def test_writer_formats_each_chunk_on_its_own(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(records, "ROW_CHUNK_LINES", chunk_rows)
    rows = [VideoRecord(f"v{i}", 20.0, i, 5.0, 0.25, 0.5, nawp=0.5 if i % 2 else None) for i in range(7)]
    rows[4] = dataclasses.replace(rows[4], awp=math.nan)  # written through row_to_json, alone or with its chunk
    records.write_records(tmp_path / "a.jsonl", rows)
    assert (tmp_path / "a.jsonl").read_text() == "".join(row_to_json(row) + "\n" for row in rows)
