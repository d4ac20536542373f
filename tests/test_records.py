"""The one typed row reader behind every JSONL input except the event log."""

import json
import tempfile
import typing
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from engpred.errors import DataError
from engpred.records import (
    PredictionRow,
    VideoMeta,
    VideoRecord,
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
