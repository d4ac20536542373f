"""Core record types, their JSON-lines encodings, and the package's JSON I/O.

Every JSON and JSONL artifact is written through ``atomic_write`` (by
``write_json`` or ``write_rows``), so a failed write leaves the previous
file in place. A dataclass deriving ``JsonFields`` takes its JSON schema from
its fields, checked by ``typed_value``: configs are read by
``JsonFields.from_dict``, and every JSONL file except the event log by
``read_rows``, one such dataclass per line. ``validate`` checks the values
beyond their types: ``read_rows`` runs it on each row, and a config runs it
whenever it is made (directly, by ``from_dict`` or by ``dataclasses.replace``),
so a config that exists is valid. Every JSONL line, the event and
train logs' too, is a row that ``row_to_json`` writes with its keys in field
order, so repeated runs produce byte-identical files.

The row type's ``RowCodec`` alone describes that line. ``write_lines`` formats
a chunk of ``ROW_CHUNK_LINES`` rows by it, a column at a time and with one
join for the chunk, or through ``row_to_json`` when the chunk holds any other
value, with the same bytes. ``read_rows`` reads a chunk whose lines are all in
that form column by column, and any other chunk line by line, with the same
rows and errors; ``aggregate`` scans the event log by it. Rows made in bulk,
read or computed, are built a column at a time by ``rows_from_columns``.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import re
import types
from collections import deque
from collections.abc import Mapping
from contextlib import contextmanager, suppress
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Union, get_args, get_origin, get_type_hints

from .errors import DataError


def typed_value(value: Any, tp: Any, where: str) -> Any:
    """``value`` checked against the annotation ``tp``; JSON lists become tuples.

    Integers are accepted for float fields and converted, and only finite
    values are (Python's ``json`` reads ``NaN`` and ``Infinity``); bools are
    never numbers. Nested dataclasses are built from JSON objects.
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
            if not math.isfinite(value := float(value)):
                raise DataError(f"{where} must be finite, got {value!r}")
            return value
    elif tp in (int, str, bool) and isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
        return value
    raise DataError(f"{where} must be {tp if origin else tp.__name__}, got {value!r}")


def _plain_type(tp: Any) -> type | None:
    """The JSON scalar type whose values a field of type ``tp`` takes as they are."""
    if get_origin(tp) in (Union, types.UnionType):
        (tp,) = [a for a in get_args(tp) if a is not type(None)]
    return tp if tp in (str, int, bool, float) else None


# The metadata of a field its row's line leaves out when None, where any other field writes null.
OMITTED_WHEN_NONE = {"omitted_when_none": True}


@functools.cache
def _schema(cls: type) -> tuple[dict[str, Any], dict[str, type | None], set[str], set[str]]:
    """``cls``'s field types in field order, their plain types, fields without a default, and fields omitted."""
    hints = get_type_hints(cls)
    hints = {f.name: hints[f.name] for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    omitted = {f.name for f in fields(cls) if f.metadata == OMITTED_WHEN_NONE}
    return hints, {k: _plain_type(tp) for k, tp in hints.items()}, required, omitted


def _from_fields(cls: type, payload: Any, where: str, sep: str = ".") -> Any:
    """Dataclass ``cls`` built from a JSON object whose keys are its fields.

    A value's error names it ``where + sep + field``.
    """
    if not isinstance(payload, dict):
        raise DataError(f"{where} must be a JSON object, got {payload!r}")
    hints, _, required, _ = _schema(cls)
    if not payload.keys() <= hints.keys():
        raise DataError(f"{where}: unknown keys {[k for k in payload if k not in hints]}")
    if not required <= payload.keys():
        raise DataError(f"{where}: missing keys {[k for k in hints if k in required and k not in payload]}")
    return cls(**{k: typed_value(v, hints[k], f"{where}{sep}{k}") for k, v in payload.items()})


class JsonFields:
    """Mixin for dataclasses whose fields are their JSON schema."""

    __slots__ = ()

    def validate(self) -> None:
        """Check values beyond their types; raises DataError. A config runs it in ``__post_init__``."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Any):
        """Reject unknown keys and wrong-typed values; a config then checks itself as it is made."""
        return _from_fields(cls, payload, cls.__name__)


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


def make_dir(path: Path | str) -> Path:
    """``path`` as a directory, made with its parents if missing."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. a file is in the way
        raise DataError(f"cannot make directory {path}: {exc.strerror or exc}") from exc
    return path


@functools.cache
def _slot_setters(cls: type) -> tuple[Callable[[Any, Any], None], ...] | None:
    """Each field's slot setter, in field order, or None unless ``cls`` is a dataclass with
    ``__slots__`` and no ``__post_init__``, whose rows are their field values and nothing else."""
    if not is_dataclass(cls) or "__slots__" not in vars(cls) or hasattr(cls, "__post_init__"):
        return None
    return tuple(vars(cls)[f.name].__set__ for f in fields(cls))


def rows_from_columns(cls: type, columns: list[list]) -> list:
    """``list(map(cls, *columns))`` for a slots dataclass ``cls``, one column per field.

    The rows are allocated bare and each field is set a column at a time
    through its slot, which skips the per-row ``__init__`` and its frozen
    ``object.__setattr__``. The cyclic garbage collector is paused meanwhile:
    the allocations would otherwise set off collections that walk the new
    rows again and again, and rows of scalars cannot form cycles. TypeError
    for a class these rows would not fit, ValueError for a missing column or
    columns of unequal length, either before any row is made.
    """
    setters = _slot_setters(cls)
    if setters is None:
        raise TypeError(f"{cls.__name__} is not a slots dataclass without __post_init__")
    if len(columns) != len(setters):
        raise ValueError(f"{cls.__name__} has {len(setters)} fields, got {len(columns)} columns")
    n = len(columns[0]) if columns else 0
    if any(len(column) != n for column in columns):
        raise ValueError(f"{cls.__name__} columns differ in length: {[len(column) for column in columns]}")
    enabled = gc.isenabled()
    gc.disable()
    try:
        rows = list(map(object.__new__, repeat(cls, n)))
        for setter, column in zip(setters, columns):
            deque(map(setter, rows, column), maxlen=0)
    finally:
        if enabled:
            gc.enable()
    return rows


# ``json.dumps(obj, separators=(",", ":"))``, without building an encoder per call.
_compact_json: Callable[[Any], str] = json.JSONEncoder(separators=(",", ":")).encode


def row_to_json(row: JsonFields) -> str:
    """A row as compact JSON, its keys in field order, without the fields left out when None."""
    hints, _, _, omitted = _schema(type(row))
    return _compact_json({k: v for k in hints if (v := getattr(row, k)) is not None or k not in omitted})


def write_json(path: Path | str, obj: Any) -> None:
    """Pretty JSON with sorted keys and a trailing newline."""
    with atomic_write(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


# Each JSON scalar type's token as ``row_to_json`` writes it (a string without
# escapes, a number as ``repr`` writes it), with one group holding the text
# its value is read from (a string's is between its quotes); how that text is
# read back, and how a value is written. A float token has a fraction or an
# exponent, as ``float.__repr__`` always writes; ``json`` reads an integer
# token as an int. No token's text is empty, save a string's.
_TOKENS: dict[type, tuple[str, Callable[[str], Any], Callable[[Any], str]]] = {
    str: (r'"([^"\\\x00-\x1f]*)"', str, encode_basestring_ascii),
    int: (r"(-?(?:0|[1-9][0-9]*))", int, int.__repr__),
    float: (
        r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))",
        float,
        float.__repr__,
    ),
    bool: ("(true|false)", {"true": True, "false": False}.__getitem__, ("false", "true").__getitem__),
}


@dataclass(frozen=True)
class RowCodec:
    """The line ``row_to_json`` writes for a row type whose fields are all JSON scalars.

    ``pattern`` matches exactly such a line, in MULTILINE mode, with one
    group per field, empty for a None; ``template`` is the line with ``%s``
    for each field's token (for a field left out when None, its key and
    token). Both work on a chunk of rows a column at a time, and both give up
    (return None) on anything else, which their callers then read or write a
    line at a time: so a chunk gives the same rows, errors and bytes either way.
    """

    cls: type
    fields: tuple[tuple[str, type, str | None], ...]  # name, scalar type, None's text: "null", "" (omitted) or None
    pattern: re.Pattern
    template: str

    def column(self, k: int, texts: Iterable[str]) -> list:
        """Field ``k``'s values from the texts of its group; ValueError for an integer past the digit limit."""
        _, kind, none = self.fields[k]
        read = _TOKENS[kind][1]
        if none is not None and "" in texts:
            return [None if t == "" else read(t) for t in texts]
        return list(map(read, texts))

    def read(self, lines: list[bytes]) -> list | None:
        """The rows of ``lines`` when every line is one the writer writes and every row is valid."""
        try:
            text = b"".join(lines).decode("utf-8")
        except UnicodeDecodeError:
            return None
        matches = self.pattern.findall(text)
        if len(matches) != len(lines):
            return None
        columns = []
        # ``findall`` gives each line's groups as a tuple, or as a string when there is one group.
        by_column = zip(*matches) if len(self.fields) > 1 else [matches]
        for k, texts in enumerate(by_column):
            try:
                values = self.column(k, texts)
            except ValueError:
                return None
            # A float token reads as an infinity only past the double range.
            if self.fields[k][1] is float and (math.inf in values or -math.inf in values):
                return None
            columns.append(values)
        rows = rows_from_columns(self.cls, columns)
        if self.cls.validate is not JsonFields.validate:
            try:
                for row in rows:
                    row.validate()
            except DataError:
                return None
        return rows

    def write(self, rows: list) -> str | None:
        """The lines ``row_to_json`` writes for ``rows``, when every row is a ``cls`` holding
        values of its fields' exact types (any float subclass for a float) and finite floats."""
        if set(map(type, rows)) != {self.cls}:
            return None
        columns = []
        for name, kind, none in self.fields:
            values = list(map(attrgetter(name), rows))
            types = set(map(type, values)) - ({type(None)} if none is not None else set())
            if not (all(issubclass(t, float) for t in types) if kind is float else types <= {kind}):
                return None
            nulls = none is not None and None in values
            present = [v for v in values if v is not None] if nulls else values
            if kind is float and not all(map(math.isfinite, present)):
                return None
            write = _TOKENS[kind][2]
            key = f",{_compact_json(name)}:" if none == "" else ""  # written with the token, or not at all
            if kind is bool:  # each value's text looked up
                table = {False: key + write(False), True: key + write(True), None: none}
                columns.append(list(map(table.__getitem__, values)))
            elif nulls or key:
                columns.append([none if v is None else key + write(v) for v in values])
            else:
                columns.append(list(map(write, values)))
        # One list holding, row after row, the template's literal pieces (each
        # line's end joined to the next line's start) between the columns.
        head, *middle, end = self.template.split("%s")
        stride, n = 2 * len(columns), len(rows)
        parts = [end + "\n" + head] * (stride * n)
        parts[0] = head
        for k, literal in enumerate(middle, start=1):
            parts[2 * k::stride] = repeat(literal, n)
        for k, column in enumerate(columns):
            parts[2 * k + 1::stride] = column
        return "".join(parts) + end + "\n"


@functools.cache
def row_codec(cls: type) -> RowCodec | None:
    """``cls``'s ``RowCodec``, or None when a field is not a JSON scalar, a ``str``
    field may be None, or the first field is left out when None."""
    hints, plain, _, omitted = _schema(cls)
    fields_, pattern, template = [], [], []
    for name, tp in hints.items():
        kind = plain[name]
        none = None if tp is kind else "" if name in omitted else "null"
        if kind is None or (kind is str and none is not None) or (none == "" and not fields_):
            return None
        key, token = f"{',' * bool(fields_)}{_compact_json(name)}:", _TOKENS[kind][0]
        piece = re.escape(key) + (f"(?:null|{token})" if none else token)
        pattern.append(f"(?:{piece})?" if none == "" else piece)
        template.append("%s" if none == "" else key + "%s")  # an omitted field's column holds its key
        fields_.append((name, kind, none))
    line = "".join(pattern)
    return RowCodec(cls, tuple(fields_), re.compile(f"^\\{{{line}\\}}$", re.MULTILINE), f"{{{''.join(template)}}}")


# Lines per chunk of a JSONL file, read or written. A chunk taken column by
# column holds each field's token as a string, about 1 KB a record. Reading a
# 65,536-record file peaked at 26.5 MB of allocations line by line, 90 MB in
# one chunk and 27 MB in 1,024-line chunks, which were also faster.
ROW_CHUNK_LINES = 1024


def write_lines(f: IO[str], rows: Iterable[JsonFields]) -> None:
    """``JsonFields`` rows to the open file ``f``, one ``row_to_json`` line each, formatted a
    chunk at a time by their ``RowCodec`` where it takes the chunk. Rows are pulled
    lazily, so a file of any length is written with bounded memory."""
    rows = iter(rows)
    while chunk := list(islice(rows, ROW_CHUNK_LINES)):
        codec = row_codec(type(chunk[0]))
        lines = codec.write(chunk) if codec else None
        f.write("\n".join(map(row_to_json, chunk)) + "\n" if lines is None else lines)


def write_rows(path: Path | str, rows: Iterable[JsonFields]) -> None:
    """``write_lines`` to a new file at ``path``."""
    with atomic_write(path) as f:
        write_lines(f, rows)


# The name benchmarks/inputs.py writes the event log with, a piece at a time.
write_events = write_lines


def open_input(path: Path | str, what: str) -> IO[bytes]:
    """The input file opened as bytes; each reader decodes it as UTF-8 itself."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot open {what} {path}: {exc}") from exc


def json_object(raw: bytes, where: str) -> dict:
    """The JSON object in ``raw``; anything else raises DataError naming ``where``."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise DataError(f"{where}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DataError(f"{where}: invalid JSON: nested too deeply") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{where}: not a JSON object")
    return obj


def read_json(path: Path | str, what: str) -> dict:
    """A file holding one JSON object."""
    with open_input(path, what) as f:
        return json_object(f.read(), f"{what} {path}")


def read_rows(path: Path | str, cls: type, what: str) -> list[tuple[int, Any]]:
    """``(line number, row)`` for each non-blank line, read as the ``JsonFields`` dataclass ``cls``.

    README's "File formats" gives the rule; a line that breaks it, or fails
    ``cls.validate``, raises DataError reading ``<what> line N: ...``.
    """
    codec = row_codec(cls)
    rows: list[tuple[int, Any]] = []
    with open_input(path, what) as f:
        first = 1
        while lines := list(islice(f, ROW_CHUNK_LINES)):
            chunk = codec.read(lines) if codec else None
            if chunk is None:
                rows += _read_lines(lines, first, cls, what)
            else:
                rows += zip(range(first, first + len(lines)), chunk)
            first += len(lines)
    return rows


def _read_lines(lines: list[bytes], first: int, cls: type, what: str) -> list[tuple[int, Any]]:
    """``read_rows`` of ``lines`` one line at a time, ``first`` being the number of the first."""
    rows = []
    for line_no, line in enumerate(lines, start=first):
        if line.strip():
            where = f"{what} line {line_no}"
            row = _from_fields(cls, json_object(line, where), where, ": ")
            try:
                row.validate()
            except DataError as exc:
                raise DataError(f"{where}: {exc}") from exc
            rows.append((line_no, row))
    return rows


def rows_by_id(rows: list[tuple[int, Any]], what: str) -> dict[str, Any]:
    """``read_rows`` rows keyed by ``video_id``; a repeated id raises DataError naming its line."""
    by_id: dict[str, Any] = {}
    for line_no, row in rows:
        if row.video_id in by_id:
            raise DataError(f"{what} line {line_no}: duplicate video_id {row.video_id!r}")
        by_id[row.video_id] = row
    return by_id


@dataclass(frozen=True, slots=True)
class WatchEvent(JsonFields):
    """One viewer's watch of one video, a line of the event log; ``aggregate.parse_events`` says which lines are."""

    video_id: str
    watch_time_s: float
    liked: bool | None = field(default=None, metadata=OMITTED_WHEN_NONE)


@dataclass(frozen=True, slots=True)
class VideoMeta(JsonFields):
    """Static per-video properties."""

    video_id: str
    duration_s: float
    frame_rate: float

    def validate(self) -> None:
        if not self.video_id:
            raise DataError("video_id must not be empty")
        if not self.duration_s > 0:
            raise DataError("duration_s must be positive")
        if not self.frame_rate > 0:
            raise DataError("frame_rate must be positive")


# The name benchmarks/inputs.py writes metas with.
meta_to_json = row_to_json


def read_metas(path: Path | str) -> dict[str, VideoMeta]:
    """Load a meta table keyed by video_id; duplicate ids are an error."""
    return rows_by_id(read_rows(path, VideoMeta, "metas"), "metas")


@dataclass(frozen=True, slots=True)
class VideoRecord(JsonFields):
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


def write_records(path: Path | str, records: Iterable[VideoRecord]) -> None:
    write_rows(path, records)


def read_records(path: Path | str) -> list[VideoRecord]:
    """Records, one per line."""
    return [record for _, record in read_rows(path, VideoRecord, "records")]


@dataclass(frozen=True, slots=True)
class ManifestRow(JsonFields):
    """One labelled video; ``feature_path`` is relative to the manifest's directory."""

    video_id: str
    duration_s: float
    frame_rate: float
    feature_path: str
    nawp_label: float
    ecr_label: float
    awt_label: float | None = None
    awp_label: float | None = None


@dataclass(frozen=True, slots=True)
class PredictionRow(JsonFields):
    """One line of the held-out predictions that ``engpred train`` writes."""

    video_id: str
    nawp_hat: float
    ecr_hat: float


@dataclass(frozen=True, slots=True)
class TrainLogRow(JsonFields):
    """One line of ``train_log.jsonl``: an evaluation step, its learning rate and batch
    loss, and the held-out SRCCs (None where a rank correlation is undefined)."""

    step: int
    lr: float
    train_loss: float
    eval_srcc_nawp: float | None = None
    eval_srcc_ecr: float | None = None


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
    the stream when ``size`` is None, in blocks of whole lines (``blocks``).
    Lines end at "\n" only. A block is decoded once, with undecodable bytes
    as U+FFFD; that equals decoding each line alone, as a newline byte never
    occurs inside a UTF-8 sequence. ``count`` is the number of lines read so
    far.
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
