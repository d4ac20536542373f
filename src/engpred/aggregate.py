"""Watch-event log parsing and per-video engagement aggregation.

The log is parsed in blocks of lines (``parse_event_blocks``). One regex
scan per block matches every line: runs of lines in the writer's own form
(``records.row_codec(WatchEvent)``'s pattern) go into the event columns in bulk, and
``parse_events``, the reference path, takes every other line alone.
Aggregation is a commutative-monoid reduction of integers: per video,
counts and the watch-time sum in units of 2**-1074. Every finite double is
an integer multiple of that unit, so the sum is exact (a superaccumulator,
Neal 2015, arXiv:1505.05571) and is rounded once, when ``finish`` divides
it. A ``CorpusAggregator`` is built from each video's duration by id, all
it reads of the meta table. Events reach it as batches of columns:
``add_columns`` takes one batch, and ``add`` cuts a stream of
``WatchEvent``s into such batches. A batch is reduced by ``np.bincount``
and one integer sum per (video, binary exponent). Events can be processed
in any order and in any sharding: merged shard aggregates are bit-identical
to a single pass. ``engpred aggregate --shards N`` relies on this: it cuts
the log into byte ranges of whole lines, reduces each in its own worker
process and merges the shards in range order.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import DataError
from .records import VideoMeta, VideoRecord, WatchEvent, row_codec

logger = logging.getLogger(__name__)

DEFAULT_ECR_THRESHOLD_S = 5.0
DEFAULT_MIN_VIEWS = 2000
DEFAULT_DURATION_RANGE_S = (10.0, 60.0)

# Watch times beyond this multiple of the duration are flagged (still counted).
EXTREME_WATCH_FACTOR = 10.0

# Units of exact watch-time sums per second: 2**-1074 s is the smallest subnormal.
UNITS_PER_S = 2**1074

# Events parsed into one batch of columns before it is reduced; bounds memory.
REDUCE_BATCH = 65536

# Rows of ``CorpusAggregator.counts``.
VIEWS, OVER_THRESHOLD, LIKES, LIKED_SEEN, EXTREME = range(5)


@dataclass(frozen=True, slots=True)
class ParseFailure:
    """A rejected event-log line, with its 1-based position."""

    line_no: int
    message: str


def parse_events(lines: Iterable[str]) -> Iterator[WatchEvent | ParseFailure]:
    """Parse JSONL event lines of text, yielding events and per-line failures.

    The reference parser, and the path of every line that the fast path of
    ``parse_event_blocks`` does not take. Malformed lines never abort the
    stream; each yields a ParseFailure with its line number instead.
    """
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            yield ParseFailure(line_no, f"invalid JSON: {exc.msg}")
            continue
        except ValueError as exc:  # an integer past the interpreter's digit limit
            yield ParseFailure(line_no, f"invalid JSON: {exc}")
            continue
        except RecursionError:
            yield ParseFailure(line_no, "invalid JSON: nested too deeply")
            continue
        if not isinstance(payload, dict):
            yield ParseFailure(line_no, "line is not a JSON object")
            continue
        video_id = payload.get("video_id")
        if not isinstance(video_id, str) or not video_id:
            yield ParseFailure(line_no, "missing or empty video_id")
            continue
        watch = payload.get("watch_time_s")
        if isinstance(watch, bool) or not isinstance(watch, (int, float)):
            yield ParseFailure(line_no, "watch_time_s is not a number")
            continue
        try:
            watch = float(watch)
        except OverflowError:  # an integer past the double range
            watch = math.inf
        if not math.isfinite(watch):
            yield ParseFailure(line_no, "watch_time_s is not finite")
            continue
        if watch < 0:
            yield ParseFailure(line_no, "negative watch time")
            continue
        liked = payload.get("liked")
        if liked is not None and not isinstance(liked, bool):
            yield ParseFailure(line_no, "liked is not a boolean")
            continue
        yield WatchEvent(video_id=video_id, watch_time_s=watch, liked=liked)


@dataclass(slots=True)
class EventColumns:
    """Events as parallel columns, in log order."""

    video_ids: list[str] = field(default_factory=list)
    watch_s: list[float] = field(default_factory=list)
    liked: list[bool | None] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.video_ids)

    def append(self, event: WatchEvent) -> None:
        self.video_ids.append(event.video_id)
        self.watch_s.append(event.watch_time_s)
        self.liked.append(event.liked)


_EVENT_CODEC = row_codec(WatchEvent)

# One match per line of a block, cut as ``str.split("\n")`` cuts it: the
# event codec's groups (id, watch time, liked; the watch time never empty)
# when it takes the whole line, else ("", "", ""). ``$`` matches only before
# "\n" or at the end, and ``.`` matches every other character ("\r", U+0085
# and U+2028 too). A block that ends in "\n" gives one more, empty, match.
_BLOCK_LINES = re.compile(rf"{_EVENT_CODEC.pattern.pattern}|^.*$", re.MULTILINE)


def _parse_alone(parse_line, line: str, line_no: int, columns: EventColumns) -> Iterator[ParseFailure]:
    for item in parse_line([line]):
        if isinstance(item, ParseFailure):
            yield ParseFailure(line_no, item.message)
        else:
            columns.append(item)


def parse_event_blocks(
    blocks: Iterable[str], parse_line: Callable[[list[str]], Iterator[WatchEvent | ParseFailure]] = parse_events
) -> Iterator[EventColumns | ParseFailure]:
    """Parse blocks of event-log lines (``records.LineRange.blocks``).

    Yields the valid events as columns of up to about ``REDUCE_BATCH``
    events, and a ParseFailure per rejected line, all in log order. One
    scan per block matches each line; a run of lines that the event codec
    takes, each with a non-empty id and a watch time in [0, inf), is added
    to the columns as its groups say. Every other line, and a final line
    without a newline, goes through ``parse_line`` alone, so events, failure
    texts and line numbers equal those of ``parse_events`` over the same lines.
    """
    columns = EventColumns()
    line_no = 0
    for block in blocks:
        ids, watches, likes = zip(*_BLOCK_LINES.findall(block))
        # The last match is the text after the block's last "\n": empty, or a
        # final line without a newline, which is taken below.
        start, n = 0, len(ids) - 1
        lines = None  # the block's lines, cut once a line goes alone
        while start < n:
            try:
                stop = watches.index("", start, n)  # the next line the pattern does not take
            except ValueError:
                stop = n
            run = ids[start:stop]
            watch = _EVENT_CODEC.column(1, watches[start:stop])
            if watch and not (min(watch) >= 0.0 and max(watch) < math.inf and all(run)):
                bad = next(k for k, (v, w) in enumerate(zip(run, watch)) if not (v and 0.0 <= w < math.inf))
                stop, run = start + bad, run[:bad]
                del watch[bad:]
            columns.video_ids += run
            columns.watch_s += watch
            columns.liked += _EVENT_CODEC.column(2, likes[start:stop])
            line_no += stop - start
            if stop < n:
                lines = lines or block.split("\n")
                line_no += 1
                yield from _parse_alone(parse_line, lines[stop] + "\n", line_no, columns)
            start = stop + 1
        if tail := block[block.rfind("\n") + 1:]:
            line_no += 1
            yield from _parse_alone(parse_line, tail, line_no, columns)
        if len(columns) >= REDUCE_BATCH:
            yield columns
            columns = EventColumns()
    if len(columns):
        yield columns


class CorpusAggregator:
    """Sharded corpus aggregation over a fixed table of video durations.

    ``durations`` maps each video id to its duration in seconds, in
    meta-table order; that is all of the meta table the reduce and
    ``finish`` read. Each shard owns one aggregator; ``merge`` folds shards
    together. Per video (in table order) it holds the ``counts`` rows
    (``VIEWS``, ``OVER_THRESHOLD``, ``LIKES``, ``LIKED_SEEN``, ``EXTREME``)
    and the exact watch-time sum in ``units``. ``add_columns`` reduces a
    batch of events; ``add`` reduces a stream of ``WatchEvent``s in such
    batches. Both leave every attribute current when they return. Events
    referencing unknown video ids are counted and skipped. Filtering
    happens only in ``finish``, after view counts are complete. A shard
    pickled to another process leaves its id and duration tables behind: it
    can be merged into an aggregator there, but only an aggregator that
    holds the tables can add events or finish.
    """

    def __init__(
        self,
        durations: Mapping[str, float],
        ecr_threshold_s: float = DEFAULT_ECR_THRESHOLD_S,
    ) -> None:
        self.durations = durations
        self.ecr_threshold_s = ecr_threshold_s
        self._index = {video_id: i for i, video_id in enumerate(durations)}
        self._durations = np.fromiter(durations.values(), np.float64, len(durations))
        self.counts = np.zeros((5, len(durations)), dtype=np.int64)
        self.units = [0] * len(durations)  # watch-time sums in units of 2**-1074 s
        self.unknown_events = 0
        self.unknown_ids: set[str] = set()

    def __getstate__(self) -> dict:
        return {**self.__dict__, "durations": None, "_index": None, "_durations": None}

    def add(self, events: Iterable[WatchEvent]) -> None:
        """Reduce a stream of events, ``REDUCE_BATCH`` at a time."""
        events = iter(events)
        while batch := list(islice(events, REDUCE_BATCH)):
            columns = EventColumns()
            for event in batch:
                columns.append(event)
            self.add_columns(columns)

    def add_columns(self, columns: EventColumns) -> None:
        """Reduce a batch of events."""
        idx = np.fromiter(map(self._index.get, columns.video_ids, repeat(-1)), np.int64, len(columns))
        known = idx >= 0
        if not known.all():
            self.unknown_events += len(idx) - int(known.sum())
            self.unknown_ids.update(compress(columns.video_ids, (~known).tolist()))
        idx = idx[known]
        watch = np.array(columns.watch_s, dtype=np.float64)[known]
        liked = np.array(columns.liked, dtype=np.float64)[known]  # None reads as NaN
        invalid = ~((watch >= 0.0) & (watch < math.inf))
        if invalid.any():
            k = int(np.argmax(invalid))
            raise DataError(f"watch event for {list(self.durations)[idx[k]]!r} has invalid watch_time_s {float(watch[k])!r}")
        if not len(idx):
            return
        n = len(self.units)
        flags = (  # the events each ``counts`` row counts, in row order
            slice(None),
            watch > self.ecr_threshold_s,
            liked == 1.0,
            liked == liked,
            watch > EXTREME_WATCH_FACTOR * self._durations[idx],
        )
        self.counts += np.stack([np.bincount(idx[f], minlength=n) for f in flags])
        # watch = mantissa * 2**(shift - 1074) with an integer mantissa below 2**53.
        mantissa, exponent = np.frexp(watch)
        mantissa = np.ldexp(mantissa, 53).astype(np.int64)
        shift = exponent.astype(np.int64) + (1074 - 53)
        # A subnormal's shift is negative, and its mantissa ends in at least
        # that many zero bits: shift them out exactly.
        low = np.minimum(shift, 0)
        mantissa >>= -low
        shift -= low
        # One sum per (video, shift) group. Halves below 2**32 keep each int64
        # sum exact for groups of up to 2**31 events.
        key = idx * 2048 + shift
        order = np.argsort(key)
        key, mantissa = key[order], mantissa[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        high = np.add.reduceat(mantissa >> 32, first).tolist()
        low_sums = np.add.reduceat(mantissa & 0xFFFFFFFF, first).tolist()
        units = self.units
        for k, hi, lo in zip(key[first].tolist(), high, low_sums):
            units[k >> 11] += ((hi << 32) + lo) << (k & 2047)

    def merge(self, other: "CorpusAggregator") -> None:
        if other.ecr_threshold_s != self.ecr_threshold_s:
            raise DataError("cannot merge aggregators with different ECR thresholds")
        self.counts += other.counts
        self.units = [mine + theirs for mine, theirs in zip(self.units, other.units)]
        self.unknown_events += other.unknown_events
        self.unknown_ids |= other.unknown_ids

    def _by_video_id(self, row: int) -> list[tuple[str, int]]:
        """``(video id, index)`` of each video with a nonzero ``counts[row]``, by id."""
        ids = list(self.durations)
        return sorted((ids[i], i) for i in np.flatnonzero(self.counts[row]).tolist())

    def warnings(self) -> list[str]:
        """What was skipped or flagged: unknown ids, then extreme watches by video id."""
        texts = []
        if self.unknown_events:
            texts.append(
                f"skipped {self.unknown_events} events for {len(self.unknown_ids)} unknown video ids"
            )
        for video_id, i in self._by_video_id(EXTREME):
            texts.append(f"video {video_id}: {self.counts[EXTREME, i]} extreme watch times")
        return texts

    def finish(
        self,
        min_views: int = DEFAULT_MIN_VIEWS,
        duration_range_s: tuple[float, float] = DEFAULT_DURATION_RANGE_S,
    ) -> list[VideoRecord]:
        lo, hi = duration_range_s
        views, over, likes, liked_seen, _ = self.counts.tolist()
        records = []
        for video_id, i in self._by_video_id(VIEWS):
            duration = self.durations[video_id]
            if views[i] < min_views or not (lo <= duration <= hi):
                continue
            try:
                # Both divisions round correctly: math.fsum(watch times) / views.
                awt = self.units[i] / UNITS_PER_S / views[i]
            except OverflowError:
                raise DataError(f"video {video_id!r}: watch-time sum exceeds the float range") from None
            awp = awt / duration
            if not math.isfinite(awp):
                raise DataError(f"video {video_id!r}: average watch percentage exceeds the float range")
            records.append(
                VideoRecord(
                    video_id=video_id,
                    duration_s=duration,
                    views=views[i],
                    awt_s=awt,
                    awp=awp,
                    ecr=over[i] / views[i],
                    like_rate=(likes[i] / views[i]) if liked_seen[i] else None,
                    nawp=None,
                )
            )
        return records


def aggregate_corpus(
    events: Iterable[WatchEvent],
    metas: dict[str, VideoMeta],
    min_views: int = DEFAULT_MIN_VIEWS,
    duration_range_s: tuple[float, float] = DEFAULT_DURATION_RANGE_S,
    ecr_threshold_s: float = DEFAULT_ECR_THRESHOLD_S,
) -> list[VideoRecord]:
    """Aggregate an event stream against a meta table and apply corpus filters."""
    agg = CorpusAggregator({video_id: meta.duration_s for video_id, meta in metas.items()}, ecr_threshold_s)
    agg.add(events)
    for text in agg.warnings():
        logger.warning("%s", text)
    return agg.finish(min_views=min_views, duration_range_s=duration_range_s)
