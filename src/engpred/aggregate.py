"""Watch-event log parsing and per-video engagement aggregation.

Aggregation is a commutative-monoid reduction (counts, threshold counts,
error-free watch-time sums), so events can be processed in any order and in
any sharding: merged shard aggregates are bit-identical to a single pass.
``engpred aggregate --shards N`` relies on this: it cuts the log into byte
ranges of whole lines, reduces each in its own worker process and merges the
shards in range order.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .errors import DataError
from .records import VideoMeta, VideoRecord, WatchEvent, iter_lines

logger = logging.getLogger(__name__)

DEFAULT_ECR_THRESHOLD_S = 5.0
DEFAULT_MIN_VIEWS = 2000
DEFAULT_DURATION_RANGE_S = (10.0, 60.0)

# Watch times beyond this multiple of the duration are flagged (still counted).
EXTREME_WATCH_FACTOR = 10.0


class ExactSum:
    """Error-free running sum of float64 values.

    Keeps Shewchuk-style non-overlapping partials, so the represented sum is
    exact and `value()` is the correctly rounded total. The exact sum does
    not depend on insertion order, which makes merged shard sums bit-identical
    to a single sequential pass.
    """

    __slots__ = ("_partials",)

    def __init__(self) -> None:
        self._partials: list[float] = []

    def add(self, x: float) -> None:
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        for p in other._partials:
            self.add(p)

    def value(self) -> float:
        return math.fsum(self._partials)


@dataclass(frozen=True, slots=True)
class ParseFailure:
    """A rejected event-log line, with its 1-based position."""

    line_no: int
    message: str


def parse_events(stream: IO[str] | IO[bytes] | Iterable[str]) -> Iterator[WatchEvent | ParseFailure]:
    """Parse a JSONL event stream, yielding events and per-line failures.

    Malformed lines never abort the stream; each yields a ParseFailure with
    its line number instead.
    """
    lines = iter_lines(stream) if hasattr(stream, "read") else iter(stream)
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


class VideoAccumulator:
    """Order-independent watch statistics for one video."""

    __slots__ = (
        "video_id",
        "duration_s",
        "ecr_threshold_s",
        "views",
        "watch_sum",
        "over_threshold",
        "likes",
        "liked_seen",
        "max_watch_s",
        "extreme_watches",
    )

    def __init__(self, video_id: str, duration_s: float, ecr_threshold_s: float) -> None:
        self.video_id = video_id
        self.duration_s = duration_s
        self.ecr_threshold_s = ecr_threshold_s
        self.views = 0
        self.watch_sum = ExactSum()
        self.over_threshold = 0
        self.likes = 0
        self.liked_seen = False
        self.max_watch_s = 0.0
        self.extreme_watches = 0

    def add(self, event: WatchEvent) -> None:
        event.validate()
        if event.video_id != self.video_id:
            raise DataError(
                f"event for {event.video_id!r} fed to accumulator for {self.video_id!r}"
            )
        self.views += 1
        self.watch_sum.add(event.watch_time_s)
        if event.watch_time_s > self.ecr_threshold_s:
            self.over_threshold += 1
        if event.liked is not None:
            self.liked_seen = True
            if event.liked:
                self.likes += 1
        if event.watch_time_s > self.max_watch_s:
            self.max_watch_s = event.watch_time_s
        if event.watch_time_s > EXTREME_WATCH_FACTOR * self.duration_s:
            self.extreme_watches += 1

    def merge(self, other: "VideoAccumulator") -> None:
        if other.video_id != self.video_id:
            raise DataError("cannot merge accumulators for different videos")
        self.views += other.views
        self.watch_sum.merge(other.watch_sum)
        self.over_threshold += other.over_threshold
        self.likes += other.likes
        self.liked_seen = self.liked_seen or other.liked_seen
        self.max_watch_s = max(self.max_watch_s, other.max_watch_s)
        self.extreme_watches += other.extreme_watches

    def finish(self) -> VideoRecord:
        if self.views == 0:
            raise DataError(f"video {self.video_id!r} has no events")
        awt = self.watch_sum.value() / self.views
        return VideoRecord(
            video_id=self.video_id,
            duration_s=self.duration_s,
            views=self.views,
            awt_s=awt,
            awp=awt / self.duration_s,
            ecr=self.over_threshold / self.views,
            like_rate=(self.likes / self.views) if self.liked_seen else None,
            nawp=None,
        )


def aggregate_video(
    events: Iterable[WatchEvent],
    meta: VideoMeta,
    ecr_threshold_s: float = DEFAULT_ECR_THRESHOLD_S,
) -> VideoRecord:
    """Reduce one video's events to a VideoRecord.

    All events must carry ``meta.video_id``; an empty event set is an error.
    """
    meta.validate()
    acc = VideoAccumulator(meta.video_id, meta.duration_s, ecr_threshold_s)
    for event in events:
        acc.add(event)
    if acc.extreme_watches:
        logger.warning(
            "video %s: %d watch times exceed %.0fx duration (still counted)",
            meta.video_id,
            acc.extreme_watches,
            EXTREME_WATCH_FACTOR,
        )
    return acc.finish()


class CorpusAggregator:
    """Sharded corpus aggregation over a fixed meta table.

    Each shard owns one aggregator; ``merge`` folds shards together. Events
    referencing unknown video ids are counted and skipped. Filtering happens
    only in ``finish``, after view counts are complete. A shard pickled to
    another process leaves its meta table behind: it can be merged and
    finished there, but not added to.
    """

    def __init__(
        self,
        metas: dict[str, VideoMeta],
        ecr_threshold_s: float = DEFAULT_ECR_THRESHOLD_S,
    ) -> None:
        self.metas = metas
        self.ecr_threshold_s = ecr_threshold_s
        self.accumulators: dict[str, VideoAccumulator] = {}
        self.unknown_events = 0
        self.unknown_ids: set[str] = set()

    def __getstate__(self) -> dict:
        return {**self.__dict__, "metas": None}

    def add(self, event: WatchEvent) -> None:
        meta = self.metas.get(event.video_id)
        if meta is None:
            self.unknown_events += 1
            self.unknown_ids.add(event.video_id)
            return
        acc = self.accumulators.get(event.video_id)
        if acc is None:
            acc = VideoAccumulator(event.video_id, meta.duration_s, self.ecr_threshold_s)
            self.accumulators[event.video_id] = acc
        acc.add(event)

    def add_all(self, events: Iterable[WatchEvent]) -> None:
        for event in events:
            self.add(event)

    def merge(self, other: "CorpusAggregator") -> None:
        if other.ecr_threshold_s != self.ecr_threshold_s:
            raise DataError("cannot merge aggregators with different ECR thresholds")
        for video_id, acc in other.accumulators.items():
            mine = self.accumulators.get(video_id)
            if mine is None:
                self.accumulators[video_id] = acc
            else:
                mine.merge(acc)
        self.unknown_events += other.unknown_events
        self.unknown_ids |= other.unknown_ids

    def warnings(self) -> list[tuple[str, int]]:
        """Videos with flagged extreme watch times, sorted by id."""
        flagged = [
            (vid, acc.extreme_watches)
            for vid, acc in self.accumulators.items()
            if acc.extreme_watches
        ]
        return sorted(flagged)

    def finish(
        self,
        min_views: int = DEFAULT_MIN_VIEWS,
        duration_range_s: tuple[float, float] = DEFAULT_DURATION_RANGE_S,
    ) -> list[VideoRecord]:
        lo, hi = duration_range_s
        records = []
        for video_id in sorted(self.accumulators):
            acc = self.accumulators[video_id]
            if acc.views < min_views:
                continue
            if not (lo <= acc.duration_s <= hi):
                continue
            records.append(acc.finish())
        return records


def aggregate_corpus(
    events: Iterable[WatchEvent],
    metas: dict[str, VideoMeta],
    min_views: int = DEFAULT_MIN_VIEWS,
    duration_range_s: tuple[float, float] = DEFAULT_DURATION_RANGE_S,
    ecr_threshold_s: float = DEFAULT_ECR_THRESHOLD_S,
) -> list[VideoRecord]:
    """Aggregate an event stream against a meta table and apply corpus filters."""
    agg = CorpusAggregator(metas, ecr_threshold_s)
    agg.add_all(events)
    if agg.unknown_events:
        logger.warning(
            "skipped %d events for %d unknown video ids",
            agg.unknown_events,
            len(agg.unknown_ids),
        )
    for video_id, count in agg.warnings():
        logger.warning("video %s: %d extreme watch times flagged", video_id, count)
    return agg.finish(min_views=min_views, duration_range_s=duration_range_s)
