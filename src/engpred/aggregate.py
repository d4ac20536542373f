"""Watch-event log parsing and per-video engagement aggregation.

Aggregation is a commutative-monoid reduction of integers: per video, counts
and the watch-time sum in units of 2**-1074. Every finite double is an integer
multiple of that unit, so the sum is exact (a superaccumulator, Neal 2015,
arXiv:1505.05571) and is rounded once, when ``finish`` divides it. Events can
be processed in any order and in any sharding: merged shard aggregates are
bit-identical to a single pass. ``engpred aggregate --shards N`` relies on
this: it cuts the log into byte ranges of whole lines, reduces each in its own
worker process and merges the shards in range order.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DataError
from .records import VideoMeta, VideoRecord, WatchEvent

logger = logging.getLogger(__name__)

DEFAULT_ECR_THRESHOLD_S = 5.0
DEFAULT_MIN_VIEWS = 2000
DEFAULT_DURATION_RANGE_S = (10.0, 60.0)

# Watch times beyond this multiple of the duration are flagged (still counted).
EXTREME_WATCH_FACTOR = 10.0

# Units of exact watch-time sums per second: 2**-1074 s is the smallest subnormal.
UNITS_PER_S = 2**1074


def exact_units(x: float) -> int:
    """``x`` as an integer number of 2**-1074 units, exactly; ``x`` must be finite."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


@dataclass(frozen=True, slots=True)
class ParseFailure:
    """A rejected event-log line, with its 1-based position."""

    line_no: int
    message: str


def parse_events(lines: Iterable[str]) -> Iterator[WatchEvent | ParseFailure]:
    """Parse JSONL event lines of text, yielding events and per-line failures.

    Malformed lines never abort the stream; each yields a ParseFailure with
    its line number instead. ``records.LineRange`` decodes a byte stream
    into such lines.
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
class VideoSums:
    """Order-independent watch statistics for one video; all sums are exact."""

    views: int = 0
    watch_units: int = 0  # the watch-time sum in units of 2**-1074 s
    over_threshold: int = 0
    likes: int = 0
    liked_seen: bool = False
    extreme_watches: int = 0

    def merge(self, other: VideoSums) -> None:
        self.views += other.views
        self.watch_units += other.watch_units
        self.over_threshold += other.over_threshold
        self.likes += other.likes
        self.liked_seen = self.liked_seen or other.liked_seen
        self.extreme_watches += other.extreme_watches


class CorpusAggregator:
    """Sharded corpus aggregation over a fixed meta table.

    Each shard owns one aggregator; ``merge`` folds shards together. Events
    referencing unknown video ids are counted and skipped. Filtering happens
    only in ``finish``, after view counts are complete. A shard pickled to
    another process leaves its meta table behind: it can be merged into an
    aggregator there, but only an aggregator that holds the meta table can
    add events or finish.
    """

    def __init__(
        self,
        metas: dict[str, VideoMeta],
        ecr_threshold_s: float = DEFAULT_ECR_THRESHOLD_S,
    ) -> None:
        self.metas = metas
        self.ecr_threshold_s = ecr_threshold_s
        self.videos: dict[str, VideoSums] = {}
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
        event.validate()
        sums = self.videos.get(event.video_id)
        if sums is None:
            sums = self.videos[event.video_id] = VideoSums()
        watch = event.watch_time_s
        sums.views += 1
        sums.watch_units += exact_units(watch)
        if watch > self.ecr_threshold_s:
            sums.over_threshold += 1
        if event.liked is not None:
            sums.liked_seen = True
            if event.liked:
                sums.likes += 1
        if watch > EXTREME_WATCH_FACTOR * meta.duration_s:
            sums.extreme_watches += 1

    def merge(self, other: "CorpusAggregator") -> None:
        if other.ecr_threshold_s != self.ecr_threshold_s:
            raise DataError("cannot merge aggregators with different ECR thresholds")
        for video_id, theirs in other.videos.items():
            mine = self.videos.get(video_id)
            if mine is None:
                self.videos[video_id] = theirs
            else:
                mine.merge(theirs)
        self.unknown_events += other.unknown_events
        self.unknown_ids |= other.unknown_ids

    def warnings(self) -> list[str]:
        """What was skipped or flagged: unknown ids, then extreme watches by video id."""
        texts = []
        if self.unknown_events:
            texts.append(
                f"skipped {self.unknown_events} events for {len(self.unknown_ids)} unknown video ids"
            )
        for video_id in sorted(self.videos):
            count = self.videos[video_id].extreme_watches
            if count:
                texts.append(f"video {video_id}: {count} extreme watch times")
        return texts

    def finish(
        self,
        min_views: int = DEFAULT_MIN_VIEWS,
        duration_range_s: tuple[float, float] = DEFAULT_DURATION_RANGE_S,
    ) -> list[VideoRecord]:
        lo, hi = duration_range_s
        records = []
        for video_id in sorted(self.videos):
            sums = self.videos[video_id]
            duration = self.metas[video_id].duration_s
            if sums.views < min_views or not (lo <= duration <= hi):
                continue
            try:
                # Both divisions round correctly: math.fsum(watch times) / views.
                awt = sums.watch_units / UNITS_PER_S / sums.views
            except OverflowError:
                raise DataError(f"video {video_id!r}: watch-time sum exceeds the float range") from None
            records.append(
                VideoRecord(
                    video_id=video_id,
                    duration_s=duration,
                    views=sums.views,
                    awt_s=awt,
                    awp=awt / duration,
                    ecr=sums.over_threshold / sums.views,
                    like_rate=(sums.likes / sums.views) if sums.liked_seen else None,
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
    agg = CorpusAggregator(metas, ecr_threshold_s)
    for event in events:
        agg.add(event)
    for text in agg.warnings():
        logger.warning("%s", text)
    return agg.finish(min_views=min_views, duration_range_s=duration_range_s)
