"""Event parsing and per-video aggregation, including shard-merge exactness."""

import io
import json
import math
import pickle
import struct
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engpred import aggregate, records
from engpred.aggregate import (
    DEFAULT_ECR_THRESHOLD_S,
    UNITS_PER_S,
    CorpusAggregator,
    EventColumns,
    ParseFailure,
    aggregate_corpus,
    parse_event_blocks,
    parse_events,
)
from engpred.errors import DataError
from engpred.records import LineRange, VideoMeta, WatchEvent


def exact_units(x):
    """``x`` as an integer number of 2**-1074 units, exactly; ``x`` must be finite."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


def _events(video_id, watch_times, liked=None):
    liked = liked or [None] * len(watch_times)
    return [WatchEvent(video_id, float(w), l) for w, l in zip(watch_times, liked)]


def _meta(video_id="v1", duration=20.0, rate=30.0):
    return VideoMeta(video_id, duration, rate)


def _add_all(agg, events):
    agg.add(events)


def _one_video(watch_times, duration=20.0, liked=None, ecr_threshold_s=DEFAULT_ECR_THRESHOLD_S):
    """The record of video v1, aggregated through ``aggregate_corpus`` with no filter."""
    (record,) = aggregate_corpus(
        _events("v1", watch_times, liked),
        {"v1": _meta("v1", duration)},
        min_views=1,
        duration_range_s=(0.0, math.inf),
        ecr_threshold_s=ecr_threshold_s,
    )
    return record


def _record_bits(record):
    # Bit-level comparison of the float fields, not just ==.
    floats = [record.awt_s, record.awp, record.ecr]
    return (record.video_id, record.views, [struct.pack("<d", f) for f in floats])


class TestParseEvents:
    def test_well_formed_line(self):
        (event,) = parse_events(['{"video_id":"v1","watch_time_s":6.5}'])
        assert event == WatchEvent("v1", 6.5, None)

    def test_liked_flag(self):
        (event,) = parse_events(['{"video_id":"v1","watch_time_s":2,"liked":true}'])
        assert event.liked is True

    def test_empty_id_rejected(self):
        (failure,) = parse_events(['{"video_id":"","watch_time_s":1.0}'])
        assert isinstance(failure, ParseFailure)
        assert "video_id" in failure.message

    def test_negative_watch_time_rejected(self):
        (failure,) = parse_events(['{"video_id":"v2","watch_time_s":-1}'])
        assert isinstance(failure, ParseFailure)
        assert "negative" in failure.message

    def test_malformed_line_does_not_abort(self):
        lines = [
            '{"video_id":"v1","watch_time_s":1.0}',
            "{not json",
            '{"video_id":"v1","watch_time_s":"nope"}',
            '{"video_id":"v1","watch_time_s":2.0}',
        ]
        out = list(parse_events(lines))
        assert [type(x) for x in out] == [WatchEvent, ParseFailure, ParseFailure, WatchEvent]
        assert out[1].line_no == 2
        assert out[2].line_no == 3

    @pytest.mark.parametrize(
        "watch, message",
        [
            ("9" * 400, "watch_time_s is not finite"),  # past the double range
            ("9" * 5000, "invalid JSON"),  # past the interpreter's int-digit limit
        ],
        ids=["400_digits", "5000_digits"],
    )
    def test_huge_integer_watch_time_is_a_failure(self, watch, message):
        lines = [
            '{"video_id":"v1","watch_time_s":%s}' % watch,
            '{"video_id":"v1","watch_time_s":2.0}',
        ]
        failure, event = parse_events(lines)
        assert isinstance(failure, ParseFailure) and failure.line_no == 1
        assert failure.message.startswith(message)
        assert event == WatchEvent(video_id="v1", watch_time_s=2.0)

    @pytest.mark.parametrize(
        "line",
        ['{"a":' * 3000 + "1" + "}" * 3000, "[" * 3000 + "]" * 3000],
        ids=["3000_objects", "3000_lists"],
    )
    def test_deeply_nested_line_is_a_failure(self, line):
        failure, event = parse_events([line, '{"video_id":"v1","watch_time_s":2.0}'])
        assert failure == ParseFailure(1, "invalid JSON: nested too deeply")
        assert event == WatchEvent(video_id="v1", watch_time_s=2.0)

    def test_undecodable_bytes_are_a_failure(self):
        stream = io.BytesIO(b'\xff\xfe\n{"video_id":"v1","watch_time_s":3}\n')
        failure, event = parse_events(LineRange(stream))
        assert isinstance(failure, ParseFailure) and failure.line_no == 1
        assert event.watch_time_s == 3.0

    def test_blank_lines_skipped(self):
        out = list(parse_events(["", '{"video_id":"v1","watch_time_s":1}', "  "]))
        assert len(out) == 1

    def test_reads_text_stream(self):
        stream = io.StringIO('{"video_id":"v1","watch_time_s":3}\n')
        (event,) = parse_events(stream)
        assert event.watch_time_s == 3.0

    def test_reads_binary_stream(self):
        stream = io.BytesIO(b'{"video_id":"v1","watch_time_s":3}\n')
        (event,) = parse_events(LineRange(stream))
        assert event.video_id == "v1"


class TestAggregateVideo:
    def test_hand_counted_example(self):
        record = _one_video([3, 6, 7, 2], duration=20.0)
        assert record.views == 4
        assert record.awt_s == 4.5
        assert record.awp == 0.225
        assert record.ecr == 0.5

    def test_zero_watch_times(self):
        record = _one_video([0, 0], duration=10.0)
        assert record.awt_s == 0.0
        assert record.awp == 0.0
        assert record.ecr == 0.0
        assert record.views == 2

    def test_threshold_is_strict(self):
        record = _one_video([5.0], ecr_threshold_s=5.0)
        assert record.ecr == 0.0

    def test_threshold_configurable(self):
        record = _one_video([3, 4], ecr_threshold_s=2.0)
        assert record.ecr == 1.0

    def test_like_rate_present(self):
        record = _one_video([1, 2, 3], liked=[True, False, None])
        assert record.like_rate == pytest.approx(1 / 3)

    def test_like_rate_absent_without_flags(self):
        record = _one_video([1, 2])
        assert record.like_rate is None

    def test_awt_bounded_by_max_watch(self):
        watch = [0.3, 11.0, 2.5, 7.7]
        record = _one_video(watch)
        assert record.awt_s <= max(watch)

    def test_watch_beyond_duration_counted(self):
        record = _one_video([250.0, 10.0], duration=20.0)
        assert record.views == 2
        assert record.awp > 1.0


class TestCorpusFilters:
    def test_min_views_excludes_1999(self):
        metas = {"v1": _meta("v1"), "v2": _meta("v2")}
        events = _events("v1", [1.0] * 1999) + _events("v2", [1.0] * 2000)
        records = aggregate_corpus(events, metas, min_views=2000)
        assert [r.video_id for r in records] == ["v2"]

    def test_duration_window_excludes_61s(self):
        metas = {
            "a": VideoMeta("a", 61.0, 30.0),
            "b": VideoMeta("b", 60.0, 30.0),
            "c": VideoMeta("c", 10.0, 30.0),
            "d": VideoMeta("d", 9.5, 30.0),
        }
        events = [WatchEvent(v, 1.0) for v in "abcd"]
        records = aggregate_corpus(events, metas, min_views=1)
        assert [r.video_id for r in records] == ["b", "c"]

    def test_unknown_id_skipped_and_counted(self):
        metas = {"v1": _meta("v1")}
        agg = CorpusAggregator({vid: m.duration_s for vid, m in metas.items()})
        _add_all(agg, _events("v1", [1.0]) + _events("ghost", [2.0]))
        assert agg.unknown_events == 1
        assert agg.unknown_ids == {"ghost"}
        records = agg.finish(min_views=1, duration_range_s=(10, 60))
        assert [r.video_id for r in records] == ["v1"]

    def test_output_sorted_by_video_id(self):
        metas = {f"v{i}": _meta(f"v{i}") for i in range(5)}
        events = [WatchEvent(f"v{i}", 1.0) for i in (3, 1, 4, 0, 2)]
        records = aggregate_corpus(events, metas, min_views=1)
        assert [r.video_id for r in records] == sorted(metas)

    def test_filtering_after_aggregation(self):
        # Views accumulate across the whole stream before min_views acts.
        metas = {"v1": _meta("v1")}
        agg = CorpusAggregator({vid: m.duration_s for vid, m in metas.items()})
        shard_a = CorpusAggregator({vid: m.duration_s for vid, m in metas.items()})
        _add_all(shard_a, _events("v1", [1.0] * 3))
        agg.merge(shard_a)
        _add_all(agg, _events("v1", [1.0] * 3))
        records = agg.finish(min_views=5, duration_range_s=(10, 60))
        assert records[0].views == 6


def _shard_and_merge(events, metas, n_shards, assignment):
    shards = [CorpusAggregator({vid: m.duration_s for vid, m in metas.items()}) for _ in range(n_shards)]
    parts = [[] for _ in range(n_shards)]
    for i, event in enumerate(events):
        parts[assignment(i)].append(event)
    for shard, part in zip(shards, parts):
        shard.add(part)
    merged = shards[0]
    for other in shards[1:]:
        merged.merge(other)
    return merged.finish(min_views=1, duration_range_s=(0, 1000))


class TestAdd:
    """``add`` reduces a stream of events, ``REDUCE_BATCH`` at a time, before it returns."""

    def _metas(self):
        return {f"v{i}": _meta(f"v{i}", duration=15.0 + i) for i in range(3)}

    def _stream(self):
        return [
            WatchEvent("ghost" if i % 4 == 3 else f"v{i % 4}", 0.7 * i + 1e-3, [None, True, False][i % 3])
            for i in range(10)
        ]

    @staticmethod
    def _state(agg):
        return agg.counts.tolist(), agg.units, agg.unknown_events, agg.unknown_ids

    def test_counts_and_units_current_after_add(self):
        metas, events = self._metas(), self._stream()
        agg = CorpusAggregator({vid: m.duration_s for vid, m in metas.items()})
        agg.add(events)
        known = [e for e in events if e.video_id in metas]
        assert agg.counts[aggregate.VIEWS].tolist() == [sum(e.video_id == v for e in known) for v in metas]
        assert agg.units == [sum(exact_units(e.watch_time_s) for e in known if e.video_id == v) for v in metas]
        assert (agg.unknown_events, agg.unknown_ids) == (2, {"ghost"})

    def test_batches_equal_one_add_columns_call(self):
        metas, events = self._metas(), self._stream()
        sizes = []
        add_columns = CorpusAggregator.add_columns

        def spy(agg, columns):
            sizes.append(len(columns))
            add_columns(agg, columns)

        batched = CorpusAggregator({vid: m.duration_s for vid, m in metas.items()})
        with mock.patch.object(aggregate, "REDUCE_BATCH", 3), mock.patch.object(CorpusAggregator, "add_columns", spy):
            batched.add(iter(events))
        assert sizes == [3, 3, 3, 1]
        whole = CorpusAggregator({vid: m.duration_s for vid, m in metas.items()})
        columns = EventColumns()
        for event in events:
            columns.append(event)
        whole.add_columns(columns)
        assert self._state(batched) == self._state(whole)

    def test_pickled_shard_merges_equal(self):
        metas = self._metas()
        shard = CorpusAggregator({vid: m.duration_s for vid, m in metas.items()})
        shard.add(self._stream())
        direct, pickled = (
            CorpusAggregator({vid: m.duration_s for vid, m in metas.items()}),
            CorpusAggregator({vid: m.duration_s for vid, m in metas.items()}),
        )
        direct.merge(shard)
        pickled.merge(pickle.loads(pickle.dumps(shard)))
        assert self._state(pickled) == self._state(direct)
        assert pickled.finish(min_views=1) == direct.finish(min_views=1)


class TestShardMerge:
    def _corpus(self, seed=0):
        import random

        rng = random.Random(seed)
        metas = {f"v{i}": _meta(f"v{i}", duration=15.0 + i) for i in range(5)}
        events = [
            WatchEvent(f"v{rng.randrange(5)}", rng.random() * 60.0, rng.choice([None, True, False]))
            for _ in range(800)
        ]
        return events, metas

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_round_robin_shards_bit_identical(self, n_shards):
        events, metas = self._corpus()
        single = _shard_and_merge(events, metas, 1, lambda i: 0)
        sharded = _shard_and_merge(events, metas, n_shards, lambda i: i % n_shards)
        assert [_record_bits(r) for r in single] == [_record_bits(r) for r in sharded]

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_contiguous_shards_bit_identical(self, n_shards):
        events, metas = self._corpus(seed=1)
        chunk = math.ceil(len(events) / n_shards)
        single = _shard_and_merge(events, metas, 1, lambda i: 0)
        sharded = _shard_and_merge(events, metas, n_shards, lambda i: i // chunk)
        assert [_record_bits(r) for r in single] == [_record_bits(r) for r in sharded]

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, watch_times, rnd):
        base = _one_video(watch_times, duration=30.0)
        shuffled = list(watch_times)
        rnd.shuffle(shuffled)
        other = _one_video(shuffled, duration=30.0)
        assert _record_bits(base) == _record_bits(other)


# Finite doubles of every magnitude and sign, with subnormals and both zeros;
# bounded so that no sum of 80 of them leaves the double range.
SUMMANDS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]),
)


def _unit_sum(values):
    return sum(map(exact_units, values)) / UNITS_PER_S


class TestExactSum:
    """Watch-time sums held as integers in units of 2**-1074 round like ``math.fsum``."""

    @given(st.lists(SUMMANDS, max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_matches_fsum(self, values):
        assert struct.pack("<d", _unit_sum(values)) == struct.pack("<d", math.fsum(values))

    @given(st.lists(SUMMANDS, min_size=1, max_size=60), st.integers(min_value=1, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_merge_is_exact(self, values, n_shards):
        single = sum(map(exact_units, values))
        merged = sum(sum(map(exact_units, values[i::n_shards])) for i in range(n_shards))
        assert merged == single
        assert struct.pack("<d", merged / UNITS_PER_S) == struct.pack("<d", _unit_sum(values))

    def test_pathological_cancellation(self):
        assert _unit_sum([1e100, 1.0, -1e100]) == 1.0


def _columns(video_id, watch_times):
    return EventColumns([video_id] * len(watch_times), list(watch_times), [None] * len(watch_times))


class TestColumnarSum:
    """The reducer's per-(video, exponent) integer sums equal ``math.fsum``."""

    # 5,000 equal full-mantissa values overflow an int64 sum of whole mantissas.
    VALUES = [(2**53 - 1) / 2**52] * 5000 + [1e-300, 5e-324, 0.0, -0.0]

    def test_one_group_of_5000_matches_fsum(self):
        agg = CorpusAggregator({"v1": 20.0})
        agg.add_columns(_columns("v1", self.VALUES))
        assert agg.units[0] == sum(map(exact_units, self.VALUES))
        assert struct.pack("<d", agg.units[0] / UNITS_PER_S) == struct.pack("<d", math.fsum(self.VALUES))
        (record,) = agg.finish(min_views=1)
        assert struct.pack("<d", record.awt_s) == struct.pack("<d", math.fsum(self.VALUES) / len(self.VALUES))

    def test_merged_shards_equal_one_pass(self):
        metas = {"v1": _meta("v1"), "v2": _meta("v2")}
        single = CorpusAggregator({vid: m.duration_s for vid, m in metas.items()})
        single.add_columns(_columns("v1", self.VALUES))
        single.add_columns(_columns("v2", self.VALUES[::7]))
        shards = [CorpusAggregator({vid: m.duration_s for vid, m in metas.items()}) for _ in range(3)]
        for k, shard in enumerate(shards):
            shard.add_columns(_columns("v1", self.VALUES[k::3]))
        shards[1].add_columns(_columns("v2", self.VALUES[::7]))
        for other in shards[1:]:
            shards[0].merge(other)
        assert shards[0].units == single.units
        assert [_record_bits(r) for r in shards[0].finish(min_views=1)] == [
            _record_bits(r) for r in single.finish(min_views=1)]

    @given(st.lists(st.one_of(st.floats(min_value=0.0, max_value=1e300),
                              st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310])),
                    min_size=1, max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_units_match_exact_units(self, values):
        agg = CorpusAggregator({"v1": 20.0})
        agg.add_columns(_columns("v1", values))
        assert agg.units[0] == sum(map(exact_units, values))

    def test_sum_past_float_range_is_a_data_error(self):
        agg = CorpusAggregator({"v1": 20.0})
        agg.add_columns(_columns("v1", [1e308, 1e308]))
        with pytest.raises(DataError, match="watch-time sum exceeds the float range"):
            agg.finish(min_views=1, duration_range_s=(0.0, math.inf))


# Hostile event-log fragments; each ends a line or leaves it open for the next.
HOSTILE_FRAGMENTS = st.one_of(
    st.binary(max_size=8),
    st.sampled_from([
        b'{"video_id":"v1","watch_time_s":1.5}\n',
        b'{"video_id":"v2","watch_time_s":0.0,"liked":false}\n',
        b'{"video_id":"v1","watch_time_s":-0.0,"liked":true}\n',
        b'{"video_id":"v1","watch_time_s":5e-324}\n',
        b'{"video_id":"v1","watch_time_s":3}\n',
        b'{"video_id":"v1"\n', b'"watch_time_s":1.0}\n',  # one object only when joined
        b'{"video_id":"v1","watch_time_s":1.0},{"video_id":"v2","watch_time_s":2.0}\n',
        b'[[{"video_id":"v1","watch_time_s":1.0}]]\n', b"]],[[\n", b"[\n", b"]\n", b"[", b"]",
        b'{"video_id":"v1","watch_time_s":1.0}],[{"video_id":"v2","watch_time_s":2.0}\n',  # two lists
        b'{"video_id":"v1\n', b'"\n', b'{"video_id":"unterminated',
        b'{"video_id":"v1","watch_time_s":NaN}\n', b'{"video_id":"v1","watch_time_s":1e999}\n',
        b'{"video_id":"v1","watch_time_s":' + b"9" * 400 + b"}\n",
        b'{"video_id":"v1","watch_time_s":' + b"9" * 5000 + b"}\n",
        b'{"a":' * 3000 + b"1" + b"}" * 3000 + b"\n", b"[" * 3000 + b"]" * 3000 + b"\n",
        b'{"video_id":"v1","watch_time_s":1.0,"watch_time_s":"x"}\n',
        b'{"video_id":"","video_id":"v2","watch_time_s":2.5}\n',
        b'{"video_id":"v1","watch_time_s":2.0}\r\n', b"\r\n",
        b"\x1c\n", b"\xe3\x80\x80\n", b"\t\n", b" \n", b"\n",
        b'{"video_id":"v\xe2\x80\xa8","watch_time_s":1.5}\n', b'{"video_id":"v\xc2\x85","watch_time_s":1.5}\n',
        b"\xe2\x82", b"\xac", b"\xff", b"\xf0\x9f\x98",
        b'{"video_id":"v1","watch_time_s":2.5,"pad":"' + b"x" * 100 + b'"}\n',
        b'{"video_id":"v1","watch_time_s":7.25}',
        b'{"video_id":"v\x01","watch_time_s":1.5}\n', b'{"video_id":"v\x7f","watch_time_s":1.5}\n',
        b'{"video_id":"v\\u0031","watch_time_s":1.5}\n', b'{"video_id":"v1","watch_time_s":1.5,"liked":null}\n',
        *(b'{"video_id":"v1","watch_time_s":' + number + b'}\n'
          for number in (b"1.5E+2", b"1e5", b"01.5", b"1.", b".5", b"+1.5", b"-1.5", b"1\xd9\xa1")),
        b'{"video_id":"v1","watch_time_s":1.5 }\n',
        b'{"video_id":"v1","watch_time_s":1.5}}\n', b'{"video_id":"v1","watch_time_s":1.5} \n',
        b'{"video_id":"v1","watch_time_s":1.5,"liked":true}\r\n',
    ]),
)


def _parse_both(log, block_bytes):
    """``parse_event_blocks`` over ``log`` in blocks of ``block_bytes``, checked against
    ``parse_events`` line by line; gives its events, its failures and the lines it parsed alone."""
    lines = [line.decode("utf-8", errors="replace") for line in io.BytesIO(log)]
    expected = list(parse_events(lines))
    alone = mock.Mock(side_effect=parse_events)
    with mock.patch.object(records, "BLOCK_BYTES", block_bytes), \
            mock.patch.object(aggregate, "REDUCE_BATCH", 3):
        reader = LineRange(io.BytesIO(log))
        items = list(parse_event_blocks(reader.blocks(), alone))
    assert reader.count == len(lines)
    failures = [item for item in items if isinstance(item, ParseFailure)]
    assert failures == [item for item in expected if isinstance(item, ParseFailure)]
    events = [(video_id, repr(watch), liked) for columns in items if isinstance(columns, EventColumns)
              for video_id, watch, liked in zip(columns.video_ids, columns.watch_s, columns.liked)]
    assert events == [(e.video_id, repr(e.watch_time_s), e.liked) for e in expected
                      if isinstance(e, WatchEvent)]
    return events, failures, [call.args[0][0] for call in alone.call_args_list]


def _canonical(k):
    return b'{"video_id":"v%d","watch_time_s":%d.5}\n' % (k, k)


class TestBlockParse:
    """``parse_event_blocks`` gives what ``parse_events`` gives line by line."""

    @given(st.lists(HOSTILE_FRAGMENTS, max_size=30), st.sampled_from([1, 16, 64, 8192]))
    @settings(max_examples=300, deadline=None)
    def test_blocks_equal_per_line_parsing(self, fragments, block_bytes):
        _parse_both(b"".join(fragments), block_bytes)

    @pytest.mark.parametrize("block_bytes", [64, 8192])
    def test_overflowing_watch_time_inside_a_run_goes_alone(self, block_bytes):
        overflow = b'{"video_id":"v5","watch_time_s":1e999}\n'
        log = b"".join(map(_canonical, range(5))) + overflow + b"".join(map(_canonical, range(6, 11)))
        events, failures, alone = _parse_both(log, block_bytes)
        assert [video_id for video_id, _, _ in events] == [f"v{k}" for k in range(11) if k != 5]
        assert failures == [ParseFailure(6, "watch_time_s is not finite")]
        assert alone == [overflow.decode()]

    @pytest.mark.parametrize("block_bytes", [64, 8192])
    def test_trailing_junk_after_a_canonical_line_goes_alone(self, block_bytes):
        junk = [b'{"video_id":"v1","watch_time_s":1.5}}\n', b'{"video_id":"v2","watch_time_s":2.5} \n',
                b'{"video_id":"v3","watch_time_s":3.5}\r\n']
        log = _canonical(0) + junk[0] + _canonical(4) + junk[1] + junk[2] + _canonical(5)
        events, failures, alone = _parse_both(log, block_bytes)
        # JSON reads a trailing space or "\r" as whitespace, but not a second "}".
        assert [video_id for video_id, _, _ in events] == ["v0", "v4", "v2", "v3", "v5"]
        assert failures == [ParseFailure(2, "invalid JSON: Extra data")]
        assert alone == [line.decode() for line in junk]

    @pytest.mark.parametrize("block_bytes", [64, 8192])
    def test_malformed_line_between_canonical_lines(self, block_bytes):
        log = b"".join(map(_canonical, range(3))) + b'{"video_id":"v9"\n' + b"".join(map(_canonical, range(3, 6)))
        events, failures, alone = _parse_both(log, block_bytes)
        assert [video_id for video_id, _, _ in events] == [f"v{k}" for k in range(6)]
        assert [(f.line_no, f.message.split(":")[0]) for f in failures] == [(4, "invalid JSON")]
        assert alone == ['{"video_id":"v9"\n']

    @pytest.mark.parametrize("final", [b'{"video_id":"v7","watch_time_s":7.25}', b'{"video_id":"v7"'])
    @pytest.mark.parametrize("block_bytes", [64, 8192])
    def test_final_line_without_a_newline(self, block_bytes, final):
        log = b"".join(map(_canonical, range(4))) + final
        events, failures, alone = _parse_both(log, block_bytes)
        assert [video_id for video_id, _, _ in events][:4] == ["v0", "v1", "v2", "v3"]
        assert len(events) + len(failures) == 5
        assert [f.line_no for f in failures] == ([] if final.endswith(b"}") else [5])
        assert alone == [final.decode()]

    @given(st.lists(st.builds(
        WatchEvent,
        st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'), min_size=1),
        st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.sampled_from([5e-324, sys.float_info.max])),
        st.sampled_from([None, True, False]),
    ), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_written_events_take_the_pattern(self, events):
        text = io.StringIO()
        records.write_events(text, events)
        spy = mock.Mock(side_effect=parse_events)
        with mock.patch.object(records, "BLOCK_BYTES", 64):
            items = list(parse_event_blocks(LineRange(io.BytesIO(text.getvalue().encode())).blocks(), spy))
        spy.assert_not_called()
        assert [WatchEvent(*row) for columns in items
                for row in zip(columns.video_ids, columns.watch_s, columns.liked)] == events

    def test_lines_iterate_as_in_the_file(self):
        log = b'a\x1cb\n\xe2\x80\xa8\r\n\n{"x":1}'
        with mock.patch.object(records, "BLOCK_BYTES", 4):
            assert list(LineRange(io.BytesIO(log))) == [
                line.decode("utf-8", errors="replace") for line in io.BytesIO(log)]


class TestNaiveReferenceEquivalence:
    def test_matches_fsum_reference(self):
        import random

        rng = random.Random(7)
        metas = {f"v{i}": _meta(f"v{i}", duration=20.0) for i in range(4)}
        events = [WatchEvent(f"v{rng.randrange(4)}", rng.random() * 40) for _ in range(500)]
        records = aggregate_corpus(events, metas, min_views=1)

        # Independent single-pass reference. fsum is also correctly rounded,
        # so the two must agree bitwise.
        by_video = {}
        for e in events:
            by_video.setdefault(e.video_id, []).append(e.watch_time_s)
        for record in records:
            watches = by_video[record.video_id]
            awt = math.fsum(watches) / len(watches)
            ecr = sum(1 for w in watches if w > 5.0) / len(watches)
            assert record.views == len(watches)
            assert struct.pack("<d", record.awt_s) == struct.pack("<d", awt)
            assert record.ecr == ecr


def test_event_jsonl_round_trip():
    events = _events("v1", [1.5, 2.5], liked=[True, None])
    lines = [json.dumps({"video_id": e.video_id, "watch_time_s": e.watch_time_s, **({"liked": e.liked} if e.liked is not None else {})}) for e in events]
    parsed = [e for e in parse_events(lines)]
    assert parsed == events
