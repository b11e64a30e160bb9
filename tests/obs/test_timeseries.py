"""Windowed sampling: rates, bucket-delta quantiles, the sample stream.

The property tests pin the two monitoring invariants the SLO layer
leans on: bucket-delta quantiles track exact quantiles (same or
adjacent bucket) while the data fits the estimator's resolution, and
windowed rates are never negative across counter resets or sampler
restarts.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.obs.timeseries import (
    SAMPLES_KIND,
    SnapshotSampler,
    bucket_delta_quantile,
    bucket_deltas,
    check_samples,
    counter_increase,
    load_samples,
    sample_records,
    series_key,
    series_values,
    windowed_series,
)


class TestSeriesKey:
    def test_unlabeled_keeps_bare_name(self):
        assert series_key("serve.ticks_total", {}) == "serve.ticks_total"

    def test_labels_sorted_into_braces(self):
        key = series_key("serve.requests_total", {"policy": "dqn", "a": "b"})
        assert key == "serve.requests_total{a=b,policy=dqn}"


class TestCounterIncrease:
    def test_normal_growth(self):
        assert counter_increase(10.0, 15.0) == 5.0

    def test_reset_uses_current_value(self):
        assert counter_increase(100.0, 3.0) == 3.0

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=2,
            max_size=32,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_never_negative_across_arbitrary_sequences(self, values):
        # Arbitrary counter trajectories — including decreases, which
        # model a restarted process — must never yield a negative
        # windowed increase.
        for prev, cur in zip(values, values[1:]):
            assert counter_increase(prev, cur) >= 0.0


class TestBucketDeltas:
    def test_diff_of_growing_histogram(self):
        assert bucket_deltas([1, 2, 3], [2, 2, 7]) == [1, 0, 4]

    def test_reset_falls_back_to_current(self):
        assert bucket_deltas([5, 5, 5], [1, 2, 3]) == [1, 2, 3]

    def test_first_window_is_current(self):
        assert bucket_deltas(None, [4, 0, 1]) == [4, 0, 1]


EDGES = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0]


class TestBucketDeltaQuantile:
    def test_empty_window_is_zero(self):
        assert bucket_delta_quantile(EDGES, [0] * 8, 99.0) == 0.0

    def test_interpolates_inside_owning_bucket(self):
        # All mass in (0.005, 0.01]: any quantile lands inside it.
        deltas = [0, 10, 0, 0, 0, 0, 0, 0]
        for q in (1.0, 50.0, 99.0):
            v = bucket_delta_quantile(EDGES, deltas, q)
            assert 0.001 <= v <= 0.01

    def test_overflow_clamps_to_last_finite_edge(self):
        deltas = [0, 0, 0, 0, 0, 0, 0, 5]
        assert bucket_delta_quantile(EDGES, deltas, 99.0) == EDGES[-1]

    def test_rejects_out_of_range_percentile(self):
        with pytest.raises(ValueError):
            bucket_delta_quantile(EDGES, [1] * 8, 101.0)

    @given(
        st.lists(
            st.floats(min_value=1e-4, max_value=0.9, allow_nan=False),
            min_size=4,
            max_size=64,
        ),
        st.sampled_from([50.0, 95.0, 99.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_tracks_exact_quantile_to_within_one_bucket(self, values, q):
        # While the window's samples all fit the bucket grid, the
        # bucket-delta estimate and the exact sample quantile
        # (inverted-CDF: an actual observed value, the definition a
        # counting estimator can honor — linear interpolation averages
        # across empty buckets on bimodal data) must fall in the same
        # or an adjacent bucket.
        deltas = [0] * (len(EDGES) + 1)
        for v in values:
            for i, edge in enumerate(EDGES):
                if v <= edge:
                    deltas[i] += 1
                    break
            else:
                deltas[len(EDGES)] += 1
        estimate = bucket_delta_quantile(EDGES, deltas, q)
        exact = float(np.percentile(values, q, method="inverted_cdf"))

        def owning_bucket(x):
            for i, edge in enumerate(EDGES):
                if x <= edge:
                    return i
            return len(EDGES)

        assert abs(owning_bucket(estimate) - owning_bucket(exact)) <= 1


class TestWindowedSeries:
    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", labelnames=("policy",))
        reg.gauge("depth")
        reg.histogram("lat_seconds", buckets=EDGES)
        return reg

    def test_counter_rate_and_gauge_value(self):
        reg = self.make_registry()
        reg.get("reqs_total").labels(policy="dqn").inc(10)
        reg.get("depth").set(7)
        first = reg.snapshot()
        reg.get("reqs_total").labels(policy="dqn").inc(20)
        series = windowed_series(first, reg.snapshot(), dt=2.0)
        assert series["reqs_total{policy=dqn}"]["rate"] == pytest.approx(10.0)
        assert series["reqs_total{policy=dqn}"]["value"] == 30.0
        assert series["depth"] == {"value": 7.0}

    def test_histogram_window_quantiles_cover_only_new_samples(self):
        reg = self.make_registry()
        hist = reg.get("lat_seconds")
        hist.observe_many(np.full(100, 0.002))
        first = reg.snapshot()
        hist.observe_many(np.full(50, 0.3))  # the window's samples
        entry = windowed_series(first, reg.snapshot(), dt=1.0)["lat_seconds"]
        assert entry["count"] == 50
        assert entry["rate"] == pytest.approx(50.0)
        # The old 2 ms mass is outside the window: p50 sits in the
        # (0.1, 0.5] bucket the new samples landed in.
        assert 0.1 <= entry["p50"] <= 0.5

    def test_first_window_without_previous_counts_everything(self):
        reg = self.make_registry()
        reg.get("reqs_total").labels(policy="dqn").inc(4)
        series = windowed_series(None, reg.snapshot(), dt=2.0)
        assert series["reqs_total{policy=dqn}"]["rate"] == pytest.approx(2.0)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            windowed_series(None, {"metrics": {}}, dt=-1.0)


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


class TestSnapshotSampler:
    def test_maybe_sample_respects_cadence(self):
        reg = MetricsRegistry()
        reg.counter("ticks_total")
        clock = FakeClock()
        sampler = SnapshotSampler(reg, interval_s=1.0, clock=clock)
        assert sampler.maybe_sample() is None
        clock.t += 0.5
        assert sampler.maybe_sample() is None
        clock.t += 0.6
        record = sampler.maybe_sample()
        assert record is not None
        assert record["window_s"] == pytest.approx(1.1)

    def test_stream_has_header_then_sequenced_samples(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("ticks_total")
        clock = FakeClock()
        path = tmp_path / "samples.jsonl"
        sampler = SnapshotSampler(
            reg, interval_s=1.0, clock=clock, path=path, meta={"command": "t"}
        )
        for _ in range(3):
            reg.get("ticks_total").inc()
            clock.t += 1.0
            sampler.sample()
        sampler.close()
        records = load_samples(path)
        assert records[0]["kind"] == SAMPLES_KIND
        assert records[0]["meta"] == {"command": "t"}
        assert [r["seq"] for r in sample_records(records)] == [0, 1, 2]
        assert check_samples(records) == []

    def test_restart_appends_header_and_never_goes_negative(self, tmp_path):
        # A restarted session appends to the same stream with a *fresh*
        # registry: counters restart from zero.  The stream must remain
        # valid and rate-nonnegative — the reset convention at work.
        path = tmp_path / "samples.jsonl"
        clock = FakeClock()
        first_reg = MetricsRegistry()
        first_reg.counter("ticks_total")
        first = SnapshotSampler(first_reg, interval_s=1.0, clock=clock, path=path)
        first_reg.get("ticks_total").inc(1000)
        clock.t += 1.0
        first.sample()
        first.close()

        second_reg = MetricsRegistry()
        second_reg.counter("ticks_total")
        second = SnapshotSampler(
            second_reg, interval_s=1.0, clock=clock, path=path, append=True
        )
        second_reg.get("ticks_total").inc(3)  # far below the old 1000
        clock.t += 1.0
        second.sample()
        second.close()

        records = load_samples(path)
        headers = [r for r in records if r.get("kind") == SAMPLES_KIND]
        assert len(headers) == 2
        samples = sample_records(records)
        assert [s["seq"] for s in samples] == [0, 0]
        assert check_samples(records) == []
        rates = [v for _, v in series_values(samples, "ticks_total", "rate")]
        assert all(r >= 0.0 for r in rates)

    @given(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=1000),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_property_restarted_streams_never_sample_negative_rates(
        self, tmp_path_factory, segments
    ):
        # Each segment is one process lifetime: a fresh registry (counter
        # resets to zero) appending to the shared stream, incrementing by
        # arbitrary amounts between samples.
        path = tmp_path_factory.mktemp("prop") / "samples.jsonl"
        clock = FakeClock()
        for i, increments in enumerate(segments):
            reg = MetricsRegistry()
            reg.counter("events_total")
            sampler = SnapshotSampler(
                reg, interval_s=0.5, clock=clock, path=path, append=(i > 0)
            )
            for n in increments:
                reg.get("events_total").inc(n)
                clock.t += 1.0
                sampler.sample()
            sampler.close()
        records = load_samples(path)
        assert check_samples(records) == []
        for s in sample_records(records):
            for entry in s["series"].values():
                assert entry.get("rate", 0.0) >= 0.0

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SnapshotSampler(MetricsRegistry(), interval_s=0.0)


class TestSeal:
    """The closing window of a monitored session (``SnapshotSampler.seal``)."""

    def _sampled(self, interval_s=0.01):
        # One cadence sample after 50 requests; the session then ends.
        reg = MetricsRegistry()
        reg.counter("requests_total")
        reg.histogram("latency_seconds")
        clock = FakeClock()
        sampler = SnapshotSampler(reg, interval_s=interval_s, clock=clock)
        reg.get("requests_total").inc(50)
        clock.t += interval_s
        assert sampler.maybe_sample() is not None
        return reg, clock, sampler

    def test_skips_an_idle_stub_window(self):
        # A sub-millisecond window with zero requests right after the last
        # cadence sample would read as a zero-throughput breach.
        reg, clock, sampler = self._sampled()
        clock.t += 0.0005
        assert sampler.seal() is None
        assert len(sampler.samples) == 1

    @pytest.mark.parametrize("series", ["requests_total", "latency_seconds"])
    def test_keeps_a_short_window_in_which_a_count_advanced(self, series):
        reg, clock, sampler = self._sampled()
        if series == "requests_total":
            reg.get(series).inc(2)
        else:
            reg.get(series).observe(0.001)
        clock.t += 0.0005
        record = sampler.seal()
        assert record is not None
        assert len(sampler.samples) == 2

    def test_keeps_a_full_idle_window_as_a_stall(self):
        reg, clock, sampler = self._sampled()
        clock.t += 0.01
        record = sampler.seal()
        assert record is not None
        assert record["series"]["requests_total"]["rate"] == 0.0

    def test_always_records_the_first_window(self):
        reg = MetricsRegistry()
        reg.counter("requests_total")
        clock = FakeClock()
        sampler = SnapshotSampler(reg, interval_s=1.0, clock=clock)
        clock.t += 0.001
        assert sampler.seal() is not None


class TestCheckSamples:
    def test_empty_stream_flagged(self):
        assert check_samples([]) == ["empty sample stream"]

    def test_sample_before_header_flagged(self):
        problems = check_samples(
            [{"kind": "sample", "seq": 0, "t": 0.0, "window_s": 1.0,
              "series": {}}]
        )
        assert any("header" in p for p in problems)

    def test_seq_gap_flagged(self):
        header = {"kind": SAMPLES_KIND, "version": 1}
        sample = {"kind": "sample", "seq": 0, "t": 0.0, "window_s": 1.0,
                  "series": {}}
        skipped = dict(sample, seq=2)
        problems = check_samples([header, sample, skipped])
        assert any("seq 2" in p for p in problems)

    def test_negative_rate_flagged(self):
        header = {"kind": SAMPLES_KIND, "version": 1}
        sample = {"kind": "sample", "seq": 0, "t": 0.0, "window_s": 1.0,
                  "series": {"x": {"rate": -1.0}}}
        problems = check_samples([header, sample])
        assert any("negative rate" in p for p in problems)

    def test_round_trips_through_json(self, tmp_path):
        header = {"kind": SAMPLES_KIND, "version": 1}
        sample = {"kind": "sample", "seq": 0, "t": 1.5, "window_s": 1.0,
                  "series": {"x": {"value": 2.0}}}
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps(header) + "\n" + json.dumps(sample) + "\n"
        )
        assert check_samples(load_samples(path)) == []
