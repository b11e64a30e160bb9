"""Tests for the benchmark's own helpers; no workload runs here."""

from __future__ import annotations

import pytest

import probes
import timing
from repro.obs import Tracer, chrome_trace_from_events


def scripted_clock(*readings):
    it = iter(readings)
    return lambda: next(it)


def trace_events(tracer):
    return chrome_trace_from_events(tracer.events)["traceEvents"]


def test_tail_is_p99_when_ten_samples_lie_beyond_it():
    pct, value, beyond = timing.tail_percentile(list(range(1, 1001)))
    assert (pct, beyond) == (99.0, 10)
    assert value == pytest.approx(990.01)


def test_tail_steps_down_the_ladder_for_short_runs():
    pct, _, beyond = timing.tail_percentile(list(range(300)))
    assert pct == 95.0
    assert beyond == 15


def test_tail_never_counts_ties_as_beyond():
    with pytest.raises(ValueError):
        timing.tail_percentile([1.0] * 995 + [5.0] * 5)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds inner [2, 5] (which holds leaf [3, 4]) and inner [6, 7].
    layers = probes.LayerTracer(
        Tracer(), clock=scripted_clock(0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0)
    )
    leaf = layers.span("leaf")(lambda: None)
    inner = layers.span("inner")(lambda: leaf())
    second = layers.span("inner")(lambda: None)
    outer = layers.span("outer")(lambda: (inner(), second()))
    outer()
    spans = timing.self_times(trace_events(layers.tracer))
    assert spans["outer"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert spans["inner"]["count"] == 2
    assert spans["inner"]["self_s"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert spans["leaf"]["self_s"] == pytest.approx(1.0)


def test_weather_time_is_one_span_nested_in_its_build():
    # build [0, 10] calls generate_weather twice: [1, 3] and [4, 7].
    layers = probes.LayerTracer(
        Tracer(), clock=scripted_clock(0.0, 1.0, 3.0, 4.0, 7.0, 10.0)
    )
    weather = layers.weather(lambda: [0.0] * 96)
    build = layers.build(lambda: [weather(), weather()])
    build()
    events = trace_events(layers.tracer)
    spans = timing.self_times(events)
    assert spans["weather.generate"]["count"] == 1
    assert spans["weather.generate"]["dur_s"] == pytest.approx(5.0)
    assert spans["sim.build"]["self_s"] == pytest.approx(5.0)
    assert timing.arg_sum(events, "weather.generate", "samples") == 192


def test_overlapping_spans_are_rejected():
    events = [
        {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0},
        {"name": "b", "ph": "X", "ts": 5.0, "dur": 10.0},
    ]
    with pytest.raises(ValueError):
        timing.self_times(events)


class _Fleet:
    pass


def test_step_clock_times_cycles_of_one_fleet():
    clock = probes.StepClock()
    a, b = _Fleet(), _Fleet()
    clock.observe(a, 0.0, 1.0, 4)
    clock.observe(a, 2.0, 2.5, 4)
    clock.observe(b, 3.0, 3.5, 2)  # another fleet: no interval across fleets
    clock.observe(b, 6.0, 6.5, 2)
    assert clock.first_end == 1.0
    assert clock.intervals_s == [2.0, 3.0]
    assert clock.stamps == [2.0, 6.0]
    assert clock.env_steps == 8


def test_calibrated_clock_scales_wall_time_by_probe_speed():
    ref = probes.PROBE_REFERENCE_S
    clock = probes.CalibratedClock(
        raw=scripted_clock(10.0, 10.0, 12.0, 13.0, 14.0),
        probe=iter([2 * ref, ref]).__next__,
        window=1,
    )
    # The first probe ran at half the reference speed: 2 s count as 1.
    assert clock() == pytest.approx(1.0)
    clock.sample()  # a probe at reference speed, ending at 13.0
    # The probe's own time is left out; after it the clock runs at 1:1.
    assert clock() == pytest.approx((13.0 - ref - 10.0) * 0.5 + 1.0)


def test_pool_pools_ticks_and_takes_medians_of_the_rest():
    def record(setup_s, ticks, rss):
        return {
            "setup_s": setup_s, "ticks_ms": ticks, "first_unit_ticks": len(ticks),
            "measured_s": 2.0, "env_steps": 100, "peak_rss_mb": rss,
            "details": {}, "attempted": 10, "failed": 0,
        }

    ticks = [float(t) for t in range(1, 301)]
    metrics = timing.pool([
        record(1.0, ticks, 50.0), record(3.0, ticks, 70.0), record(2.0, ticks, 60.0)
    ])
    assert metrics["setup_s"] == 2.0
    assert metrics["peak_rss_mb"] == 60.0
    assert metrics["tick_p50_ms"] == pytest.approx(150.5)
    # 900 pooled first-unit ticks leave 18 beyond p98 and only 9 beyond p99.
    assert metrics["tick_tail_pct"] == 98.0
    assert metrics["tick_tail_beyond"] == 3 * 6
    assert metrics["env_steps_per_s"] == pytest.approx(300 / 6.0)
    assert metrics["failed_share"] == 0.0


def test_traced_run_leaves_every_wrapped_function_identical():
    import repro.sim

    patches = probes.Patches()
    step_clock = probes.StepClock()
    layers = probes.LayerTracer(Tracer())
    probes.install(patches, step_clock, layers)
    saved = list(patches.saved)
    try:
        assert len(saved) > 15
        assert all(vars(owner)[name] is not original for owner, name, original in saved)
        fleet = repro.sim.VectorHVACEnv(repro.sim.build_fleet("baseline-tou", [0, 1]))
        fleet.reset()
        fleet.step([[1], [1]])
        fleet.step([[1], [1]])
    finally:
        patches.restore()
    assert all(vars(owner)[name] is original for owner, name, original in saved)
    spans = timing.self_times(trace_events(layers.tracer))
    expected = {"sim.build", "weather.generate", "sim.init", "sim.first_step", "sim.step"}
    assert expected <= set(spans)
    assert layers.forecast_draws == 2 * 3  # two envs: the reset and two steps
    assert step_clock.env_steps == 2
    assert len(step_clock.intervals_s) == 1
