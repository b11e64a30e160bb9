"""WorkloadTrace: validation, digests, serialization, store round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import ExperimentStore
from repro.workloads import (
    WorkloadSpec,
    WorkloadTrace,
    generate_trace,
    load_trace,
    record_trace,
    trace_artifact_name,
)
from repro.workloads.trace import TRACE_FORMAT_VERSION


def small_trace(seed=3):
    spec = WorkloadSpec(name="unit", rate_hz=0.02, duration_s=3_600.0)
    return generate_trace(spec, n_clients=3, seed=seed)


class TestValidation:
    def _make(self, times, clients, n_clients=3, duration_s=3_600.0):
        spec = WorkloadSpec(name="unit", duration_s=duration_s)
        return WorkloadTrace(
            spec_config=spec.as_config(),
            n_clients=n_clients,
            seed=0,
            times_s=np.asarray(times, dtype=np.float64),
            clients=np.asarray(clients, dtype=np.int64),
        )

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            self._make([10.0, 5.0], [0, 1])

    def test_times_outside_horizon_rejected(self):
        with pytest.raises(ValueError, match="event times"):
            self._make([10.0, 3_600.0], [0, 1])
        with pytest.raises(ValueError, match="event times"):
            self._make([-1.0, 10.0], [0, 1])

    def test_client_indices_bounded(self):
        with pytest.raises(ValueError, match="client indices"):
            self._make([1.0, 2.0], [0, 3])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            self._make([1.0, 2.0], [0])

    def test_empty_trace_is_valid(self):
        trace = self._make([], [])
        assert trace.n_events == 0
        assert trace.n_requests == 0
        assert len(trace.requests_by_tick()) == trace.n_ticks


class TestCoalescing:
    def test_same_client_same_tick_coalesces(self):
        spec = WorkloadSpec(name="unit", duration_s=1_800.0)  # 2 ticks
        trace = WorkloadTrace(
            spec_config=spec.as_config(),
            n_clients=2,
            seed=0,
            times_s=np.array([10.0, 20.0, 890.0, 1000.0]),
            clients=np.array([0, 0, 1, 0]),
        )
        buckets = trace.requests_by_tick()
        assert [list(b) for b in buckets] == [[0, 1], [0]]
        assert trace.n_events == 4
        assert trace.n_requests == 3

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n_clients=st.integers(1, 5),
        tick_s=st.sampled_from([60.0, 450.0, 900.0]),
        n_ticks=st.integers(1, 12),
        partial_tick=st.booleans(),
    )
    def test_buckets_match_naive_per_tick_mask(
        self, data, n_clients, tick_s, n_ticks, partial_tick
    ):
        duration = tick_s * (n_ticks - 0.5 if partial_tick else n_ticks)
        # Events land on a coarse grid so several share a tick, some ticks
        # stay empty and one client can fire twice inside a tick.
        slots = st.integers(0, int(duration / tick_s * 4) - 1)
        events = data.draw(
            st.lists(st.tuples(slots, st.integers(0, n_clients - 1)), max_size=40)
        )
        times = np.sort(np.array([s * tick_s / 4 for s, _ in events], dtype=float))
        order = np.argsort([s for s, _ in events], kind="stable")
        clients = np.array([events[i][1] for i in order], dtype=np.int64)
        spec = WorkloadSpec(name="unit", duration_s=duration, tick_s=tick_s)
        trace = WorkloadTrace(
            spec_config=spec.as_config(),
            n_clients=n_clients,
            seed=0,
            times_s=times,
            clients=clients,
        )
        ticks = trace.event_ticks()
        naive = [np.unique(clients[ticks == k]) for k in range(trace.n_ticks)]
        buckets = trace.requests_by_tick()
        assert len(buckets) == len(naive) == trace.n_ticks
        for got, want in zip(buckets, naive):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable
        assert trace.n_requests == sum(b.size for b in naive)
        again = trace.requests_by_tick()
        assert all(a is b for a, b in zip(again, buckets))

    def test_event_ticks_floor_divide(self):
        trace = small_trace()
        ticks = trace.event_ticks()
        assert np.array_equal(
            ticks, np.floor(trace.times_s / trace.tick_s).astype(np.int64)
        )


class TestSerialization:
    def test_dict_round_trip_is_byte_exact(self):
        trace = small_trace()
        clone = WorkloadTrace.from_dict(trace.as_dict())
        assert clone.sha256 == trace.sha256
        assert clone.times_s.tobytes() == trace.times_s.tobytes()
        assert clone.clients.tobytes() == trace.clients.tobytes()
        assert clone.spec_config == trace.spec_config

    def test_json_file_round_trip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.json"
        trace.save(path)
        assert WorkloadTrace.load(path).sha256 == trace.sha256

    def test_tampered_payload_fails_loudly(self):
        payload = small_trace().as_dict()
        payload["times_s"][0] += 1e-9
        with pytest.raises(ValueError, match="digest mismatch"):
            WorkloadTrace.from_dict(payload)

    def test_future_format_version_rejected(self):
        payload = small_trace().as_dict()
        payload["format_version"] = TRACE_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            WorkloadTrace.from_dict(payload)


class TestStorePlumbing:
    def test_record_then_load_is_byte_exact(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="workload-suite")
        trace = small_trace()
        name = record_trace(store, trace)
        assert name == trace_artifact_name("unit")
        loaded = load_trace(store, "unit")
        assert loaded.sha256 == trace.sha256
        assert loaded.times_s.tobytes() == trace.times_s.tobytes()

    def test_corrupted_artifact_refuses_to_load(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="workload-suite")
        trace = small_trace()
        name = record_trace(store, trace)
        payload = store.get_artifact(name)
        payload["clients"][0] = (payload["clients"][0] + 1) % trace.n_clients
        store.put_artifact(name, payload)
        with pytest.raises(ValueError, match="digest mismatch"):
            load_trace(store, "unit")

    def test_missing_trace_names_the_workload(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="workload-suite")
        with pytest.raises(FileNotFoundError, match="unit"):
            load_trace(store, "unit")
