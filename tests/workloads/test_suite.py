"""Workload suites: expansion, execution, store resume fingerprint parity."""

import pytest

from repro.store import ExperimentStore
from repro.workloads import (
    SUITE_CONTROLLERS,
    SuiteSpec,
    WorkloadSpec,
    expand_suite,
    run_suite,
    suite_traces,
)

# One fast workload: 2 control ticks, enough rate to land requests.
FAST = WorkloadSpec(name="suite-unit", rate_hz=0.005, duration_s=1_800.0)


def small_spec(**overrides):
    base = dict(
        scenarios=("baseline-tou",),
        workloads=(FAST,),
        controllers=("thermostat",),
        fleet=2,
        seed=5,
    )
    base.update(overrides)
    return SuiteSpec(**base)


class TestSpecValidation:
    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            small_spec(scenarios=())
        with pytest.raises(ValueError, match="workload"):
            small_spec(workloads=())
        with pytest.raises(ValueError, match="controller"):
            small_spec(controllers=())
        with pytest.raises(ValueError, match="fault"):
            small_spec(faults=())

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError, match="unknown controller"):
            small_spec(controllers=("mpc",))

    @pytest.mark.parametrize(
        "axes, repeated",
        [
            ({"scenarios": ("baseline-tou", "baseline-tou")}, "baseline-tou"),
            ({"workloads": (FAST, "steady-poisson", FAST)}, "suite-unit"),
            ({"controllers": ("dqn", "dqn")}, "dqn"),
            ({"faults": ("stuck-damper", "stuck-damper")}, "stuck-damper"),
        ],
    )
    def test_repeated_axis_value_rejected(self, axes, repeated):
        # A repeated value would expand to two cells with one identity.
        with pytest.raises(ValueError, match=f"'{repeated}' more than once"):
            small_spec(**axes)

    def test_unknown_fault_rejected(self):
        with pytest.raises(KeyError):
            small_spec(faults=("gremlins",))

    def test_duration_override_applies_to_workloads(self):
        spec = small_spec(workloads=("steady-poisson",), duration_s=900.0)
        (resolved,) = spec.workload_specs()
        assert resolved.duration_s == 900.0

    def test_as_config_uses_names_only(self):
        config = small_spec().as_config()
        assert config["workloads"] == ["suite-unit"]
        assert config["scenarios"] == ["baseline-tou"]
        assert config["fleet"] == 2


class TestExpansion:
    def test_cartesian_product_in_order(self):
        spec = small_spec(
            controllers=("thermostat", "pid"),
            faults=("none", "stuck-damper"),
        )
        jobs = expand_suite(spec)
        assert len(jobs) == 1 * 2 * 2 * 1
        assert [(j.fault.name, j.controller) for j in jobs] == [
            ("none", "thermostat"),
            ("none", "pid"),
            ("stuck-damper", "thermostat"),
            ("stuck-damper", "pid"),
        ]
        assert all(j.scenario.name == "baseline-tou" for j in jobs)

    def test_suite_controllers_cover_batched_and_local(self):
        assert "dqn" in SUITE_CONTROLLERS
        assert "thermostat" in SUITE_CONTROLLERS


class TestTraces:
    def test_traces_record_into_the_store(self, tmp_path):
        spec = small_spec()
        store = ExperimentStore.create(tmp_path / "run", kind="workload-suite")
        traces = suite_traces(spec, store=store)
        assert set(traces) == {"suite-unit"}
        reloaded = suite_traces(spec, store=store)
        assert reloaded["suite-unit"].sha256 == traces["suite-unit"].sha256

    def test_stored_trace_with_wrong_geometry_rejected(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="workload-suite")
        suite_traces(small_spec(), store=store)
        with pytest.raises(ValueError, match="fresh run directory"):
            suite_traces(small_spec(fleet=4), store=store)


class TestRunSuite:
    def test_rows_follow_expansion_order(self):
        spec = small_spec(controllers=("thermostat", "random"))
        result = run_suite(spec)
        assert [r.controller for r in result.rows] == ["thermostat", "random"]
        row = result.row("baseline-tou", "random", "none", "suite-unit")
        assert row.n_clients == 2
        assert "fingerprint" in result.render() or row.fingerprint[:12] in result.render()

    def test_resume_reproduces_fingerprints_bit_for_bit(self, tmp_path):
        """The acceptance property: a stored suite re-run (all cells
        cached) and a fresh run of the same spec agree on every
        fingerprint."""
        spec = small_spec(controllers=("thermostat", "pid"))
        fresh = run_suite(spec)

        store = ExperimentStore.create(tmp_path / "run", kind="workload-suite")
        first = run_suite(spec, store=store)
        resumed = run_suite(
            spec, store=ExperimentStore.open(tmp_path / "run")
        )
        for a, b, c in zip(fresh.rows, first.rows, resumed.rows):
            assert a.fingerprint == b.fingerprint == c.fingerprint
            assert a.trace_sha256 == b.trace_sha256 == c.trace_sha256

    def test_partial_store_resumes_only_pending_cells(self, tmp_path):
        spec = small_spec(controllers=("thermostat", "pid"))
        store = ExperimentStore.create(tmp_path / "run", kind="workload-suite")
        run_suite(small_spec(controllers=("thermostat",)), store=store)
        assert len(store.completed()) == 1

        result = run_suite(spec, store=ExperimentStore.open(tmp_path / "run"))
        assert len(result.rows) == 2
        assert store.completed() == {
            ("baseline-tou", "thermostat", "none", "suite-unit"),
            ("baseline-tou", "pid", "none", "suite-unit"),
        }

    def test_faulted_cell_runs_through_fault_wrapper(self):
        spec = small_spec(faults=("stuck-thermistor",))
        result = run_suite(spec)
        (row,) = result.rows
        assert row.fault == "stuck-thermistor"
        assert len(row.fingerprint) == 64

    def test_missing_row_lookup_raises(self):
        result = run_suite(small_spec())
        with pytest.raises(KeyError, match="no row"):
            result.row("baseline-tou", "dqn", "none", "suite-unit")


#: Fingerprints of a thermostat grid over two registered workloads, with
#: and without a stuck thermistor (baseline-tou, fleet 4, seed 0, 6 h),
#: recorded before campaigns and suites shared one grid engine.  dqn
#: cells are left out: their fingerprints hash BLAS matmul bytes.
PINNED_FINGERPRINTS = {
    ("none", "steady-poisson"):
        "7d671e221674065fb4839a43babe50a408b463d780da7795226e54632916d1e4",
    ("none", "dr-event-spike"):
        "31860c2fbba74ff68f2ce9dc0403fc1d9552be659d91f3f01557cc8666e6b2ea",
    ("stuck-thermistor", "steady-poisson"):
        "7d671e221674065fb4839a43babe50a408b463d780da7795226e54632916d1e4",
    ("stuck-thermistor", "dr-event-spike"):
        "31860c2fbba74ff68f2ce9dc0403fc1d9552be659d91f3f01557cc8666e6b2ea",
}


def test_suite_fingerprints_are_pinned():
    spec = SuiteSpec(
        scenarios=("baseline-tou",),
        workloads=("steady-poisson", "dr-event-spike"),
        controllers=("thermostat",),
        faults=("none", "stuck-thermistor"),
        fleet=4,
        duration_s=21_600.0,
    )
    rows = run_suite(spec).rows
    assert [(r.fault, r.workload) for r in rows] == list(PINNED_FINGERPRINTS)
    assert {
        (r.fault, r.workload): r.fingerprint for r in rows
    } == PINNED_FINGERPRINTS


def test_suite_fault_axis_is_in_the_pinned_replay_path():
    # Over 6 h the stuck thermistor leaves the thermostat's actions (and
    # so the fingerprints above) unchanged; over 12 h it does not.  This
    # pin fails if the fault wrapper drops out of the replay path.
    # Recorded, like the pins above, before the grid engine was shared.
    spec = SuiteSpec(
        scenarios=("baseline-tou",),
        workloads=("steady-poisson",),
        controllers=("thermostat",),
        faults=("none", "stuck-thermistor"),
        fleet=4,
        duration_s=43_200.0,
    )
    clean, faulted = run_suite(spec).rows
    assert clean.fingerprint == (
        "d53c5d44bc81efa85a690a991c44fe6e53ae916ab86615bb840f425f54ea3737"
    )
    assert faulted.fingerprint == (
        "c93968ea0199aaa7d50d5448eb0a31dea288b6e6f95a8197cc02249df5f188df"
    )
    assert clean.total_reward == pytest.approx(-7.724942917442555, rel=1e-9)
    assert faulted.total_reward == pytest.approx(-350.82877214865755, rel=1e-9)
