"""Robustness campaigns: the fault grid axis, degradation summaries,
store resume across interruption, and the Markdown report."""

import numpy as np
import pytest

from repro.sim import (
    CampaignSpec,
    expand_campaign,
    get_scenario,
    render_robustness_table,
    run_campaign,
    summarize_robustness,
)
from repro.store import ExperimentStore, render_robustness_report

_FAST = get_scenario("baseline-tou").with_overrides(
    name="rob-fast", weather_days=2.0
)


@pytest.fixture(scope="module")
def result():
    spec = CampaignSpec(
        scenarios=(_FAST,),
        controllers=("thermostat",),
        seeds=(0, 1),
        faults=("none", "degraded-capacity", "stuck-thermistor"),
    )
    return run_campaign(spec)


class TestFaultAxis:
    def test_grid_expands_over_faults(self):
        spec = CampaignSpec(
            scenarios=(_FAST,),
            controllers=("thermostat", "pid"),
            faults=("none", "stuck-damper"),
        )
        jobs = expand_campaign(spec)
        assert len(jobs) == 1 * 2 * 2
        # Jobs carry resolved FaultProfile objects (not names), so
        # process-pool workers can run custom-registered profiles.
        assert {(j.fault.name, j.controller) for j in jobs} == {
            ("none", "thermostat"),
            ("none", "pid"),
            ("stuck-damper", "thermostat"),
            ("stuck-damper", "pid"),
        }

    def test_custom_profile_jobs_are_self_contained(self):
        """A job built from a custom-registered profile must keep working
        after the registry entry disappears (spawn-based process pools
        only see import-time presets)."""
        from repro.faults import FaultProfile, SensorNoise, register_fault_profile
        from repro.faults import profiles as profiles_module
        from repro.sim import run_campaign_job

        register_fault_profile(
            FaultProfile("custom-pickle-test", faults=(SensorNoise(temp_bias_c=1.0),))
        )
        try:
            spec = CampaignSpec(
                scenarios=(_FAST,),
                controllers=("thermostat",),
                seeds=(0,),
                faults=("custom-pickle-test",),
            )
            job = expand_campaign(spec)[0]
        finally:
            profiles_module._REGISTRY.pop("custom-pickle-test", None)
        import pickle

        row = run_campaign_job(pickle.loads(pickle.dumps(job)))
        assert row.fault == "custom-pickle-test"

    def test_unknown_fault_rejected_at_spec_time(self):
        with pytest.raises(KeyError, match="unknown fault profile"):
            CampaignSpec(scenarios=(_FAST,), faults=("gremlins",))

    def test_faulted_rows_differ_from_clean(self, result):
        clean = result.row("rob-fast", "thermostat")
        degraded = result.row("rob-fast", "thermostat", "degraded-capacity")
        assert degraded.fault == "degraded-capacity"
        assert (
            degraded.mean["violation_deg_hours"]
            > clean.mean["violation_deg_hours"]
        )

    def test_render_includes_fault_column_only_when_faulted(self, result):
        assert "fault" in result.render().splitlines()[0]
        clean_only = run_campaign(
            CampaignSpec(scenarios=(_FAST,), controllers=("random",), seeds=(0,))
        )
        assert "fault" not in clean_only.render().splitlines()[0]

    def test_clean_cell_matches_no_fault_campaign(self, result):
        """The clean column of a faulted campaign must equal a plain
        campaign — the fault axis must not perturb the baseline."""
        plain = run_campaign(
            CampaignSpec(scenarios=(_FAST,), controllers=("thermostat",), seeds=(0, 1))
        )
        assert (
            result.row("rob-fast", "thermostat").mean
            == plain.row("rob-fast", "thermostat").mean
        )


class TestRobustnessSummary:
    def test_deltas_pair_with_clean_twin(self, result):
        summary = summarize_robustness(result.rows)
        assert {r.fault for r in summary} == {
            "degraded-capacity",
            "stuck-thermistor",
        }
        row = next(r for r in summary if r.fault == "degraded-capacity")
        clean = result.row("rob-fast", "thermostat").mean
        faulted = result.row(
            "rob-fast", "thermostat", "degraded-capacity"
        ).mean
        assert row.deltas["cost_usd_delta"] == pytest.approx(
            faulted["cost_usd"] - clean["cost_usd"]
        )
        assert row.deltas["violation_deg_hours_delta"] > 0

    def test_faulted_rows_without_clean_twin_are_skipped(self, result):
        faulted_only = [r for r in result.rows if r.fault != "none"]
        assert summarize_robustness(faulted_only) == []

    def test_table_renders_every_summary_row(self, result):
        summary = summarize_robustness(result.rows)
        table = render_robustness_table(summary)
        assert "d_viol_degh" in table
        assert table.count("rob-fast") == len(summary)


class TestRobustnessStoreResume:
    def _spec(self):
        return CampaignSpec(
            scenarios=(_FAST,),
            controllers=("thermostat",),
            seeds=(0,),
            faults=("none", "degraded-capacity"),
        )

    def test_interrupted_robustness_run_resumes_to_same_results(self, tmp_path):
        """Acceptance: a faulted campaign interrupted mid-run resumes to
        the same results as an uninterrupted one."""
        spec = self._spec()
        uninterrupted = run_campaign(spec)

        store = ExperimentStore.create(tmp_path / "run", kind="robustness")
        partial = CampaignSpec(  # "killed" after the clean cell finished
            scenarios=(_FAST,), controllers=("thermostat",), seeds=(0,)
        )
        run_campaign(partial, store=store)
        assert store.completed() == {("rob-fast", "thermostat", "none", "none")}

        resumed = run_campaign(spec, store=store)
        for row_r, row_u in zip(resumed.rows, uninterrupted.rows):
            assert row_r.fault == row_u.fault
            assert row_r.mean == row_u.mean
            assert row_r.std == row_u.std

    def test_rerun_executes_nothing_when_fully_stored(self, tmp_path, monkeypatch):
        from repro.sim import campaign as campaign_module

        spec = self._spec()
        store = ExperimentStore.create(tmp_path / "run", kind="robustness")
        run_campaign(spec, store=store)

        calls = []
        monkeypatch.setattr(
            campaign_module,
            "run_campaign_job",
            lambda job: calls.append(job) or None,
        )
        result = run_campaign(spec, store=store)
        assert calls == []
        assert len(result.rows) == 2

    def test_legacy_clean_cells_resume_under_fault_campaigns(self, tmp_path):
        """A run directory written before the fault axis existed (cells
        without a fault key) must keep answering for clean cells."""
        store = ExperimentStore.create(tmp_path / "run", kind="campaign")
        legacy_row = {
            "scenario": "rob-fast",
            "controller": "thermostat",
            "n_seeds": 1,
            "mean": {"cost_usd": 1.0},
            "std": {"cost_usd": 0.0},
        }
        path = store.put_cell(legacy_row)
        # Strip the fault key the modern writer adds: simulate old data.
        import json as json_module

        payload = json_module.loads(path.read_text())
        del payload["fault"]
        payload["row"].pop("fault", None)
        path.write_text(json_module.dumps(payload))

        cell = store.get_cell("rob-fast", "thermostat")
        assert cell is not None
        assert store.completed() == {("rob-fast", "thermostat", "none", "none")}


class TestRobustnessReport:
    def test_report_contains_degradation_table(self, tmp_path):
        spec = CampaignSpec(
            scenarios=(_FAST,),
            controllers=("thermostat",),
            seeds=(0,),
            faults=("none", "degraded-capacity"),
        )
        store = ExperimentStore.create(
            tmp_path / "run", kind="robustness", config=spec.as_config()
        )
        run_campaign(spec, store=store)
        text = render_robustness_report(store)
        assert "# Robustness report" in text
        assert "## Degradation vs clean baseline" in text
        assert "degraded-capacity" in text
        assert "Δ cost (USD)" in text

    def test_report_without_clean_twin_explains_itself(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="robustness")
        faulted_row = {
            "scenario": "rob-fast",
            "controller": "thermostat",
            "fault": "stuck-damper",
            "n_seeds": 1,
            "mean": {
                "cost_usd": 1.0,
                "energy_kwh": 1.0,
                "violation_deg_hours": 0.0,
                "violation_rate": 0.0,
                "episode_return": -1.0,
            },
            "std": {
                "cost_usd": 0.0,
                "energy_kwh": 0.0,
                "violation_deg_hours": 0.0,
                "violation_rate": 0.0,
                "episode_return": 0.0,
            },
        }
        store.put_cell(faulted_row)
        text = render_robustness_report(store)
        assert "clean twin" in text

    def test_report_rejects_other_kinds(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="campaign")
        with pytest.raises(ValueError, match="robustness"):
            render_robustness_report(store)
