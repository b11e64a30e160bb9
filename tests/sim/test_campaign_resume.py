"""Tests for store-backed (resumable) campaign execution."""

import pytest

from repro.sim import CampaignSpec, get_scenario, run_campaign
from repro.sim import campaign as campaign_module
from repro.store import ExperimentStore

_FAST = get_scenario("baseline-tou").with_overrides(
    name="resume-a", weather_days=2.0
)
_FAST_B = get_scenario("flat-tariff").with_overrides(
    name="resume-b", weather_days=2.0
)


@pytest.fixture
def spec():
    return CampaignSpec(
        scenarios=(_FAST, _FAST_B),
        controllers=("thermostat", "random"),
        seeds=(0, 1),
    )


@pytest.fixture
def counted_jobs(monkeypatch):
    """Count cell executions by wrapping the module-level job runner."""
    calls = []
    original = campaign_module.run_campaign_job

    def counting(job):
        calls.append((job.scenario.name, job.controller))
        return original(job)

    monkeypatch.setattr(campaign_module, "run_campaign_job", counting)
    return calls


class TestCampaignResume:
    def test_cells_persist_as_they_complete(self, tmp_path, spec):
        store = ExperimentStore.create(tmp_path / "run", kind="campaign")
        result = run_campaign(spec, store=store)
        assert len(result.rows) == 4
        assert store.completed() == {
            ("resume-a", "thermostat", "none", "none"),
            ("resume-a", "random", "none", "none"),
            ("resume-b", "thermostat", "none", "none"),
            ("resume-b", "random", "none", "none"),
        }
        cell = store.get_cell("resume-a", "thermostat")
        assert cell["elapsed_seconds"] > 0.0
        assert cell["row"]["n_seeds"] == 2

    def test_rerun_executes_only_missing_cells(self, tmp_path, spec, counted_jobs):
        store = ExperimentStore.create(tmp_path / "run", kind="campaign")
        # Simulate a killed sweep: only the first scenario completed.
        partial = CampaignSpec(
            scenarios=(_FAST,), controllers=spec.controllers, seeds=spec.seeds
        )
        run_campaign(partial, store=store)
        assert len(counted_jobs) == 2

        result = run_campaign(spec, store=store)
        # Acceptance: the rerun executed exactly the missing cells.
        assert len(counted_jobs) == 4
        assert counted_jobs[2:] == [
            ("resume-b", "thermostat"),
            ("resume-b", "random"),
        ]
        assert len(result.rows) == 4

    def test_resumed_rows_match_fresh_rows(self, tmp_path, spec):
        store = ExperimentStore.create(tmp_path / "run", kind="campaign")
        first = run_campaign(spec, store=store)
        resumed = run_campaign(spec, store=store)  # everything from the store
        fresh = run_campaign(spec)
        for row_r, row_f, row_0 in zip(resumed.rows, fresh.rows, first.rows):
            assert row_r.scenario == row_f.scenario == row_0.scenario
            assert row_r.mean == pytest.approx(row_f.mean)
            assert row_r.mean == row_0.mean
            assert row_r.std == row_0.std

    def test_fully_stored_rerun_executes_nothing(self, tmp_path, spec, counted_jobs):
        store = ExperimentStore.create(tmp_path / "run", kind="campaign")
        run_campaign(spec, store=store)
        executed_first = len(counted_jobs)
        run_campaign(spec, store=store)
        assert len(counted_jobs) == executed_first  # zero new executions

    def test_rows_preserve_expansion_order_on_resume(self, tmp_path, spec):
        store = ExperimentStore.create(tmp_path / "run", kind="campaign")
        partial = CampaignSpec(
            scenarios=(_FAST_B,), controllers=("random",), seeds=spec.seeds
        )
        run_campaign(partial, store=store)  # completes a *late* cell first
        result = run_campaign(spec, store=store)
        assert [(r.scenario, r.controller) for r in result.rows] == [
            ("resume-a", "thermostat"),
            ("resume-a", "random"),
            ("resume-b", "thermostat"),
            ("resume-b", "random"),
        ]
