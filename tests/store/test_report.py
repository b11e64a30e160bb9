"""Tests for the Markdown campaign report renderer."""

import pytest

from repro.store import ExperimentStore, render_campaign_report


def _cell_row(scenario, controller, cost=2.0, viol=0.5):
    metrics = {
        "episode_return": -cost,
        "cost_usd": cost,
        "energy_kwh": 10.0 * cost,
        "violation_deg_hours": viol,
        "violation_rate": 0.01,
    }
    return {
        "scenario": scenario,
        "controller": controller,
        "n_seeds": 3,
        "mean": dict(metrics),
        "std": {k: 0.25 for k in metrics},
    }


@pytest.fixture
def campaign_store(tmp_path):
    return ExperimentStore.create(
        tmp_path / "run",
        kind="campaign",
        config={"scenarios": ["heat-wave"], "controllers": ["pid", "random"]},
        command=["repro-hvac", "campaign", "--resume", "run"],
    )


class TestRenderCampaignReport:
    def test_one_summary_row_per_cell_with_mean_std(self, campaign_store):
        campaign_store.put_cell(_cell_row("heat-wave", "pid", cost=2.5))
        campaign_store.put_cell(_cell_row("heat-wave", "random", cost=9.0))
        text = render_campaign_report(campaign_store)
        lines = text.splitlines()
        pid_rows = [l for l in lines if "| pid" in l]
        random_rows = [l for l in lines if "| random" in l]
        assert len(pid_rows) == 1 and len(random_rows) == 1
        # mean±std energy cost and comfort violations in the cell row
        assert "2.500 ± 0.250" in pid_rows[0]
        assert "0.50 ± 0.25" in pid_rows[0]

    def test_provenance_section(self, campaign_store):
        campaign_store.put_cell(_cell_row("heat-wave", "pid"))
        text = render_campaign_report(campaign_store)
        assert campaign_store.manifest.run_id in text
        assert campaign_store.manifest.git_sha in text
        assert "repro-hvac campaign --resume run" in text
        assert "heat-wave" in text

    def test_timing_section(self, campaign_store):
        campaign_store.put_cell(_cell_row("heat-wave", "pid"), elapsed_seconds=2.0)
        campaign_store.put_cell(
            _cell_row("heat-wave", "random"), elapsed_seconds=5.0
        )
        text = render_campaign_report(campaign_store)
        assert "completed cells:** 2" in text
        assert "7.00 s" in text
        assert "slowest cell:** heat-wave / random (5.00 s)" in text

    def test_slowest_cell_names_its_fault(self, campaign_store):
        campaign_store.put_cell(_cell_row("heat-wave", "pid"), elapsed_seconds=2.0)
        campaign_store.put_cell(
            dict(_cell_row("heat-wave", "pid"), fault="stuck-damper"),
            elapsed_seconds=5.0,
        )
        text = render_campaign_report(campaign_store)
        assert "slowest cell:** heat-wave / pid / stuck-damper (5.00 s)" in text

    def test_empty_run_renders_placeholder(self, campaign_store):
        text = render_campaign_report(campaign_store)
        assert "No completed cells yet" in text

    def test_rejects_non_campaign_runs(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "t", kind="train")
        with pytest.raises(ValueError, match="campaign"):
            render_campaign_report(store)


class TestRenderWorkloadReport:
    def _store(self, tmp_path):
        from repro.store import render_workload_report

        store = ExperimentStore.create(tmp_path / "run", kind="workload-suite")
        return store, render_workload_report

    def test_empty_run_renders_placeholder(self, tmp_path):
        store, render = self._store(tmp_path)
        report = render(store)
        assert "# Workload-suite report" in report
        assert "_No completed cells yet._" in report

    def test_traces_and_cells_render_with_digests(self, tmp_path):
        store, render = self._store(tmp_path)
        store.put_artifact(
            "workload_trace__steady-poisson",
            {
                "spec": {"name": "steady-poisson"},
                "n_clients": 2,
                "seed": 5,
                "n_events": 7,
                "sha256": "ab" * 32,
            },
        )
        store.put_cell(
            {
                "scenario": "baseline-tou",
                "controller": "thermostat",
                "fault": "none",
                "workload": "steady-poisson",
                "fingerprint": "cd" * 32,
                "replay": {"n_requests": 6},
                "timing": {
                    "latency_ms": {"p50": 0.5, "p99": 1.5},
                    "throughput_rps": 123.0,
                },
            }
        )
        report = render(store)
        assert "## Recorded traces" in report
        assert f"`{'ab' * 8}`" in report  # 16-hex trace digest prefix
        assert f"`{'cd' * 8}`" in report  # 16-hex fingerprint prefix
        assert "excluded from the fingerprint" in report

    def test_rejects_other_run_kinds(self, tmp_path):
        from repro.store import render_workload_report

        store = ExperimentStore.create(tmp_path / "run", kind="campaign")
        with pytest.raises(ValueError, match="workload-suite"):
            render_workload_report(store)
