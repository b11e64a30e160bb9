"""Tests for campaign expansion and execution."""

import json

import pytest

from repro.sim import (
    CampaignSpec,
    expand_campaign,
    get_scenario,
    run_campaign,
    run_campaign_job,
)

# Short scenarios keep the campaign tests fast.
_FAST = get_scenario("baseline-tou").with_overrides(name="fast-a", weather_days=2.0)
_FAST_B = get_scenario("flat-tariff").with_overrides(name="fast-b", weather_days=2.0)


class TestExpansion:
    def test_cartesian_product(self):
        spec = CampaignSpec(
            scenarios=(_FAST, _FAST_B),
            controllers=("thermostat", "pid", "random"),
            seeds=(0, 1),
        )
        jobs = expand_campaign(spec)
        assert len(jobs) == 2 * 3  # one job per (scenario, controller) cell
        assert all(job.seeds == (0, 1) for job in jobs)
        cells = {(j.scenario.name, j.controller) for j in jobs}
        assert ("fast-a", "pid") in cells and ("fast-b", "random") in cells

    def test_names_resolve_through_registry(self):
        spec = CampaignSpec(scenarios=("baseline-tou",))
        assert expand_campaign(spec)[0].scenario.name == "baseline-tou"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(scenarios=())
        with pytest.raises(ValueError):
            CampaignSpec(scenarios=(_FAST,), controllers=("quantum",))
        with pytest.raises(ValueError):
            CampaignSpec(scenarios=(_FAST,), seeds=())

    @pytest.mark.parametrize(
        "axes, repeated",
        [
            ({"scenarios": ("baseline-tou", "baseline-tou")}, "baseline-tou"),
            ({"scenarios": (_FAST, _FAST_B, _FAST)}, "fast-a"),
            ({"controllers": ("pid", "pid")}, "pid"),
            ({"faults": ("none", "stuck-damper", "stuck-damper")}, "stuck-damper"),
        ],
    )
    def test_repeated_axis_value_rejected(self, axes, repeated):
        # A repeated value would expand to two cells with one identity.
        with pytest.raises(ValueError, match=f"'{repeated}' more than once"):
            CampaignSpec(**{"scenarios": (_FAST,), **axes})


class TestExecution:
    def test_serial_campaign(self, tmp_path):
        spec = CampaignSpec(
            scenarios=(_FAST, _FAST_B),
            controllers=("thermostat",),
            seeds=(0, 1),
        )
        result = run_campaign(spec)
        assert len(result.rows) == 2
        row = result.row("fast-a", "thermostat")
        assert row.n_seeds == 2
        assert row.mean["cost_usd"] > 0.0
        assert row.std["cost_usd"] >= 0.0
        rendered = result.render()
        assert "fast-a" in rendered and "thermostat" in rendered

        path = tmp_path / "campaign.json"
        result.save(str(path))
        rows = json.loads(path.read_text())
        assert rows[0]["scenario"] == "fast-a"
        assert "cost_usd" in rows[0]["mean"]

    def test_single_job_matches_campaign_row(self):
        spec = CampaignSpec(scenarios=(_FAST,), controllers=("pid",), seeds=(0,))
        job = expand_campaign(spec)[0]
        direct = run_campaign_job(job)
        via_campaign = run_campaign(spec).row("fast-a", "pid")
        assert direct.mean["cost_usd"] == pytest.approx(
            via_campaign.mean["cost_usd"]
        )

    def test_unknown_executor_rejected(self):
        spec = CampaignSpec(scenarios=(_FAST,))
        with pytest.raises(ValueError, match="executor"):
            run_campaign(spec, executor="gpu")

    def test_process_executor(self):
        spec = CampaignSpec(
            scenarios=(_FAST,), controllers=("thermostat",), seeds=(0,)
        )
        try:
            result = run_campaign(spec, executor="process", max_workers=2)
        except (OSError, PermissionError) as exc:  # sandboxed CI: no semaphores
            pytest.skip(f"process pool unavailable: {exc}")
        serial = run_campaign(spec)
        assert result.row("fast-a", "thermostat").mean["cost_usd"] == pytest.approx(
            serial.row("fast-a", "thermostat").mean["cost_usd"]
        )
