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
# Two controllers x two faults x two seeds over two scenarios with
# different weather: every cell of a scenario reuses the same seeds'
# weather in a serial run.
_PARITY = CampaignSpec(
    scenarios=(
        _FAST,
        get_scenario("heat-wave").with_overrides(name="fast-hw", weather_days=2.0),
    ),
    controllers=("thermostat", "pid"),
    faults=("none", "noisy-sensors"),
    seeds=(0, 3),
)


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
        # Bare jobs run outside any grid run, so they build every series
        # themselves: the memo-free reference.  A serial campaign shares
        # each (scenario, seed)'s weather between its cells.  Rows must
        # agree to the last bit.
        via_campaign = run_campaign(_PARITY)
        direct = [run_campaign_job(job) for job in expand_campaign(_PARITY)]
        assert [r.as_dict() for r in direct] == [
            r.as_dict() for r in via_campaign.rows
        ]

    def test_unknown_executor_rejected(self):
        spec = CampaignSpec(scenarios=(_FAST,))
        with pytest.raises(ValueError, match="executor"):
            run_campaign(spec, executor="gpu")

    def test_process_executor(self):
        try:
            result = run_campaign(_PARITY, executor="process", max_workers=2)
        except (OSError, PermissionError) as exc:  # sandboxed CI: no semaphores
            pytest.skip(f"process pool unavailable: {exc}")
        serial = run_campaign(_PARITY)
        assert [r.as_dict() for r in result.rows] == [
            r.as_dict() for r in serial.rows
        ]
