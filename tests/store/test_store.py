"""Tests for the file-backed experiment store."""

import json

import pytest

from repro.store import ExperimentStore, RunManifest, discover_git_sha


class TestLifecycle:
    def test_create_writes_manifest(self, tmp_path):
        store = ExperimentStore.create(
            tmp_path / "run", kind="campaign", config={"seeds": [0, 1]}
        )
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["kind"] == "campaign"
        assert manifest["config"] == {"seeds": [0, 1]}
        assert store.manifest.run_id.startswith("campaign-")
        assert store.manifest.created_at.endswith("Z")

    def test_create_refuses_existing_run(self, tmp_path):
        ExperimentStore.create(tmp_path / "run", kind="campaign")
        with pytest.raises(FileExistsError):
            ExperimentStore.create(tmp_path / "run", kind="campaign")

    def test_open_round_trips_manifest(self, tmp_path):
        created = ExperimentStore.create(
            tmp_path / "run", kind="train", config={"seed": 3}
        )
        opened = ExperimentStore.open(tmp_path / "run")
        assert opened.manifest == created.manifest

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ExperimentStore.open(tmp_path / "nope")

    def test_open_or_create_reuses_and_checks_kind(self, tmp_path):
        first = ExperimentStore.open_or_create(tmp_path / "run", kind="campaign")
        again = ExperimentStore.open_or_create(tmp_path / "run", kind="campaign")
        assert again.manifest.run_id == first.manifest.run_id
        with pytest.raises(ValueError, match="cannot resume"):
            ExperimentStore.open_or_create(tmp_path / "run", kind="train")


class TestArtifactsAndCheckpoints:
    def test_artifact_round_trip(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="train")
        store.put_artifact("log", {"loss": [1.0, 0.5]})
        assert store.has_artifact("log")
        assert store.get_artifact("log") == {"loss": [1.0, 0.5]}
        assert store.list_artifacts() == ["log"]

    def test_checkpoint_round_trip(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="train")
        assert not store.has_checkpoint("trainer")
        store.save_checkpoint("trainer", {"kind": "trainer", "episodes": 5})
        assert store.has_checkpoint("trainer")
        assert store.load_checkpoint("trainer")["episodes"] == 5
        assert store.list_checkpoints() == ["trainer"]

    def test_writes_are_atomic_no_tmp_left_behind(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="train")
        store.put_artifact("a", {"x": 1})
        leftovers = list((tmp_path / "run").rglob("*.tmp"))
        assert leftovers == []


class TestCells:
    def _row(self, scenario, controller):
        return {
            "scenario": scenario,
            "controller": controller,
            "n_seeds": 2,
            "mean": {"cost_usd": 1.0},
            "std": {"cost_usd": 0.1},
        }

    def test_cell_round_trip(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="campaign")
        store.put_cell(self._row("heat-wave", "pid"), elapsed_seconds=1.5)
        cell = store.get_cell("heat-wave", "pid")
        assert cell["row"]["mean"]["cost_usd"] == 1.0
        assert cell["elapsed_seconds"] == 1.5
        assert store.get_cell("heat-wave", "random") is None

    def test_completed_cells(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="campaign")
        store.put_cell(self._row("a", "pid"))
        store.put_cell(self._row("b", "random"))
        assert store.completed() == {
            ("a", "pid", "none", "none"),
            ("b", "random", "none", "none"),
        }
        assert len(store.iter_cells()) == 2

    def test_cell_key_sanitizes_names(self, tmp_path):
        key = ExperimentStore.cell_key("heat wave/2", "pid")
        assert "/" not in key and " " not in key

    def test_faulted_cells_are_distinct_from_clean(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="robustness")
        clean = self._row("heat-wave", "pid")
        faulted = dict(self._row("heat-wave", "pid"), fault="stuck-damper")
        faulted["mean"] = {"cost_usd": 9.0}
        store.put_cell(clean)
        store.put_cell(faulted)
        assert store.get_cell("heat-wave", "pid")["row"]["mean"]["cost_usd"] == 1.0
        assert (
            store.get_cell("heat-wave", "pid", fault="stuck-damper")["row"]["mean"][
                "cost_usd"
            ]
            == 9.0
        )
        # A faulted cell never answers for the clean one or vice versa.
        assert store.get_cell("heat-wave", "pid", fault="noisy-sensors") is None
        assert store.completed() == {
            ("heat-wave", "pid", "none", "none"),
            ("heat-wave", "pid", "stuck-damper", "none"),
        }

    def test_cell_key_is_one_four_part_format(self):
        # Every cell is written under all four axes, "none" included.
        assert ExperimentStore.cell_key("a", "b") == "a__b__none__none"
        assert (
            ExperimentStore.cell_key("a", "b", "stuck damper")
            == "a__b__stuck-damper__none"
        )
        assert (
            ExperimentStore.cell_key("a", "b", workload="w") == "a__b__none__w"
        )

    def test_legacy_run_dir_resumes_without_rerunning(self, tmp_path, monkeypatch):
        """Run directories written under the older two-part
        (``a__b.json``, no fault/workload keys) and three-part
        (``a__b__<fault>.json``) names resume: identity is read from the
        payload, so no stored cell executes again."""
        from repro.sim import CampaignRow, CampaignSpec, get_scenario, run_campaign
        from repro.sim import campaign as campaign_module

        scenario = get_scenario("baseline-tou").with_overrides(name="legacy-a")
        store = ExperimentStore.create(tmp_path / "run", kind="robustness")
        clean = self._row("legacy-a", "thermostat")
        faulted = dict(
            self._row("legacy-a", "thermostat"),
            fault="stuck-damper",
            mean={"cost_usd": 9.0},
        )
        cells = tmp_path / "run" / "cells"
        cells.mkdir()
        (cells / "legacy-a__thermostat.json").write_text(
            json.dumps(
                {"scenario": "legacy-a", "controller": "thermostat", "row": clean}
            )
        )
        (cells / "legacy-a__thermostat__stuck-damper.json").write_text(
            json.dumps(
                {
                    "scenario": "legacy-a",
                    "controller": "thermostat",
                    "fault": "stuck-damper",
                    "row": faulted,
                }
            )
        )
        calls = []
        monkeypatch.setattr(
            campaign_module, "run_campaign_job", lambda job: calls.append(job)
        )
        spec = CampaignSpec(
            scenarios=(scenario,),
            controllers=("thermostat",),
            seeds=(0, 1),
            faults=("none", "stuck-damper"),
        )
        result = run_campaign(spec, store=store)
        assert calls == []
        assert [r.as_dict() for r in result.rows] == [
            CampaignRow.from_dict(clean).as_dict(),
            CampaignRow.from_dict(faulted).as_dict(),
        ]

    def test_slug_colliding_names_do_not_answer_for_each_other(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="campaign")
        store.put_cell(self._row("heat-wave", "pid"))
        # "heat wave" slugs to the same file token but is a different name.
        assert store.get_cell("heat wave", "pid") is None
        assert store.get_cell("heat-wave", "pid") is not None

    def test_every_completed_cell_is_found_by_get_cell(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="campaign")
        cells = tmp_path / "run" / "cells"
        cells.mkdir()
        # A legacy two-part file holds "heat-wave"; the four-part file its
        # slug would map to holds the colliding name "heat wave".
        (cells / "heat-wave__pid.json").write_text(
            json.dumps(
                {
                    "scenario": "heat-wave",
                    "controller": "pid",
                    "row": self._row("heat-wave", "pid"),
                }
            )
        )
        store.put_cell(self._row("heat wave", "pid"))
        assert store.completed() == {
            ("heat-wave", "pid", "none", "none"),
            ("heat wave", "pid", "none", "none"),
        }
        for key in store.completed():
            assert store.get_cell(*key)["row"]["scenario"] == key[0]

    def test_put_cell_refuses_slug_collision_overwrite(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="campaign")
        store.put_cell(self._row("heat-wave", "pid"))
        with pytest.raises(ValueError, match="slug-colliding"):
            store.put_cell(self._row("heat wave", "pid"))
        # Re-writing the same cell stays allowed (campaign reruns).
        store.put_cell(self._row("heat-wave", "pid"))

    def test_workload_cells_live_on_a_fourth_axis(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="workload-suite")
        row = dict(self._row("heat-wave", "pid"), workload="steady-poisson")
        store.put_cell(row)
        cell = store.get_cell(
            "heat-wave", "pid", workload="steady-poisson"
        )
        assert cell["row"]["workload"] == "steady-poisson"
        # The workload cell never answers for the campaign cell.
        assert store.get_cell("heat-wave", "pid") is None
        assert store.get_cell("heat-wave", "pid", workload="bursty-onoff") is None

    def test_completed_lists_every_axis(self, tmp_path):
        store = ExperimentStore.create(tmp_path / "run", kind="workload-suite")
        store.put_cell(self._row("a", "pid"))
        store.put_cell(
            dict(
                self._row("a", "pid"),
                fault="stuck-damper",
                workload="steady-poisson",
            )
        )
        assert store.completed() == {
            ("a", "pid", "none", "none"),
            ("a", "pid", "stuck-damper", "steady-poisson"),
        }

    def test_update_config_rewrites_manifest(self, tmp_path):
        store = ExperimentStore.create(
            tmp_path / "run", kind="train", config={"seed": 0}
        )
        store.update_config({"seed": 5})
        assert ExperimentStore.open(tmp_path / "run").manifest.config == {
            "seed": 5
        }


class TestGitSha:
    def test_discovers_sha_in_this_repo(self):
        sha = discover_git_sha()
        assert sha == "unknown" or len(sha) == 40

    def test_unknown_outside_a_repo(self, tmp_path):
        assert discover_git_sha(tmp_path) == "unknown"


class TestRunManifest:
    def test_dict_round_trip(self):
        manifest = RunManifest(
            run_id="r1",
            kind="campaign",
            created_at="2026-01-01T00:00:00Z",
            git_sha="abc",
            version="1.0.0",
            command=("repro-hvac", "campaign"),
            config={"seeds": [0]},
        )
        assert RunManifest.from_dict(manifest.as_dict()) == manifest
