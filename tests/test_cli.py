"""Tests for the command-line interface (invoked in-process)."""

import json

import pytest

from repro.cli import main


class TestWeatherCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code = main(["weather", "--days", "1", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote 96 samples" in capsys.readouterr().out

    def test_round_trips_through_reader(self, tmp_path):
        from repro.weather import weather_from_csv

        out = tmp_path / "w.csv"
        main(["weather", "--days", "2", "--seed", "5", "--out", str(out)])
        series = weather_from_csv(out)
        assert len(series) == 192


class TestTrainAndEvaluate:
    def test_train_writes_checkpoint_and_evaluate_loads_it(self, tmp_path, capsys):
        ckpt = tmp_path / "agent.json"
        code = main(["train", "--episodes", "3", "--out", str(ckpt)])
        assert code == 0
        payload = json.loads(ckpt.read_text())
        assert payload["obs_dim"] > 0
        out = capsys.readouterr().out
        assert "checkpoint written" in out

        code = main(
            ["evaluate", "--checkpoint", str(ckpt), "--days", "1"]
        )
        assert code == 0
        assert "drl_dqn" in capsys.readouterr().out

    def test_train_profile_prints_phase_breakdown(self, capsys):
        code = main(["train", "--episodes", "2", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "training-loop phase breakdown" in out
        for phase in ("action_select", "env_step", "replay_ingest", "learn"):
            assert phase in out

    def test_train_without_profile_stays_quiet(self, capsys):
        code = main(["train", "--episodes", "2"])
        assert code == 0
        assert "phase breakdown" not in capsys.readouterr().out

    def test_evaluate_baseline(self, capsys):
        code = main(["evaluate", "--baseline", "thermostat", "--days", "1"])
        assert code == 0
        assert "thermostat" in capsys.readouterr().out

    def test_evaluate_requires_exactly_one_target(self, capsys):
        code = main(["evaluate"])
        assert code == 2

    def test_evaluate_rejects_both_targets(self, tmp_path):
        code = main(
            ["evaluate", "--checkpoint", "x.json", "--baseline", "pid"]
        )
        assert code == 2


class TestExperimentCommand:
    def test_runs_tiny_e3(self, capsys):
        code = main(["experiment", "e3", "--profile", "tiny"])
        assert code == 0
        assert "episode return" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "e99"])


class TestCampaignCommand:
    def test_list_scenarios(self, capsys):
        code = main(["campaign", "--list-scenarios"])
        assert code == 0
        out = capsys.readouterr().out
        assert "heat-wave" in out and "mild-winter" in out

    def test_runs_named_scenarios_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        code = main(
            [
                "campaign",
                "--scenarios",
                "heat-wave,flat-tariff",
                "--controllers",
                "thermostat",
                "--seeds",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "heat-wave" in printed and "flat-tariff" in printed
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert rows[0]["n_seeds"] == 2

    def test_unknown_scenario_exits_with_message(self, capsys):
        code = main(["campaign", "--scenarios", "no-such-scenario"])
        assert code == 2
        assert "no-such-scenario" in capsys.readouterr().err

    def test_unknown_controller_exits_with_message(self, capsys):
        code = main(["campaign", "--controllers", "quantum"])
        assert code == 2
        assert "quantum" in capsys.readouterr().err

    def test_repeated_controller_exits_with_message(self, capsys):
        code = main(["campaign", "--controllers", "pid,pid"])
        assert code == 2
        assert "'pid' more than once" in capsys.readouterr().err

    def test_faults_axis_on_campaign(self, capsys):
        code = main(
            [
                "campaign",
                "--scenarios",
                "flat-tariff",
                "--controllers",
                "thermostat",
                "--faults",
                "none,degraded-capacity",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "degraded-capacity" in printed
        assert "fault" in printed.splitlines()[0]

    def test_unknown_fault_exits_with_message(self, capsys):
        code = main(["campaign", "--faults", "gremlins"])
        assert code == 2
        assert "gremlins" in capsys.readouterr().err


class TestRobustnessCommand:
    def test_list_faults(self, capsys):
        code = main(["robustness", "--list-faults"])
        assert code == 0
        out = capsys.readouterr().out
        assert "noisy-sensors" in out and "stuck-damper" in out
        assert "clean baseline" in out

    def test_runs_and_prints_degradation_table(self, tmp_path, capsys):
        out = tmp_path / "rob.json"
        code = main(
            [
                "robustness",
                "--scenarios",
                "flat-tariff",
                "--faults",
                "degraded-capacity",
                "--controllers",
                "thermostat",
                "--seeds",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "degradation" in printed
        assert "d_viol_degh" in printed
        payload = json.loads(out.read_text())
        # Clean baseline is always included next to the requested fault.
        assert {r["fault"] for r in payload["rows"]} == {
            "none",
            "degraded-capacity",
        }
        assert payload["summary"][0]["fault"] == "degraded-capacity"

    def test_store_resume_and_report_round_trip(self, tmp_path, capsys):
        run_dir = tmp_path / "rob_run"
        args = [
            "robustness",
            "--scenarios",
            "flat-tariff",
            "--faults",
            "degraded-capacity",
            "--seeds",
            "1",
            "--resume",
            str(run_dir),
        ]
        assert main(args) == 0
        capsys.readouterr()
        # Rerun: everything stored, still exits cleanly and reports reuse.
        assert main(args) == 0
        assert "resuming" in capsys.readouterr().out
        code = main(["report", str(run_dir)])
        assert code == 0
        text = capsys.readouterr().out
        assert "# Robustness report" in text
        assert "Degradation vs clean baseline" in text

    def test_unknown_fault_exits_with_message(self, capsys):
        code = main(["robustness", "--faults", "gremlins"])
        assert code == 2
        assert "gremlins" in capsys.readouterr().err

    def test_resuming_a_different_run_kind_exits_with_message(
        self, tmp_path, capsys
    ):
        run_dir = str(tmp_path / "run")
        assert main(
            ["campaign", "--scenarios", "flat-tariff", "--resume", run_dir]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "robustness",
                "--scenarios",
                "flat-tariff",
                "--faults",
                "degraded-capacity",
                "--resume",
                run_dir,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "campaign" in err and "robustness" in err

    def test_requires_a_non_clean_fault(self, capsys):
        code = main(["robustness", "--faults", "none"])
        assert code == 2
        assert "non-clean" in capsys.readouterr().err


class TestCampaignResumeAndReport:
    _ARGS = [
        "campaign",
        "--scenarios",
        "flat-tariff",
        "--controllers",
        "thermostat",
        "--seeds",
        "2",
    ]

    def test_resume_stores_cells_and_skips_on_rerun(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(self._ARGS + ["--resume", str(run_dir)]) == 0
        assert (run_dir / "manifest.json").exists()
        cells = list((run_dir / "cells").glob("*.json"))
        assert len(cells) == 1

        assert main(self._ARGS + ["--resume", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "resuming" in out and "1 of 1 cells stored" in out

    def test_report_renders_markdown_summary(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(self._ARGS + ["--resume", str(run_dir)])
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "# Campaign report" in out
        assert "flat-tariff" in out and "thermostat" in out
        assert "±" in out  # mean±std summary cells

    def test_report_out_writes_file(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(self._ARGS + ["--resume", str(run_dir)])
        report_path = tmp_path / "report.md"
        assert main(["report", str(run_dir), "--out", str(report_path)]) == 0
        assert "# Campaign report" in report_path.read_text()

    def test_report_on_non_run_directory_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "report:" in capsys.readouterr().err

    def test_manifest_records_programmatic_argv(self, tmp_path):
        import json as json_module

        run_dir = tmp_path / "run"
        main(self._ARGS + ["--resume", str(run_dir)])
        manifest = json_module.loads((run_dir / "manifest.json").read_text())
        # The in-process argv, not the host process's sys.argv.
        assert manifest["command"][:2] == ["repro-hvac", "campaign"]
        assert str(run_dir) in manifest["command"]

    def test_resume_rejects_changed_seeds(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(self._ARGS + ["--resume", str(run_dir)]) == 0
        capsys.readouterr()
        changed = self._ARGS[:-1] + ["5"]  # --seeds 5 instead of 2
        assert main(changed + ["--resume", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert "seeds" in err and "fresh run directory" in err


class TestServeCommand:
    def test_serves_baseline_and_prints_telemetry(self, capsys):
        code = main(
            ["serve", "--policy", "baseline:thermostat", "--fleet", "4",
             "--steps", "5", "--deterministic"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "latency" in out
        assert "baseline:thermostat" in out

    def test_serves_checkpoint_through_gateway(self, tmp_path, capsys):
        ckpt = tmp_path / "agent.json"
        main(["train", "--episodes", "2", "--out", str(ckpt)])
        capsys.readouterr()
        code = main(
            ["serve", "--checkpoint", str(ckpt), "--fleet", "4",
             "--steps", "5", "--deterministic"]
        )
        assert code == 0
        assert "dqn@1" in capsys.readouterr().out

    def test_serves_train_store_run_directory(self, tmp_path, capsys):
        run_dir = tmp_path / "trainrun"
        main(["train", "--episodes", "2", "--store", str(run_dir)])
        capsys.readouterr()
        code = main(
            ["serve", "--run", str(run_dir), "--fleet", "3",
             "--steps", "4", "--deterministic"]
        )
        assert code == 0
        assert "dqn@1" in capsys.readouterr().out

    def test_store_persists_serve_run_and_report_renders_it(self, tmp_path, capsys):
        store_dir = tmp_path / "serverun"
        code = main(
            ["serve", "--policy", "baseline:pid", "--fleet", "3",
             "--steps", "4", "--deterministic", "--store", str(store_dir)]
        )
        assert code == 0
        assert (store_dir / "artifacts" / "serve_stats.json").exists()
        capsys.readouterr()
        assert main(["report", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "# Serving report" in out
        assert "throughput" in out and "baseline:pid" in out

    def test_corrupt_checkpoint_rejected_with_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "dqn", "obs_')
        code = main(["serve", "--checkpoint", str(bad), "--fleet", "2", "--steps", "2"])
        assert code == 2
        assert "corrupt or truncated" in capsys.readouterr().err

    def test_rejects_both_checkpoint_and_run(self, tmp_path, capsys):
        code = main(
            ["serve", "--checkpoint", "a.json", "--run", "b", "--fleet", "2",
             "--steps", "2"]
        )
        assert code == 2
        assert "at most one" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, capsys):
        code = main(["serve", "--policy", "baseline:pid", "--scenario", "nope"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestLoadtestCommand:
    def test_compares_modes_and_writes_record(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        code = main(
            ["loadtest", "--fleet", "8", "--steps", "3", "--deterministic",
             "--baseline-share", "0.25", "--out", str(out)]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["benchmark"] == "serve_loadtest"
        assert record["batched"]["total_requests"] == 8 * 3
        assert record["per_request"]["total_requests"] == 8 * 3
        assert record["end_to_end_speedup"] > 0
        # A quarter of the fleet runs local thermostats.
        assert record["batched"]["requests_per_policy"]["baseline:thermostat"] == 6
        text = capsys.readouterr().out
        assert "micro-batched" in text and "per-request" in text

    def test_skip_per_request_runs_one_mode(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            ["loadtest", "--fleet", "4", "--steps", "2", "--deterministic",
             "--skip-per-request", "--out", str(out)]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert "per_request" not in record

    def test_bad_baseline_share_rejected(self, capsys):
        code = main(
            ["loadtest", "--fleet", "4", "--steps", "2", "--baseline-share", "1.5"]
        )
        assert code == 2
        assert "baseline-share" in capsys.readouterr().err

    def test_deterministic_loadtests_are_replayable(self, tmp_path):
        records = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(
                ["loadtest", "--fleet", "4", "--steps", "3", "--deterministic",
                 "--skip-per-request", "--out", str(out)]
            ) == 0
            records.append(json.loads(out.read_text()))
        a, b = records
        assert a["batched"]["requests_per_policy"] == b["batched"]["requests_per_policy"]
        assert a["batched"]["total_batches"] == b["batched"]["total_batches"]

    def test_warmup_ticks_excluded_from_measured_window(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(
            ["loadtest", "--fleet", "4", "--steps", "2", "--deterministic",
             "--warmup", "3", "--skip-per-request", "--out", str(out)]
        ) == 0
        record = json.loads(out.read_text())
        # Only the measured steps count; the record documents the window.
        assert record["batched"]["total_requests"] == 4 * 2
        assert record["measurement_window"] == "steady-state"
        assert record["warmup"] == 3

    @pytest.mark.parametrize(
        "flags, armed",
        [(["--max-inflight", "2"], True), (["--chaos", "none"], False)],
        ids=["max-inflight-arms", "clean-chaos-does-not"],
    )
    def test_chaos_block_written_exactly_when_ladder_armed(
        self, tmp_path, capsys, flags, armed
    ):
        out = tmp_path / "bench.json"
        assert main(
            ["loadtest", "--fleet", "4", "--steps", "2", "--deterministic",
             "--skip-per-request", "--out", str(out)] + flags
        ) == 0
        record = json.loads(out.read_text())
        assert ("chaos" in record) == armed
        if armed:
            assert record["chaos"]["expected_env_steps"] == 4 * 2
            assert record["chaos"]["max_inflight"] == 2


class TestWorkloadCommand:
    _REPLAY = [
        "workload", "replay",
        "--workloads", "steady-poisson",
        "--scenarios", "baseline-tou",
        "--controllers", "thermostat",
        "--fleet", "2",
        "--duration-s", "1800",
    ]

    def test_list_shows_registered_presets(self, capsys):
        assert main(["workload", "list"]) == 0
        out = capsys.readouterr().out
        assert "steady-poisson" in out and "dr-event-spike" in out

    def test_describe_dumps_spec_with_expected_load(self, capsys):
        assert main(["workload", "describe", "bursty-onoff"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "bursty"
        assert payload["expected_events_per_client_day"] > 0

    def test_describe_without_name_fails(self, capsys):
        assert main(["workload", "describe"]) == 2
        assert "requires a preset NAME" in capsys.readouterr().err

    def test_generate_writes_deterministic_trace_file(self, tmp_path, capsys):
        from repro.workloads import WorkloadTrace

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(
                ["workload", "generate", "--workloads", "steady-poisson",
                 "--fleet", "3", "--seed", "9", "--out", str(path)]
            ) == 0
        a, b = (WorkloadTrace.load(p) for p in paths)
        assert a.sha256 == b.sha256
        assert "sha256=" in capsys.readouterr().out

    def test_generate_out_requires_single_workload(self, capsys):
        assert main(
            ["workload", "generate", "--out", "x.json"]
        ) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_replay_prints_fingerprint_table(self, capsys):
        assert main(self._REPLAY) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out and "steady-poisson" in out

    @pytest.mark.parametrize(
        "flags", [["--chaos", "failing-plus-stalls"], ["--chaos-seed", "3"]],
        ids=["chaos", "chaos-seed"],
    )
    def test_replay_grid_refuses_chaos(self, capsys, flags):
        # A suite grid has no chaos axis; only --from-trace replays take it.
        assert main(self._REPLAY + flags) == 2
        assert (
            "workload: --chaos/--chaos-seed apply only to replay --from-trace"
            in capsys.readouterr().err
        )

    def test_replay_from_trace_is_reproducible(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        main(["workload", "generate", "--workloads", "steady-poisson",
              "--fleet", "2", "--duration-s", "1800", "--out", str(trace_path)])
        summaries = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(
                ["workload", "replay", "--from-trace", str(trace_path),
                 "--out", str(out)]
            ) == 0
            summaries.append(json.loads(out.read_text()))
        a, b = summaries
        assert a["fingerprint"] == b["fingerprint"]
        assert a["replay"] == b["replay"]
        assert "fingerprint:" in capsys.readouterr().out

    def test_resume_reuses_cells_and_reproduces_fingerprints(
        self, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        assert main(self._REPLAY + ["--resume", str(run_dir)]) == 0
        first = capsys.readouterr().out
        assert (run_dir / "manifest.json").exists()

        assert main(self._REPLAY + ["--resume", str(run_dir)]) == 0
        second = capsys.readouterr().out
        assert "resuming" in second and "1 of 1 cells stored" in second

        def fingerprints(text):
            return [
                line.split()[-1]
                for line in text.splitlines()
                if "baseline-tou" in line
            ]

        assert fingerprints(first) == fingerprints(second)

    def test_resume_rejects_changed_fleet(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(self._REPLAY + ["--resume", str(run_dir)]) == 0
        capsys.readouterr()
        changed = [a if a != "2" else "4" for a in self._REPLAY]
        assert main(changed + ["--resume", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert "fleet" in err and "fresh run directory" in err

    def test_report_renders_workload_suite_markdown(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(self._REPLAY + ["--resume", str(run_dir)])
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "# Workload-suite report" in out
        assert "## Recorded traces" in out and "## Replay cells" in out
        assert "steady-poisson" in out


class TestTrainStore:
    def test_store_checkpoint_enables_resume(self, tmp_path, capsys):
        run_dir = tmp_path / "trainrun"
        assert main(["train", "--episodes", "2", "--store", str(run_dir)]) == 0
        assert (run_dir / "checkpoints" / "trainer.json").exists()
        assert (run_dir / "artifacts" / "training_log.json").exists()

        assert main(["train", "--episodes", "3", "--store", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "resuming" in out and "at episode 2" in out
        assert "trained 3 episodes" in out

    def test_evaluate_accepts_trainer_checkpoint(self, tmp_path, capsys):
        run_dir = tmp_path / "trainrun"
        main(["train", "--episodes", "2", "--store", str(run_dir)])
        capsys.readouterr()
        ckpt = run_dir / "checkpoints" / "trainer.json"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--days", "1"]) == 0
        assert "drl_dqn" in capsys.readouterr().out

    def test_evaluate_rejects_unrecognized_checkpoint(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"not": "a checkpoint"}')
        assert main(["evaluate", "--checkpoint", str(bogus), "--days", "1"]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_resume_rejects_changed_seed(self, tmp_path, capsys):
        run_dir = tmp_path / "trainrun"
        main(["train", "--episodes", "2", "--store", str(run_dir)])
        capsys.readouterr()
        code = main(
            ["train", "--episodes", "3", "--seed", "9", "--store", str(run_dir)]
        )
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_killed_run_keeps_a_periodic_checkpoint(self, tmp_path, monkeypatch):
        import json as json_module

        from repro.core import Trainer

        run_dir = tmp_path / "trainrun"
        original = Trainer.run_episode
        calls = {"n": 0}

        def dying_run_episode(self, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:  # die inside episode 3
                raise KeyboardInterrupt
            return original(self, **kwargs)

        monkeypatch.setattr(Trainer, "run_episode", dying_run_episode)
        with pytest.raises(KeyboardInterrupt):
            main(
                ["train", "--episodes", "5", "--store", str(run_dir),
                 "--checkpoint-every", "1"]
            )
        state = json_module.loads(
            (run_dir / "checkpoints" / "trainer.json").read_text()
        )
        assert state["episodes_completed"] == 2  # work up to the kill survives

    def test_stale_manifest_config_rewritten_when_no_checkpoint(
        self, tmp_path, capsys
    ):
        from repro.store import ExperimentStore

        run_dir = tmp_path / "trainrun"
        # A run directory whose first attempt died before any checkpoint.
        ExperimentStore.create(
            run_dir, kind="train", config={"episodes": 9, "seed": 9}
        )
        assert main(
            ["train", "--episodes", "2", "--seed", "1", "--store", str(run_dir)]
        ) == 0
        manifest = ExperimentStore.open(run_dir).manifest
        assert manifest.config["seed"] == 1  # records the producing run

    def test_resume_pins_schedule_to_stored_run(self, tmp_path, capsys):
        import json as json_module

        run_dir = tmp_path / "trainrun"
        main(["train", "--episodes", "2", "--store", str(run_dir)])
        main(["train", "--episodes", "4", "--store", str(run_dir)])
        capsys.readouterr()
        state = json_module.loads(
            (run_dir / "checkpoints" / "trainer.json").read_text()
        )
        # 50 * the original --episodes, not the resumed --episodes.
        assert state["agent"]["epsilon_schedule"]["decay_steps"] == 100


class TestTelemetryFlags:
    def test_train_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "train.jsonl"
        metrics = tmp_path / "train_metrics.json"
        code = main(
            ["train", "--episodes", "2",
             "--trace", str(trace), "--metrics", str(metrics)]
        )
        assert code == 0
        capsys.readouterr()
        snap = json.loads(metrics.read_text())
        series = snap["metrics"]["train.episodes_total"]["series"]
        assert series[0]["value"] == 2.0
        assert snap["metrics"]["train.env_steps_total"]["series"][0]["value"] > 0
        names = [
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        ]
        assert "train.episode" in names and "train.run" in names

    def test_train_profile_phases_appear_in_trace(self, tmp_path, capsys):
        trace = tmp_path / "train.jsonl"
        code = main(
            ["train", "--episodes", "1", "--profile", "--trace", str(trace)]
        )
        assert code == 0
        assert "phase" in capsys.readouterr().out  # --profile table intact
        cats = {
            json.loads(line)["cat"]
            for line in trace.read_text().splitlines()
        }
        assert "phase" in cats  # env_step/learn spans under the episode

    def test_train_store_persists_metrics_artifact(self, tmp_path, capsys):
        run_dir = tmp_path / "trainrun"
        code = main(
            ["train", "--episodes", "2", "--store", str(run_dir),
             "--metrics", str(tmp_path / "m.json")]
        )
        assert code == 0
        capsys.readouterr()
        artifact = json.loads(
            (run_dir / "artifacts" / "metrics.json").read_text()
        )
        assert "train.episodes_total" in artifact["metrics"]

    def test_serve_folds_session_into_metrics(self, tmp_path, capsys):
        trace = tmp_path / "serve.jsonl"
        metrics = tmp_path / "serve_metrics.json"
        code = main(
            ["serve", "--policy", "baseline:thermostat", "--fleet", "4",
             "--steps", "5", "--deterministic",
             "--trace", str(trace), "--metrics", str(metrics)]
        )
        assert code == 0
        capsys.readouterr()
        snap = json.loads(metrics.read_text())["metrics"]
        latency = snap["serve.request_latency_seconds"]["series"][0]
        assert latency["count"] == 4 * 5
        flush_reasons = {
            s["labels"]["reason"] for s in snap["serve.flush_total"]["series"]
        }
        assert flush_reasons  # at least one flush path exercised
        assert snap["serve.ticks_total"]["series"][0]["value"] == 5.0
        names = [
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        ]
        assert "serve.session" in names

    def test_campaign_store_persists_metrics_artifact(self, tmp_path, capsys):
        run_dir = tmp_path / "camp"
        metrics = tmp_path / "camp_metrics.json"
        code = main(
            ["campaign", "--scenarios", "baseline-tou",
             "--controllers", "thermostat", "--seeds", "1",
             "--resume", str(run_dir), "--metrics", str(metrics)]
        )
        assert code == 0
        capsys.readouterr()
        snap = json.loads(metrics.read_text())["metrics"]
        cells = {
            s["labels"]["status"]: s["value"]
            for s in snap["campaign.cells_total"]["series"]
        }
        assert cells.get("completed") == 1.0
        assert snap["campaign.cell_seconds"]["series"][0]["count"] == 1
        artifact = json.loads(
            (run_dir / "artifacts" / "metrics.json").read_text()
        )
        assert "campaign.cells_total" in artifact["metrics"]

    def test_flags_restore_null_backend_after_run(self, tmp_path, capsys):
        from repro.obs import NULL_TELEMETRY, get_telemetry

        main(
            ["train", "--episodes", "1",
             "--metrics", str(tmp_path / "m.json")]
        )
        capsys.readouterr()
        assert get_telemetry() is NULL_TELEMETRY


class TestObsCommand:
    @pytest.fixture()
    def telemetry_files(self, tmp_path, capsys):
        trace = tmp_path / "serve.jsonl"
        metrics = tmp_path / "serve_metrics.json"
        main(
            ["serve", "--policy", "baseline:thermostat", "--fleet", "4",
             "--steps", "4", "--deterministic",
             "--trace", str(trace), "--metrics", str(metrics)]
        )
        capsys.readouterr()
        return trace, metrics

    def test_dump_json(self, telemetry_files, capsys):
        _, metrics = telemetry_files
        code = main(["obs", "dump", "--metrics", str(metrics)])
        assert code == 0
        snap = json.loads(capsys.readouterr().out)
        assert "serve.request_latency_seconds" in snap["metrics"]

    def test_dump_prometheus(self, telemetry_files, capsys):
        _, metrics = telemetry_files
        code = main(
            ["obs", "dump", "--metrics", str(metrics),
             "--format", "prometheus"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve_request_latency_seconds_bucket" in out
        assert 'le="+Inf"' in out

    def test_tail_prints_recent_spans(self, telemetry_files, capsys):
        trace, _ = telemetry_files
        code = main(["obs", "tail", "--trace", str(trace), "-n", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "serve.session" in out

    def test_export_trace_to_chrome(self, telemetry_files, tmp_path, capsys):
        trace, _ = telemetry_files
        out_path = tmp_path / "chrome.json"
        code = main(
            ["obs", "export", "--trace", str(trace), "--out", str(out_path)]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert all(e["ph"] == "X" for e in doc["traceEvents"])

    def test_export_metrics_to_prometheus(
        self, telemetry_files, tmp_path, capsys
    ):
        _, metrics = telemetry_files
        out_path = tmp_path / "prom.txt"
        code = main(
            ["obs", "export", "--metrics", str(metrics),
             "--out", str(out_path)]
        )
        assert code == 0
        capsys.readouterr()
        assert "serve_requests_total" in out_path.read_text()

    def test_check_validates_all_artifact_kinds(
        self, telemetry_files, tmp_path, capsys
    ):
        trace, metrics = telemetry_files
        chrome = tmp_path / "chrome.json"
        prom = tmp_path / "prom.txt"
        main(["obs", "export", "--trace", str(trace), "--out", str(chrome)])
        main(["obs", "export", "--metrics", str(metrics), "--out", str(prom)])
        capsys.readouterr()
        code = main(
            ["obs", "check", "--trace", str(trace),
             "--chrome-trace", str(chrome), "--prometheus", str(prom)]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_check_rejects_malformed_chrome_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"name": "x"}]}))
        code = main(["obs", "check", "--chrome-trace", str(bad)])
        assert code == 1
        assert capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code",
        [(["dump", "--metrics"], 2), (["check", "--chrome-trace"], 1)],
        ids=["dump", "check"],
    )
    def test_non_object_json_input_is_reported(self, tmp_path, capsys, argv, code):
        # A JSON document that is not an object is a bad input, not a crash.
        path = tmp_path / "list.json"
        path.write_text("[1]")
        assert main(["obs"] + argv + [str(path)]) == code
        assert str(path) in capsys.readouterr().err

    def test_export_requires_exactly_one_input(self, tmp_path, capsys):
        code = main(
            ["obs", "export", "--out", str(tmp_path / "o.json")]
        )
        assert code == 2
        assert capsys.readouterr().err

    def test_obs_inputs_do_not_open_a_telemetry_session(
        self, telemetry_files, capsys
    ):
        # `obs` takes --trace/--metrics as *inputs*; reading them must
        # not install a live telemetry backend.
        from repro.obs import NULL_TELEMETRY, get_telemetry

        trace, _ = telemetry_files
        main(["obs", "tail", "--trace", str(trace)])
        capsys.readouterr()
        assert get_telemetry() is NULL_TELEMETRY


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_epilogs_document_output_and_resume_flows(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        sub = parser._subparsers._group_actions[0].choices
        assert "--resume RUN_DIR" in sub["campaign"].format_help()
        assert "repro-hvac report" in sub["campaign"].format_help()
        assert "--out agent.json" in sub["train"].format_help()
        assert "checkpoint formats" in sub["evaluate"].format_help()
