"""Command-line interface.

Exposes the library's main workflows without writing Python:

* ``repro-hvac train``      — train a DQN and save its checkpoint; with
  ``--store RUN_DIR`` the full trainer state (agent, replay buffer, RNG
  streams, log) is persisted so an interrupted run resumes exactly.
* ``repro-hvac evaluate``   — evaluate a checkpoint (or a baseline) on
  held-out weather and print the comparison row.
* ``repro-hvac experiment`` — run one of the paper experiments E1–E11
  and print its rendered table/series.
* ``repro-hvac weather``    — generate a synthetic weather CSV.
* ``repro-hvac campaign``   — sweep registered scenarios × faults ×
  controllers × seeds through the vectorized fleet simulator and print
  the campaign table (``--list-scenarios`` shows the registry;
  ``--executor process`` fans the cells out over a process pool;
  ``--out`` writes JSON rows; ``--resume RUN_DIR`` makes the sweep
  durable and restartable).
* ``repro-hvac robustness`` — fault-injection campaign: every requested
  fault profile runs next to its clean baseline and the clean-vs-faulted
  comfort/energy degradation table is printed (``--list-faults`` shows
  the fault registry; ``--resume RUN_DIR`` persists and resumes).
* ``repro-hvac serve``      — serve a policy to a simulated building
  fleet through the micro-batching gateway and print the serving
  telemetry (latency quantiles, throughput, request mix).
* ``repro-hvac loadtest``   — fleet load harness: drive a large fleet
  through the gateway in micro-batched and per-request modes and report
  the throughput comparison (``--out`` writes the JSON record).
* ``repro-hvac workload``   — deterministic workload traces: list and
  describe the preset request patterns, generate seeded traces (stored
  with provenance), and replay them through the serving gateway over
  the scenario × fault × controller × workload grid with bit-
  reproducible replay fingerprints (``--resume`` persists cells).
* ``repro-hvac report``     — render a Markdown report (summary tables,
  provenance, timing) from a campaign, serve, or workload-suite run
  directory.
* ``repro-hvac obs``        — inspect telemetry produced by the
  ``--trace PATH`` / ``--metrics PATH`` flags (available on ``train``,
  ``serve``, ``loadtest``, ``campaign``, ``robustness``): dump a
  metrics snapshot, tail a trace, export Prometheus text or a Chrome
  trace, or validate exported files against the metric catalog.
  Monitoring lives here too: ``serve``/``loadtest``/``workload``/
  ``campaign``/``robustness`` accept ``--slo NAME`` and
  ``--sample-every SECONDS`` to sample windowed rates/quantiles
  in-session and exit non-zero on an SLO breach, and ``obs
  watch``/``obs slo``/``obs detect`` render, re-evaluate, and scan the
  resulting sample streams.

Usage::

    python -m repro.cli experiment e1
    python -m repro.cli train --episodes 150 --out agent.json
    python -m repro.cli evaluate --checkpoint agent.json
    python -m repro.cli weather --days 30 --out weather.csv
    python -m repro.cli campaign --scenarios heat-wave,mild-winter \
        --controllers thermostat,pid --seeds 3 --resume runs/sweep1
    python -m repro.cli robustness --scenarios baseline-tou \
        --faults noisy-sensors,stuck-damper --seeds 2 --resume runs/rob1
    python -m repro.cli serve --checkpoint agent.json --fleet 16 --steps 96
    python -m repro.cli loadtest --fleet 256 --steps 16 --out BENCH_serve.json
    python -m repro.cli report runs/sweep1
    python -m repro.cli serve --fleet 8 --steps 16 --trace serve.jsonl \
        --metrics serve_metrics.json
    python -m repro.cli obs export --trace serve.jsonl --out serve_chrome.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.baselines import PIDController, ThermostatController
from repro.building import single_zone_building
from repro.core import DQNAgent, DQNConfig, Trainer, TrainerConfig
from repro.env import HVACEnv, HVACEnvConfig
from repro.eval import ComparisonRow, ComparisonTable, evaluate_controller
from repro.eval import experiments as exp
from repro.weather import SyntheticWeatherConfig, generate_weather, weather_to_csv

_EXPERIMENTS = {
    "e1": exp.e1_single_zone_table,
    "e2": exp.e2_temperature_trace,
    "e3": exp.e3_convergence,
    "e4": exp.e4_multizone_table,
    "e5": exp.e5_tradeoff_sweep,
    "e6": exp.e6_forecast_horizon,
    "e7": exp.e7_action_scaling,
    "e8": exp.e8_dqn_ablation,
    "e9": exp.e9_pricing,
    "e10": exp.e10_extensions_and_mpc,
    "e11": exp.e11_heat_wave_robustness,
}

_PROFILES = {"tiny": exp.TINY, "fast": exp.FAST, "full": exp.FULL}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hvac",
        description="DRL building-HVAC control (DAC'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser(
        "train",
        help="train a single-zone DQN controller",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "By default nothing is written: pass --out agent.json for an\n"
            "inference checkpoint (load with `evaluate --checkpoint`), or\n"
            "--store RUN_DIR for a durable run directory holding the full\n"
            "trainer state (agent + replay buffer + RNG streams + log),\n"
            "checkpointed every --checkpoint-every episodes.  Rerunning\n"
            "with the same --store resumes the stored run from its last\n"
            "checkpoint; inspect artifacts with `repro-hvac report`\n"
            "(campaign runs) or plain cat."
        ),
    )
    train.add_argument("--episodes", type=int, default=120)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--comfort-weight", type=float, default=4.0)
    train.add_argument("--out", type=str, default=None, help="checkpoint JSON path")
    train.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="RUN_DIR",
        help=(
            "durable run directory: saves the full trainer checkpoint and "
            "training log; reruns resume from it"
        ),
    )
    train.add_argument(
        "--checkpoint-every",
        type=int,
        default=25,
        metavar="N",
        help=(
            "with --store, persist the trainer checkpoint every N episodes "
            "(a killed run loses at most N episodes of work)"
        ),
    )
    train.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print a per-phase wall-clock breakdown of the training loop "
            "(env step / action select / replay ingest / learn) after "
            "training finishes"
        ),
    )

    evaluate = sub.add_parser(
        "evaluate",
        help="evaluate a controller",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Prints the comparison row to stdout (no files are written).\n"
            "--checkpoint accepts both checkpoint formats `train` emits:\n"
            "the full agent state dict (train --out) and the legacy\n"
            "weights-only payload from earlier releases."
        ),
    )
    evaluate.add_argument("--checkpoint", type=str, default=None)
    evaluate.add_argument(
        "--baseline",
        choices=["thermostat", "pid"],
        default=None,
        help="evaluate a named baseline instead of a checkpoint",
    )
    evaluate.add_argument("--days", type=int, default=7)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--comfort-weight", type=float, default=4.0)

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("id", choices=sorted(_EXPERIMENTS))
    experiment.add_argument(
        "--profile", choices=sorted(_PROFILES), default="fast"
    )

    weather = sub.add_parser("weather", help="generate a synthetic weather CSV")
    weather.add_argument("--days", type=float, default=30.0)
    weather.add_argument("--start-day", type=int, default=200)
    weather.add_argument("--seed", type=int, default=0)
    weather.add_argument("--out", type=str, required=True)

    campaign = sub.add_parser(
        "campaign",
        help="run a scenario x controller x seed campaign",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "By default results are only printed; --out campaign.json\n"
            "writes the rows as JSON.  With --resume RUN_DIR every cell is\n"
            "persisted to the run directory as it completes (created on\n"
            "first use), and rerunning executes only the cells that are\n"
            "not stored yet — a killed sweep restarts where it died.\n"
            "Render the stored results with `repro-hvac report RUN_DIR`."
        ),
    )
    campaign.add_argument(
        "--scenarios",
        type=str,
        default="all",
        help="comma-separated registered scenario names, or 'all'",
    )
    campaign.add_argument(
        "--controllers",
        type=str,
        default="thermostat",
        help="comma-separated controllers (thermostat, pid, random)",
    )
    campaign.add_argument(
        "--seeds", type=int, default=1, help="number of seeds (0..N-1) per cell"
    )
    campaign.add_argument("--episodes", type=int, default=1)
    campaign.add_argument(
        "--faults",
        type=str,
        default="none",
        help=(
            "comma-separated fault profiles to add as a grid axis "
            "(default: none; see `robustness --list-faults`)"
        ),
    )
    campaign.add_argument("--executor", choices=["serial", "process"], default="serial")
    campaign.add_argument("--workers", type=int, default=None)
    campaign.add_argument("--out", type=str, default=None, help="JSON output path")
    campaign.add_argument(
        "--resume",
        type=str,
        default=None,
        metavar="RUN_DIR",
        help=(
            "durable run directory (created if missing); completed cells "
            "are stored there and skipped on rerun"
        ),
    )
    campaign.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list registered scenarios and exit",
    )

    robustness = sub.add_parser(
        "robustness",
        help="run a fault-injection robustness campaign",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Sweeps scenario x fault x controller x seed through the\n"
            "vectorized fleet simulator.  The clean baseline (fault\n"
            "'none') is always included, so every faulted cell is\n"
            "reported next to its clean twin plus a degradation table\n"
            "(cost/energy/comfort deltas).  With --resume RUN_DIR every\n"
            "cell persists as it completes and a killed sweep restarts\n"
            "where it died; render the stored run with `repro-hvac\n"
            "report RUN_DIR` (Markdown, including the degradation\n"
            "table).  --out writes rows + degradation summary as JSON."
        ),
    )
    robustness.add_argument(
        "--scenarios",
        type=str,
        default="baseline-tou",
        help="comma-separated registered scenario names, or 'all'",
    )
    robustness.add_argument(
        "--faults",
        type=str,
        default="all",
        help="comma-separated fault profile names, or 'all' (default)",
    )
    robustness.add_argument(
        "--controllers",
        type=str,
        default="thermostat",
        help="comma-separated controllers (thermostat, pid, random)",
    )
    robustness.add_argument(
        "--seeds", type=int, default=1, help="number of seeds (0..N-1) per cell"
    )
    robustness.add_argument("--episodes", type=int, default=1)
    robustness.add_argument(
        "--executor", choices=["serial", "process"], default="serial"
    )
    robustness.add_argument("--workers", type=int, default=None)
    robustness.add_argument(
        "--out", type=str, default=None, help="JSON output path"
    )
    robustness.add_argument(
        "--resume",
        type=str,
        default=None,
        metavar="RUN_DIR",
        help=(
            "durable run directory (created if missing); completed cells "
            "are stored there and skipped on rerun"
        ),
    )
    robustness.add_argument(
        "--list-faults",
        action="store_true",
        help="list registered fault profiles and exit",
    )

    serve = sub.add_parser(
        "serve",
        help="serve a policy to a simulated fleet through the gateway",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Builds a fleet of --fleet buildings from --scenario, routes\n"
            "every client to one policy (--checkpoint FILE, --run RUN_DIR\n"
            "holding a train --store checkpoint, or --policy\n"
            "baseline:<name>), and serves --steps control ticks through\n"
            "the micro-batching gateway.  Prints the serving telemetry\n"
            "(p50/p95/p99 latency, throughput, request mix); --store\n"
            "RUN_DIR persists it as a `serve` run directory readable by\n"
            "`repro-hvac report`."
        ),
    )
    _add_serving_args(serve)
    serve.add_argument(
        "--list-chaos",
        action="store_true",
        help="list registered serve-side chaos profiles and exit",
    )
    serve.add_argument(
        "--policy",
        type=str,
        default=None,
        metavar="SPEC",
        help=(
            "serve a baseline instead of a checkpoint: baseline:thermostat, "
            "baseline:pid, or baseline:random"
        ),
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="drive a large fleet through the serving gateway",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "The fleet load harness: serves --steps ticks to a --fleet\n"
            "sized fleet twice — micro-batched, then per-request\n"
            "(max batch 1, the one-request-one-forward execution model) —\n"
            "and reports both telemetry blocks plus the end-to-end\n"
            "speedup.  --baseline-share routes a fraction of clients to a\n"
            "per-building baseline controller so the load is\n"
            "heterogeneous like a real fleet.  Without --checkpoint/--run\n"
            "a randomly initialized DQN of the scenario's dimensions\n"
            "serves (inference cost is architecture-, not\n"
            "training-dependent).  --deterministic makes the session\n"
            "replayable: timing never influences batch composition, and\n"
            "served actions are bit-identical to scalar select_action.\n"
            "--out writes the JSON record (BENCH_serve.json in CI)."
        ),
    )
    _add_serving_args(loadtest)
    loadtest.add_argument(
        "--baseline-share",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="fraction of clients routed to baseline:thermostat (default 0)",
    )
    loadtest.add_argument(
        "--skip-per-request",
        action="store_true",
        help="measure only the micro-batched mode (skip the comparison run)",
    )
    loadtest.add_argument(
        "--out", type=str, default=None, help="write the JSON record here"
    )

    workload = sub.add_parser(
        "workload",
        help="generate and replay deterministic workload traces",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Actions:\n"
            "  list      registered workload presets\n"
            "  describe  one preset's full spec and expected event count\n"
            "  generate  deterministic trace(s) from --workloads for a\n"
            "            --fleet sized fleet and --seed; --out FILE writes\n"
            "            a standalone trace JSON (single workload),\n"
            "            --store RUN_DIR records traces as run artifacts\n"
            "  replay    replay traces through the serving gateway over\n"
            "            the scenario x fault x controller x workload\n"
            "            grid; every cell gets a deterministic replay\n"
            "            fingerprint.  --resume RUN_DIR persists cells\n"
            "            and recorded traces (resumable, bit-identical\n"
            "            fingerprints); --from-trace FILE replays one\n"
            "            recorded trace file instead of a grid.\n"
            "\n"
            "Replay is always micro-batched deterministic serving, so the\n"
            "same trace yields the same actions, flush sequence, and\n"
            "summary fingerprint on every invocation; render stored runs\n"
            "with `repro-hvac report RUN_DIR`."
        ),
    )
    workload.add_argument(
        "action", choices=["list", "describe", "generate", "replay"],
        help="what to do (see below)",
    )
    workload.add_argument(
        "name", nargs="?", default=None,
        help="workload preset name (describe)",
    )
    workload.add_argument(
        "--workloads",
        type=str,
        default="all",
        help="comma-separated workload presets, or 'all' (default)",
    )
    workload.add_argument(
        "--scenarios",
        type=str,
        default="baseline-tou",
        help="replay: comma-separated registered scenario names, or 'all'",
    )
    workload.add_argument(
        "--controllers",
        type=str,
        default="thermostat",
        help="replay: comma-separated controllers (thermostat, pid, random, dqn)",
    )
    workload.add_argument(
        "--faults",
        type=str,
        default="none",
        help="replay: comma-separated fault profiles (default: none)",
    )
    workload.add_argument(
        "--fleet", type=int, default=8,
        help="fleet size = trace client count (default 8)",
    )
    workload.add_argument(
        "--seed", type=int, default=0,
        help="trace generation and fleet build seed (default 0)",
    )
    workload.add_argument(
        "--duration-s", type=float, default=None, metavar="SECONDS",
        help="override every workload's trace horizon (e.g. short CI runs)",
    )
    workload.add_argument(
        "--max-batch", type=int, default=64,
        help="micro-batcher flush size during replay (default 64)",
    )
    workload.add_argument(
        "--from-trace", type=str, default=None, metavar="FILE",
        help="replay: a standalone trace JSON written by `workload generate --out`",
    )
    workload.add_argument(
        "--chaos", type=str, default="none", metavar="PROFILE",
        help=(
            "replay --from-trace: inject a serve-side chaos profile; the "
            "replay runs through the resilience ladder and stays "
            "bit-reproducible (default: none)"
        ),
    )
    workload.add_argument(
        "--chaos-seed", type=int, default=None, metavar="SEED",
        help="replay --from-trace: chaos stream seed (default: --seed)",
    )
    workload.add_argument(
        "--out", type=str, default=None, metavar="FILE",
        help="generate: write the trace JSON; replay: write the summary JSON",
    )
    workload.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="RUN_DIR",
        help="generate: record traces into a workload-suite run directory",
    )
    workload.add_argument(
        "--resume",
        type=str,
        default=None,
        metavar="RUN_DIR",
        help=(
            "replay: durable run directory (created if missing); completed "
            "cells and recorded traces are reused on rerun"
        ),
    )

    report = sub.add_parser(
        "report",
        help="render a Markdown report from a run directory",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Reads a run directory produced by `repro-hvac campaign\n"
            "--resume RUN_DIR`, `repro-hvac robustness --resume RUN_DIR`,\n"
            "or `repro-hvac serve/loadtest --store RUN_DIR` and prints a\n"
            "Markdown report: provenance (git SHA, command, config) plus,\n"
            "for campaigns, one summary row per (scenario[, fault],\n"
            "controller) with mean±std cost and comfort violations and\n"
            "per-cell timing; for robustness runs, additionally the\n"
            "clean-vs-faulted degradation table; for serving sessions,\n"
            "throughput, latency quantiles, and the request mix.\n"
            "--out FILE writes the report to a file instead of stdout."
        ),
    )
    report.add_argument("run_dir", type=str, help="campaign or serve run directory")
    report.add_argument(
        "--out", type=str, default=None, help="write the report to this file"
    )

    obs = sub.add_parser(
        "obs",
        help="inspect telemetry traces and metrics snapshots",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Actions:\n"
            "  dump    print a --metrics snapshot (--format json|prometheus)\n"
            "  tail    print the last -n span events of a --trace JSONL\n"
            "  export  convert telemetry to --out: a --trace JSONL to a\n"
            "          Chrome trace-event file (load in chrome://tracing or\n"
            "          Perfetto), or a --metrics snapshot to Prometheus\n"
            "          text exposition\n"
            "  check   validate exported files: --chrome-trace parses and\n"
            "          has well-formed events, --prometheus exposition\n"
            "          lines match the metric catalog, --trace events\n"
            "          carry the span schema, --samples streams carry the\n"
            "          sample schema, --verdict files the SLO verdict\n"
            "          schema\n"
            "  watch   terminal dashboard over a --samples stream (latest\n"
            "          windowed rates/quantiles per series plus\n"
            "          sparklines); --follow tails a live stream\n"
            "  slo     evaluate a --samples stream against an SLO preset\n"
            "          offline (exit 1 on breach); --list shows presets\n"
            "  detect  scan a --samples series for anomalies (robust\n"
            "          z-score spikes), or diff two replay summaries\n"
            "          (--replay vs --reference) for action-distribution\n"
            "          drift\n"
            "\n"
            "Produce inputs with the --trace PATH / --metrics PATH flags\n"
            "of train, serve, loadtest, campaign, and robustness, and the\n"
            "--slo/--sample-every monitoring flags of the serving-path\n"
            "commands."
        ),
    )
    obs.add_argument(
        "action",
        choices=["dump", "tail", "export", "check", "watch", "slo", "detect"],
        help="what to do (see below)",
    )
    obs.add_argument(
        "--metrics", type=str, default=None, metavar="FILE",
        help="metrics snapshot JSON (from --metrics PATH)",
    )
    obs.add_argument(
        "--trace", type=str, default=None, metavar="FILE",
        help="span-event JSONL (from --trace PATH)",
    )
    obs.add_argument(
        "--out", type=str, default=None, metavar="FILE",
        help="output path for export",
    )
    obs.add_argument(
        "--format", type=str, default=None,
        choices=["json", "prometheus", "chrome"],
        help="dump/export format (defaults: dump=json, export by input: "
             "trace=chrome, metrics=prometheus)",
    )
    obs.add_argument(
        "-n", "--last", type=int, default=20, metavar="N",
        help="tail: how many most-recent events to print (default 20)",
    )
    obs.add_argument(
        "--chrome-trace", type=str, default=None, metavar="FILE",
        help="check: Chrome trace-event JSON to validate",
    )
    obs.add_argument(
        "--prometheus", type=str, default=None, metavar="FILE",
        help="check: Prometheus text exposition to validate",
    )
    obs.add_argument(
        "--samples", type=str, default=None, metavar="FILE",
        help="sample-stream JSONL (from --sample-every / --slo runs)",
    )
    obs.add_argument(
        "--verdict", type=str, default=None, metavar="FILE",
        help="check: SLO verdict JSON to validate",
    )
    obs.add_argument(
        "--slo", type=str, default="default", metavar="NAME",
        help="slo: the preset to evaluate (default: default)",
    )
    obs.add_argument(
        "--list", action="store_true",
        help="slo: list registered SLO presets and exit",
    )
    obs.add_argument(
        "--series", type=str, default=None, metavar="KEY",
        help="detect: sampled series to scan (default: "
             "serve.request_latency_seconds); watch: comma-separated "
             "series filter (default: all)",
    )
    obs.add_argument(
        "--field", type=str, default="p99", metavar="NAME",
        help="detect: which windowed field to scan (default: p99)",
    )
    obs.add_argument(
        "--threshold", type=float, default=6.0,
        help="detect: robust z-score flag threshold (default 6.0)",
    )
    obs.add_argument(
        "--replay", type=str, default=None, metavar="FILE",
        help="detect: candidate replay summary JSON (from workload "
             "replay --out)",
    )
    obs.add_argument(
        "--reference", type=str, default=None, metavar="FILE",
        help="detect: reference replay summary JSON to diff against",
    )
    obs.add_argument(
        "--tv-threshold", type=float, default=0.05,
        help="detect: action-distribution total-variation drift "
             "threshold (default 0.05)",
    )
    obs.add_argument(
        "--fail-on-detect", action="store_true",
        help="detect: exit 1 when anomalies or drift are found",
    )
    obs.add_argument(
        "--follow", action="store_true",
        help="watch: keep tailing the stream (Ctrl-C to stop)",
    )
    obs.add_argument(
        "--interval", type=float, default=2.0,
        help="watch --follow: refresh period in seconds (default 2)",
    )
    obs.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="watch --follow: stop after N refreshes (default: unbounded)",
    )

    for instrumented in (train, serve, loadtest, campaign, robustness, workload):
        _add_telemetry_args(instrumented)
    for monitored in (serve, loadtest, campaign, robustness, workload):
        _add_monitor_args(monitored)
    return parser


#: Subcommands carrying the --trace/--metrics telemetry flags.
_TELEMETRY_COMMANDS = (
    "train", "serve", "loadtest", "campaign", "robustness", "workload"
)

#: Subcommands carrying the --slo/--sample-every monitoring flags.
_MONITOR_COMMANDS = ("serve", "loadtest", "campaign", "robustness", "workload")


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """The ``--trace``/``--metrics`` flags shared by instrumented commands."""
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "enable telemetry and stream span events to PATH as JSONL "
            "(inspect with `repro-hvac obs tail/export`)"
        ),
    )
    parser.add_argument(
        "--metrics",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "enable telemetry and write the final metrics snapshot to "
            "PATH as JSON (inspect with `repro-hvac obs dump/export`)"
        ),
    )


def _add_monitor_args(parser: argparse.ArgumentParser) -> None:
    """The ``--slo``/``--sample-every`` monitoring flags.

    Either flag enables telemetry (no ``--trace``/``--metrics`` needed)
    and runs an in-session :class:`~repro.obs.timeseries.SnapshotSampler`
    over the live registry; ``--slo`` additionally evaluates the sampled
    series against a preset at session end and makes the command exit 1
    on breach.
    """
    parser.add_argument(
        "--slo",
        type=str,
        default=None,
        metavar="NAME",
        help=(
            "evaluate the session against this SLO preset and exit "
            "non-zero on breach (see `repro-hvac obs slo --list`)"
        ),
    )
    parser.add_argument(
        "--sample-every",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "capture a windowed telemetry sample every SECONDS "
            "(default 1.0 when --slo is given)"
        ),
    )
    parser.add_argument(
        "--samples",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "sample-stream JSONL path (default: <command>_samples.jsonl; "
            "inspect with `repro-hvac obs watch/slo/detect`)"
        ),
    )
    parser.add_argument(
        "--slo-out",
        type=str,
        default=None,
        metavar="PATH",
        help="SLO verdict JSON path (default: <command>_slo.json)",
    )


def _add_serving_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the ``serve`` and ``loadtest`` subcommands."""
    parser.add_argument(
        "--scenario",
        type=str,
        default="baseline-tou",
        help="registered scenario the fleet is built from",
    )
    parser.add_argument(
        "--fleet", type=int, default=16, help="number of building clients"
    )
    parser.add_argument(
        "--steps", type=int, default=96, help="control ticks to serve"
    )
    parser.add_argument(
        "--checkpoint", type=str, default=None, help="policy checkpoint JSON"
    )
    parser.add_argument(
        "--run",
        type=str,
        default=None,
        metavar="RUN_DIR",
        help="load the policy from a train --store run directory",
    )
    parser.add_argument(
        "--checkpoint-name",
        type=str,
        default="trainer",
        metavar="NAME",
        help="checkpoint name inside --run (default: trainer)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="micro-batcher flush size (requests per forward pass)",
    )
    parser.add_argument(
        "--max-delay-ms",
        type=float,
        default=5.0,
        help="oldest-request deadline before a partial batch flushes",
    )
    parser.add_argument(
        "--deterministic",
        action="store_true",
        help=(
            "replayable serving: ignore wall-clock deadlines so batch "
            "composition (and every served action) is a pure function of "
            "the request sequence"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="fleet build seed base")
    parser.add_argument(
        "--warmup",
        type=int,
        default=0,
        metavar="TICKS",
        help=(
            "serve this many unmeasured ticks before the throughput/latency "
            "window opens (fleet reset is always excluded from the window)"
        ),
    )
    parser.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="RUN_DIR",
        help="persist the serving telemetry as a run directory",
    )
    # Resilience / chaos knobs (any of them arms the resilience ladder).
    parser.add_argument(
        "--chaos",
        type=str,
        default=None,
        metavar="PROFILE",
        help=(
            "inject a registered serve-side chaos profile "
            "(`serve --list-chaos` shows the catalog); implies the "
            "resilience ladder so every tick still yields an action"
        ),
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="chaos RNG stream seed (default: --seed)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "per-request deadline budget enforced at the flush; late "
            "requests resolve as timeouts and walk the fallback chain"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "max attempts per route (first try included; default 3 once "
            "the resilience ladder is armed)"
        ),
    )
    parser.add_argument(
        "--fallback",
        type=str,
        default=None,
        metavar="CHAIN",
        help=(
            "comma-separated degraded-mode route chain tried when the "
            "primary fails, e.g. dqn@1,baseline:thermostat"
        ),
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help=(
            "admission bound: shed requests once this many are pending "
            "(explicit rejection instead of unbounded queueing)"
        ),
    )


def _resilience_from_args(args: argparse.Namespace):
    """(ResilienceConfig | None, ChaosProfile | None, chaos seed) from flags.

    The chaos *profile* (not a bound injector) is returned so each
    gateway a command builds gets a freshly seeded injector — loadtest
    runs two sessions and both must see the identical failure schedule.
    """
    from repro.serve import ResilienceConfig, RetryPolicy
    from repro.serve.chaos import get_chaos_profile

    chaos_profile = None
    chaos_seed = args.chaos_seed if args.chaos_seed is not None else args.seed
    if getattr(args, "chaos", None):
        profile = get_chaos_profile(args.chaos)
        if not profile.is_clean:
            chaos_profile = profile
    armed = chaos_profile is not None or any(
        getattr(args, flag, None) is not None
        for flag in ("deadline_ms", "retries", "fallback", "max_inflight")
    )
    if not armed:
        return None, None, chaos_seed
    retry = (
        RetryPolicy()
        if args.retries is None
        else RetryPolicy(max_attempts=args.retries)
    )
    resilience = ResilienceConfig(
        deadline_s=args.deadline_ms / 1e3 if args.deadline_ms is not None else None,
        retry=retry,
        fallbacks=tuple(f for f in (args.fallback or "").split(",") if f),
        max_inflight=args.max_inflight,
        seed=args.seed,
    )
    return resilience, chaos_profile, chaos_seed


def _make_envs(seed: int, comfort_weight: float, eval_days: int):
    train_weather = generate_weather(
        SyntheticWeatherConfig(), start_day_of_year=200, n_days=30, rng=seed + 1
    )
    eval_weather = generate_weather(
        SyntheticWeatherConfig(),
        start_day_of_year=213,
        n_days=eval_days + 1,
        rng=seed + 2,
    )
    train_env = HVACEnv(
        single_zone_building(),
        train_weather,
        config=HVACEnvConfig(
            episode_days=1.0, randomize_start_day=True, comfort_weight=comfort_weight
        ),
        rng=seed,
    )
    eval_env = HVACEnv(
        single_zone_building(),
        eval_weather,
        config=HVACEnvConfig(
            episode_days=float(eval_days),
            initial_temp_noise_c=0.0,
            comfort_weight=comfort_weight,
        ),
        rng=seed + 3,
    )
    return train_env, eval_env


def _cmd_train(args: argparse.Namespace) -> int:
    store = None
    resuming = False
    config = {
        "episodes": args.episodes,
        "seed": args.seed,
        "comfort_weight": args.comfort_weight,
    }
    if args.store:
        from repro.store import ExperimentStore

        store = ExperimentStore.open_or_create(
            args.store, kind="train", config=config, command=args.argv
        )
        if store.has_checkpoint("trainer"):
            resuming = True
            stored = store.manifest.config
            # The env (weather traces, reward weights) must be rebuilt
            # identically or the restored RNG/episode state is garbage.
            for key, value in (
                ("seed", args.seed),
                ("comfort_weight", args.comfort_weight),
            ):
                if key in stored and stored[key] != value:
                    print(
                        f"train: --store {args.store} was created with "
                        f"{key}={stored[key]}, but this run requests "
                        f"{key}={value}; use a fresh run directory",
                        file=sys.stderr,
                    )
                    return 2
        elif store.manifest.config != config:
            # A reused directory whose first attempt died before saving a
            # checkpoint: record *this* invocation so future resumes
            # validate against the run that actually produced artifacts.
            store.update_config(config)
    train_env, eval_env = _make_envs(args.seed, args.comfort_weight, eval_days=7)
    agent = DQNAgent(
        train_env.obs_dim,
        train_env.action_space,
        config=DQNConfig(epsilon_decay_steps=50 * args.episodes, learn_start=200),
        rng=args.seed,
    )
    profiler = None
    if args.profile:
        from repro.utils.profiling import PhaseTimer

        profiler = PhaseTimer()
    trainer = Trainer(
        train_env,
        agent,
        config=TrainerConfig(n_episodes=args.episodes),
        profiler=profiler,
    )
    if resuming:
        # load_state_dict restores the stored run's exploration schedule
        # and counters, overriding the config built above — resuming
        # continues that run rather than starting a different one.
        trainer.load_state_dict(store.load_checkpoint("trainer"))
        print(
            f"resuming from {args.store} at episode "
            f"{trainer.episodes_completed} (hyperparameters pinned to the "
            f"stored run)"
        )
    if store is None:
        log = trainer.train()
    else:
        # Checkpoint between chunks so a killed run loses at most
        # --checkpoint-every episodes of work.
        chunk = max(int(args.checkpoint_every), 1)
        while trainer.episodes_completed < args.episodes:
            trainer.train(until=trainer.episodes_completed + chunk)
            store.save_checkpoint("trainer", trainer.state_dict())
        log = trainer.logger
    returns = log.series("episode_return")
    print(
        f"trained {trainer.episodes_completed} episodes; "
        f"final return {returns[-1]:.2f}"
    )
    if profiler is not None:
        print("\ntraining-loop phase breakdown:")
        print(profiler.render())
        print()
    metrics = evaluate_controller(eval_env, agent)
    print(
        f"eval: cost=${metrics.cost_usd:.2f} "
        f"violations={metrics.violation_deg_hours:.2f} deg-h "
        f"rate={metrics.violation_rate:.3f}"
    )
    if store is not None:
        store.put_artifact("training_log", log.state_dict())
        from repro.obs import get_telemetry

        tel = get_telemetry()
        if tel.enabled:
            store.put_artifact("metrics", tel.registry.snapshot())
        print(f"trainer checkpoint stored in {args.store}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(agent.state_dict(include_buffer=False), fh)
        print(f"checkpoint written to {args.out}")
    return 0


def _load_agent(path: str):
    # One loader for every checkpoint format the library has ever
    # emitted: full agent state dicts, trainer checkpoints with the agent
    # nested inside, and the legacy weights-only payload.  The serving
    # registry owns it so the CLI and the serving tier cannot drift.
    from repro.serve import load_checkpoint_file

    return load_checkpoint_file(path)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if (args.checkpoint is None) == (args.baseline is None):
        print("evaluate: pass exactly one of --checkpoint or --baseline",
              file=sys.stderr)
        return 2
    _, eval_env = _make_envs(args.seed, args.comfort_weight, eval_days=args.days)
    if args.checkpoint:
        name = "drl_dqn"
        try:
            controller = _load_agent(args.checkpoint)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"evaluate: cannot load {args.checkpoint}: {exc}", file=sys.stderr)
            return 2
    elif args.baseline == "thermostat":
        name = "thermostat"
        controller = ThermostatController(eval_env)
    else:
        name = "pid"
        controller = PIDController(eval_env)
    table = ComparisonTable()
    table.add(ComparisonRow.from_metrics(name, evaluate_controller(eval_env, controller)))
    print(table.render())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    profile = _PROFILES[args.profile]
    result = _EXPERIMENTS[args.id](profile)
    print(result.render())
    return 0


def _cmd_weather(args: argparse.Namespace) -> int:
    series = generate_weather(
        SyntheticWeatherConfig(),
        start_day_of_year=args.start_day,
        n_days=args.days,
        rng=args.seed,
    )
    weather_to_csv(series, args.out)
    stats = series.stats()
    print(
        f"wrote {stats['n_samples']} samples to {args.out} "
        f"(mean {stats['temp_mean_c']:.1f} C, peak GHI {stats['ghi_peak_w_m2']:.0f} W/m2)"
    )
    return 0


def _axis_flag(value: str, every=None) -> Tuple[str, ...]:
    """A comma-separated grid-axis flag; ``all`` expands to ``every()``."""
    if value == "all" and every is not None:
        return tuple(every())
    return tuple(v for v in value.split(",") if v)


def _open_grid_store(args: argparse.Namespace, spec, jobs, *, kind: str):
    """Open/create the ``--resume`` run directory of a grid sweep.

    Cells are keyed by their axes (scenario, controller, fault,
    workload), so a stored cell is only a valid answer when the spec's
    ``RESUME_PINNED`` parameters (seeds, episodes, fleet, ...) match the
    stored run: widening an axis is the intended resume path, changing
    the per-cell workload is not.  Raises ``ValueError``/``OSError``.
    """
    from repro.sim.grid import cell_identity
    from repro.store import ExperimentStore

    current_config = spec.as_config()
    store = ExperimentStore.open_or_create(
        args.resume, kind=kind, config=current_config, command=args.argv
    )
    stored_config = store.manifest.config
    for key in spec.RESUME_PINNED:
        if key in stored_config and stored_config[key] != current_config[key]:
            raise ValueError(
                f"--resume {args.resume} was created with "
                f"{key}={stored_config[key]}, but this run requests "
                f"{key}={current_config[key]}; use a fresh run directory"
            )
    planned = {cell_identity(job) for job in jobs}
    reused = len(store.completed() & planned)
    if reused:
        print(f"resuming {args.resume}: {reused} of {len(planned)} cells stored")
    return store


def _run_campaign_flags(args: argparse.Namespace, label: str, faults):
    """Run the campaign a ``campaign``/``robustness`` invocation
    describes and print its table.

    Returns ``(result, store, monitor, slo_spec)``, or exit code 2 with
    ``label: message`` on stderr when a flag is bad (before any cell
    runs).
    """
    from repro.sim import CampaignSpec, expand_campaign, list_scenarios, run_campaign

    store = None
    try:
        spec = CampaignSpec(
            scenarios=_axis_flag(args.scenarios, list_scenarios),
            controllers=_axis_flag(args.controllers),
            seeds=tuple(range(args.seeds)),
            n_episodes=args.episodes,
            faults=faults,
        )
        if args.resume:
            store = _open_grid_store(args, spec, expand_campaign(spec), kind=label)
        monitor, slo_spec = _open_monitor(args, label)
    except (KeyError, ValueError, OSError) as exc:
        print(f"{label}: {_error_message(exc)}", file=sys.stderr)
        return 2
    result = run_campaign(
        spec, executor=args.executor, max_workers=args.workers, store=store
    )
    print(result.render())
    return result, store, monitor, slo_spec


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.sim import get_scenario, list_scenarios

    if args.list_scenarios:
        for name in list_scenarios():
            print(f"{name:20s} {get_scenario(name).description}")
        return 0
    ran = _run_campaign_flags(args, "campaign", _axis_flag(args.faults))
    if isinstance(ran, int):
        return ran
    result, store, monitor, slo_spec = ran
    if store is not None:
        print(f"campaign artifacts stored in {args.resume}")
    if args.out:
        result.save(args.out)
        print(f"campaign rows written to {args.out}")
    return _finish_monitor(args, "campaign", monitor, slo_spec)


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.sim import (
        get_fault_profile,
        list_fault_profiles,
        render_robustness_table,
        summarize_robustness,
    )

    if args.list_faults:
        for name in list_fault_profiles():
            print(f"{name:20s} {get_fault_profile(name).description}")
        return 0
    faults = _axis_flag(args.faults, list_fault_profiles)
    faults = tuple(f for f in faults if f != "none")
    if not faults:
        print("robustness: need at least one non-clean fault profile",
              file=sys.stderr)
        return 2
    # The clean baseline always runs: degradation is measured, not assumed.
    ran = _run_campaign_flags(args, "robustness", ("none",) + faults)
    if isinstance(ran, int):
        return ran
    result, store, monitor, slo_spec = ran
    summary = summarize_robustness(result.rows)
    print("\nclean-vs-faulted degradation (faulted minus clean):")
    print(render_robustness_table(summary))
    summary_dicts = [row.as_dict() for row in summary]
    if store is not None:
        store.put_artifact("robustness_summary", summary_dicts)
        print(
            f"\nrobustness artifacts stored in {args.resume} "
            f"(render with `repro-hvac report {args.resume}`)"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"rows": [r.as_dict() for r in result.rows],
                       "summary": summary_dicts}, fh, indent=2)
            fh.write("\n")
        print(f"robustness rows written to {args.out}")
    return _finish_monitor(args, "robustness", monitor, slo_spec)


def _serving_session(args: argparse.Namespace, *, policy_spec: Optional[str] = None):
    """Build (fleet, registry, routes, config) shared by serve/loadtest.

    Returns ``(make_gateway, policy_label)`` where ``make_gateway(cfg)``
    constructs a fresh fleet + gateway — loadtest needs two identical
    sessions, and env RNGs advance as episodes run, so each measured mode
    must get its own byte-identical world.
    """
    from repro.serve import (
        FleetGateway,
        MicroBatcherConfig,
        default_registry,
        load_checkpoint_file,
    )
    from repro.sim import VectorHVACEnv, build_fleet, get_scenario

    scenario = get_scenario(args.scenario)
    if args.fleet < 1:
        raise ValueError(f"--fleet must be >= 1, got {args.fleet}")
    seeds = range(args.seed, args.seed + args.fleet)

    policy = None
    if args.checkpoint and args.run:
        raise ValueError("pass at most one of --checkpoint and --run")
    if policy_spec is not None and (args.checkpoint or args.run):
        raise ValueError(
            "pass either --policy or a checkpoint source "
            "(--checkpoint/--run), not both"
        )
    if args.checkpoint:
        policy = load_checkpoint_file(args.checkpoint)
        label = "checkpoint"
    elif args.run:
        from repro.store import ExperimentStore

        store = ExperimentStore.open(args.run)
        registry_probe = default_registry()
        policy = registry_probe.load_from_store(
            store, checkpoint=args.checkpoint_name
        ).policy
        label = args.checkpoint_name
    elif policy_spec is not None:
        label = policy_spec
    else:
        # Load harness default: a randomly initialized DQN of the
        # scenario's dimensions — inference cost does not depend on how
        # trained the weights are.
        probe_env = scenario.build(args.seed)
        policy = DQNAgent(probe_env.obs_dim, probe_env.action_space, rng=args.seed)
        label = "dqn"

    if policy is not None:
        probe_env = scenario.build(args.seed)
        if getattr(policy, "obs_dim", probe_env.obs_dim) != probe_env.obs_dim:
            raise ValueError(
                f"policy expects obs_dim={policy.obs_dim} but scenario "
                f"{scenario.name!r} produces obs_dim={probe_env.obs_dim}; "
                "serve it on the scenario it was trained for"
            )

    resilience, chaos_profile, chaos_seed = _resilience_from_args(args)

    def make_gateway(
        config: MicroBatcherConfig,
        routes: Optional[List[str]] = None,
        *,
        fold_telemetry: bool = False,
    ) -> FleetGateway:
        registry = default_registry()
        # With telemetry enabled, a single serving session can fold its
        # ServeStats series into the process-wide registry so --metrics
        # captures them.  Loadtest runs two sessions back to back and
        # keeps per-session private registries instead (shared series
        # would double-count).
        stats = None
        if fold_telemetry:
            from repro.obs import get_telemetry
            from repro.serve import ServeStats

            tel = get_telemetry()
            if tel.enabled:
                stats = ServeStats(registry=tel.registry)
        if policy is not None:
            default_route = registry.publish("dqn", policy, source=label).name
        else:
            default_route = policy_spec
            if not registry.is_baseline_spec(default_route):
                raise ValueError(
                    f"--policy {default_route!r} is not a baseline:<name> spec; "
                    "pass --checkpoint/--run for learned policies"
                )
            registry.baseline_factory(default_route)  # validate the name now
        vec_env = VectorHVACEnv(
            build_fleet(scenario, seeds=seeds), autoreset=True
        )
        # Each gateway binds a fresh injector so two sessions of the
        # same command (loadtest's batched + per-request twins) see the
        # identical seeded failure schedule.
        chaos = (
            chaos_profile.build(chaos_seed)
            if chaos_profile is not None
            else None
        )
        return FleetGateway(
            vec_env,
            registry,
            routes if routes is not None else default_route,
            config=config,
            stats=stats,
            resilience=resilience,
            chaos=chaos,
        )

    return make_gateway, label


def _monitor_requested(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "slo", None) or getattr(args, "sample_every", None)
    )


def _open_monitor(args: argparse.Namespace, label: str):
    """Start in-session monitoring; returns ``(sampler, slo_spec)``.

    Validates the ``--slo`` preset name *before* the session runs (a
    typo should fail in seconds, not after the sweep), opens the sample
    stream, and attaches the sampler to the live telemetry backend so
    instrumented loops pulse it.  Returns ``(None, None)`` when no
    monitoring flag was passed.
    """
    if not _monitor_requested(args):
        return None, None
    from repro.obs import SnapshotSampler, get_telemetry
    from repro.obs.slo import get_slo

    spec = get_slo(args.slo) if args.slo else None
    tel = get_telemetry()
    interval = args.sample_every if args.sample_every else 1.0
    samples_path = args.samples or f"{label}_samples.jsonl"
    sampler = SnapshotSampler(
        tel.registry,
        interval_s=interval,
        path=samples_path,
        meta={"command": label, "slo": args.slo},
    )
    tel.attach_sampler(sampler)
    return sampler, spec


def _seal_monitor(sampler) -> None:
    """Detach the sampler and take the closing window, exactly once.

    The closing window is skipped when it is an idle stub (see
    :meth:`~repro.obs.SnapshotSampler.seal`).  Idempotent: a command can
    seal early — ``loadtest`` does, right
    after its micro-batched phase, so the per-request comparison twin
    (whose traffic deliberately stays in a private registry) never
    contributes a zero-throughput window to the verdict — and the
    shared :func:`_finish_monitor` epilogue becomes a no-op seal.
    """
    from repro.obs import get_telemetry

    tel = get_telemetry()
    if tel.sampler is sampler:
        tel.attach_sampler(None)
        sampler.seal()
        sampler.close()


def _finish_monitor(args: argparse.Namespace, label: str, sampler, spec) -> int:
    """Close out monitoring: final sample, verdict artifact, exit code."""
    if sampler is None:
        return 0
    _seal_monitor(sampler)
    print(
        f"{len(sampler.samples)} telemetry sample(s) written to {sampler.path}"
    )
    if spec is None:
        return 0
    from repro.obs.slo import evaluate_slo

    report = evaluate_slo(
        spec, list(sampler.samples), source=str(sampler.path)
    )
    verdict_path = args.slo_out or f"{label}_slo.json"
    report.write(verdict_path)
    print(report.render())
    print(f"SLO verdict written to {verdict_path}")
    if not report.ok:
        print(f"{label}: SLO {spec.name!r} breached", file=sys.stderr)
        return 1
    return 0


def _error_message(exc: BaseException) -> str:
    """Human-readable text for a caught serving-setup exception.

    ``OSError.args[0]`` is the bare errno (``str(exc)`` carries the
    path); ``KeyError.args[0]`` is the clean message (``str(exc)`` adds
    quoting).
    """
    if isinstance(exc, OSError):
        return str(exc)
    return str(exc.args[0]) if exc.args else str(exc)


def _batcher_config(args: argparse.Namespace, *, max_batch: Optional[int] = None):
    from repro.serve import MicroBatcherConfig

    return MicroBatcherConfig(
        max_batch_size=max_batch if max_batch is not None else args.max_batch,
        max_delay_s=args.max_delay_ms / 1e3,
        deterministic=args.deterministic,
    )


def _store_serve_stats(args: argparse.Namespace, payload: dict) -> None:
    """Persist serving telemetry as a ``serve`` run directory."""
    from repro.store import ExperimentStore

    store = ExperimentStore.open_or_create(
        args.store,
        kind="serve",
        config={
            "scenario": args.scenario,
            "fleet": args.fleet,
            "steps": args.steps,
            "max_batch": args.max_batch,
            "max_delay_ms": args.max_delay_ms,
            "deterministic": bool(args.deterministic),
        },
        command=args.argv,
    )
    store.put_artifact("serve_stats", payload)
    print(f"serving telemetry stored in {args.store}")


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.list_chaos:
        from repro.serve.chaos import get_chaos_profile, list_chaos_profiles

        for name in list_chaos_profiles():
            profile = get_chaos_profile(name)
            print(f"{name:20s} {profile.description}")
            for line in profile.describe_models():
                print(f"{'':20s}  - {line}")
        return 0
    try:
        monitor, slo_spec = _open_monitor(args, "serve")
        make_gateway, label = _serving_session(args, policy_spec=args.policy)
        gateway = make_gateway(_batcher_config(args), fold_telemetry=True)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"serve: {_error_message(exc)}", file=sys.stderr)
        return 2
    print(
        f"serving {label} to {args.fleet} x {args.scenario} for "
        f"{args.steps} ticks (max batch {args.max_batch})"
    )
    stats = gateway.run(args.steps, warmup=args.warmup)
    print(stats.render())
    if args.store:
        _store_serve_stats(args, stats.as_dict())
    return _finish_monitor(args, "serve", monitor, slo_spec)


def _cmd_loadtest(args: argparse.Namespace) -> int:
    try:
        monitor, slo_spec = _open_monitor(args, "loadtest")
        make_gateway, label = _serving_session(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"loadtest: {_error_message(exc)}", file=sys.stderr)
        return 2
    if not 0.0 <= args.baseline_share <= 1.0:
        print(
            f"loadtest: --baseline-share must be in [0, 1], got "
            f"{args.baseline_share}",
            file=sys.stderr,
        )
        return 2

    # The tail of the fleet runs per-building thermostats, the rest the
    # learned policy — a heterogeneous load like a real deployment's.
    n_local = int(round(args.baseline_share * args.fleet))
    routes = None
    if n_local:
        routes = ["dqn"] * (args.fleet - n_local) + [
            "baseline:thermostat"
        ] * n_local

    gateways = {}

    def run_mode(max_batch: int, *, fold: bool = False):
        # The micro-batched (real) mode folds its ServeStats into the
        # process registry when telemetry is live, so --metrics /
        # --sample-every / --slo see its latency and throughput series;
        # the per-request comparison run keeps a private registry
        # (shared series would double-count).
        gateway = make_gateway(
            _batcher_config(args, max_batch=max_batch), routes,
            fold_telemetry=fold,
        )
        gateways[max_batch] = gateway
        return gateway.run(args.steps, warmup=args.warmup)

    print(
        f"loadtest: {args.fleet} x {args.scenario}, {args.steps} ticks, "
        f"policy={label}, baseline share {args.baseline_share:.0%}"
    )
    batched = run_mode(args.max_batch, fold=True)
    if monitor is not None:
        # The monitored window covers the batched (product) phase only;
        # the per-request twin below serves into a private registry.
        _seal_monitor(monitor)
    print("\n== micro-batched ==")
    print(batched.render())
    record = {
        "benchmark": "serve_loadtest",
        "scenario": args.scenario,
        "fleet": args.fleet,
        "steps": args.steps,
        "policy": label,
        "baseline_share": args.baseline_share,
        "deterministic": bool(args.deterministic),
        "max_batch": args.max_batch,
        # Fleet build/reset (and --warmup ticks) run before the window
        # opens; records written by earlier releases measured them too.
        "measurement_window": "steady-state",
        "warmup": args.warmup,
        "batched": batched.as_dict(),
    }
    if args.chaos or args.fallback or args.deadline_ms is not None:
        gw = gateways[args.max_batch]
        record["chaos"] = {
            "profile": args.chaos or "none",
            "chaos_seed": (
                args.chaos_seed if args.chaos_seed is not None else args.seed
            ),
            "fallback": args.fallback,
            "deadline_ms": args.deadline_ms,
            "max_inflight": args.max_inflight,
            "rollbacks": list(gw.rollbacks),
            "rejected_swaps": gw.rejected_swaps,
            # One answered fleet action per client per measured tick: the
            # zero-unanswered-ticks invariant CI asserts on.
            "expected_env_steps": args.fleet * args.steps,
        }
    if not args.skip_per_request:
        per_request = run_mode(1)
        print("\n== per-request (one-request-one-forward) ==")
        print(per_request.render())
        record["per_request"] = per_request.as_dict()
        speedup = batched.throughput_rps / max(per_request.throughput_rps, 1e-12)
        record["end_to_end_speedup"] = speedup
        print(f"\nend-to-end speedup (incl. simulation): {speedup:.1f}x")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"loadtest record written to {args.out}")
    if args.store:
        _store_serve_stats(args, record["batched"])
    return _finish_monitor(args, "loadtest", monitor, slo_spec)


def _workload_suite_spec(args: argparse.Namespace):
    """Build the SuiteSpec a ``workload replay`` invocation describes."""
    from repro.sim import list_scenarios
    from repro.workloads import SuiteSpec, list_workloads

    return SuiteSpec(
        scenarios=_axis_flag(args.scenarios, list_scenarios),
        workloads=_axis_flag(args.workloads, list_workloads),
        controllers=_axis_flag(args.controllers),
        faults=_axis_flag(args.faults),
        fleet=args.fleet,
        seed=args.seed,
        max_batch=args.max_batch,
        duration_s=args.duration_s,
    )


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.workloads import (
        WorkloadTrace,
        expand_suite,
        generate_trace,
        get_workload,
        list_workloads,
        record_trace,
        run_suite,
        run_suite_job,
    )

    try:
        if args.action == "list":
            for name in list_workloads():
                spec = get_workload(name)
                print(f"{name:18s} [{spec.kind:8s}] {spec.description}")
            return 0

        if args.action == "describe":
            if not args.name:
                raise ValueError("workload describe requires a preset NAME")
            spec = get_workload(args.name)
            config = spec.as_config()
            config["expected_events_per_client_day"] = spec.expected_events(
                1
            ) * 86_400.0 / spec.duration_s
            print(json.dumps(config, indent=2, sort_keys=True))
            return 0

        if args.action == "generate":
            names = list(_axis_flag(args.workloads, list_workloads))
            if args.out and len(names) != 1:
                raise ValueError(
                    "--out writes a single trace file; pass exactly one "
                    "--workloads preset with it"
                )
            store = None
            if args.store:
                from repro.store import ExperimentStore

                store = ExperimentStore.open_or_create(
                    args.store,
                    kind="workload-suite",
                    config={
                        "workloads": names,
                        "fleet": args.fleet,
                        "seed": args.seed,
                        "duration_s": args.duration_s,
                    },
                    command=args.argv,
                )
            for name in names:
                trace = generate_trace(
                    name,
                    n_clients=args.fleet,
                    seed=args.seed,
                    duration_s=args.duration_s,
                )
                print(
                    f"{name:18s} events={trace.n_events:6d} "
                    f"requests={trace.n_requests:6d} "
                    f"ticks={trace.n_ticks:4d} sha256={trace.sha256[:16]}"
                )
                if args.out:
                    trace.save(args.out)
                    print(f"trace written to {args.out}")
                if store is not None:
                    record_trace(store, trace)
            if store is not None:
                print(f"trace artifacts recorded in {args.store}")
            return 0

        # replay
        monitor, slo_spec = _open_monitor(args, "workload")
        if args.from_trace:
            from repro.sim import get_scenario
            from repro.workloads import SuiteJob

            trace = WorkloadTrace.load(args.from_trace)
            scenario = get_scenario(args.scenarios.split(",")[0])
            controller = args.controllers.split(",")[0]
            fault = args.faults.split(",")[0]
            job = SuiteJob(
                scenario=scenario,
                controller=controller,
                fault=fault,
                workload=trace.spec,
                fleet=trace.n_clients,
                seed=args.seed,
                max_batch=args.max_batch,
                chaos=args.chaos,
                chaos_seed=args.chaos_seed,
            )
            row = run_suite_job(job, trace)
            chaos_note = f" / chaos={args.chaos}" if args.chaos != "none" else ""
            print(
                f"replayed {trace.workload} ({trace.n_requests} requests "
                f"over {trace.n_ticks} ticks) against {scenario.name} / "
                f"{controller} / {fault}{chaos_note}"
            )
            print(f"fingerprint: {row.fingerprint}")
            timing = row.timing
            lat = timing.get("latency_ms", {})
            print(
                f"throughput: {timing.get('throughput_rps', 0.0):,.0f} req/s  "
                f"p50={lat.get('p50', 0.0):.3f} ms  "
                f"p99={lat.get('p99', 0.0):.3f} ms"
            )
            if args.out:
                with open(args.out, "w") as fh:
                    json.dump(row.as_dict(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(f"replay summary written to {args.out}")
            return _finish_monitor(args, "workload", monitor, slo_spec)

        spec = _workload_suite_spec(args)
        store = None
        if args.resume:
            store = _open_grid_store(
                args, spec, expand_suite(spec), kind="workload-suite"
            )
        result = run_suite(spec, store=store)
        print(result.render())
        if store is not None:
            print(
                f"workload-suite artifacts stored in {args.resume} "
                f"(render with `repro-hvac report {args.resume}`)"
            )
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(
                    [r.as_dict() for r in result.rows], fh, indent=2,
                    sort_keys=True,
                )
                fh.write("\n")
            print(f"suite rows written to {args.out}")
        return _finish_monitor(args, "workload", monitor, slo_spec)
    except BrokenPipeError:
        # Reader closed early (e.g. ``workload list | head``).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"workload: {_error_message(exc)}", file=sys.stderr)
        return 2


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.store import (
        ExperimentStore,
        render_campaign_report,
        render_robustness_report,
        render_serve_report,
        render_workload_report,
    )

    try:
        store = ExperimentStore.open(args.run_dir)
        if store.manifest.kind == "serve":
            text = render_serve_report(store)
        elif store.manifest.kind == "robustness":
            text = render_robustness_report(store)
        elif store.manifest.kind == "workload-suite":
            text = render_workload_report(store)
        else:
            text = render_campaign_report(store)
    except (FileNotFoundError, ValueError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import load_jsonl_events, snapshot_to_prometheus, write_chrome_trace

    def load_snapshot(path: str) -> dict:
        with open(path) as fh:
            snapshot = json.load(fh)
        if not isinstance(snapshot.get("metrics"), dict):
            raise ValueError(f"{path} is not a metrics snapshot (no 'metrics' key)")
        return snapshot

    try:
        if args.action == "dump":
            if not args.metrics:
                raise ValueError("obs dump requires --metrics FILE")
            snapshot = load_snapshot(args.metrics)
            if args.format == "prometheus":
                print(snapshot_to_prometheus(snapshot), end="")
            else:
                print(json.dumps(snapshot, indent=2, sort_keys=True))
        elif args.action == "tail":
            if not args.trace:
                raise ValueError("obs tail requires --trace FILE")
            events = load_jsonl_events(args.trace)
            for e in events[-max(int(args.last), 0):]:
                attrs = ""
                if e.get("attrs"):
                    attrs = "  " + " ".join(
                        f"{k}={v}" for k, v in sorted(e["attrs"].items())
                    )
                print(
                    f"[{e['ts']:>12.6f}s +{e['dur'] * 1e3:>10.3f}ms] "
                    f"{e.get('cat', 'span')}:{e['name']}"
                    f" id={e['id']}"
                    + (f" parent={e['parent']}" if e.get("parent") else "")
                    + attrs
                )
            print(f"{len(events)} event(s) in {args.trace}")
        elif args.action == "export":
            if not args.out:
                raise ValueError("obs export requires --out FILE")
            if bool(args.trace) == bool(args.metrics):
                raise ValueError(
                    "obs export takes exactly one input: --trace or --metrics"
                )
            if args.trace:
                if args.format not in (None, "chrome"):
                    raise ValueError("a --trace input exports to --format chrome")
                write_chrome_trace(load_jsonl_events(args.trace), args.out)
                print(f"chrome trace written to {args.out}")
            else:
                snapshot = load_snapshot(args.metrics)
                if args.format in (None, "prometheus"):
                    from repro.obs import write_prometheus

                    write_prometheus(snapshot, args.out)
                    print(f"prometheus exposition written to {args.out}")
                else:
                    raise ValueError(
                        "a --metrics input exports to --format prometheus"
                    )
        elif args.action == "watch":
            return _obs_watch(args)
        elif args.action == "slo":
            return _obs_slo(args)
        elif args.action == "detect":
            return _obs_detect(args)
        else:  # check
            problems = _obs_check(args)
            for problem in problems:
                print(problem, file=sys.stderr)
            if problems:
                print(f"obs check: {len(problems)} problem(s)", file=sys.stderr)
                return 1
            print("obs check: OK")
    except BrokenPipeError:
        # Reader closed early (e.g. ``obs dump | head``); redirect stdout
        # to devnull so the interpreter's exit-time flush stays quiet.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"obs: {_error_message(exc)}", file=sys.stderr)
        return 2
    return 0


#: Unicode ramp for the `obs watch` sparklines.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _sparkline(values: List[float], width: int = 32) -> str:
    """A fixed-alphabet sparkline of the trailing ``width`` values."""
    tail = values[-width:]
    if not tail:
        return ""
    lo, hi = min(tail), max(tail)
    if hi <= lo:
        return _SPARK_BLOCKS[0] * len(tail)
    span = hi - lo
    top = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[int(round((v - lo) / span * top))] for v in tail
    )


def _render_watch(records: List[dict], series_filter: Optional[str]) -> str:
    """One dashboard frame over a loaded sample stream."""
    from repro.obs import sample_records

    samples = sample_records(records)
    if not samples:
        return "no samples yet"
    latest = samples[-1]
    lines = [
        f"sample #{latest['seq']}  t={latest['t']:.2f}s  "
        f"window={latest['window_s']:.2f}s  ({len(samples)} in stream)"
    ]
    keys = sorted(latest.get("series", {}))
    if series_filter:
        wanted = [k for k in series_filter.split(",") if k]
        keys = [
            k for k in keys
            if any(k == w or k.startswith(w + "{") for w in wanted)
        ]
    for key in keys:
        entry = latest["series"][key]
        if "p99" in entry:  # histogram window
            trail = [
                s["series"][key]["p99"]
                for s in samples if key in s.get("series", {})
            ]
            if "_seconds" in key:
                quantiles = (
                    f"p50={entry['p50'] * 1e3:>8.3f}ms "
                    f"p95={entry['p95'] * 1e3:>8.3f}ms "
                    f"p99={entry['p99'] * 1e3:>8.3f}ms"
                )
            else:
                quantiles = (
                    f"p50={entry['p50']:>8.1f} "
                    f"p95={entry['p95']:>8.1f} "
                    f"p99={entry['p99']:>8.1f}"
                )
            detail = f"rate={entry['rate']:>10.1f}/s {quantiles}"
        elif "rate" in entry:  # counter window
            trail = [
                s["series"][key]["rate"]
                for s in samples if key in s.get("series", {})
            ]
            detail = f"rate={entry['rate']:>10.1f}/s total={entry['value']:g}"
        else:  # gauge
            trail = [
                s["series"][key]["value"]
                for s in samples if key in s.get("series", {})
            ]
            detail = f"value={entry['value']:g}"
        lines.append(f"  {key:<44} {detail}  {_sparkline(trail)}")
    return "\n".join(lines)


def _obs_watch(args: argparse.Namespace) -> int:
    """Terminal dashboard over a sample stream; optionally tails it."""
    from repro.obs import load_samples

    if not args.samples:
        raise ValueError("obs watch requires --samples FILE")
    refreshes = 0
    try:
        while True:
            text = _render_watch(load_samples(args.samples), args.series)
            if args.follow:
                # ANSI clear + home keeps the frame in place like `top`.
                print("\x1b[2J\x1b[H" + text, flush=True)
            else:
                print(text)
                return 0
            refreshes += 1
            if args.iterations is not None and refreshes >= args.iterations:
                return 0
            import time as _time

            _time.sleep(max(args.interval, 0.0))
    except KeyboardInterrupt:
        return 0


def _obs_slo(args: argparse.Namespace) -> int:
    """Evaluate a sample stream against an SLO preset, offline."""
    from repro.obs import load_samples, sample_records
    from repro.obs.slo import evaluate_slo, get_slo, list_slos

    if args.list:
        for name in list_slos():
            print(f"{name:16s} {get_slo(name).description}")
        return 0
    if not args.samples:
        raise ValueError("obs slo requires --samples FILE")
    spec = get_slo(args.slo)
    samples = sample_records(load_samples(args.samples))
    report = evaluate_slo(spec, samples, source=args.samples)
    print(report.render())
    if args.out:
        report.write(args.out)
        print(f"SLO verdict written to {args.out}")
    if not report.ok:
        print(f"obs slo: SLO {spec.name!r} breached", file=sys.stderr)
        return 1
    return 0


def _obs_detect(args: argparse.Namespace) -> int:
    """Anomaly scan over a sampled series, or replay drift comparison."""
    if args.replay or args.reference:
        if not (args.replay and args.reference):
            raise ValueError(
                "obs detect drift mode needs both --replay and --reference"
            )
        from repro.obs import compare_replays

        with open(args.reference) as fh:
            reference = json.load(fh)
        with open(args.replay) as fh:
            candidate = json.load(fh)
        report = compare_replays(
            reference, candidate, tv_threshold=args.tv_threshold
        )
        payload = report.as_dict()
        print(
            f"fingerprint match: {payload['fingerprint_match']}  "
            f"trace match: {payload['trace_match']}  "
            f"max action TV: {payload['max_tv']:.4f} "
            f"(threshold {args.tv_threshold:g})"
        )
        for dim, tv in payload["per_dim_tv"].items():
            print(f"  {dim:<8} tv={tv:.4f}")
        found = report.drift
        verdict = "DRIFT DETECTED" if found else "zero drift"
        print(f"obs detect: {verdict}")
    else:
        if not args.samples:
            raise ValueError(
                "obs detect requires --samples FILE (anomaly scan) or "
                "--replay/--reference (drift comparison)"
            )
        from repro.obs import detect_anomalies, load_samples, sample_records, series_values

        series = args.series or "serve.request_latency_seconds"
        samples = sample_records(load_samples(args.samples))
        points = series_values(samples, series, args.field)
        report = detect_anomalies(
            points, series=series, field_name=args.field,
            threshold=args.threshold,
        )
        payload = report.as_dict()
        for a in report.anomalies:
            print(
                f"  anomaly at sample {a.index} (t={a.t:.2f}s): "
                f"{series}.{args.field}={a.value:g} "
                f"z={a.zscore:+.1f} baseline={a.baseline:g}"
            )
        found = bool(report.anomalies)
        print(
            f"obs detect: {len(report.anomalies)} anomalie(s) in "
            f"{len(points)} point(s) of {series}.{args.field}"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"detect report written to {args.out}")
    if found and args.fail_on_detect:
        return 1
    return 0


def _obs_check(args: argparse.Namespace) -> List[str]:
    """Validate exported telemetry files; returns problem messages."""
    from repro.obs import CATALOG, load_jsonl_events, prometheus_name

    problems: List[str] = []
    checked = False
    if args.chrome_trace:
        checked = True
        try:
            with open(args.chrome_trace) as fh:
                doc = json.load(fh)
            events = doc.get("traceEvents")
            if not isinstance(events, list):
                problems.append(f"{args.chrome_trace}: no traceEvents array")
            else:
                for i, e in enumerate(events):
                    missing = [k for k in ("name", "ph", "ts", "dur") if k not in e]
                    if missing:
                        problems.append(
                            f"{args.chrome_trace}: event {i} missing {missing}"
                        )
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{args.chrome_trace}: {exc}")
    if args.trace:
        checked = True
        try:
            for i, e in enumerate(load_jsonl_events(args.trace)):
                missing = [
                    k for k in ("name", "id", "ts", "dur") if k not in e
                ]
                if missing:
                    problems.append(f"{args.trace}: event {i} missing {missing}")
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{args.trace}: {exc}")
    if args.prometheus:
        checked = True
        known = set()
        for name, spec in CATALOG.items():
            prom = prometheus_name(name)
            if spec.type == "histogram":
                known.update({f"{prom}_bucket", f"{prom}_sum", f"{prom}_count"})
            else:
                known.add(prom)
        try:
            with open(args.prometheus) as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    sample = line.split("{", 1)[0].split(" ", 1)[0]
                    if sample not in known:
                        problems.append(
                            f"{args.prometheus}:{lineno}: sample {sample!r} "
                            "is not in the metric catalog"
                        )
        except OSError as exc:
            problems.append(f"{args.prometheus}: {exc}")
    if args.samples:
        checked = True
        from repro.obs.timeseries import check_samples, load_samples

        try:
            for problem in check_samples(load_samples(args.samples)):
                problems.append(f"{args.samples}: {problem}")
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{args.samples}: {exc}")
    if args.verdict:
        checked = True
        from repro.obs.slo import check_verdict

        try:
            with open(args.verdict) as fh:
                verdict = json.load(fh)
            for problem in check_verdict(verdict):
                problems.append(f"{args.verdict}: {problem}")
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{args.verdict}: {exc}")
    if not checked:
        problems.append(
            "obs check needs at least one of --chrome-trace, --prometheus, "
            "--trace, --samples, --verdict"
        )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    # The invocation as given (run-manifest provenance) — argv when
    # called programmatically, the process command line otherwise.
    args.argv = ["repro-hvac"] + list(argv) if argv is not None else sys.argv
    handlers = {
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "experiment": _cmd_experiment,
        "weather": _cmd_weather,
        "campaign": _cmd_campaign,
        "robustness": _cmd_robustness,
        "serve": _cmd_serve,
        "loadtest": _cmd_loadtest,
        "workload": _cmd_workload,
        "report": _cmd_report,
        "obs": _cmd_obs,
    }
    handler = handlers[args.command]
    wants_telemetry = args.command in _TELEMETRY_COMMANDS and (
        args.trace or args.metrics
    )
    # The monitoring flags sample the live registry, so they imply an
    # enabled telemetry session even without --trace/--metrics.
    wants_telemetry = wants_telemetry or (
        args.command in _MONITOR_COMMANDS and _monitor_requested(args)
    )
    if wants_telemetry:
        # Enable telemetry for the whole invocation: spans stream to
        # --trace as the run progresses, and the final metrics snapshot
        # lands at --metrics even if the handler fails.
        from repro.obs import telemetry_session

        with telemetry_session(trace_path=args.trace, metrics_path=args.metrics):
            return handler(args)
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
