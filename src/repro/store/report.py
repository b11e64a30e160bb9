"""Self-documenting run reports rendered from stored artifacts.

``render_campaign_report`` turns a finished (or partially finished)
campaign run directory into a Markdown document: provenance from the
manifest, one summary row per (scenario, controller) cell with
mean ± std energy cost and comfort violations across seeds, and
per-cell wall-clock timing.  ``render_serve_report`` does the same for
serving sessions (``repro-hvac serve/loadtest --store``): throughput,
latency quantiles, and the per-policy request mix from the stored
``serve_stats`` artifact.  Everything is read back from the store —
nothing is recomputed — so the report always describes exactly what was
measured.
"""

from __future__ import annotations

from typing import List

from repro.eval.reporting import format_markdown_table, format_mean_std

from repro.store.store import ExperimentStore


def _provenance_lines(store: ExperimentStore) -> List[str]:
    manifest = store.manifest
    lines = [
        f"- **run id:** `{manifest.run_id}`",
        f"- **created:** {manifest.created_at}",
        f"- **git SHA:** `{manifest.git_sha}`",
    ]
    if manifest.version:
        lines.append(f"- **repro version:** {manifest.version}")
    if manifest.command:
        command = " ".join(manifest.command)
        lines.append(f"- **command:** `{command}`")
    for key in sorted(manifest.config):
        value = manifest.config[key]
        if isinstance(value, (list, tuple)):
            value = ", ".join(str(v) for v in value)
        lines.append(f"- **{key}:** {value}")
    return lines


def _campaign_summary_table(cells: List[dict]) -> str:
    """The shared (scenario[, fault], controller) Markdown summary table."""
    with_faults = any(
        cell.get("fault", ExperimentStore.NO_FAULT) != ExperimentStore.NO_FAULT
        for cell in cells
    )
    header = ["scenario"]
    if with_faults:
        header.append("fault")
    header += [
        "controller",
        "seeds",
        "cost (USD)",
        "energy (kWh)",
        "violations (deg-h)",
        "violation rate",
        "return",
    ]
    body = []
    for cell in cells:
        row = cell["row"]
        mean, std = row["mean"], row["std"]
        entry = [row["scenario"]]
        if with_faults:
            entry.append(row.get("fault", ExperimentStore.NO_FAULT))
        entry += [
            row["controller"],
            str(row["n_seeds"]),
            format_mean_std(mean["cost_usd"], std["cost_usd"]),
            format_mean_std(mean["energy_kwh"], std["energy_kwh"], digits=2),
            format_mean_std(
                mean["violation_deg_hours"],
                std["violation_deg_hours"],
                digits=2,
            ),
            f"{mean['violation_rate']:.3f}",
            f"{mean['episode_return']:.3f}",
        ]
        body.append(entry)
    return format_markdown_table(header, body)


def render_campaign_report(store: ExperimentStore) -> str:
    """Render a campaign run directory as a Markdown report."""
    if store.manifest.kind != "campaign":
        raise ValueError(
            f"expected a campaign run, got kind={store.manifest.kind!r}"
        )
    cells = store.iter_cells()

    lines: List[str] = [f"# Campaign report — {store.manifest.run_id}", ""]
    lines.extend(_provenance_lines(store))
    lines.append("")

    lines.append("## Summary")
    lines.append("")
    if not cells:
        lines.append("_No completed cells yet._")
        lines.append("")
        return "\n".join(lines)

    lines.append(_campaign_summary_table(cells))
    lines.append("")
    lines.append(
        "Values are mean ± population std across seeds; the violation rate "
        "is the fraction of occupied zone-steps outside the comfort band."
    )
    lines.append("")

    timed = [c for c in cells if c.get("elapsed_seconds") is not None]
    lines.append("## Timing")
    lines.append("")
    lines.append(f"- **completed cells:** {len(cells)}")
    if timed:
        total = sum(float(c["elapsed_seconds"]) for c in timed)
        lines.append(f"- **total cell wall-clock:** {total:.2f} s")
        slowest = max(timed, key=lambda c: float(c["elapsed_seconds"]))
        cell = [slowest["scenario"], slowest["controller"]]
        fault = slowest.get("fault", ExperimentStore.NO_FAULT)
        if fault != ExperimentStore.NO_FAULT:
            cell.append(fault)  # a faulted campaign has several such cells
        lines.append(
            f"- **slowest cell:** {' / '.join(cell)} "
            f"({float(slowest['elapsed_seconds']):.2f} s)"
        )
    lines.append("")
    return "\n".join(lines)


def render_serve_report(store: ExperimentStore) -> str:
    """Render a serving run directory as a Markdown report.

    Reads the ``serve_stats`` artifact written by ``repro-hvac serve`` /
    ``loadtest`` ``--store`` (a :meth:`repro.serve.ServeStats.as_dict`
    payload).
    """
    if store.manifest.kind != "serve":
        raise ValueError(
            f"expected a serve run, got kind={store.manifest.kind!r}"
        )
    lines: List[str] = [f"# Serving report — {store.manifest.run_id}", ""]
    lines.extend(_provenance_lines(store))
    lines.append("")
    if not store.has_artifact("serve_stats"):
        lines.append("_No serve_stats artifact yet._")
        lines.append("")
        return "\n".join(lines)
    stats = store.get_artifact("serve_stats")
    latency = stats.get("latency_ms", {})
    lines.extend(
        [
            "## Session",
            "",
            f"- **requests served:** {stats.get('total_requests', 0)} in "
            f"{stats.get('total_batches', 0)} batches "
            f"(mean batch {stats.get('mean_batch_size', 0.0):.1f})",
            f"- **fleet env-steps:** {stats.get('env_steps', 0)}",
            f"- **throughput:** {stats.get('throughput_rps', 0.0):,.0f} req/s "
            f"over {stats.get('elapsed_s', 0.0):.3f} s",
            f"- **latency (ms):** p50={latency.get('p50', 0.0):.3f}, "
            f"p95={latency.get('p95', 0.0):.3f}, "
            f"p99={latency.get('p99', 0.0):.3f}",
            f"- **hot swaps:** {stats.get('swaps', 0)}",
            "",
        ]
    )
    per_policy = stats.get("requests_per_policy", {})
    if per_policy:
        lines.append("## Request mix")
        lines.append("")
        lines.append(
            format_markdown_table(
                ["policy", "requests"],
                [[key, str(count)] for key, count in sorted(per_policy.items())],
            )
        )
        lines.append("")
    return "\n".join(lines)


def render_workload_report(store: ExperimentStore) -> str:
    """Render a workload-suite run directory as a Markdown report.

    A workload-suite run holds recorded traces (``workload_trace__*``
    artifacts) plus one fingerprinted replay summary per (scenario,
    fault, controller, workload) cell.  The report surfaces both halves:
    the deterministic identity (trace digests, replay fingerprints —
    what acceptance diffs compare) and the measured serving numbers
    (latency quantiles, throughput).
    """
    if store.manifest.kind != "workload-suite":
        raise ValueError(
            f"expected a workload-suite run, got kind={store.manifest.kind!r}"
        )
    cells = [
        c
        for c in store.iter_cells()
        if c.get("workload", ExperimentStore.NO_WORKLOAD)
        != ExperimentStore.NO_WORKLOAD
    ]
    lines: List[str] = [f"# Workload-suite report — {store.manifest.run_id}", ""]
    lines.extend(_provenance_lines(store))
    lines.append("")

    trace_names = [
        name for name in store.list_artifacts()
        if name.startswith("workload_trace__")
    ]
    if trace_names:
        lines.append("## Recorded traces")
        lines.append("")
        body = []
        for name in trace_names:
            payload = store.get_artifact(name)
            body.append(
                [
                    str(payload.get("spec", {}).get("name", name)),
                    str(payload.get("n_clients", "")),
                    str(payload.get("seed", "")),
                    str(payload.get("n_events", "")),
                    f"`{str(payload.get('sha256', ''))[:16]}`",
                ]
            )
        lines.append(
            format_markdown_table(
                ["workload", "clients", "seed", "events", "trace sha256"], body
            )
        )
        lines.append("")

    lines.append("## Replay cells")
    lines.append("")
    if not cells:
        lines.append("_No completed cells yet._")
        lines.append("")
        return "\n".join(lines)
    header = [
        "scenario",
        "fault",
        "controller",
        "workload",
        "requests",
        "p50 (ms)",
        "p99 (ms)",
        "req/s",
        "fingerprint",
    ]
    body = []
    for cell in cells:
        row = cell["row"]
        timing = row.get("timing", {})
        latency = timing.get("latency_ms", {})
        body.append(
            [
                row["scenario"],
                row.get("fault", ExperimentStore.NO_FAULT),
                row["controller"],
                row["workload"],
                str(row.get("replay", {}).get("n_requests", "")),
                f"{float(latency.get('p50', 0.0)):.3f}",
                f"{float(latency.get('p99', 0.0)):.3f}",
                f"{float(timing.get('throughput_rps', 0.0)):,.0f}",
                f"`{str(row.get('fingerprint', ''))[:16]}`",
            ]
        )
    lines.append(format_markdown_table(header, body))
    lines.append("")
    lines.append(
        "Fingerprints digest the deterministic replay block (actions, "
        "flush sequence, trace identity); timing columns are measured "
        "per run and excluded from the fingerprint."
    )
    lines.append("")
    return "\n".join(lines)


def render_robustness_report(store: ExperimentStore) -> str:
    """Render a robustness run directory as a Markdown report.

    A robustness run is a campaign over the fault axis: the report shows
    the absolute metrics per (scenario, fault, controller) cell plus a
    degradation table — each faulted cell against its clean
    (``fault="none"``) twin, recomputed from the stored rows so the
    report always matches the artifacts.
    """
    if store.manifest.kind != "robustness":
        raise ValueError(
            f"expected a robustness run, got kind={store.manifest.kind!r}"
        )
    from repro.sim.campaign import CampaignRow, summarize_robustness

    cells = store.iter_cells()
    lines: List[str] = [f"# Robustness report — {store.manifest.run_id}", ""]
    lines.extend(_provenance_lines(store))
    lines.append("")

    lines.append("## Absolute metrics")
    lines.append("")
    if not cells:
        lines.append("_No completed cells yet._")
        lines.append("")
        return "\n".join(lines)
    lines.append(_campaign_summary_table(cells))
    lines.append("")

    rows = [CampaignRow.from_dict(cell["row"]) for cell in cells]
    summary = summarize_robustness(rows)
    lines.append("## Degradation vs clean baseline")
    lines.append("")
    if not summary:
        lines.append(
            "_No faulted cell has a completed clean twin yet; resume the "
            "run to fill the baseline column._"
        )
        lines.append("")
        return "\n".join(lines)
    header = [
        "scenario",
        "fault",
        "controller",
        "Δ cost (USD)",
        "Δ energy (kWh)",
        "Δ violations (deg-h)",
        "Δ violation rate",
        "Δ return",
    ]
    body = []
    for row in summary:
        d = row.deltas

        def _cell(key: str, digits: int = 3) -> str:
            text = f"{d[f'{key}_delta']:+.{digits}f}"
            rel = d.get(f"{key}_rel")
            if rel is not None:
                text += f" ({rel:+.0%})"
            return text

        body.append(
            [
                row.scenario,
                row.fault,
                row.controller,
                _cell("cost_usd"),
                _cell("energy_kwh", 2),
                _cell("violation_deg_hours", 2),
                _cell("violation_rate"),
                _cell("episode_return"),
            ]
        )
    lines.append(format_markdown_table(header, body))
    lines.append("")
    lines.append(
        "Positive cost/violation deltas mean the fault degraded the "
        "controller; relative changes are against the clean baseline's "
        "magnitude."
    )
    lines.append("")
    return "\n".join(lines)
