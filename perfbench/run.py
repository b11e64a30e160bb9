"""Cold-start-to-answer benchmark of the HVAC control stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-replay --seed 3 --seconds 10 --trace 0

``--workload all`` measures the three workloads one after another.

Workloads (``cases.py`` defines them and says why each was chosen):

``serve-replay``
    256 ``baseline-tou`` buildings served closed-loop from a stored DQN
    checkpoint through the resilient gateway, replaying 1,056 ticks of a
    ``dr-double-spike`` request trace.
``train-fleet``
    ``VectorTrainer`` training a DQN on 64 buildings, three episodes each.
``campaign-cold``
    A 12-cell campaign (3 scenarios x 2 controllers x 2 fault profiles,
    32 seeds per cell) into a fresh experiment store.

Every measurement runs in a fresh ``worker.py`` process with BLAS pinned
to one thread, so each set-up is a true cold start.  ``--trace 0`` runs
the workload in ``PROCESSES`` processes one after another, each measuring
for an equal share of ``--seconds``, and pools them into the end-to-end
metrics of ``BENCHMARK.json``: ``setup_s`` and ``peak_rss_mb`` are
medians over the processes, tick times and throughput come from all of
their ticks.  ``--trace 1`` runs one process untraced and one traced
and reports the per-layer metrics; the Chrome trace is left in
``perfbench/out/``.

Times are read from ``probes.CalibratedClock``: wall time rescaled to a
reference core's speed by a probe that runs every 20 ms, which keeps
them steady on a host whose cores other tenants share.  The summary
line before the result also gives each process's uncalibrated wall time.

Outputs are compared with ``reference.json``; ``--record-reference``
replaces the seed's entry there instead, for a change that alters the
library's outputs on purpose.

Seed ``n`` runs input variant ``n % VARIANTS``.  The last line of
standard output is the result, and the exit code is 1 when an output
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from timing import pool

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("serve-replay", "train-fleet", "campaign-cold")

#: Samples the tail percentile must leave beyond it.  A campaign's ticks
#: come in 12 cells of four cost levels, and its top 2% hold first-use
#: outliers of the faulted and PID cells; at p98 or p99 its tail moved by
#: 15-20% from run to run, at p95 by 4%.
TAIL_MIN_BEYOND = {"serve-replay": 10, "train-fleet": 10, "campaign-cold": 100}

#: Distinct input sets; each has stored reference outputs.
VARIANTS = 5
#: Cold starts per untraced run: each is its own process and measures
#: for a share of ``--seconds``, so a run samples the host at three times.
PROCESSES = 3
#: Wall-clock budget for every worker of one run.
BUDGET_S = 170.0
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def call_worker(deadline: float, *args: str) -> dict:
    """Run ``worker.py`` to completion and return its record."""
    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    env.update(PINNED_THREADS)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"perfbench: worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepared_inputs(deadline: float, workload: str, variant: int) -> Path:
    """The variant's input directory, made once per checkout."""
    inputs = OUT / "inputs" / f"{workload}-{variant}"
    if not inputs.is_dir():
        staging = OUT / f"staging-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        call_worker(
            deadline, "prepare", "--workload", workload,
            "--variant", str(variant), "--inputs", str(staging),
        )
        inputs.parent.mkdir(parents=True, exist_ok=True)
        staging.rename(inputs)
    return inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(args, workload, spec) for workload in workloads)


def run_workload(args, workload: str, spec: dict) -> int:
    """Measure one workload, print its summary and result lines."""
    deadline = time.monotonic() + BUDGET_S
    variant = args.seed % VARIANTS
    inputs = prepared_inputs(deadline, workload, variant)
    scratch = OUT / f"run-{os.getpid()}"
    base = [
        "run", "--workload", workload, "--variant", str(variant),
        "--inputs", str(inputs), "--seconds", str(args.seconds / PROCESSES),
    ]

    def measure(tag: str, *extra: str) -> dict:
        (scratch / tag).mkdir(parents=True)
        return call_worker(deadline, *base, "--scratch", str(scratch / tag), *extra)

    try:
        if args.trace:
            trace_path = OUT / f"trace-{workload}.json"
            records = [measure("untraced"), measure("traced", "--trace-out", str(trace_path))]
            plain, traced = records
            values = dict(traced["layers"])
            values["obs.trace_overhead_share"] = (
                (traced["wall_s"] / traced["units"]) / (plain["wall_s"] / plain["units"])
                - 1.0
            )
            wanted = spec["per_layer"]
        else:
            records = [measure(f"cold-{i}") for i in range(PROCESSES)]
            values = pool(records, TAIL_MIN_BEYOND[workload])
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    expected = table.get(workload, {}).get(str(variant))
    if args.record_reference:
        table.setdefault(workload, {})[str(variant)] = records[0]["outputs"]
        REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        expected = records[0]["outputs"]
    mismatched = sum(r["outputs"] != expected for r in records)
    problems = [p for r in records for p in r["problems"]]
    correct = mismatched == 0 and not problems

    print(json.dumps({
        "workload": workload,
        "seed": args.seed,
        "variant": variant,
        "reference": "match" if mismatched == 0 else "mismatch",
        "outputs": records[0]["outputs"],
        "problems": problems,
        "pooled": None if args.trace else values,
        "records": [
            {k: v for k, v in r.items() if k not in ("layers", "outputs", "ticks_ms")}
            for r in records
        ],
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records) + mismatched,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
