"""Runs one workload in a fresh process and prints its record.

``run.py`` starts this script once per measurement, so every set-up is
a true cold start and the peak resident memory is the workload's own::

    python3 perfbench/worker.py prepare --workload W --variant V --inputs DIR
    python3 perfbench/worker.py run --workload W --variant V --inputs DIR \\
        --scratch DIR --seconds S [--trace-out FILE]

The last line of standard output is one JSON record.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import json
import os
import platform
import resource
import time
from pathlib import Path
from typing import Optional

import numpy as np
from repro.obs import Tracer, write_chrome_trace

import cases
import probes
import timing


def blas_threads() -> Optional[int]:
    """Threads the OpenBLAS that numpy loaded will use, asked of it."""
    try:
        with open("/proc/self/maps") as maps:
            libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine() -> dict:
    """Host facts every record carries, BLAS threads included."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


def run(args) -> dict:
    wall = time.perf_counter
    with probes.CalibratedClock() as clock:
        step_clock = probes.StepClock(clock=clock)
        layers = (
            probes.LayerTracer(Tracer(max_events=1 << 20), clock=clock)
            if args.trace_out else None
        )
        ctx = cases.Context(
            variant=args.variant,
            seconds=args.seconds,
            inputs=Path(args.inputs),
            scratch=Path(args.scratch),
            clock=clock,
        )
        patches = probes.Patches()
        probes.install(patches, step_clock, layers)
        wall_start = wall()
        try:
            outcome = cases.WORKLOADS[args.workload](ctx)
        finally:
            patches.restore()
        wall_s = wall() - wall_start

    probe_s = [duration for duration, _ in clock.probes]
    record = {
        "setup_s": step_clock.first_end - ctx.started,
        "wall_s": ctx.stopped - ctx.started,
        "uncalibrated_wall_s": wall_s,
        "measured_s": ctx.stopped - step_clock.first_end,
        "units": outcome.units,
        "ticks_ms": [s * 1e3 for s in step_clock.intervals_s],
        "first_unit_ticks": bisect.bisect_right(step_clock.stamps, ctx.unit_ends[0]),
        "env_steps": step_clock.env_steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed_probe_us": [
            timing.percentile(probe_s, p) * 1e6 for p in (10.0, 50.0, 90.0)
        ],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "outputs": outcome.outputs,
        "problems": outcome.problems,
        "details": outcome.details,
        "machine": machine(),
    }
    if layers is not None:
        path = write_chrome_trace(layers.tracer.events, args.trace_out)
        events = json.loads(Path(path).read_text())["traceEvents"]
        record["layers"] = probes.layer_metrics(
            events, layers.forecast_draws, outcome.serve
        )
        record["trace_dropped"] = layers.tracer.dropped
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--scratch")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    if args.mode == "prepare":
        prepare = cases.PREPARE.get(args.workload)
        if prepare is not None:
            prepare(args.variant, Path(args.inputs))
        record = {"prepared": args.workload}
    else:
        record = run(args)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
