"""Micro-benchmark: vectorized fleet stepping vs. sequential scalar envs.

Steps a fleet of N identical single-zone environments (default N=64,
the paper's 15-minute control step, forecast augmentation on) for one
simulated day through:

1. :class:`~repro.sim.VectorHVACEnv` — one batched step per control step;
2. the same N scalar :class:`~repro.env.HVACEnv` instances stepped
   sequentially in Python (the pre-``repro.sim`` execution model).

It reports aggregate env-steps/sec for both, records the result in
``benchmarks/results/BENCH_vector_sim.json`` **and the repo root**
(where perf tracking picks it up), and exits non-zero when the speedup
falls below ``--min-speedup`` (default 5x, the acceptance floor for the
vectorized engine).

Run::

    PYTHONPATH=src python benchmarks/perf_vector_sim.py
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

try:
    from benchmarks._util import machine_info, write_bench_record
except ImportError:  # executed as a script: benchmarks/ itself is sys.path[0]
    from _util import machine_info, write_bench_record

from repro.building import single_zone_building
from repro.env import HVACEnv, HVACEnvConfig
from repro.sim import VectorHVACEnv
from repro.weather import SyntheticWeatherConfig, generate_weather

BENCH_NAME = "BENCH_vector_sim.json"


def _make_env(weather, seed: int) -> HVACEnv:
    return HVACEnv(
        single_zone_building(),
        weather,
        config=HVACEnvConfig(episode_days=1.0),
        rng=seed,
    )


def _time_vector(weather, n_envs: int, n_steps: int) -> tuple:
    """Returns ``(stepping_seconds, construction_seconds)``.

    Construction (the one-time precompute of the fleet's time tables) is
    timed separately: the speedup claim is about steady-state stepping,
    and the setup cost — amortized over every subsequent episode — is
    reported alongside so one-shot uses can account for it.
    """
    start = time.perf_counter()
    vec = VectorHVACEnv([_make_env(weather, seed) for seed in range(n_envs)])
    construction_s = time.perf_counter() - start
    vec.reset()
    action = np.ones((n_envs, 1), dtype=int)
    start = time.perf_counter()
    for _ in range(n_steps):
        vec.step(action)
    return time.perf_counter() - start, construction_s


def _time_scalar(weather, n_envs: int, n_steps: int) -> float:
    envs = [_make_env(weather, seed) for seed in range(n_envs)]
    for env in envs:
        env.reset()
    action = np.ones(1, dtype=int)
    start = time.perf_counter()
    for _ in range(n_steps):
        for env in envs:
            _, _, done, _ = env.step(action)
            if done:
                env.reset()
    return time.perf_counter() - start


def _time_fleet(weather, n_envs: int, n_steps: int) -> float:
    """Steady-state aggregate env-steps/sec for one fleet size.

    One warmup step runs outside the timed window so the propagator
    build doesn't bill the steady state the metric is about.
    """
    vec = VectorHVACEnv([_make_env(weather, seed) for seed in range(n_envs)])
    vec.reset()
    action = np.ones((n_envs, 1), dtype=int)
    vec.step(action)
    start = time.perf_counter()
    for _ in range(n_steps):
        vec.step(action)
    return n_envs * n_steps / (time.perf_counter() - start)


def run_fleet_scale(sizes, n_steps: int = 8, repeats: int = 3) -> dict:
    """SoA fleet-scaling sweep: best-of-``repeats`` steps/s per size plus
    the scaling ratio.

    ``fleet_scaling_efficiency`` is (steps/s at the largest size) over
    (steps/s at the smallest): a machine-independent ratio that collapses
    toward 1 if per-env Python work sneaks back into the step path, so
    it is the gated metric; the absolute per-size numbers are recorded
    for trend-reading.
    """
    weather = generate_weather(
        SyntheticWeatherConfig(), start_day_of_year=213, n_days=3, rng=42
    )
    steps_per_s = {}
    for n in sizes:
        steps_per_s[str(n)] = max(
            _time_fleet(weather, n, n_steps) for _ in range(repeats)
        )
    smallest, largest = str(sizes[0]), str(sizes[-1])
    return {
        "fleet_sizes": list(sizes),
        "fleet_n_steps": n_steps,
        "fleet_steps_per_s": steps_per_s,
        "fleet_largest_env_steps_per_s": steps_per_s[largest],
        "fleet_scaling_efficiency": steps_per_s[largest] / steps_per_s[smallest],
    }


def run_benchmark(
    n_envs: int = 64,
    n_steps: int = 96,
    repeats: int = 3,
    fleet_sizes=(1000, 4000, 10000),
    fleet_steps: int = 8,
) -> dict:
    """Best-of-``repeats`` timing for both execution models."""
    weather = generate_weather(
        SyntheticWeatherConfig(), start_day_of_year=213, n_days=3, rng=42
    )
    vector_runs = [_time_vector(weather, n_envs, n_steps) for _ in range(repeats)]
    vector_s = min(run[0] for run in vector_runs)
    construction_s = min(run[1] for run in vector_runs)
    scalar_s = min(_time_scalar(weather, n_envs, n_steps) for _ in range(repeats))
    total_env_steps = n_envs * n_steps
    record = {
        "benchmark": "vector_sim",
        "n_envs": n_envs,
        "n_steps": n_steps,
        "repeats": repeats,
        "vector_env_steps_per_s": total_env_steps / vector_s,
        "scalar_env_steps_per_s": total_env_steps / scalar_s,
        "vector_seconds": vector_s,
        "vector_construction_seconds": construction_s,
        "scalar_seconds": scalar_s,
        "speedup": scalar_s / vector_s,
        "speedup_including_construction": scalar_s / (vector_s + construction_s),
        **machine_info(),
    }
    if fleet_sizes:
        record.update(run_fleet_scale(sorted(fleet_sizes), fleet_steps, repeats))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-envs", type=int, default=64)
    parser.add_argument("--n-steps", type=int, default=96)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="fail (exit 1) below this vector/scalar speedup; 0 disables",
    )
    parser.add_argument(
        "--fleet-sizes",
        type=str,
        default="1000,4000,10000",
        help=(
            "comma-separated fleet sizes for the SoA scaling sweep "
            "(empty string skips it)"
        ),
    )
    parser.add_argument(
        "--fleet-steps",
        type=int,
        default=8,
        help="timed control steps per fleet size (one warmup step extra)",
    )
    args = parser.parse_args(argv)
    fleet_sizes = tuple(
        int(s) for s in args.fleet_sizes.split(",") if s.strip()
    )

    record = run_benchmark(
        args.n_envs, args.n_steps, args.repeats, fleet_sizes, args.fleet_steps
    )
    out_path, root_path = write_bench_record(BENCH_NAME, record)

    print(
        f"N={record['n_envs']} x {record['n_steps']} steps "
        f"(best of {record['repeats']})"
    )
    print(f"  vector: {record['vector_env_steps_per_s']:>12,.0f} env-steps/s")
    print(f"  scalar: {record['scalar_env_steps_per_s']:>12,.0f} env-steps/s")
    print(
        f"  speedup: {record['speedup']:.1f}x stepping, "
        f"{record['speedup_including_construction']:.1f}x including the "
        f"{record['vector_construction_seconds']:.3f}s one-time fleet setup"
    )
    if "fleet_steps_per_s" in record:
        for size, rate in record["fleet_steps_per_s"].items():
            print(f"  fleet {int(size):>6,}: {rate:>12,.0f} env-steps/s")
        print(
            f"  fleet scaling efficiency "
            f"({record['fleet_sizes'][-1]:,} vs {record['fleet_sizes'][0]:,}): "
            f"{record['fleet_scaling_efficiency']:.2f}x"
        )
    print(f"  recorded in {out_path} and {root_path}")
    if args.min_speedup and record["speedup"] < args.min_speedup:
        print(
            f"FAIL: speedup {record['speedup']:.1f}x below the "
            f"{args.min_speedup:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
