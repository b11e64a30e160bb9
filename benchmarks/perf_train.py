"""Micro-benchmark: the DQN training fast path.

Times the two training hot loops the ``repro.core`` fast path
optimizes, at a production-scale replay capacity (default 100k
transitions, buffer pre-filled):

1. **learn steps/s** — full ``DQNAgent.learn()`` gradient steps
   (sample + TD targets + backward + priority refresh) under three
   replay backends: uniform, prioritized ``method="scan"`` (the legacy
   O(n) full-array draw), and prioritized ``method="tree"`` (the
   O(log n) sum-tree).  The headline number is the tree/scan speedup:
   the scan path recomputes ``priorities ** alpha`` over the whole
   buffer on every step, so its cost grows with capacity while the
   tree's stays flat.
2. **ingest rows/s** — replay writes via the per-row ``add()`` loop
   (what the scalar ``Trainer`` does, one transition per step) vs. one
   ``add_batch()`` sliced write per fleet pass (what ``VectorTrainer``
   does), on a prioritized buffer (the stamping of max-priority rides
   along).

It records the result in ``benchmarks/results/BENCH_train.json`` **and
the repo root** (where ``tools/perf_compare.py`` picks the committed
baseline up), and exits non-zero when the prioritized speedup falls
below ``--min-speedup`` (default 2x, the acceptance floor; ~3x+ is
typical at capacity 100k).

Run::

    PYTHONPATH=src python benchmarks/perf_train.py
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

from repro.core import DQNAgent, DQNConfig, PrioritizedReplayBuffer
from repro.env.spaces import MultiDiscrete

BENCH_NAME = "BENCH_train.json"

OBS_DIM = 8
N_LEVELS = 4
HIDDEN = (64, 64)
BATCH_SIZE = 32


def _make_agent(capacity: int, variant: str) -> DQNAgent:
    """A DQN agent whose replay buffer is pre-filled to ``capacity``."""
    config = DQNConfig(
        hidden=HIDDEN,
        batch_size=BATCH_SIZE,
        buffer_capacity=capacity,
        learn_start=BATCH_SIZE,
        target_sync_every=200,
        prioritized_replay=variant != "uniform",
        per_method="tree" if variant != "prioritized_scan" else "scan",
    )
    agent = DQNAgent(OBS_DIM, MultiDiscrete([N_LEVELS]), config=config, rng=0)
    rng = np.random.default_rng(7)
    chunk = 10_000
    filled = 0
    while filled < capacity:
        n = min(chunk, capacity - filled)
        agent.buffer.add_batch(
            rng.normal(size=(n, OBS_DIM)),
            rng.integers(0, N_LEVELS, size=n),
            rng.normal(size=n),
            rng.normal(size=(n, OBS_DIM)),
            rng.random(n) < 0.02,
        )
        filled += n
    agent.total_steps = capacity  # past learn_start; learn() always fires
    if variant != "uniform":
        # Realistic spread of priorities (a fresh buffer is uniform at
        # max priority, which would flatter any sampler).
        agent.buffer.update_priorities(
            np.arange(capacity), rng.exponential(1.0, size=capacity)
        )
    return agent


def _time_learn(agent: DQNAgent, n_steps: int) -> float:
    start = time.perf_counter()
    for _ in range(n_steps):
        agent.learn()
    return time.perf_counter() - start


def _time_ingest(capacity: int, n_rows: int, batch: int) -> float:
    """Seconds to push ``n_rows`` transitions through a prioritized
    buffer, ``batch`` rows per call (1 = the per-row ``add()`` loop)."""
    buf = PrioritizedReplayBuffer(capacity, OBS_DIM)
    rng = np.random.default_rng(3)
    obs = rng.normal(size=(batch, OBS_DIM))
    next_obs = rng.normal(size=(batch, OBS_DIM))
    actions = rng.integers(0, N_LEVELS, size=batch)
    rewards = rng.normal(size=batch)
    dones = rng.random(batch) < 0.02
    start = time.perf_counter()
    if batch == 1:
        o, a, r, no, d = obs[0], actions[0], rewards[0], next_obs[0], bool(dones[0])
        for _ in range(n_rows):
            buf.add(o, a, r, no, d)
    else:
        for _ in range(n_rows // batch):
            buf.add_batch(obs, actions, rewards, next_obs, dones)
    return time.perf_counter() - start


def run_benchmark(
    capacity: int = 100_000,
    n_learn_steps: int = 200,
    n_ingest_rows: int = 60_000,
    ingest_batch: int = 64,
    repeats: int = 5,
) -> dict:
    """Best-of-``repeats`` timing for the learn and ingest hot loops."""
    learn_steps_per_s = {}
    for variant in ("uniform", "prioritized_scan", "prioritized_tree"):
        agent = _make_agent(capacity, variant)
        _time_learn(agent, 5)  # warm-up
        best = min(_time_learn(agent, n_learn_steps) for _ in range(repeats))
        learn_steps_per_s[variant] = n_learn_steps / best

    scalar_s = min(
        _time_ingest(capacity, n_ingest_rows, batch=1) for _ in range(repeats)
    )
    batched_s = min(
        _time_ingest(capacity, n_ingest_rows, batch=ingest_batch)
        for _ in range(repeats)
    )

    return {
        "benchmark": "train",
        "capacity": capacity,
        "batch_size": BATCH_SIZE,
        "hidden": list(HIDDEN),
        "obs_dim": OBS_DIM,
        "n_actions": N_LEVELS,
        "n_learn_steps": n_learn_steps,
        "n_ingest_rows": n_ingest_rows,
        "ingest_batch": ingest_batch,
        "repeats": repeats,
        "learn_steps_per_s": learn_steps_per_s,
        "prioritized_speedup": (
            learn_steps_per_s["prioritized_tree"]
            / learn_steps_per_s["prioritized_scan"]
        ),
        "ingest_rows_per_s_scalar": n_ingest_rows / scalar_s,
        "ingest_rows_per_s_batched": n_ingest_rows / batched_s,
        "ingest_speedup": scalar_s / batched_s,
        **machine_info(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--capacity", type=int, default=100_000)
    parser.add_argument("--learn-steps", type=int, default=200)
    parser.add_argument("--ingest-rows", type=int, default=60_000)
    parser.add_argument("--ingest-batch", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help=(
            "fail (exit 1) below this sum-tree/scan learn-throughput "
            "speedup; 0 disables"
        ),
    )
    args = parser.parse_args(argv)

    record = run_benchmark(
        args.capacity,
        args.learn_steps,
        args.ingest_rows,
        args.ingest_batch,
        args.repeats,
    )
    out_paths = write_bench_record(BENCH_NAME, record)

    steps = record["learn_steps_per_s"]
    print(
        f"capacity={record['capacity']:,} batch={record['batch_size']} "
        f"(best of {record['repeats']})"
    )
    print(f"  learn uniform:           {steps['uniform']:>10,.0f} steps/s")
    print(f"  learn prioritized scan:  {steps['prioritized_scan']:>10,.0f} steps/s")
    print(f"  learn prioritized tree:  {steps['prioritized_tree']:>10,.0f} steps/s")
    print(f"  prioritized speedup (tree/scan): {record['prioritized_speedup']:.1f}x")
    print(
        f"  ingest per-row add:  {record['ingest_rows_per_s_scalar']:>12,.0f} rows/s"
    )
    print(
        f"  ingest add_batch:    {record['ingest_rows_per_s_batched']:>12,.0f} rows/s"
    )
    print(f"  ingest speedup: {record['ingest_speedup']:.1f}x")
    print(f"  recorded in {out_paths[0]} and {out_paths[1]}")
    if args.min_speedup and record["prioritized_speedup"] < args.min_speedup:
        print(
            f"FAIL: prioritized speedup {record['prioritized_speedup']:.1f}x "
            f"below the {args.min_speedup:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
