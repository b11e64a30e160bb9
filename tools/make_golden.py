#!/usr/bin/env python
"""Regenerate the golden-trajectory fixtures.

Writes ``tests/golden/trajectories.json``: one hashed rollout record per
registered scenario preset.  The vector env and the scalar envs stepped
in lockstep must hash to that same record (see :mod:`repro.sim.golden`
for what the digest covers); a scenario where they differ is named and
nothing is written.  Run this ONLY when a dynamics change is
intentional — the diff of the fixture file is the reviewable record of
which scenarios moved.

Usage::

    PYTHONPATH=src python tools/make_golden.py            # rewrite all
    PYTHONPATH=src python tools/make_golden.py --check    # verify only
    PYTHONPATH=src python tools/make_golden.py --only heat-wave
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_PATH = REPO_ROOT / "tests" / "golden" / "trajectories.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.golden import (  # noqa: E402  (path bootstrap above)
    GOLDEN_ACTION_SEED,
    GOLDEN_ENV_SEED,
    GOLDEN_N_ENVS,
    GOLDEN_N_STEPS,
    compute_golden_records,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="recompute and compare against the committed fixtures (no write)",
    )
    parser.add_argument(
        "--only",
        type=str,
        default=None,
        help="comma-separated scenario names to regenerate (default: all)",
    )
    args = parser.parse_args()

    names = args.only.split(",") if args.only else None
    records = compute_golden_records(names)

    existing = {}
    if FIXTURE_PATH.exists():
        existing = json.loads(FIXTURE_PATH.read_text())

    if args.check:
        stored = existing.get("scenarios", {})
        problems = []
        for name, rollouts in records.items():
            want = stored.get(name, {}).get("sha256")
            for kind, record in rollouts.items():
                if want != record["sha256"]:
                    problems.append(
                        f"{name}/{kind}: stored {want} != computed {record['sha256']}"
                    )
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        print(f"golden check: {len(records)} scenario(s) OK")
        return 0

    split = [name for name, r in records.items() if r["scalar"] != r["vector"]]
    if split:
        print(
            f"scalar and vector rollouts differ for {split}; not writing",
            file=sys.stderr,
        )
        return 1
    records = {name: rollouts["vector"] for name, rollouts in records.items()}

    payload = {
        "meta": {
            "env_seed": GOLDEN_ENV_SEED,
            "action_seed": GOLDEN_ACTION_SEED,
            "n_envs": GOLDEN_N_ENVS,
            "n_steps": GOLDEN_N_STEPS,
            "note": (
                "Regenerate with tools/make_golden.py only for intentional "
                "dynamics changes; the fixture diff is the review record."
            ),
        },
        "scenarios": {**existing.get("scenarios", {}), **records},
    }
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    changed = [
        name
        for name in records
        if existing.get("scenarios", {}).get(name) != records[name]
    ]
    print(f"wrote {len(records)} scenario record(s) to {FIXTURE_PATH}")
    if existing:
        print(f"changed vs previous fixtures: {changed if changed else 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
