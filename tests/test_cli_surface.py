"""The CLI flag surface, pinned against a recorded fixture.

For every subcommand the fixture holds each parser action's option
strings, dest, default, type, choices, nargs, const, required flag,
metavar and action class (help text is left out, so it may be reworded),
plus which commands accept the telemetry (``--trace``/``--metrics``;
``obs`` reads them as inputs) and monitoring (``--slo``/``--sample-every``)
flags.  Flag order is not pinned.  A flag that is renamed, dropped, added
or given another default fails here with the command and flag named.

Regenerate the fixture only for an intended surface change::

    PYTHONPATH=src python tests/test_cli_surface.py --write
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

from repro.cli import _build_parser

FIXTURE = Path(__file__).parent / "golden" / "cli_surface.json"


def _action_record(action: argparse.Action) -> dict:
    type_ = action.type
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "type": getattr(type_, "__name__", None if type_ is None else repr(type_)),
        "choices": None if action.choices is None else sorted(action.choices),
        "nargs": action.nargs,
        "const": action.const,
        "required": bool(action.required),
        "metavar": action.metavar,
        "action": type(action).__name__,
    }


def _accepts(parser: argparse.ArgumentParser, flag: str) -> bool:
    return any(flag in a.option_strings for a in parser._actions)


def cli_surface() -> dict:
    """The recorded form of the parser: commands, actions, flag groups."""
    parser = _build_parser()
    commands = parser._subparsers._group_actions[0].choices
    return {
        "commands": {
            name: [_action_record(a) for a in sub._actions]
            for name, sub in sorted(commands.items())
        },
        "telemetry": sorted(
            name for name, sub in commands.items()
            if _accepts(sub, "--trace") and _accepts(sub, "--metrics")
        ),
        "monitoring": sorted(
            name for name, sub in commands.items()
            if _accepts(sub, "--slo") and _accepts(sub, "--sample-every")
        ),
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    # Round-trip through JSON so tuples and lists compare alike.
    return json.loads(json.dumps(cli_surface()))


def test_same_subcommands(recorded, current):
    assert sorted(current["commands"]) == sorted(recorded["commands"])


@pytest.mark.parametrize("group", ["telemetry", "monitoring"])
def test_same_commands_carry_each_flag_group(recorded, current, group):
    assert current[group] == recorded[group]


def test_every_flag_unchanged(recorded, current):
    drift = []
    for command, actions in recorded["commands"].items():
        now = {a["dest"]: a for a in current["commands"].get(command, [])}
        then = {a["dest"]: a for a in actions}
        for dest in sorted(set(now) | set(then)):
            if now.get(dest) != then.get(dest):
                drift.append(
                    f"{command} {dest}: recorded {then.get(dest)}, "
                    f"now {now.get(dest)}"
                )
    assert not drift, "\n".join(drift)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: tests/test_cli_surface.py --write")
    FIXTURE.write_text(json.dumps(cli_surface(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
