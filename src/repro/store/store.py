"""The file-backed experiment store.

A *run directory* is the durable unit of experimentation: one directory
holding a provenance manifest plus every artifact a run produces —
grid cell results, trainer checkpoints, metric logs.  Everything is
plain JSON written atomically (temp file + rename), so a killed process
never leaves a half-written artifact and any run can be inspected with
nothing but ``cat``.

Layout::

    RUN_DIR/
      manifest.json             # RunManifest: who/when/what/git SHA
      cells/<scenario>__<controller>__<fault>__<workload>.json
                                # one campaign / workload-suite cell each
      checkpoints/<name>.json   # agent / trainer state dicts
      artifacts/<name>.json     # anything else (logger series, configs)

A cell's identity is the ``(scenario, controller, fault, workload)``
recorded *inside* its payload (absent ``fault``/``workload`` keys mean
``"none"``); the file name is only where new cells are written.  Run
directories from before the fault and workload axes existed, whose
cells are named ``<scenario>__<controller>.json`` or
``<scenario>__<controller>__<fault>.json``, therefore still resume.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

MANIFEST_NAME = "manifest.json"
_CELL_DIR = "cells"
_CHECKPOINT_DIR = "checkpoints"
_ARTIFACT_DIR = "artifacts"

#: The value of an axis a cell does not sweep (clean fault, no workload);
#: a literal so the store stays importable without the faults package.
_NO_AXIS = "none"

#: A cell's identity: (scenario, controller, fault, workload).
CellKey = Tuple[str, str, str, str]
_CELL_AXES = ("scenario", "controller", "fault", "workload")


def payload_identity(payload: dict) -> CellKey:
    """The cell identity a stored payload (or row dict) records."""
    return (
        str(payload["scenario"]),
        str(payload["controller"]),
        str(payload.get("fault", _NO_AXIS)),
        str(payload.get("workload", _NO_AXIS)),
    )


def discover_git_sha(cwd: str | Path | None = None) -> str:
    """The git commit SHA of the library's source checkout.

    ``cwd`` overrides where to look; the default is this package's own
    directory (not the caller's working directory), so provenance pins
    the *code* that produced the run even when the CLI is invoked from
    elsewhere.  Returns ``"unknown"`` outside any checkout.
    """
    if cwd is None:
        cwd = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd),
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()


def _utc_now() -> str:
    """Current wall-clock time as an ISO-8601 UTC string."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _slug(name: str) -> str:
    """A filesystem-safe token for scenario/controller/checkpoint names."""
    token = re.sub(r"[^A-Za-z0-9._-]+", "-", str(name)).strip("-.")
    if not token:
        raise ValueError(f"name {name!r} reduces to an empty file token")
    return token


def _atomic_write_json(path: Path, payload: object, *, compact: bool = False) -> None:
    """Write JSON so readers never observe a partially written file.

    ``compact`` drops indentation — for bulk payloads like trainer
    checkpoints (hundreds of thousands of floats), pretty-printing
    inflates files severalfold; small cat-able files (manifests, cells)
    stay pretty.
    """
    tmp = path.with_name(path.name + ".tmp")
    if compact:
        text = json.dumps(payload, separators=(",", ":"))
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    tmp.write_text(text + "\n")
    os.replace(tmp, path)


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one run directory.

    ``config`` is the run's declarative input (e.g. the campaign spec as
    plain data); ``command`` the argv that launched it; ``git_sha`` and
    ``version`` pin the code state so stored numbers stay attributable.
    """

    run_id: str
    kind: str
    created_at: str
    git_sha: str = "unknown"
    version: str = ""
    command: Tuple[str, ...] = ()
    config: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        return cls(
            run_id=str(payload["run_id"]),
            kind=str(payload["kind"]),
            created_at=str(payload["created_at"]),
            git_sha=str(payload.get("git_sha", "unknown")),
            version=str(payload.get("version", "")),
            command=tuple(payload.get("command", ())),
            config=dict(payload.get("config", {})),
        )


class ExperimentStore:
    """A run directory with typed accessors for cells, checkpoints, and
    generic JSON artifacts.

    Construct through :meth:`create` (new run), :meth:`open` (existing
    run), or :meth:`open_or_create` (resume-friendly: reuse the manifest
    when the directory already is a run).
    """

    def __init__(self, root: str | Path, manifest: RunManifest) -> None:
        self.root = Path(root)
        self.manifest = manifest

    # ----------------------------------------------------------- lifecycle
    @classmethod
    def create(
        cls,
        root: str | Path,
        *,
        kind: str,
        config: Optional[dict] = None,
        run_id: Optional[str] = None,
        command: Optional[List[str]] = None,
    ) -> "ExperimentStore":
        """Initialize ``root`` as a run directory and write its manifest."""
        root = Path(root)
        if (root / MANIFEST_NAME).exists():
            raise FileExistsError(
                f"{root} already holds a run (manifest present); "
                "use open() or open_or_create() to resume it"
            )
        root.mkdir(parents=True, exist_ok=True)
        created = _utc_now()
        from repro import __version__

        manifest = RunManifest(
            run_id=run_id or f"{_slug(kind)}-{created.replace(':', '')}",
            kind=kind,
            created_at=created,
            git_sha=discover_git_sha(),
            version=__version__,
            command=tuple(command if command is not None else sys.argv),
            config=dict(config or {}),
        )
        store = cls(root, manifest)
        _atomic_write_json(root / MANIFEST_NAME, manifest.as_dict())
        return store

    @classmethod
    def open(cls, root: str | Path) -> "ExperimentStore":
        """Open an existing run directory (its manifest must exist)."""
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"{root} is not a run directory (no {MANIFEST_NAME})"
            )
        manifest = RunManifest.from_dict(json.loads(manifest_path.read_text()))
        return cls(root, manifest)

    @classmethod
    def open_or_create(
        cls,
        root: str | Path,
        *,
        kind: str,
        config: Optional[dict] = None,
        command: Optional[List[str]] = None,
    ) -> "ExperimentStore":
        """Open ``root`` when it is already a run of ``kind``, else create it."""
        root = Path(root)
        if (root / MANIFEST_NAME).exists():
            store = cls.open(root)
            if store.manifest.kind != kind:
                raise ValueError(
                    f"{root} holds a {store.manifest.kind!r} run, "
                    f"cannot resume it as {kind!r}"
                )
            return store
        return cls.create(root, kind=kind, config=config, command=command)

    def update_config(self, config: dict) -> None:
        """Rewrite the manifest's ``config`` (e.g. when a run directory
        whose first attempt died before producing artifacts is reused by
        a differently parameterized invocation)."""
        self.manifest = replace(self.manifest, config=dict(config))
        _atomic_write_json(self.root / MANIFEST_NAME, self.manifest.as_dict())

    # -------------------------------------------------------- generic JSON
    def _resolve(self, directory: str, name: str) -> Path:
        return self.root / directory / f"{_slug(name)}.json"

    def put_artifact(self, name: str, payload: object) -> Path:
        """Atomically write a named JSON artifact; returns its path."""
        path = self._resolve(_ARTIFACT_DIR, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(path, payload, compact=True)
        return path

    def get_artifact(self, name: str) -> object:
        """Read a named artifact written by :meth:`put_artifact`."""
        return json.loads(self._resolve(_ARTIFACT_DIR, name).read_text())

    def has_artifact(self, name: str) -> bool:
        """Whether a named artifact exists."""
        return self._resolve(_ARTIFACT_DIR, name).exists()

    def list_artifacts(self) -> List[str]:
        """Sorted names of all stored artifacts."""
        return self._list_dir(_ARTIFACT_DIR)

    def _list_dir(self, directory: str) -> List[str]:
        path = self.root / directory
        if not path.is_dir():
            return []
        return sorted(p.stem for p in path.glob("*.json"))

    # --------------------------------------------------------- checkpoints
    def save_checkpoint(self, name: str, state: dict) -> Path:
        """Atomically persist a ``state_dict()`` under ``checkpoints/``."""
        path = self._resolve(_CHECKPOINT_DIR, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(path, state, compact=True)
        return path

    def load_checkpoint(self, name: str) -> dict:
        """Read back a checkpoint saved by :meth:`save_checkpoint`."""
        return json.loads(self._resolve(_CHECKPOINT_DIR, name).read_text())

    def has_checkpoint(self, name: str) -> bool:
        """Whether a named checkpoint exists."""
        return self._resolve(_CHECKPOINT_DIR, name).exists()

    def list_checkpoints(self) -> List[str]:
        """Sorted names of all stored checkpoints."""
        return self._list_dir(_CHECKPOINT_DIR)

    # ---------------------------------------------------------- grid cells
    NO_FAULT = _NO_AXIS
    NO_WORKLOAD = _NO_AXIS

    @staticmethod
    def cell_key(
        scenario: str,
        controller: str,
        fault: str = _NO_AXIS,
        workload: str = _NO_AXIS,
    ) -> str:
        """The file token new cells are written under: all four axes,
        slugged, ``"none"`` included."""
        parts = (scenario, controller, fault, workload)
        return "__".join(_slug(part) for part in parts)

    def _cell_path(self, identity: CellKey) -> Path:
        return self.root / _CELL_DIR / f"{self.cell_key(*identity)}.json"

    def put_cell(
        self,
        row_dict: dict,
        *,
        elapsed_seconds: Optional[float] = None,
    ) -> Path:
        """Persist one completed grid cell (a campaign or suite row dict).

        Written as the cell finishes, so a killed sweep keeps every
        completed cell and a rerun resumes from the survivors.  The
        identity comes from the row's ``scenario``/``controller``/
        ``fault``/``workload`` (absent axes are ``"none"``).
        """
        identity = payload_identity(row_dict)
        path = self._cell_path(identity)
        if path.exists():
            existing = payload_identity(json.loads(path.read_text()))
            if existing != identity:
                raise ValueError(
                    f"cell file {path.name} already holds {existing!r}; "
                    "rename one of the slug-colliding axis values"
                )
        payload = dict(zip(_CELL_AXES, identity))
        payload.update(
            row=row_dict, elapsed_seconds=elapsed_seconds, completed_at=_utc_now()
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(path, payload)
        return path

    def get_cell(
        self,
        scenario: str,
        controller: str,
        fault: str = _NO_AXIS,
        workload: str = _NO_AXIS,
    ) -> Optional[dict]:
        """One cell's stored payload, or None when not yet completed.

        Cells are found by the identity their payload records, never by
        file name, so two names that slug to the same file token
        (``"heat wave"`` vs ``"heat-wave"``) cannot answer for each
        other and cells of older run directories are still found.
        """
        return self._cells().get((scenario, controller, fault, workload))

    def completed(self) -> Set[CellKey]:
        """The (scenario, controller, fault, workload) identities of all
        stored cells."""
        return set(self._cells())

    def _cells(self) -> Dict[CellKey, dict]:
        return {payload_identity(cell): cell for cell in self.iter_cells()}

    def iter_cells(self) -> List[dict]:
        """All stored cell payloads, sorted by file name."""
        paths = sorted((self.root / _CELL_DIR).glob("*.json"))
        return [json.loads(path.read_text()) for path in paths]

    def __repr__(self) -> str:
        return (
            f"ExperimentStore(root={str(self.root)!r}, "
            f"run_id={self.manifest.run_id!r}, kind={self.manifest.kind!r})"
        )
