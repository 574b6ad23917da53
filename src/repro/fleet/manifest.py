"""The content-addressed run manifest and artifact store.

Every fleet cell (one :class:`~repro.scenario.spec.ScenarioSpec` run) is
pinned by three coordinates:

* the **spec hash** — :meth:`ScenarioSpec.content_hash`, SHA-256 of the
  spec's canonical JSON, so any semantic knob change (and nothing else)
  re-addresses the cell;
* the **seed** — recorded explicitly even though it is part of the spec
  hash, so the manifest is greppable by seed;
* the **code fingerprint** — :func:`code_fingerprint`, a SHA-256 over the
  ``repro`` package's own source, so a code change marks every recorded
  artifact stale and the next ``run-missing`` recomputes the fleet.

The manifest itself (``<artifacts>/manifest.json``) maps stable *cell ids*
(experiment/scenario/axes/variant — what a cell *is*) to the coordinates and
artifact path of its last recorded run (what it *was* when last computed).
Staleness is exactly a coordinate mismatch: an entry whose ``spec_hash`` or
``fingerprint`` no longer matches, or whose artifact file is gone, must be
re-run; everything else is reused.

Artifacts are versioned :meth:`~repro.scenario.build.RunReport.to_json`
documents written atomically (temp file + ``os.replace``), so a crashed or
interrupted fleet run never leaves a half-written artifact behind a manifest
entry.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from repro.common.errors import ConfigurationError

#: Version stamp of the manifest file layout.
MANIFEST_VERSION = 1

#: Name of the manifest file inside an artifact directory.
MANIFEST_FILENAME = "manifest.json"


class FleetError(ConfigurationError):
    """A fleet operation cannot proceed (corrupt manifest, missing cells)."""


# ---------------------------------------------------------------------------
# Code fingerprint
# ---------------------------------------------------------------------------

_fingerprint_cache: str | None = None

#: Source files excluded from the fingerprint.  The scenario registry is
#: pure *data* — every registered spec is already content-addressed by its
#: own hash, so editing one registered spec must stale exactly that
#: scenario's cells, not (via a source-file hash) the whole fleet.
_FINGERPRINT_EXCLUDED = ("scenario/registry.py",)


def code_fingerprint() -> str:
    """SHA-256 over the ``repro`` package's source files (sorted, keyed).

    The fingerprint folds each file's package-relative path and contents, so
    renames count as changes.  ``scenario/registry.py`` is excluded (see
    :data:`_FINGERPRINT_EXCLUDED`); everything else — engine, scenario
    build/sweep, analysis, the fleet code itself — participates, which is
    what makes "re-run after a code change" automatic: the next
    ``run-missing`` sees every recorded cell stale-by-fingerprint.

    Cached per process (source files do not change under a running fleet).
    """
    global _fingerprint_cache
    if _fingerprint_cache is not None:
        return _fingerprint_cache
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative in _FINGERPRINT_EXCLUDED:
            continue
        digest.update(relative.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    _fingerprint_cache = digest.hexdigest()
    return _fingerprint_cache


def clear_fingerprint_cache() -> None:
    """Drop the memoized code fingerprint (tests that monkeypatch sources)."""
    global _fingerprint_cache
    _fingerprint_cache = None


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


@dataclass
class ManifestEntry:
    """One recorded cell: the coordinates and artifact of its last run."""

    experiment: str
    scenario: str
    axes: dict[str, Any]
    variant: str
    spec_hash: str
    seed: int
    fingerprint: str
    #: Artifact path relative to the manifest's artifact directory.
    artifact: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ManifestEntry":
        """Rebuild an entry, ignoring keys that are not its fields."""
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})


@dataclass
class RunManifest:
    """The manifest file: cell id -> :class:`ManifestEntry`.

    Top-level keys other than ``cells`` are ignored on load (and dropped on
    the next save), so manifests written by older code still load.
    """

    root: Path
    cells: dict[str, ManifestEntry] = field(default_factory=dict)

    @property
    def path(self) -> Path:
        return self.root / MANIFEST_FILENAME

    @classmethod
    def load(cls, root: str | Path) -> "RunManifest":
        """Read the manifest under ``root`` (an empty one if none exists)."""
        root = Path(root)
        manifest = cls(root=root)
        path = root / MANIFEST_FILENAME
        if not path.exists():
            return manifest
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FleetError(f"corrupt run manifest {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise FleetError(f"corrupt run manifest {path}: expected a JSON object")
        for cell_id, entry in data.get("cells", {}).items():
            manifest.cells[cell_id] = ManifestEntry.from_dict(entry)
        return manifest

    def save(self) -> Path:
        """Write the manifest atomically (stable key order, so re-saving an
        unchanged manifest is byte-identical)."""
        payload = {
            "manifest_version": MANIFEST_VERSION,
            "cells": {cell_id: entry.to_dict() for cell_id, entry in self.cells.items()},
        }
        _atomic_write_text(self.path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return self.path

    def artifact_path(self, entry: ManifestEntry) -> Path:
        """Absolute path of an entry's artifact file."""
        return self.root / entry.artifact


# ---------------------------------------------------------------------------
# Artifact store
# ---------------------------------------------------------------------------


class ArtifactStore:
    """Content-addressed artifact storage under one directory.

    The write side of the fleet: :meth:`record_cell` persists a run report
    and its manifest entry together (artifact first, manifest after, both
    atomic — a crash between the two leaves a re-runnable cell, never a
    dangling manifest entry).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.manifest = RunManifest.load(self.root)

    def record_cell(
        self,
        cell_id: str,
        *,
        experiment: str,
        scenario: str,
        axes: Mapping[str, Any],
        variant: str,
        spec_hash: str,
        seed: int,
        artifact_relpath: str,
        report_json: str,
    ) -> ManifestEntry:
        """Persist one cell's report artifact and manifest entry."""
        entry = ManifestEntry(
            experiment=experiment,
            scenario=scenario,
            axes=dict(axes),
            variant=variant,
            spec_hash=spec_hash,
            seed=seed,
            fingerprint=code_fingerprint(),
            artifact=artifact_relpath,
        )
        _atomic_write_text(self.root / artifact_relpath, report_json)
        self.manifest.cells[cell_id] = entry
        self.manifest.save()
        return entry

    def load_cell_json(self, cell_id: str) -> str:
        """The recorded artifact text of ``cell_id`` (raises when absent)."""
        entry = self.manifest.cells.get(cell_id)
        if entry is None:
            raise FleetError(f"no recorded artifact for cell {cell_id!r}")
        path = self.manifest.artifact_path(entry)
        if not path.exists():
            raise FleetError(f"manifest entry for {cell_id!r} points at missing {path}")
        return path.read_text(encoding="utf-8")
