"""Campaign manifests: the durable record of *how* a sweep ran.

The result store records what each spec produced; the manifest records
the campaign around it — when it ran, on what host and package versions,
which specs were cache hits, and the full per-spec attempt history
(status sequence, per-attempt wall times) so retry/quarantine ground
truth survives after the stderr progress line is gone.  Written
atomically (temp file + rename) next to the store as
``<store>.manifest.json``.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import sys
from datetime import datetime, timezone
from pathlib import Path

MANIFEST_VERSION = 1


def default_manifest_path(store_path: str | Path) -> Path:
    """The manifest sidecar for a store, whatever its backend.

    ``campaign.jsonl -> campaign.manifest.json``; any other store path
    (``campaign.db`` included) gets the name appended whole instead of
    the old suffix string-replacement (``campaign.db.manifest.json``).
    """
    # Imported lazily: repro.sweep imports repro.telemetry at load time,
    # so a module-level import here would complete the cycle.
    from ..sweep.backends import sidecar_path

    return sidecar_path(store_path, "manifest.json")


def _package_versions() -> dict:
    versions = {}
    try:
        import numpy

        versions["numpy"] = numpy.__version__
    except Exception:
        pass
    try:
        import repro

        versions["repro"] = getattr(repro, "__version__", None)
    except Exception:
        pass
    return versions


def environment_block() -> dict:
    """Host / interpreter / package identity for the manifest."""
    return {
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "packages": _package_versions(),
    }


def build_manifest(
    *,
    campaign: str,
    started_at: float,
    ended_at: float,
    specs: dict,
    outcomes: dict,
    cached_hashes: set,
    quarantined_hashes: set,
    jobs: int,
    store_path: str | None = None,
    worker: str | None = None,
) -> dict:
    """Assemble the manifest dict from a finished runner's state.

    ``specs`` maps content hash -> :class:`~repro.sweep.spec.RunSpec`;
    ``outcomes`` maps hash -> :class:`~repro.sweep.resilience.SpecOutcome`
    for every spec that actually executed (cache hits have no outcome).
    """
    per_spec = {}
    retried = 0
    for spec_hash, spec in specs.items():
        outcome = outcomes.get(spec_hash)
        cached = spec_hash in cached_hashes
        entry: dict = {"label": spec.label(), "cached": cached}
        if outcome is not None:
            entry.update(
                status=outcome.status,
                attempts=outcome.attempts,
                attempt_statuses=list(outcome.attempt_statuses),
                elapsed_s=[round(t, 6) for t in outcome.elapsed_s],
            )
            if outcome.attempts > 1:
                retried += 1
            if outcome.error:
                entry["error"] = outcome.error
        else:
            entry.update(
                status="cached" if cached else "pending",
                attempts=0,
                attempt_statuses=[],
                elapsed_s=[],
            )
        per_spec[spec_hash] = entry
    executed = sum(
        1 for o in outcomes.values() if o.status == "ok"
    )
    failed = sum(1 for o in outcomes.values() if o.status != "ok")
    return {
        "manifest_version": MANIFEST_VERSION,
        "campaign": campaign,
        "worker": worker,
        "started_at": _isoformat(started_at),
        "ended_at": _isoformat(ended_at),
        "elapsed_s": round(ended_at - started_at, 6),
        "jobs": jobs,
        "store": store_path,
        "environment": environment_block(),
        "counts": {
            "specs": len(specs),
            "executed": executed,
            "cached": len(cached_hashes),
            "failed": failed,
            "retried": retried,
            "quarantined": len(quarantined_hashes),
        },
        "quarantined": sorted(quarantined_hashes),
        "specs": per_spec,
    }


def write_manifest(path: str | Path, manifest: dict) -> Path:
    """Atomic JSON write: temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def _isoformat(unix_ts: float) -> str:
    return datetime.fromtimestamp(unix_ts, tz=timezone.utc).isoformat()
