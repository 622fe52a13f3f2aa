"""Worker heartbeats: what a busy worker reports and how it's aggregated.

The worker side runs inside :func:`repro.sweep.resilience._worker_main`:
a small timer thread calls :func:`heartbeat_payload` once per interval
and ships the dict over the existing result pipe (tagged so the pool
never confuses it with a result).  Progress comes from a module-global
*active simulator* probe — :func:`repro.experiments.common.run_system`
registers the simulator it is about to step and clears it afterwards,
and :func:`progress_snapshot` reads
whatever accessors that engine happens to expose, defensively, because a
heartbeat must never crash the run it is reporting on.

The runner side is :class:`HeartbeatAggregator`: latest heartbeat per
spec with a monotonic staleness cutoff, clock-injectable for tests.
"""

from __future__ import annotations

import os
import resource
import threading

_active_lock = threading.Lock()
_active_simulator = None


def set_active_simulator(sim) -> None:
    """Register the simulator the current process is about to step."""
    global _active_simulator
    with _active_lock:
        _active_simulator = sim


def clear_active_simulator() -> None:
    global _active_simulator
    with _active_lock:
        _active_simulator = None


def rss_bytes() -> int | None:
    """Current resident set size, or None when unreadable."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        # ru_maxrss is peak-not-current and in KiB on Linux; a coarse
        # fallback for platforms without /proc.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except (OSError, ValueError):
        return None


def progress_snapshot() -> dict:
    """Best-effort progress read of the active simulator.

    Returns ``sim_ns`` / ``epochs`` / ``flows_completed`` keys.  Every
    engine reads its clock through the kernel (:mod:`repro.sim.kernel`):
    ``sim_ns`` is the start of the next step, truncated to whole ns, and
    ``epochs`` the kernel's step count — epochs, slots or slices, skipped
    ones included.  A key stays None when the registered object lacks the
    accessor; the probe races with the stepping loop, so every read is
    wrapped.
    """
    with _active_lock:
        sim = _active_simulator
    snapshot: dict = {"sim_ns": None, "epochs": None, "flows_completed": None}
    if sim is None:
        return snapshot
    try:
        snapshot["sim_ns"] = int(sim.now_ns)
    except Exception:
        pass
    try:
        snapshot["epochs"] = int(sim.steps)
    except Exception:
        pass
    try:
        tracker = sim.tracker
        completed = tracker.num_completed
        if isinstance(completed, int):
            snapshot["flows_completed"] = completed
    except Exception:
        pass
    return snapshot


def heartbeat_payload(spec_hash: str, attempt: int, wall_s: float) -> dict:
    """One heartbeat dict: identity, progress probe, and RSS."""
    payload = {
        "spec": spec_hash,
        "attempt": attempt,
        "wall_s": wall_s,
        "rss_bytes": rss_bytes(),
    }
    payload.update(progress_snapshot())
    return payload


class HeartbeatAggregator:
    """Latest heartbeat per spec, with monotonic staleness tracking."""

    def __init__(self, clock=None) -> None:
        import time

        self._clock = clock if clock is not None else time.monotonic
        self._latest: dict[str, tuple[float, dict]] = {}

    def record(self, payload: dict) -> None:
        spec = payload.get("spec")
        if isinstance(spec, str):
            self._latest[spec] = (self._clock(), dict(payload))

    def forget(self, spec_hash: str) -> None:
        """Drop a spec once its result (or failure) has arrived."""
        self._latest.pop(spec_hash, None)

    def latest(self, spec_hash: str) -> dict | None:
        entry = self._latest.get(spec_hash)
        return entry[1] if entry is not None else None

    def running(self, stale_after_s: float = 10.0) -> list[dict]:
        """Heartbeats fresher than ``stale_after_s``, newest first."""
        now = self._clock()
        fresh = [
            (seen, payload)
            for seen, payload in self._latest.values()
            if now - seen <= stale_after_s
        ]
        fresh.sort(key=lambda item: item[0], reverse=True)
        return [payload for _, payload in fresh]
