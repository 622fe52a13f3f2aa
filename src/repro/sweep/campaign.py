"""Fleet campaigns: N independent workers draining one spec grid.

``repro campaign run --store X`` can be launched any number of times, on
one host or many sharing a filesystem, and every launch converges on the
same store state: each worker *leases* a batch of pending specs, runs
them through the ordinary :class:`~repro.sweep.runner.SweepRunner`, and
loops until nothing in the grid is missing.  Three properties make this
safe without a coordinator (DESIGN.md §17):

* **Leases are advisory and expiring.**  A lease is a row ``(spec_hash,
  owner, expires_at)``; claiming skips specs whose lease is live and
  held by someone else.  The runner's liveness callbacks renew the lease
  while a spec executes, so a healthy worker never loses one — and a
  crashed worker's leases simply expire, letting a peer take over.
* **Completion is idempotent.**  Results are keyed by spec content hash
  and ``content_digest()`` folds to the last row per hash, so the worst
  case of a lost lease race — two workers executing the same spec — is
  a redundant row, not a divergent store.
* **The store is the only ground truth.**  Workers re-read
  ``completed_hashes()`` every round; a spec finished by anyone, ever
  (including a prior campaign imported via ``cache_from``), is work no
  one repeats.

Lease state lives next to the results: in the ``leases`` table of a
SQLite store, or in a ``leases.jsonl`` sidecar (guarded by an
``flock``-ed lock file) for JSONL stores.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import socket
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from .backends import SqliteBackend, _append_bytes, sidecar_path
from .runner import SweepRunner
from .spec import RunSpec
from .store import ResultStore

try:  # POSIX file locking for the sidecar lease log; absent on some
    import fcntl  # platforms, where lease claims degrade to best-effort.
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

DEFAULT_LEASE_TTL_S = 60.0
DEFAULT_LEASE_BATCH = 8

LEASES_NAME = "leases.jsonl"
LEASES_LOCK_NAME = "leases.lock"


def default_worker_id() -> str:
    """``host-pid``: unique per process, readable in manifests."""
    return f"{socket.gethostname()}-{os.getpid()}"


class LeaseStore:
    """The lease protocol both implementations satisfy.

    All methods take ``owner`` explicitly so one lease store can be
    probed on behalf of any worker (the status command does exactly
    that).  ``claim`` is the only operation that must be atomic across
    workers; ``renew`` and ``release`` only ever touch rows the owner
    already holds, so a lost race there is harmless.
    """

    def claim(
        self, hashes: Sequence[str], owner: str, ttl_s: float, limit: int
    ) -> list[str]:
        raise NotImplementedError

    def renew(self, spec_hash: str, owner: str, ttl_s: float) -> None:
        raise NotImplementedError

    def release(self, hashes: Sequence[str], owner: str) -> None:
        raise NotImplementedError

    def snapshot(self) -> dict[str, tuple[str, float]]:
        """{spec_hash: (owner, expires_at)} for every recorded lease."""
        raise NotImplementedError


class SqliteLeases(LeaseStore):
    """Leases in the SQLite store itself — one transaction, no lock file."""

    def __init__(self, backend: SqliteBackend, clock=time.time) -> None:
        self.backend = backend
        self._clock = clock

    def claim(
        self, hashes: Sequence[str], owner: str, ttl_s: float, limit: int
    ) -> list[str]:
        conn = self.backend.connection()
        now = self._clock()
        claimed: list[str] = []
        # BEGIN IMMEDIATE takes the write lock up front, so two workers
        # claiming concurrently serialize and each sees the other's rows.
        conn.execute("BEGIN IMMEDIATE")
        try:
            for spec_hash in hashes:
                if len(claimed) >= limit:
                    break
                row = conn.execute(
                    "SELECT owner, expires_at FROM leases WHERE spec_hash = ?",
                    (spec_hash,),
                ).fetchone()
                if row is not None and row[0] != owner and row[1] > now:
                    continue  # live lease held by a peer
                conn.execute(
                    "INSERT INTO leases (spec_hash, owner, expires_at) "
                    "VALUES (?, ?, ?) ON CONFLICT(spec_hash) DO UPDATE SET "
                    "owner = excluded.owner, expires_at = excluded.expires_at",
                    (spec_hash, owner, now + ttl_s),
                )
                claimed.append(spec_hash)
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return claimed

    def renew(self, spec_hash: str, owner: str, ttl_s: float) -> None:
        self.backend.connection().execute(
            "UPDATE leases SET expires_at = ? "
            "WHERE spec_hash = ? AND owner = ?",
            (self._clock() + ttl_s, spec_hash, owner),
        )

    def release(self, hashes: Sequence[str], owner: str) -> None:
        conn = self.backend.connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            for spec_hash in hashes:
                conn.execute(
                    "DELETE FROM leases WHERE spec_hash = ? AND owner = ?",
                    (spec_hash, owner),
                )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def snapshot(self) -> dict[str, tuple[str, float]]:
        rows = self.backend.connection().execute(
            "SELECT spec_hash, owner, expires_at FROM leases"
        )
        return {h: (owner, expires) for h, owner, expires in rows}


class FileLeases(LeaseStore):
    """Leases as an append-only JSONL sidecar, serialized by ``flock``.

    The log folds last-row-per-hash (the result-store idiom), so claim,
    renew, and release are all single O_APPEND writes; a release is a
    row with ``expires_at`` 0.  Claims hold an exclusive ``flock`` on a
    lock file across the read-fold-append sequence so two workers cannot
    claim the same spec; where ``fcntl`` is unavailable the lock is a
    no-op and the content-hash idempotence of the store bounds the
    damage at redundant execution.  A snapshot takes no lock and so
    writes nothing: the log only grows by whole-line appends, and a torn
    trailing line is skipped.
    """

    def __init__(self, store_path, clock=time.time) -> None:
        self.path = sidecar_path(store_path, LEASES_NAME)
        self.lock_path = sidecar_path(store_path, LEASES_LOCK_NAME)
        self._clock = clock

    @contextlib.contextmanager
    def _locked(self):
        self.lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.lock_path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _table(self) -> dict[str, tuple[str, float]]:
        table: dict[str, tuple[str, float]] = {}
        try:
            handle = self.path.open()
        except FileNotFoundError:
            return table
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn trailing line from a crashed writer
                table[row["spec_hash"]] = (row["owner"], row["expires_at"])
        return table

    def _append(self, rows: Iterable[tuple[str, str, float]]) -> None:
        data = "".join(
            json.dumps(
                {"spec_hash": h, "owner": owner, "expires_at": expires},
                sort_keys=True,
            )
            + "\n"
            for h, owner, expires in rows
        )
        if data:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            _append_bytes(self.path, data.encode())

    def claim(
        self, hashes: Sequence[str], owner: str, ttl_s: float, limit: int
    ) -> list[str]:
        with self._locked():
            table = self._table()
            now = self._clock()
            claimed: list[str] = []
            for spec_hash in hashes:
                if len(claimed) >= limit:
                    break
                held = table.get(spec_hash)
                if held is not None and held[0] != owner and held[1] > now:
                    continue
                claimed.append(spec_hash)
            self._append((h, owner, now + ttl_s) for h in claimed)
            return claimed

    def renew(self, spec_hash: str, owner: str, ttl_s: float) -> None:
        with self._locked():
            held = self._table().get(spec_hash)
            if held is None or held[0] != owner:
                return  # lease expired and was taken over; don't steal back
            self._append([(spec_hash, owner, self._clock() + ttl_s)])

    def release(self, hashes: Sequence[str], owner: str) -> None:
        with self._locked():
            table = self._table()
            self._append(
                (h, owner, 0.0)
                for h in hashes
                if table.get(h, ("", 0.0))[0] == owner
            )

    def snapshot(self) -> dict[str, tuple[str, float]]:
        return self._table()


def make_lease_store(store: ResultStore) -> LeaseStore:
    """The lease store matching a result store's backend."""
    if isinstance(store.backend, SqliteBackend):
        return SqliteLeases(store.backend)
    return FileLeases(store.path)


@dataclass
class CampaignReport:
    """What one ``run_campaign`` call did, in convergence terms.

    ``executed + cached + done_elsewhere + failed`` covers the grid:
    every spec was either simulated here, already complete when this
    worker started (including rows imported from ``cache_from``),
    finished by a peer while this worker ran, or failed everywhere it
    was tried.
    """

    worker: str
    total: int
    executed: int
    cached: int
    imported: int
    done_elsewhere: int
    failed: int
    rounds: int
    elapsed_s: float
    manifest_path: str | None = None

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "total": self.total,
            "executed": self.executed,
            "cached": self.cached,
            "imported": self.imported,
            "done_elsewhere": self.done_elsewhere,
            "failed": self.failed,
            "rounds": self.rounds,
            "elapsed_s": round(self.elapsed_s, 6),
            "manifest_path": self.manifest_path,
        }


def run_campaign(
    specs: Iterable[RunSpec],
    store: ResultStore,
    *,
    worker: str | None = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    lease_batch: int = DEFAULT_LEASE_BATCH,
    cache_from: Sequence[ResultStore] = (),
    poll_s: float | None = None,
    sleep: Callable[[float], None] = time.sleep,
    **runner_kwargs,
) -> CampaignReport:
    """Drain a spec grid as one worker of a possibly-concurrent fleet.

    Launched N times against the same store (serially or concurrently),
    the store converges to the same ``content_digest()`` as a single
    serial sweep of the grid.  ``cache_from`` stores (either backend) are
    consulted first: rows for grid specs this store lacks are imported
    verbatim, so a superset campaign re-executes only what is genuinely
    new.  ``runner_kwargs`` pass through to :class:`SweepRunner`
    (``jobs``, ``retry``, ``on_error``, ``telemetry``, ...).
    """
    if not 0 < lease_ttl_s < math.inf:
        raise ValueError("lease_ttl_s must be positive and finite")
    if lease_batch < 1:
        raise ValueError("lease_batch must be at least 1")
    if worker is None:
        worker = default_worker_id()
    if poll_s is None:
        # Sleep long enough not to hammer the store, short enough to
        # notice a peer's expired lease promptly.
        poll_s = max(0.05, min(2.0, lease_ttl_s / 4.0))

    grid: dict[str, RunSpec] = {}
    for spec in specs:
        grid.setdefault(spec.content_hash, spec)

    started = time.time()
    imported = (
        store.merge(cache_from, only_hashes=set(grid)) if cache_from else 0
    )
    completed_at_start = store.completed_hashes() & set(grid)

    leases = make_lease_store(store)
    failed_here: set[str] = set()
    rounds = 0
    with SweepRunner(
        store=store,
        resume=False,  # the campaign loop does its own completion check
        worker=worker,
        on_worker_heartbeat=(
            lambda spec_hash: leases.renew(spec_hash, worker, lease_ttl_s)
        ),
        **runner_kwargs,
    ) as runner:
        while True:
            completed = store.completed_hashes()
            pending = [
                h
                for h in grid
                if h not in completed and h not in failed_here
            ]
            if not pending:
                break
            claimed = leases.claim(pending, worker, lease_ttl_s, lease_batch)
            if not claimed:
                # Everything pending is leased by live peers: wait for
                # their results to land, or their leases to expire for
                # takeover.
                sleep(poll_s)
                continue
            # Re-check completion now that the leases are ours: a peer
            # may have finished and released one of these specs between
            # our pending snapshot and the claim.  Workers store a result
            # before releasing its lease, so anything released-by-
            # completion is visible here — this is what makes "each spec
            # executes exactly once" hold under concurrency, not just "the
            # digest converges".
            completed = store.completed_hashes()
            todo = [h for h in claimed if h not in completed]
            if not todo:
                leases.release(claimed, worker)
                continue
            rounds += 1
            try:
                runner.run([grid[h] for h in todo])
            finally:
                leases.release(claimed, worker)
            failed_here |= runner.failed_hashes()

    manifest_path = None
    if runner.telemetry_path is not None:
        # One manifest per worker (keyed by worker id), because N
        # concurrent workers sharing the store's default manifest
        # sidecar would silently overwrite each other's attempt
        # histories.
        from ..telemetry.manifest import write_manifest

        manifest_path = store.sidecar(f"manifest-{worker}.json")
        write_manifest(manifest_path, runner.build_manifest())

    completed_final = store.completed_hashes() & set(grid)
    newly_done = len(completed_final) - len(completed_at_start)
    return CampaignReport(
        worker=worker,
        total=len(grid),
        executed=runner.executed,
        cached=len(completed_at_start),
        imported=imported,
        done_elsewhere=max(0, newly_done - runner.executed),
        failed=len(failed_here - completed_final),
        rounds=rounds,
        elapsed_s=time.time() - started,
        manifest_path=str(manifest_path) if manifest_path is not None else None,
    )


def campaign_status(
    store: ResultStore, specs: Iterable[RunSpec] | None = None
) -> dict:
    """A point-in-time view of a campaign store for ``repro campaign
    status``: completion counts, the convergence digest, and live leases.
    """
    now = time.time()
    completed = store.completed_hashes()
    leases = make_lease_store(store)
    active = {
        h: {"owner": owner, "expires_in_s": round(expires - now, 3)}
        for h, (owner, expires) in sorted(leases.snapshot().items())
        if expires > now and h not in completed
    }
    status: dict = {
        "store": str(store.path),
        "backend": store.backend_kind,
        "completed": len(completed),
        "active_leases": active,
        "content_digest": store.content_digest() if completed else None,
    }
    if specs is not None:
        grid = {spec.content_hash for spec in specs}
        status["total"] = len(grid)
        status["pending"] = len(grid - completed)
    return status
