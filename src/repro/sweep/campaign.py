"""Fleet campaigns: N independent workers draining one spec grid.

Every ``repro sweep`` is one worker of :func:`run_campaign` on its store,
and it can be launched any number of times, on one host or many sharing
a filesystem: every launch converges on the same store state.  Each
worker *leases* a share of the pending specs, runs them through the
ordinary :class:`~repro.sweep.runner.SweepRunner`, and loops until
nothing in the grid is missing.  Three properties make this safe
without a coordinator (DESIGN.md §17):

* **Leases are advisory and expiring.**  A lease is a row ``(spec_hash,
  owner, expires_at)``; claiming skips specs whose lease is live and
  held by someone else, and takes no more than an even share of the
  rest among the live owners.  The runner's liveness callbacks renew every
  lease the worker holds, so a healthy worker never loses one, even
  for a spec still waiting its turn — and a crashed worker's leases
  simply expire, letting a peer take over.
* **Completion is idempotent.**  Results are keyed by spec content hash
  and ``content_digest()`` folds to the last row per hash, so the worst
  case of a lost lease race — two workers executing the same spec — is
  a redundant row, not a divergent store.
* **The store is the only ground truth.**  Workers re-read
  ``completed_hashes()`` before and after every claim; a spec finished
  by anyone, ever (including a prior campaign imported via
  ``cache_from``), is work no one repeats.  Both the store and the
  lease log are read incrementally, so a claim costs what changed
  since the last one.

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
from dataclasses import dataclass, field

from .backends import LineTail, SqliteBackend, _append_bytes, sidecar_path
from .resilience import SweepExecutionError
from .runner import SweepRunner
from .spec import RunSpec
from .store import ResultStore, StoreError

try:  # POSIX file locking for the sidecar lease log; absent on some
    import fcntl  # platforms, where lease claims degrade to best-effort.
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

DEFAULT_LEASE_TTL_S = 60.0

LEASES_NAME = "leases.jsonl"
LEASES_LOCK_NAME = "leases.lock"


def default_worker_id() -> str:
    """``host-pid``: unique per process, readable in manifests."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _share(
    hashes: Sequence[str], live: dict[str, str], owner: str, limit: int
) -> list[str]:
    """What one claim takes of ``hashes``, given the live leases ``{hash:
    owner}``: the first specs no peer holds, at most ``limit`` and at
    most an even split of them among ``owner`` and every live peer."""
    free = [h for h in hashes if live.get(h, owner) == owner]
    owners = len(set(live.values()) | {owner})
    return free[: min(limit, -(-len(free) // owners))]


class SqliteLeases:
    """Leases in the SQLite store itself — one transaction, no lock file."""

    def __init__(self, backend: SqliteBackend, clock=time.time) -> None:
        self.backend = backend
        self._clock = clock

    def claim(
        self, hashes: Sequence[str], owner: str, ttl_s: float, limit: int
    ) -> list[str]:
        conn = self.backend.connection()
        now = self._clock()
        # BEGIN IMMEDIATE takes the write lock up front, so two workers
        # claiming concurrently serialize and each sees the other's rows.
        conn.execute("BEGIN IMMEDIATE")
        try:
            live = conn.execute(
                "SELECT spec_hash, owner FROM leases WHERE expires_at > ?",
                (now,),
            )
            claimed = _share(hashes, dict(live), owner, limit)
            conn.executemany(
                "INSERT INTO leases (spec_hash, owner, expires_at) "
                "VALUES (?, ?, ?) ON CONFLICT(spec_hash) DO UPDATE SET "
                "owner = excluded.owner, expires_at = excluded.expires_at",
                [(spec_hash, owner, now + ttl_s) for spec_hash in claimed],
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return claimed

    def renew(self, hashes: Sequence[str], owner: str, ttl_s: float) -> None:
        expires = self._clock() + ttl_s
        self._each(
            "UPDATE leases SET expires_at = ? "
            "WHERE spec_hash = ? AND owner = ?",
            [(expires, spec_hash, owner) for spec_hash in hashes],
        )

    def release(self, hashes: Sequence[str], owner: str) -> None:
        self._each(
            "DELETE FROM leases WHERE spec_hash = ? AND owner = ?",
            [(spec_hash, owner) for spec_hash in hashes],
        )

    def _each(self, statement: str, rows: list[tuple]) -> None:
        """One statement per row, in one transaction."""
        conn = self.backend.connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(statement, rows)
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def snapshot(self) -> dict[str, tuple[str, float]]:
        rows = self.backend.connection().execute(
            "SELECT spec_hash, owner, expires_at FROM leases"
        )
        return {h: (owner, expires) for h, owner, expires in rows}


class FileLeases:
    """Leases as an append-only JSONL sidecar, serialized by ``flock``.

    The log folds last-row-per-hash (the result-store idiom), so claim,
    renew, and release are all single O_APPEND writes; a release is a
    row with ``expires_at`` 0.  Claims hold an exclusive ``flock`` on a
    lock file across the read-fold-append sequence so two workers cannot
    claim the same spec; where ``fcntl`` is unavailable the lock is a
    no-op and the content-hash idempotence of the store bounds the
    damage at redundant execution.  Each read folds only the lines
    appended since the previous one (:class:`~repro.sweep.backends.
    LineTail`).  A snapshot takes no lock and so writes nothing: the log
    only grows by whole-line appends, and a torn line is skipped.
    """

    def __init__(self, store_path, clock=time.time) -> None:
        self.path = sidecar_path(store_path, LEASES_NAME)
        self.lock_path = sidecar_path(store_path, LEASES_LOCK_NAME)
        self._clock = clock
        self._tail = LineTail(self.path)
        self._folded: dict[str, tuple[str, float]] = {}

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
        restarted, lines = self._tail.read()
        if restarted:
            self._folded = {}
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn line from a crashed writer
            self._folded[row["spec_hash"]] = (row["owner"], row["expires_at"])
        return self._folded

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
            _append_bytes(self.path, data.encode())

    def claim(
        self, hashes: Sequence[str], owner: str, ttl_s: float, limit: int
    ) -> list[str]:
        with self._locked():
            now = self._clock()
            live = {
                h: holder for h, (holder, expires) in self._table().items()
                if expires > now
            }
            claimed = _share(hashes, live, owner, limit)
            self._append((h, owner, now + ttl_s) for h in claimed)
            return claimed

    def renew(self, hashes: Sequence[str], owner: str, ttl_s: float) -> None:
        self._expire(hashes, owner, self._clock() + ttl_s)

    def release(self, hashes: Sequence[str], owner: str) -> None:
        self._expire(hashes, owner, 0.0)

    def _expire(self, hashes: Sequence[str], owner: str, at: float) -> None:
        """Move the expiry of the owner's leases among ``hashes``; one
        that lapsed and was taken over is not stolen back."""
        with self._locked():
            table = self._table()
            self._append(
                (h, owner, at)
                for h in hashes
                if table.get(h, ("", 0.0))[0] == owner
            )

    def snapshot(self) -> dict[str, tuple[str, float]]:
        return dict(self._table())


def make_lease_store(store: ResultStore) -> SqliteLeases | FileLeases:
    """The lease store matching a result store's backend.

    Both kinds take ``owner`` explicitly in ``claim``, ``renew`` and
    ``release``, so one lease store can be probed on behalf of any worker
    (the status command does exactly that).  ``claim`` is the only
    operation that must be atomic across workers; ``renew`` and
    ``release`` only ever touch rows the owner already holds, so a lost
    race there is harmless.
    """
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
    was tried.  ``rounds`` counts the claims that leased work here.
    ``runner`` is the closed runner that did the work: its per-spec
    outcomes and quarantine sidecar, for the caller's report.
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
    runner: SweepRunner | None = field(default=None, repr=False)


def _run_round(runner: SweepRunner, specs: list[RunSpec], more) -> None:
    """``runner.run(specs, more=more)``, where a spec failing under
    ``on_error="fail"`` raises :class:`SweepExecutionError` on the serial
    path too (where the runner re-raises the spec's own exception)."""
    try:
        runner.run(specs, more=more)
    except SweepExecutionError:
        raise
    except Exception as exc:
        if runner.on_error != "fail":
            raise
        error = f"{type(exc).__name__}: {exc}"
        for spec_hash, outcome in runner.outcomes.items():
            if not outcome.ok and outcome.error == error:
                raise SweepExecutionError(
                    runner.specs[spec_hash], outcome
                ) from exc
        raise


def run_campaign(
    specs: Iterable[RunSpec],
    store: ResultStore,
    *,
    worker: str | None = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    lease_batch: int | None = None,
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

    The runner asks for the next claim whenever a worker would idle, so
    no claim waits for the slowest spec of the one before.  A claim
    takes at most ``lease_batch`` specs (default ``4 * jobs``) and at
    most an even share of the unleased ones among the live lease owners,
    so a late or slow worker does not hoard the grid.  Every liveness
    signal of the runner renews the leases this worker holds, at most
    once per quarter TTL, queued specs included.  One runner session
    spans the whole call, so the progress line and the campaign events
    cover the whole grid, and every grid spec reaches the runner.
    """
    if not 0 < lease_ttl_s < math.inf:
        raise ValueError("lease_ttl_s must be positive and finite")
    if lease_batch is not None and lease_batch < 1:
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
    leases = make_lease_store(store)
    held: list[str] = []  # the leases this worker holds
    renewed_at = 0.0

    def keep_alive(_spec_hash: str) -> None:
        nonlocal renewed_at
        if held and time.monotonic() - renewed_at >= lease_ttl_s / 4:
            leases.renew(held, worker, lease_ttl_s)
            renewed_at = time.monotonic()

    runner = SweepRunner(
        store=store,
        resume=False,  # the loop serves complete specs from its own reads
        worker=worker,
        on_worker_heartbeat=keep_alive,
        **runner_kwargs,
    )
    limit = lease_batch or 4 * runner.jobs
    rewritten: set[str] = set()
    rounds = 0

    def claim(pending: list[str]) -> list[RunSpec] | None:
        """The specs to run of a claim on ``pending``; None when live
        peers hold every one."""
        nonlocal rounds, renewed_at
        claimed = leases.claim(pending, worker, lease_ttl_s, limit)
        if not claimed:
            return None
        if not held:
            renewed_at = time.monotonic()
        held.extend(claimed)
        # Re-check completion now that the leases are ours: a peer may
        # have finished and released one of these specs between our
        # pending snapshot and the claim.  Workers store a result before
        # releasing its lease, so anything released-by-completion is
        # visible here — this is what makes "each spec executes exactly
        # once" hold under concurrency, not just "the digest converges".
        completed = store.completed_hashes()
        todo = []
        for spec_hash in claimed:
            if spec_hash in completed:
                continue
            if spec_hash in rewritten:
                raise StoreError(
                    f"{store.path}: the row of spec {spec_hash[:12]} does "
                    "not read back after it was written twice"
                )
            # A spec this runner already holds lost its row: write it
            # again rather than run it again or serve it as cached.
            if runner.restore(grid[spec_hash]):
                rewritten.add(spec_hash)
            else:
                todo.append(grid[spec_hash])
        rounds += bool(todo)
        return todo

    def more() -> list[RunSpec]:
        """The next claim's specs for the runner, or none to end the round."""
        while True:
            completed = store.completed_hashes()
            # A lease goes back once its row reads back, never before:
            # the rows of the specs that just finished land after this.
            done = [h for h in held if h in completed]
            if done:
                leases.release(done, worker)
                held[:] = [h for h in held if h not in completed]
            pending = [
                h for h in grid
                if h not in completed and h not in runner.requested
            ]
            todo = claim(pending) if pending else None
            if todo != []:
                return todo or []

    cached: int | None = None
    failed_here: set[str] = set()
    with runner, runner.session(len(grid)):
        while True:
            stored = store.load()
            done = [
                spec for h, spec in grid.items()
                if h in stored and h not in runner.requested
            ]
            if done:
                runner.run(done, stored=stored)
            if cached is None:
                cached = len(done)
            pending = [
                h for h in grid if h not in stored and h not in failed_here
            ]
            if not pending:
                break
            try:
                todo = claim(pending)
                if todo is None:
                    # Everything pending is leased by live peers: wait
                    # for their results to land, or their leases to
                    # expire for takeover.
                    sleep(poll_s)
                elif todo:
                    _run_round(runner, todo, more)
            finally:
                leases.release(held, worker)
                held.clear()
            failed_here |= runner.failed_hashes()

    manifest_path = None
    if runner.telemetry_path is not None:
        from ..telemetry.manifest import default_manifest_path, write_manifest

        manifest_path = default_manifest_path(store.path, worker)
        write_manifest(manifest_path, runner.build_manifest())

    completed = store.completed_hashes() & set(grid)
    return CampaignReport(
        worker=worker,
        total=len(grid),
        executed=runner.executed,
        cached=cached,
        imported=imported,
        done_elsewhere=max(0, len(completed) - cached - runner.executed),
        failed=len(failed_here - completed),
        rounds=rounds,
        elapsed_s=time.time() - started,
        manifest_path=str(manifest_path) if manifest_path is not None else None,
        runner=runner,
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
