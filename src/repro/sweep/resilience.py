"""Fault-tolerant spec execution: retries, timeouts, crash-safe workers.

The machinery that lets a sweep over thousands of specs survive the
failures an unattended campaign actually hits (DESIGN.md §13):

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *deterministic* jitter derived from the spec hash, so two runs of the
  same poisoned grid produce the same retry schedule.
* :class:`SpecOutcome` — the per-spec verdict (``ok`` / ``failed`` /
  ``timed-out`` / ``crashed``) with per-attempt elapsed times and the last
  error + traceback, recorded for every spec a runner executes.
* :class:`WorkerPool` — a small process pool built directly on
  ``multiprocessing`` pipes instead of ``ProcessPoolExecutor``, because
  fault tolerance needs exactly what the executor hides: *which* worker
  runs *which* spec.  A hung worker is killed (per-spec ``timeout_s``) and
  only its spec is retried; a crashed worker (segfault, ``os._exit``, OOM
  kill) is detected through its process sentinel and respawned, and again
  only the in-flight spec is requeued.  Healthy workers never notice.
* :func:`run_with_retries` — the scheduling loop tying the above together
  for :class:`~repro.sweep.runner.SweepRunner`, over a pool its caller
  owns (the runner keeps one pool across its ``run()`` calls).
* :class:`QuarantineLog` — the append-only JSONL sidecar where specs that
  exhaust their retries land (full spec + outcome + traceback), so the
  rest of the grid completes and the poisoned points stay diagnosable and
  re-runnable.

Workers receive ``(spec dict, attempt)`` and reply with either
``("ok", summary dict, elapsed)`` or ``("error", type, message,
traceback, elapsed)`` — plain JSON-able payloads, so a protocol message
can never fail to unpickle.  Chaos faults (:mod:`repro.sweep.chaos`) are
injected inside the worker via the shared execution helper, which is how
the chaos tests crash, hang, and fail real workers on demand.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time
import traceback as traceback_module
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from multiprocessing import get_context
from multiprocessing.connection import wait as _wait_connections
from pathlib import Path

from .backends import _append_bytes, sidecar_path
from .spec import RunSpec

OK = "ok"
FAILED = "failed"
TIMED_OUT = "timed-out"
CRASHED = "crashed"

#: Pipe-message/pool-event tag for a worker liveness report — never a
#: terminal attempt status (DESIGN.md §14).
HEARTBEAT = "heartbeat"

STATUSES = (OK, FAILED, TIMED_OUT, CRASHED)

ON_ERROR_MODES = ("fail", "skip", "quarantine")

QUARANTINE_VERSION = 1


class SweepExecutionError(RuntimeError):
    """A spec exhausted its attempts under ``on_error="fail"``.

    Carries the spec and its :class:`SpecOutcome` so callers can report
    the failing point without parsing the message.
    """

    def __init__(self, spec: RunSpec, outcome: "SpecOutcome") -> None:
        self.spec = spec
        self.outcome = outcome
        detail = f": {outcome.error}" if outcome.error else ""
        super().__init__(
            f"spec {spec.short_hash} ({spec.label()}) {outcome.status} "
            f"after {outcome.attempts} attempt(s){detail}"
        )


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with exponential backoff and deterministic jitter.

    The delay after failed attempt *k* (1-based) is::

        min(max_backoff_s, backoff_base_s * backoff_factor**(k-1))
            * (1 + jitter_frac * u)

    where ``u`` in [0, 1) is derived from SHA-256 of ``"{spec_hash}:{k}"``
    — per-spec, per-attempt, and fully reproducible.  Jitter exists so a
    fleet retrying a correlated failure (say, a briefly unavailable shared
    resource) fans back in staggered rather than as a thundering herd;
    deriving it from the spec hash keeps the whole retry schedule a pure
    function of the grid.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    max_backoff_s: float = 30.0
    jitter_frac: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        for name in ("backoff_base_s", "max_backoff_s", "jitter_frac"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if not 1 <= self.backoff_factor < math.inf:
            raise ValueError("backoff_factor must be at least 1 and finite")

    def delay_s(self, attempt: int, spec_hash: str) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        base = min(
            self.max_backoff_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        digest = hashlib.sha256(f"{spec_hash}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (1.0 + self.jitter_frac * unit)


NO_RETRY = RetryPolicy(max_attempts=1)
"""The default: one attempt, no backoff — plain fail-fast execution."""


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


@dataclass
class Attempt:
    """One execution attempt of one spec."""

    status: str
    elapsed_s: float
    error: str | None = None
    traceback: str | None = None


@dataclass
class SpecOutcome:
    """The final verdict for one spec across all its attempts."""

    spec_hash: str
    status: str
    attempts: int
    elapsed_s: tuple[float, ...]
    attempt_statuses: tuple[str, ...]
    error: str | None = None
    traceback: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == OK

    @classmethod
    def from_attempts(
        cls, spec_hash: str, history: Sequence[Attempt]
    ) -> "SpecOutcome":
        last = history[-1]
        return cls(
            spec_hash=spec_hash,
            status=last.status,
            attempts=len(history),
            elapsed_s=tuple(a.elapsed_s for a in history),
            attempt_statuses=tuple(a.status for a in history),
            error=last.error,
            traceback=last.traceback,
        )

    def to_dict(self) -> dict:
        return {
            "spec_hash": self.spec_hash,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed_s": list(self.elapsed_s),
            "attempt_statuses": list(self.attempt_statuses),
            "error": self.error,
            "traceback": self.traceback,
        }


# ---------------------------------------------------------------------------
# the quarantine sidecar
# ---------------------------------------------------------------------------


class QuarantineLog:
    """Append-only JSONL sidecar for specs that exhausted their retries.

    Each row carries the full spec (so a quarantined point can be re-run
    or re-gridded without the original command line), the outcome, and
    the last error + traceback.  Appends go through the result store's
    appender, so a crashing sweep can at worst tear its own last line.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def put(self, spec: RunSpec, outcome: SpecOutcome) -> None:
        row = {
            "quarantine_version": QUARANTINE_VERSION,
            "spec": spec.to_dict(),
            **outcome.to_dict(),
        }
        line = json.dumps(row, sort_keys=True) + "\n"
        _append_bytes(self.path, line.encode())

    def rows(self) -> list[dict]:
        """All valid quarantine rows (torn lines skipped, like the store)."""
        if not self.path.exists():
            return []
        rows = []
        with self.path.open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(row, dict) and "spec_hash" in row:
                    rows.append(row)
        return rows

    def hashes(self) -> set[str]:
        return {row["spec_hash"] for row in self.rows()}


def default_quarantine_path(store_path: str | Path) -> Path:
    """The quarantine sidecar for a store, whatever its backend.

    ``sweep.jsonl -> sweep.quarantine.jsonl`` (the legacy derivation),
    but a SQLite store keeps its suffix (``camp.db ->
    camp.db.quarantine.jsonl``), which the old ``.jsonl`` suffix-swap
    silently mangled.
    """
    return sidecar_path(store_path, "quarantine.jsonl")


# ---------------------------------------------------------------------------
# the crash-safe worker pool
# ---------------------------------------------------------------------------


def _heartbeat_loop(conn, send_lock, current: list, interval_s: float) -> None:
    """Worker-side heartbeat timer: one liveness report per interval.

    Runs as one daemon thread for the worker's whole life and reports on
    whatever spec ``current`` holds as ``[(spec_hash, attempt,
    started)]``, if any.  Sends share the result pipe, serialized by
    ``send_lock``; the worker empties ``current`` under that lock before
    it sends a result, so a heartbeat can never follow its spec's result
    or interleave bytes with it.
    """
    from ..telemetry.heartbeat import heartbeat_payload

    while True:
        time.sleep(interval_s)
        with send_lock:
            if not current:
                continue
            spec_hash, attempt, started = current[0]
            payload = heartbeat_payload(
                spec_hash, attempt, time.perf_counter() - started
            )
            try:
                conn.send((HEARTBEAT, payload))
            except (BrokenPipeError, OSError):
                return


def _worker_main(conn, heartbeat_s: float | None = None) -> None:
    """One worker process: receive (spec dict, attempt), reply with results.

    SIGINT is ignored so a terminal Ctrl-C delivered to the process group
    interrupts only the parent, which then shuts workers down explicitly —
    workers must never die mid-protocol for a reason the parent can't see.

    With ``heartbeat_s`` set, a timer thread sends ``(HEARTBEAT,
    payload)`` reports over the same pipe while a spec executes; the
    spec is taken off the thread's hands before its result is sent, so a
    result is always the last message of its spec.  One thread serves
    every spec, so a short spec pays for no thread start.
    """
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Imported lazily: the runner imports this module at load time.
    from .runner import _timed_execute

    send_lock = threading.Lock()
    current: list = []
    if heartbeat_s is not None:
        threading.Thread(
            target=_heartbeat_loop,
            args=(conn, send_lock, current, heartbeat_s),
            daemon=True,
        ).start()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        spec_dict, attempt = message
        started = time.perf_counter()
        try:
            spec = RunSpec.from_dict(spec_dict)
            with send_lock:
                current.append((spec.content_hash, attempt, started))
            _, summary, elapsed = _timed_execute(spec, attempt=attempt)
            payload = (OK, summary.to_dict(), elapsed)
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            payload = (
                FAILED,
                f"{type(exc).__name__}: {exc}",
                traceback_module.format_exc(),
                time.perf_counter() - started,
            )
        try:
            with send_lock:
                current.clear()
                conn.send(payload)
        except (BrokenPipeError, OSError):
            return


@dataclass
class PoolEvent:
    """One event reported by :meth:`WorkerPool.wait`.

    Either a resolved execution attempt (``ok`` / ``failed`` /
    ``timed-out`` / ``crashed``) or a ``heartbeat`` liveness report from
    a still-busy worker (``heartbeat`` payload set, spec unresolved).
    """

    kind: str  # ok / failed / timed-out / crashed / heartbeat
    spec: RunSpec
    attempt: int
    elapsed_s: float
    summary_dict: dict | None = None
    error: str | None = None
    traceback: str | None = None
    heartbeat: dict | None = None


class _Worker:
    __slots__ = ("process", "conn", "spec", "attempt", "started", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.spec: RunSpec | None = None
        self.attempt = 0
        self.started = 0.0
        self.deadline: float | None = None


class WorkerPool:
    """A fixed-size pool of single-spec workers the parent can kill.

    Unlike ``ProcessPoolExecutor``, task-to-worker assignment is explicit,
    which is what makes per-spec timeouts (kill exactly the hung worker)
    and crash containment (requeue exactly the in-flight spec) possible.
    Dead workers — killed by us or by the OS — are replaced immediately,
    so the pool is always at full strength.
    """

    def __init__(
        self, workers: int, *, heartbeat_s: float | None = None
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if heartbeat_s is not None and heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        self._heartbeat_s = heartbeat_s
        self._ctx = get_context()
        self._owner_pid = os.getpid()
        self._workers = [self._spawn() for _ in range(workers)]
        self.respawned = 0
        """Workers replaced after a crash or timeout kill (observability)."""

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._heartbeat_s),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def grow(self, workers: int) -> None:
        """Start workers until the pool has at least ``workers``."""
        while len(self._workers) < workers:
            self._workers.append(self._spawn())

    # -- bookkeeping ----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has stopped every worker."""
        return not self._workers

    def idle_count(self) -> int:
        return sum(1 for w in self._workers if w.spec is None)

    def busy_count(self) -> int:
        return sum(1 for w in self._workers if w.spec is not None)

    def next_deadline(self) -> float | None:
        deadlines = [
            w.deadline
            for w in self._workers
            if w.spec is not None and w.deadline is not None
        ]
        return min(deadlines) if deadlines else None

    # -- task lifecycle -------------------------------------------------

    def assign(
        self, spec: RunSpec, attempt: int, timeout_s: float | None
    ) -> None:
        """Hand one spec to an idle worker (caller checks ``idle_count``)."""
        for worker in self._workers:
            if worker.spec is None:
                break
        else:
            raise RuntimeError("assign() called with no idle worker")
        worker.spec = spec
        worker.attempt = attempt
        worker.started = time.monotonic()
        worker.deadline = (
            worker.started + timeout_s if timeout_s is not None else None
        )
        worker.conn.send((spec.to_dict(), attempt))

    def wait(self, timeout: float | None) -> list[PoolEvent]:
        """Block until events arrive (or ``timeout``); resolve them all.

        An event is a completed attempt, a reported error, a detected
        worker crash, or an expired per-spec deadline.  Crashed and
        timed-out workers are respawned before this returns.
        """
        busy = [w for w in self._workers if w.spec is not None]
        if not busy:
            return []
        handles: dict[object, _Worker] = {}
        for worker in busy:
            handles[worker.conn] = worker
            # The process sentinel fires the instant the worker dies, even
            # when it never got to send anything (os._exit, SIGKILL, OOM).
            handles[worker.process.sentinel] = worker
        ready = _wait_connections(list(handles), timeout)
        events: list[PoolEvent] = []
        resolved: set[int] = set()
        for handle in ready:
            worker = handles[handle]
            if id(worker) in resolved:
                continue
            resolved.add(id(worker))
            events.extend(self._resolve(worker))
        now = time.monotonic()
        for worker in busy:
            if (
                id(worker) not in resolved
                and worker.deadline is not None
                and now >= worker.deadline
            ):
                events.append(self._expire(worker))
        return events

    def _resolve(self, worker: _Worker) -> list[PoolEvent]:
        """Turn one signalled worker into events (messages or a crash).

        Drains the pipe completely: heartbeats precede the spec's final
        result (the worker joins its heartbeat thread before sending it),
        so the drain yields zero or more heartbeat events optionally
        followed by one terminal event.  A worker whose pipe holds only
        heartbeats stays busy.
        """
        spec, attempt = worker.spec, worker.attempt
        elapsed = time.monotonic() - worker.started
        events: list[PoolEvent] = []
        while True:
            message = None
            try:
                # A worker that sent its result and *then* died still
                # counts as a completed attempt — drain the pipe before
                # checking the process.
                if worker.conn.poll(0):
                    message = worker.conn.recv()
            except (EOFError, OSError):
                message = None
            if message is None:
                break
            if message[0] == HEARTBEAT:
                events.append(
                    PoolEvent(
                        HEARTBEAT,
                        spec,
                        attempt,
                        time.monotonic() - worker.started,
                        heartbeat=message[1],
                    )
                )
                continue
            worker.spec = None
            worker.deadline = None
            if message[0] == OK:
                _, summary_dict, worker_elapsed = message
                events.append(
                    PoolEvent(
                        OK,
                        spec,
                        attempt,
                        worker_elapsed,
                        summary_dict=summary_dict,
                    )
                )
            else:
                _, error, tb, worker_elapsed = message
                events.append(
                    PoolEvent(
                        FAILED,
                        spec,
                        attempt,
                        worker_elapsed,
                        error=error,
                        traceback=tb,
                    )
                )
            return events
        if worker.process.is_alive():
            # Only heartbeats were pending; the spec is still running.
            return events
        # No final message and the worker is gone: it died mid-spec.
        exitcode = self._reap(worker)
        events.append(
            PoolEvent(
                CRASHED,
                spec,
                attempt,
                elapsed,
                error=f"worker crashed (exit code {exitcode})",
            )
        )
        return events

    def _expire(self, worker: _Worker) -> PoolEvent:
        """Kill a worker that blew its per-spec deadline."""
        spec, attempt = worker.spec, worker.attempt
        elapsed = time.monotonic() - worker.started
        timeout_s = (
            worker.deadline - worker.started
            if worker.deadline is not None
            else 0.0
        )
        self._reap(worker, kill=True)
        return PoolEvent(
            TIMED_OUT,
            spec,
            attempt,
            elapsed,
            error=f"timed out after {timeout_s:g}s (worker killed)",
        )

    def _reap(self, worker: _Worker, kill: bool = False) -> int | None:
        """Retire one worker (killing it first if asked) and respawn."""
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        worker.conn.close()
        exitcode = worker.process.exitcode
        self._workers[self._workers.index(worker)] = self._spawn()
        self.respawned += 1
        return exitcode

    def shutdown(self) -> None:
        """Stop every worker: polite to idle ones, kill to busy ones.

        A no-op outside the process that started the pool: a forked child
        holds a copy of this object, and dropping that copy must not stop
        its parent's workers.
        """
        if os.getpid() != self._owner_pid:
            return
        for worker in self._workers:
            if worker.spec is None:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            else:
                # Busy workers may be hung — never wait on them.
                worker.process.kill()
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.conn.close()
        self._workers = []


# ---------------------------------------------------------------------------
# the scheduling loop
# ---------------------------------------------------------------------------


def run_with_retries(
    specs: Sequence[RunSpec],
    *,
    pool: WorkerPool,
    policy: RetryPolicy,
    timeout_s: float | None,
    on_error: str,
    on_ok: Callable[[RunSpec, dict, SpecOutcome], None],
    on_exhausted: Callable[[RunSpec, SpecOutcome], None] | None = None,
    outcomes: dict[str, SpecOutcome] | None = None,
    on_heartbeat: Callable[[RunSpec, dict], None] | None = None,
    more: Callable[[], Sequence[RunSpec]] | None = None,
) -> dict[str, SpecOutcome]:
    """Run specs through the caller's :class:`WorkerPool` under a retry policy.

    ``on_ok(spec, summary_dict, outcome)`` fires as each spec completes;
    ``on_exhausted(spec, outcome)`` fires when a spec runs out of attempts
    under ``on_error`` "skip"/"quarantine".  Under ``on_error="fail"`` the
    first exhausted spec raises :class:`SweepExecutionError`; every
    outcome resolved so far — including the failing one — is recorded in
    ``outcomes``, which is returned.

    The pool outlives a normal return, idle and reusable.  Any exception
    leaving the loop shuts it down first (busy workers are killed), since
    the specs still in flight can no longer be accounted for.

    With a pool started with ``heartbeat_s``, workers report liveness
    every interval and ``on_heartbeat(spec, payload)`` fires per report;
    heartbeats never count as attempts.

    A freed worker is handed its next spec as soon as :meth:`WorkerPool
    .wait` returns, before the callbacks for what it just finished run,
    so the parent's bookkeeping overlaps with simulation.  When no spec
    is ready for a free worker, ``more()`` is asked for new specs, until
    it returns none.  Backoff between
    attempts is wall-clock but scheduling never busy-waits: the loop
    sleeps until the earliest of (next per-spec deadline, next retry
    eligibility, next worker message).
    """
    if on_error not in ON_ERROR_MODES:
        raise ValueError(
            f"unknown on_error mode {on_error!r}; choose from {ON_ERROR_MODES}"
        )
    outcomes = outcomes if outcomes is not None else {}
    if not specs:
        return outcomes
    histories: dict[str, list[Attempt]] = {
        spec.content_hash: [] for spec in specs
    }
    ready: deque[tuple[RunSpec, int]] = deque((spec, 1) for spec in specs)
    waiting: list[tuple[float, int, RunSpec, int]] = []  # (eligible_at, seq)
    sequence = itertools.count()
    unresolved = len(histories)

    def dispatch() -> None:
        """Promote retries whose backoff has elapsed; fill idle workers."""
        nonlocal more, unresolved
        now = time.monotonic()
        while waiting and waiting[0][0] <= now:
            _, _, spec, attempt = heappop(waiting)
            ready.append((spec, attempt))
        while more is not None and not ready and pool.idle_count():
            fresh = more()
            if not fresh:
                more = None
            for spec in fresh:
                histories[spec.content_hash] = []
                ready.append((spec, 1))
            unresolved += len(fresh)
        while ready and pool.idle_count():
            spec, attempt = ready.popleft()
            pool.assign(spec, attempt, timeout_s)

    try:
        dispatch()
        while unresolved:
            if not pool.busy_count():
                # Nothing running: everything unresolved is backing off.
                assert waiting, "scheduler stalled with unresolved specs"
                time.sleep(max(0.0, waiting[0][0] - time.monotonic()))
                dispatch()
                continue
            wakeups = [
                t
                for t in (
                    pool.next_deadline(),
                    waiting[0][0] if waiting else None,
                )
                if t is not None
            ]
            timeout = (
                max(0.0, min(wakeups) - time.monotonic()) if wakeups else None
            )
            callbacks: list[Callable[[], None]] = []
            failure: SweepExecutionError | None = None
            for event in pool.wait(timeout):
                if event.kind == HEARTBEAT:
                    if on_heartbeat is not None:
                        callbacks.append(
                            partial(on_heartbeat, event.spec, event.heartbeat)
                        )
                    continue
                spec_hash = event.spec.content_hash
                history = histories[spec_hash]
                history.append(
                    Attempt(
                        event.kind,
                        event.elapsed_s,
                        event.error,
                        event.traceback,
                    )
                )
                if event.kind == OK:
                    outcome = SpecOutcome.from_attempts(spec_hash, history)
                    outcomes[spec_hash] = outcome
                    unresolved -= 1
                    callbacks.append(
                        partial(on_ok, event.spec, event.summary_dict, outcome)
                    )
                elif event.attempt < policy.max_attempts:
                    delay = policy.delay_s(event.attempt, spec_hash)
                    heappush(
                        waiting,
                        (
                            time.monotonic() + delay,
                            next(sequence),
                            event.spec,
                            event.attempt + 1,
                        ),
                    )
                else:
                    outcome = SpecOutcome.from_attempts(spec_hash, history)
                    outcomes[spec_hash] = outcome
                    unresolved -= 1
                    if on_error == "fail":
                        failure = SweepExecutionError(event.spec, outcome)
                        break
                    if on_exhausted is not None:
                        callbacks.append(
                            partial(on_exhausted, event.spec, outcome)
                        )
            if failure is None:
                dispatch()
            for callback in callbacks:
                callback()
            if failure is not None:
                raise failure
    except BaseException:
        pool.shutdown()
        raise
    return outcomes
