"""The two result-store backends behind one line-oriented protocol.

:class:`~repro.sweep.store.ResultStore` owns everything *semantic* about
a store — row checksums, torn-line tolerance, last-row-per-hash
resolution, the ``content_digest()`` convergence contract.  A backend
owns only the *bytes*: where lines live, how an append lands atomically,
and how an atomic canonical rewrite works.  Because both backends deal
in the same canonical JSON lines, the same logical content digests
identically whichever backend holds it — the equality the campaign
layer's N-worker convergence contract is stated in (DESIGN.md §17).

The path alone picks the backend (:func:`detect_backend_kind`):

* :class:`SqliteBackend` for ``.db``/``.sqlite``/``.sqlite3`` — one row
  per spec hash in a WAL-mode SQLite file, so many concurrent writers
  upsert safely; the same file also carries the campaign lease table
  (:mod:`repro.sweep.campaign`).
* :class:`JsonlBackend` for any other path — the single-file append-only
  JSONL archive format.

This module is deliberately a leaf: stdlib imports only, nothing from
the rest of the package, so :mod:`repro.telemetry` and
:mod:`repro.sweep.resilience` can borrow :func:`sidecar_path` without
import cycles.
"""

from __future__ import annotations

import os
import sqlite3
import time
from collections.abc import Iterator, Sequence
from pathlib import Path

SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")


def detect_backend_kind(path: str | Path) -> str:
    """The backend a store path denotes: ``"sqlite"`` or ``"jsonl"``.

    ``.db``/``.sqlite``/``.sqlite3`` is SQLite; any other path is one
    JSONL file.  An existing directory is no store and raises
    :class:`ValueError`, whose message names the ``cat`` that turns a
    directory store of earlier versions into one JSONL file: its lines
    are ordinary store lines, so the content digest survives the move.
    """
    path = Path(path)
    if path.is_dir():
        raise ValueError(
            f"{path} is a directory; a result store is one JSONL file, or "
            "SQLite for .db/.sqlite/.sqlite3 (convert a directory store "
            f"with: cat {path}/shard-*.jsonl > {path}.jsonl)"
        )
    if path.suffix in SQLITE_SUFFIXES:
        return "sqlite"
    return "jsonl"


def make_backend(path: str | Path) -> ResultStoreBackend:
    """The backend for a store path (see :func:`detect_backend_kind`)."""
    if detect_backend_kind(path) == "sqlite":
        return SqliteBackend(path)
    return JsonlBackend(path)


def sidecar_path(store_path: str | Path, name: str) -> Path:
    """Where a store's sidecar file (quarantine, manifest, leases) lives.

    ``sweep.jsonl`` keeps the legacy suffix-swap derivation
    (``sweep.quarantine.jsonl``); any other path — ``campaign.db``
    included — gets the name appended whole, so a ``.db`` store never
    loses its suffix to a ``.jsonl`` string-replacement.
    """
    path = Path(store_path)
    if path.suffix == ".jsonl":
        return path.with_suffix("." + name)
    return path.with_name(path.name + "." + name)


def _append_bytes(path: Path, data: bytes) -> None:
    """One O_APPEND write(2): concurrent writers append whole lines."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


class ResultStoreBackend:
    """The line-currency protocol every store backend implements.

    Lines are complete canonical-JSON rows including the trailing
    newline; the facade owns their meaning.  ``iter_lines`` yields
    ``(location, line_number, line)`` so the facade can report problems
    as ``location:line``; ``signature`` is an opaque value that changes
    whenever the stored content may have changed (the facade's parse
    cache keys on it); ``rewrite`` atomically replaces the whole store
    with the given canonically-ordered lines.
    """

    kind: str
    path: Path

    def exists(self) -> bool:
        raise NotImplementedError

    def signature(self) -> tuple | None:
        raise NotImplementedError

    def iter_lines(self) -> Iterator[tuple[str, int, str]]:
        raise NotImplementedError

    def append_line(self, spec_hash: str, line: str) -> None:
        raise NotImplementedError

    def stale_order(self, hashes: Sequence[str]) -> bool:
        """Whether iteration order differs from this backend's canonical order."""
        raise NotImplementedError

    def rewrite(self, ordered: Sequence[tuple[str, str]]) -> None:
        """Atomically replace all content with (hash, line) pairs, sorted by hash."""
        raise NotImplementedError

    def integrity_problems(self) -> list[str]:
        """Backend-level corruption beyond what row checksums can see."""
        return []


class JsonlBackend(ResultStoreBackend):
    """The original single-file append-only JSONL store, unchanged on disk."""

    kind = "jsonl"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def signature(self) -> tuple | None:
        try:
            stat = self.path.stat()
        except FileNotFoundError:
            return None
        return (stat.st_mtime_ns, stat.st_size, stat.st_ino)

    def iter_lines(self) -> Iterator[tuple[str, int, str]]:
        if not self.path.exists():
            return
        with self.path.open() as handle:
            for line_number, line in enumerate(handle, start=1):
                yield str(self.path), line_number, line

    def append_line(self, spec_hash: str, line: str) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _append_bytes(self.path, line.encode())

    def stale_order(self, hashes: Sequence[str]) -> bool:
        return list(hashes) != sorted(hashes)

    def rewrite(self, ordered: Sequence[tuple[str, str]]) -> None:
        # Temp file + fsync + os.replace: a crash at any instant leaves
        # either the old file or the finished new one, never a torn store.
        tmp_path = self.path.with_suffix(".tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with tmp_path.open("w") as handle:
            for _spec_hash, line in ordered:
                handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)


_BUSY_TIMEOUT_S = 30.0
"""How long a SQLite store waits for another process's lock."""


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch the store to WAL mode, waiting out concurrent openers.

    Changing the journal mode of a fresh file takes a lock that SQLite
    does not wait for through the busy timeout: when several processes
    open one new store at once, the losers fail within milliseconds with
    "database is locked".  Retry until the busy timeout has passed.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT_S
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                raise
        time.sleep(0.005)


class SqliteBackend(ResultStoreBackend):
    """One row per spec hash in a WAL-mode SQLite file.

    Writes are upserts, so "last row per hash wins" is enforced at write
    time and compaction never has duplicates to drop.  WAL mode plus a
    generous busy timeout makes concurrent writers from independent
    processes safe — the property campaign lease mode leans on.  The
    same file carries the ``leases`` table
    (:class:`repro.sweep.campaign.SqliteLeases`).
    """

    kind = "sqlite"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None

    def connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                self.path,
                isolation_level=None,  # autocommit; explicit BEGIN when needed
                timeout=_BUSY_TIMEOUT_S,
                check_same_thread=False,
            )
            try:
                _enable_wal(conn)
            except BaseException:
                conn.close()
                raise
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                "spec_hash TEXT PRIMARY KEY, line TEXT NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS leases ("
                "spec_hash TEXT PRIMARY KEY, owner TEXT NOT NULL, "
                "expires_at REAL NOT NULL)"
            )
            self._conn = conn
        return self._conn

    def exists(self) -> bool:
        return self.path.exists()

    def signature(self) -> tuple | None:
        if not self.path.exists():
            return None
        conn = self.connection()
        # data_version moves when *another* connection commits;
        # total_changes counts this connection's own writes.
        (data_version,) = conn.execute("PRAGMA data_version").fetchone()
        return (data_version, conn.total_changes)

    def iter_lines(self) -> Iterator[tuple[str, int, str]]:
        if not self.path.exists():
            return
        rows = self.connection().execute(
            "SELECT spec_hash, line FROM results ORDER BY spec_hash"
        )
        for line_number, (spec_hash, line) in enumerate(rows, start=1):
            yield f"{self.path}[{spec_hash[:12]}]", line_number, line

    def append_line(self, spec_hash: str, line: str) -> None:
        self.connection().execute(
            "INSERT INTO results (spec_hash, line) VALUES (?, ?) "
            "ON CONFLICT(spec_hash) DO UPDATE SET line = excluded.line",
            (spec_hash, line),
        )

    def stale_order(self, hashes: Sequence[str]) -> bool:
        return False  # SELECT ... ORDER BY spec_hash is always canonical

    def rewrite(self, ordered: Sequence[tuple[str, str]]) -> None:
        conn = self.connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.execute("DELETE FROM results")
            for spec_hash, line in ordered:
                conn.execute(
                    "INSERT INTO results (spec_hash, line) VALUES (?, ?)",
                    (spec_hash, line),
                )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def integrity_problems(self) -> list[str]:
        if not self.path.exists():
            return []
        try:
            verdicts = [
                row[0]
                for row in self.connection().execute("PRAGMA quick_check")
            ]
        except sqlite3.DatabaseError as exc:
            return [f"{self.path}: not a readable SQLite database ({exc})"]
        return [
            f"{self.path}: {verdict}" for verdict in verdicts if verdict != "ok"
        ]

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
