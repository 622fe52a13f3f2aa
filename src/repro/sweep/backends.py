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
import weakref
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


def make_backend(path: str | Path) -> JsonlBackend | SqliteBackend:
    """The backend for a store path (see :func:`detect_backend_kind`).

    Both deal in lines, complete canonical-JSON rows with their newline,
    whose meaning the facade owns.  ``iter_lines`` yields ``(location,
    line_number, line)``; ``read_new`` returns ``(restarted, [(replaces,
    line)])`` written since its last call, ``restarted`` when the lines
    start from the beginning (first call, or the store was replaced or
    rewritten), ``replaces`` the hash whose row a line took the place of
    where one row per hash is kept (None where lines only append);
    ``rewrite`` atomically replaces everything with canonically ordered
    ``(hash, line)`` pairs; ``stale_order`` says whether an iteration
    order is not canonical; ``integrity_problems`` lists corruption that
    row checksums cannot see.
    """
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
    """One O_APPEND write(2): concurrent writers append whole lines.

    A file that does not end in a newline (a crashed writer's torn
    append) gets one first, so the fragment stays one torn line and
    ``data`` reads whole.  A short write raises: the line did not land.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        written = os.write(fd, data)
        if written != len(data):
            raise OSError(
                f"short write to {path}: {written} of {len(data)} bytes"
            )
    finally:
        os.close(fd)


class LineTail:
    """The lines appended to one file since the previous read.

    The incremental read of a JSONL store and of the lease log.  A
    trailing fragment without its newline (a torn append, or one still
    landing) is returned last but not consumed: the next read returns it
    again, whole or not, so the lines read equal a full read's.  The file
    stays open between reads, which pins its inode: when the path names
    another inode (``os.replace`` by ``compact()``), or the file shrank
    or vanished, the read starts over at byte 0.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = None
        self._offset = 0

    def read(self) -> tuple[bool, list[str]]:
        """``(restarted, lines)``; restarted when the lines start at byte 0."""
        try:
            inode = os.stat(self.path).st_ino
            if self._handle is None or os.fstat(
                self._handle.fileno()
            ).st_ino != inode:
                self._reopen(self.path.open("rb"))
        except FileNotFoundError:
            self._reopen(None)
            return True, []
        if os.fstat(self._handle.fileno()).st_size < self._offset:
            self._offset = 0
        restarted = self._offset == 0
        self._handle.seek(self._offset)
        lines: list[str] = []
        for raw in self._handle:
            lines.append(raw.decode(errors="replace"))
            if raw.endswith(b"\n"):
                self._offset += len(raw)
        return restarted, lines

    def _reopen(self, handle) -> None:
        if self._handle is not None:
            self._handle.close()
        if handle is not None:
            weakref.finalize(self, handle.close)
        self._handle, self._offset = handle, 0


class JsonlBackend:
    """The original single-file append-only JSONL store, unchanged on disk."""

    kind = "jsonl"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._tail = LineTail(self.path)

    def exists(self) -> bool:
        return self.path.exists()

    def iter_lines(self) -> Iterator[tuple[str, int, str]]:
        if not self.path.exists():
            return
        with self.path.open() as handle:
            for line_number, line in enumerate(handle, start=1):
                yield str(self.path), line_number, line

    def read_new(self) -> tuple[bool, list[tuple[str | None, str]]]:
        restarted, lines = self._tail.read()
        return restarted, [(None, line) for line in lines]

    def append_line(self, spec_hash: str, line: str) -> None:
        _append_bytes(self.path, line.encode())

    def stale_order(self, hashes: Sequence[str]) -> bool:
        return list(hashes) != sorted(hashes)

    def integrity_problems(self) -> list[str]:
        return []

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


class SqliteBackend:
    """One row per spec hash in a WAL-mode SQLite file.

    A write replaces the hash's row, so "last row per hash wins" is
    enforced at write time and compaction never has duplicates to drop;
    the rowid orders the writes, which is what the incremental read
    follows.  WAL mode plus a
    generous busy timeout makes concurrent writers from independent
    processes safe — the property campaign lease mode leans on.  The
    same file carries the ``leases`` table
    (:class:`repro.sweep.campaign.SqliteLeases`).
    """

    kind = "sqlite"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None
        # The incremental read: the last rowid read and the rewrite
        # generation it belongs to.
        self._cursor = 0
        self._generation: int | None = None

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
            # A sqlite3 connection sits in a reference cycle, so only the
            # cyclic GC would free one dropped with its store, page cache
            # and file handles included; close it with the backend.
            weakref.finalize(self, conn.close)
        return self._conn

    def exists(self) -> bool:
        return self.path.exists()

    def iter_lines(self) -> Iterator[tuple[str, int, str]]:
        if not self.path.exists():
            return
        rows = self.connection().execute(
            "SELECT spec_hash, line FROM results ORDER BY spec_hash"
        )
        for line_number, (spec_hash, line) in enumerate(rows, start=1):
            yield f"{self.path}[{spec_hash[:12]}]", line_number, line

    def read_new(self) -> tuple[bool, list[tuple[str | None, str]]]:
        # Every write takes a rowid above all existing ones (see
        # append_line), so the rows past the cursor are exactly what was
        # written since.  Only ``rewrite`` deletes rows and restarts the
        # rowids; it bumps user_version, and a new generation is read
        # from scratch.  One read transaction sees both at one instant.
        if not self.path.exists():
            self._cursor = 0
            return True, []
        conn = self.connection()
        conn.execute("BEGIN")
        try:
            (generation,) = conn.execute("PRAGMA user_version").fetchone()
            if generation != self._generation:
                self._generation, self._cursor = generation, 0
            rows = conn.execute(
                "SELECT rowid, spec_hash, line FROM results WHERE rowid > ? "
                "ORDER BY rowid",
                (self._cursor,),
            ).fetchall()
        finally:
            conn.execute("COMMIT")
        restarted = self._cursor == 0
        if rows:
            self._cursor = rows[-1][0]
        return restarted, [(spec_hash, line) for _, spec_hash, line in rows]

    def append_line(self, spec_hash: str, line: str) -> None:
        # REPLACE deletes the hash's old row and inserts a new one, whose
        # rowid is one larger than the largest in the table before the
        # insert: the rowid orders every write, re-puts included.
        self.connection().execute(
            "INSERT OR REPLACE INTO results (spec_hash, line) VALUES (?, ?)",
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
            # Rowids restart at 1: incremental readers must start over.
            (generation,) = conn.execute("PRAGMA user_version").fetchone()
            conn.execute(f"PRAGMA user_version = {generation + 1}")
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
