"""Pluggable result-store backends behind one line-oriented protocol.

:class:`~repro.sweep.store.ResultStore` owns everything *semantic* about
a store — row checksums, torn-line tolerance, last-row-per-hash
resolution, the ``content_digest()`` convergence contract.  A backend
owns only the *bytes*: where lines live, how an append lands atomically,
and how an atomic canonical rewrite works.  Because every backend deals
in the same canonical JSON lines, the same logical content digests
identically whichever backend holds it — the equality the campaign
layer's N-worker convergence contract is stated in (DESIGN.md §17).

Three backends:

* :class:`JsonlBackend` — the original single-file append-only JSONL,
  byte-for-byte the pre-refactor on-disk format.
* :class:`ShardedJsonlBackend` — a directory of ``shard-NN.jsonl`` files
  keyed by spec-hash prefix plus a ``shards.json`` meta file carrying
  per-shard sizes and SHA-256 digests recorded at compact time.  Appends
  stay single O_APPEND writes to one shard; compaction rewrites each
  shard atomically.
* :class:`SqliteBackend` — one row per spec hash in a WAL-mode SQLite
  file, so many concurrent writers upsert safely; the same file also
  carries the campaign lease table (:mod:`repro.sweep.campaign`).

This module is deliberately a leaf: stdlib imports only, nothing from
the rest of the package, so :mod:`repro.telemetry` and
:mod:`repro.sweep.resilience` can borrow :func:`sidecar_path` without
import cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from collections.abc import Iterator, Sequence
from pathlib import Path

BACKENDS = ("jsonl", "sharded", "sqlite")

SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")

SHARD_META_NAME = "shards.json"

DEFAULT_NUM_SHARDS = 16

SHARD_PREFIX_HEX = 8
"""Hash prefix length (hex chars) that picks a shard."""


def detect_backend_kind(path: str | Path) -> str:
    """The backend a path denotes, judged by suffix and what's on disk.

    ``.db``/``.sqlite``/``.sqlite3`` is SQLite; an existing directory is
    a sharded store; everything else is single-file JSONL (the default
    and the legacy format).  A *new* sharded store must be requested
    explicitly — an unknown non-existent path never silently becomes a
    directory.
    """
    path = Path(path)
    if path.suffix in SQLITE_SUFFIXES:
        return "sqlite"
    if path.is_dir() or (path / SHARD_META_NAME).exists():
        return "sharded"
    return "jsonl"


def make_backend(
    path: str | Path, kind: str | None = None, shards: int | None = None
):
    """Construct the backend for ``path`` (auto-detected unless pinned)."""
    if kind is None:
        kind = detect_backend_kind(path)
    if kind == "jsonl":
        return JsonlBackend(path)
    if kind == "sharded":
        return ShardedJsonlBackend(path, num_shards=shards)
    if kind == "sqlite":
        return SqliteBackend(path)
    raise ValueError(f"unknown store backend {kind!r}; choose from {BACKENDS}")


def sidecar_path(
    store_path: str | Path, name: str, kind: str | None = None
) -> Path:
    """Where a store's sidecar file (quarantine, manifest, leases) lives.

    ``sweep.jsonl`` keeps the legacy suffix-swap derivation
    (``sweep.quarantine.jsonl``); a sharded directory holds its sidecars
    *inside* the directory (the shard reader only globs
    ``shard-*.jsonl``, so they can never be mistaken for data); any
    other path — ``campaign.db`` included — gets the name appended
    whole, so a ``.db`` store no longer loses its suffix to the old
    ``.jsonl`` string-replacement.
    """
    path = Path(store_path)
    if kind == "sharded" or (kind is None and detect_backend_kind(path) == "sharded"):
        return path / name
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


class ShardedJsonlBackend(ResultStoreBackend):
    """A directory of hash-sharded JSONL files with per-shard checksums.

    ``shard-NN.jsonl`` holds every row whose spec-hash prefix maps to
    shard ``NN``; ``shards.json`` pins the shard count (the on-disk value
    always wins, so readers and writers can never disagree) and records
    each shard's byte size and SHA-256 at the last compact.  Appends
    after a compact only grow a shard, so verification hashes the
    recorded prefix: a shard that shrank was truncated, a recorded
    prefix that hashes differently was corrupted in place.
    """

    kind = "sharded"

    def __init__(
        self, path: str | Path, num_shards: int | None = None
    ) -> None:
        self.path = Path(path)
        meta = self._read_meta()
        if meta is not None:
            on_disk = int(meta["num_shards"])
            if num_shards is not None and num_shards != on_disk:
                raise ValueError(
                    f"store {self.path} is sharded {on_disk} ways; "
                    f"cannot reopen with shards={num_shards}"
                )
            self.num_shards = on_disk
        else:
            if num_shards is not None and num_shards < 1:
                raise ValueError("shards must be at least 1")
            self.num_shards = (
                num_shards if num_shards is not None else DEFAULT_NUM_SHARDS
            )

    # -- layout ---------------------------------------------------------

    @property
    def meta_path(self) -> Path:
        return self.path / SHARD_META_NAME

    def shard_index(self, spec_hash: str) -> int:
        return int(spec_hash[:SHARD_PREFIX_HEX], 16) % self.num_shards

    def shard_path(self, index: int) -> Path:
        return self.path / f"shard-{index:02d}.jsonl"

    def _read_meta(self) -> dict | None:
        try:
            return json.loads((Path(self.path) / SHARD_META_NAME).read_text())
        except (FileNotFoundError, NotADirectoryError):
            return None
        except json.JSONDecodeError:
            return None

    def _write_meta(self, shard_records: dict | None = None) -> None:
        meta = {
            "backend": self.kind,
            "num_shards": self.num_shards,
            "shards": shard_records if shard_records is not None else {},
        }
        existing = self._read_meta()
        if shard_records is None and existing is not None:
            # Plain appends must not wipe the recorded compact digests.
            return
        self.path.mkdir(parents=True, exist_ok=True)
        tmp = self.meta_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.meta_path)

    # -- protocol -------------------------------------------------------

    def exists(self) -> bool:
        if self.meta_path.exists():
            return True
        return any(
            self.shard_path(i).exists() for i in range(self.num_shards)
        )

    def signature(self) -> tuple | None:
        if not self.exists():
            return None
        parts: list[tuple] = []
        for index in range(self.num_shards):
            try:
                stat = self.shard_path(index).stat()
            except FileNotFoundError:
                parts.append((index, None))
                continue
            parts.append((index, stat.st_mtime_ns, stat.st_size, stat.st_ino))
        return tuple(parts)

    def iter_lines(self) -> Iterator[tuple[str, int, str]]:
        for index in range(self.num_shards):
            shard = self.shard_path(index)
            if not shard.exists():
                continue
            with shard.open() as handle:
                for line_number, line in enumerate(handle, start=1):
                    yield str(shard), line_number, line

    def append_line(self, spec_hash: str, line: str) -> None:
        self.path.mkdir(parents=True, exist_ok=True)
        if not self.meta_path.exists():
            self._write_meta()
        _append_bytes(self.shard_path(self.shard_index(spec_hash)), line.encode())

    def stale_order(self, hashes: Sequence[str]) -> bool:
        # Canonical iteration is shard-by-shard, sorted by hash within
        # each shard — i.e. ascending (shard index, hash).
        previous = (-1, "")
        for spec_hash in hashes:
            key = (self.shard_index(spec_hash), spec_hash)
            if key <= previous:
                return True
            previous = key
        return False

    def rewrite(self, ordered: Sequence[tuple[str, str]]) -> None:
        by_shard: dict[int, list[str]] = {
            index: [] for index in range(self.num_shards)
        }
        for spec_hash, line in ordered:
            by_shard[self.shard_index(spec_hash)].append(line)
        self.path.mkdir(parents=True, exist_ok=True)
        records: dict[str, dict] = {}
        # Each shard is individually atomic (tmp + fsync + replace); a
        # crash mid-compaction leaves a mix of old and new shards, every
        # one of them whole — rows are self-checksummed, so the store
        # stays readable and a re-compact finishes the job.
        for index in range(self.num_shards):
            shard = self.shard_path(index)
            content = "".join(by_shard[index])
            tmp = shard.with_suffix(".tmp")
            with tmp.open("w") as handle:
                handle.write(content)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, shard)
            data = content.encode()
            records[shard.name] = {
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        self._write_meta(records)

    def integrity_problems(self) -> list[str]:
        meta = self._read_meta()
        if meta is None or not meta.get("shards"):
            return []
        problems = []
        for name, record in sorted(meta["shards"].items()):
            shard = self.path / name
            recorded_bytes = record["bytes"]
            try:
                size = shard.stat().st_size
            except FileNotFoundError:
                if recorded_bytes:
                    problems.append(f"{shard}: shard missing since last compact")
                continue
            if size < recorded_bytes:
                problems.append(
                    f"{shard}: truncated since last compact "
                    f"({size} < {recorded_bytes} bytes)"
                )
                continue
            # Appends only grow a shard, so the compact-time prefix must
            # still hash to the recorded digest.
            with shard.open("rb") as handle:
                prefix = handle.read(recorded_bytes)
            if hashlib.sha256(prefix).hexdigest() != record["sha256"]:
                problems.append(
                    f"{shard}: shard checksum mismatch over the compacted "
                    "prefix (corrupted in place)"
                )
        return problems


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
